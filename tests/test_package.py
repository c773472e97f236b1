"""The package's public names: `from qcarlitz import *` binds each one.
Importing the command line module loads neither dataclasses nor a process
pool."""

import subprocess
import sys
from pathlib import Path

import qcarlitz


def test_star_import_binds_every_public_name():
    assert len(set(qcarlitz.__all__)) == len(qcarlitz.__all__)
    assert [name for name in qcarlitz.__all__ if not hasattr(qcarlitz, name)] == []
    namespace = {}
    exec("from qcarlitz import *", namespace)
    assert set(qcarlitz.__all__) <= set(namespace)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_process_pool():
    # a fresh interpreter, since pytest itself imports dataclasses and
    # inspect; and the modules the import adds, since site loads different
    # ones on each host and Python version
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import qcarlitz.cli; print(*sorted(set(sys.modules) - before))")
    src = str(Path(qcarlitz.__file__).resolve().parents[1])
    added = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                           text=True, check=True, timeout=60).stdout.split()
    assert "qcarlitz.cli" in added
    assert [name for name in added if name in ("dataclasses", "inspect")
            or name == "concurrent.futures" or name.startswith("concurrent.futures.")] == []
