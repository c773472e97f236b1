"""The package's public names: `from qcarlitz import *` binds each one."""

import qcarlitz


def test_star_import_binds_every_public_name():
    assert len(set(qcarlitz.__all__)) == len(qcarlitz.__all__)
    assert [name for name in qcarlitz.__all__ if not hasattr(qcarlitz, name)] == []
    namespace = {}
    exec("from qcarlitz import *", namespace)
    assert set(qcarlitz.__all__) <= set(namespace)
