"""Exact computation of Carlitz q-Bernoulli families and their identities.

Everything is exact: integer polynomials in q in polyq, rational
functions (quotients of them, in one normal form) in ratfunc, q-number
helpers in qcore, the beta families in carlitz, the S3-symmetry checkers
in identities, and truncated p-adic arithmetic with the finite-level
Volkenborn engine in padic.  The cli module exposes the qcarlitz command.
"""

from .carlitz import (BetaTable, bernoulli_classical, bernoulli_poly_classical,
                      beta_h, beta_hk, beta_number, beta_number_recurrence,
                      beta_poly, beta_poly_expansion)
from .identities import (ALL_PERMUTATIONS, IdentityParams, IdentityReport,
                         Permutation3, cross34_check, grid_params,
                         lemma2_coeff_check, sample_grid, thm1_check,
                         thm3_check, thm4_check)
from .padic import (IntegrandSpec, PadicInt, VolkenbornJob, padic_log,
                    verify_eq2_qexp, verify_eq3, volkenborn_approx,
                    volkenborn_scaled, witt_check)
from .polyq import Poly
from .qcore import power_sum_T, q_int, q_int_poly
from .ratfunc import RatFunc, rf_eval_rational

__version__ = "0.1.0"

__all__ = [
    "ALL_PERMUTATIONS", "BetaTable", "IdentityParams", "IdentityReport",
    "IntegrandSpec", "PadicInt", "Permutation3", "Poly", "RatFunc",
    "VolkenbornJob", "bernoulli_classical",
    "bernoulli_poly_classical", "beta_h", "beta_hk", "beta_number",
    "beta_number_recurrence", "beta_poly", "beta_poly_expansion",
    "cross34_check", "grid_params", "lemma2_coeff_check", "padic_log",
    "power_sum_T", "q_int", "q_int_poly", "rf_eval_rational", "sample_grid",
    "thm1_check", "thm3_check", "thm4_check", "verify_eq2_qexp",
    "verify_eq3", "volkenborn_approx", "volkenborn_scaled", "witt_check",
]
