"""Exact calculator and verifier for Whittaker-Shintani functions of p-adic
symplectic groups Sp(2n) x Sp(2m).

The package evaluates the closed Weyl-sum formula for the normalized
integrated values on the torus, reduces double-coset data to normal form,
builds every local factor product (b, d, d', Gamma, c_w, gamma), and
machine-checks the defining identities: the normalization constant, the
gamma-factor consistency of Gamma and of the unnormalized value Gamma S
under the simple reflections (one exact equivariance check, with c_w as the
rank-one factor), and the rank-one local L-function series identity.  All symbolic computation is exact arithmetic
over Q(v, x_1..x_n, y_1..y_m) with v = q^(-1/2), x_i = q^(-chi_i),
y_j = q^(-xi_j).
"""

from .ratfun import LinearForm, Poly, RatFun, Vars, zeta_of, zeta_inv_of
from .weyl import SignedPerm, enumerate_group
from .zetafactors import Context
from .wsformula import L_value, LValue, invariance_report, normalization_constant, ws_torus
from .charform import lhs_series, rhs_series, shintani_verify
from .cone import ConeTriple, WSPair, normal_form, ws_leq

__version__ = "0.1.0"

__all__ = [
    "Context",
    "ConeTriple",
    "L_value",
    "LValue",
    "LinearForm",
    "Poly",
    "RatFun",
    "SignedPerm",
    "Vars",
    "WSPair",
    "enumerate_group",
    "invariance_report",
    "lhs_series",
    "normal_form",
    "normalization_constant",
    "rhs_series",
    "shintani_verify",
    "ws_leq",
    "ws_torus",
    "zeta_inv_of",
    "zeta_of",
]
