"""Exact calculator and verifier for Whittaker-Shintani functions of p-adic
symplectic groups Sp(2n) x Sp(2m).

The package evaluates the closed Weyl-sum formula for the normalized
integrated values on the torus, reduces double-coset data to normal form,
builds every local factor product (b, d, d', Gamma, and c_s and gamma_s of
each simple reflection s), and machine-checks the defining identities: the
normalization constant, the gamma-factor consistency of Gamma under the
simple reflections (one exact equivariance check, with the rank-one factor
c_s = zeta(p)/zeta(p+1) at the pairing p with the simple root, a vector of
``weyl.simple_roots``), the W-invariance of the characters that the Weyl
sum S is made of, and the rank-one local L-function series identity.  All
symbolic computation is exact arithmetic over Q(v, x_1..x_n, y_1..y_m)
with v = q^(-1/2), x_i = q^(-chi_i), y_j = q^(-xi_j).
"""

__version__ = "0.1.0"
