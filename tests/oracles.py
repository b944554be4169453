"""Independent high-precision oracle for the test suite.

Every mean is re-implemented here from its defining formula with mpmath at
40 significant digits, never through the package under test.  The frozen
literals below were produced by this same oracle and are pinned so a
regression in the oracle itself would be caught too.
"""

import operator
from types import SimpleNamespace

from mpmath import mp, mpf, asin, exp, log, sqrt

from meanlab.expressions import fold

mp.dps = 40


def mp_means(a, b) -> dict:
    """All eight named means of (a, b), each straight from its definition."""
    a, b = mpf(a), mpf(b)
    A = (a + b) / 2
    G = sqrt(a * b)
    H = 2 * a * b / (a + b)
    if a == b:
        L = I = P = X = Y = a
    else:
        L = (a - b) / (log(a) - log(b))
        I = exp((a * log(a) - b * log(b)) / (a - b) - 1)
        P = (a - b) / (2 * asin((a - b) / (a + b)))
        X = A * exp(G / P - 1)
        Y = G * exp(L / A - 1)
    return {"A": A, "G": G, "H": H, "L": L, "I": I, "P": P, "X": X, "Y": Y}


def mp_power_mean(a, b, p):
    a, b, p = mpf(a), mpf(b), mpf(p)
    if p == 0:
        return sqrt(a * b)
    return ((a**p + b**p) / 2) ** (1 / p)


def mp_heronian(a, b, p):
    a, b, p = mpf(a), mpf(b), mpf(p)
    if p == 0:
        return sqrt(a * b)
    return ((a**p + (a * b) ** (p / 2) + b**p) / 3) ** (1 / p)


def _mp_mean(kind, a, b):
    if kind.tag == "Mp":
        return mp_power_mean(a, b, kind.exponent)
    if kind.tag == "Hp":
        return mp_heronian(a, b, kind.exponent)
    return mp_means(a, b)[kind.tag]


#: a/b from the diagonal to the top of the exponent range, with b = 1
FULL_RANGE = (1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.5, 3.0, 10.0, 1e3, 1e8, 1e12, 1e15, 1e16,
              1e20, 1e50, 1e100, 1e200, 1e300)

_MP_FUNCTIONS = {"exp": exp, "log": log, "sqrt": sqrt}
_MP_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def mp_eval(expr, a, b):
    """Value of a parsed expression at (a, b) at the working precision.

    Only the tree's shape and its fold come from the package: every leaf,
    operator and nested mean is computed here with mpmath through mp_means,
    mp_power_mean and mp_heronian, and no offset form is rewritten.
    """
    return fold(expr, SimpleNamespace(
        num=mpf,
        const=lambda name: mp.e if name == "e" else mp.pi,
        mean=lambda kind: _mp_mean(kind, a, b),
        call=lambda node, x: _MP_FUNCTIONS[node.fn](x),
        nested=lambda node, u, v: _mp_mean(node.kind, u, v),
        binop=lambda node, l, r: _MP_OPS[node.op](l, r),
    ))


# Frozen 32-digit reference values (floats hold the correctly rounded double).
L_4_1 = 2.1640425613334451110398870215028
I_4_1 = 2.3358888476520835768030235189633
P_4_1 = 2.3309983145372539613621499127236
X_4_1 = 2.1690563479258974090901332571549
Y_4_1 = 1.7485103643904120380041310257621
HERONIAN_HALF_4_1 = 2.1650312638042855880900147050287
IDENTRIC_E_1 = 1.7895723968418334510572867827855
PARAM_X_4_1 = 0.64350110879328438680280922871732
PARAM_Y_4_1 = 0.69314718055994530941723212145818  # log 2
LOG_MEAN_X_A_4_1 = 2.3306133636058498731132276625874  # L(X, A) at (4, 1)
CUSA_MARGIN_1 = 0.0052964504814833991478098808506932

BETA2 = 0.82342900131878662746139442357767  # log(pi/2)/log(2e/pi)
Q_EXPONENT = 0.40938389085035875025619309067675  # log2/(1+log2)
K_EXPONENT = 0.53802527875851270846142987867171  # (5 log2 + 2)/(6(log2 + 1))
# Best upper power-mean order for (P+X)/2: the maximum over a/b of the order p
# solving M_p(a, b) = (P+X)/2 (mp.findroot in p, golden-section search in
# log10(a/b)).  The order rises from 1/2 at a = b to this maximum at
# a/b ~ 10^5.676 ~ 4.74e5, then falls to its endpoint limit
# log 2/log(4 pi e/(2e + pi)) ~ 0.5016244 as b/a -> 0.
K_BEST = 0.50162760625929096
C_UPPER = 1.0071176510179665447107942444663  # 2e/(pi(e-1))
BETA1 = 0.9929326518994357602762750999834  # pi(e-1)/(2e)
PI_OVER_2E = 0.57786367489546085895504659165635
BETA_EM1_E = 0.63212055882855767840447622983854  # (e-1)/e
HERONIAN_UPPER = 0.64885811539714145417725041460012  # log3/(1+log2)
