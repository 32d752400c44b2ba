"""Small statistics kit: binomial confidence intervals and chi-square tails.

Kept dependency-free on purpose.  The incomplete beta uses the classic
continued-fraction evaluation, good to ~1e-12 over the ranges exercised
here; tests pin values against an independent reference.
"""

from __future__ import annotations

import math

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz).

    It needs O(sqrt(max(a, b))) terms where ``betainc_reg`` uses it, about
    0.6 sqrt(max(a, b)) near the mean for a, b up to 5e6; the cap allows
    five times that.
    """
    MAXIT, EPS, FPMIN = 300 + int(3 * math.sqrt(max(a, b))), 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _beta_ppf(p: float, a: float, b: float) -> float:
    """Inverse of I_x(a,b) by bisection; monotone, so this is robust.

    Stops at the first step that leaves (lo, hi) unchanged: every later step
    would repeat it, so the result equals that of all 200 steps.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if betainc_reg(a, b, mid) < p else (lo, mid)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def normal_interval(wins: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wald interval around the sample proportion."""
    p = wins / trials
    half = z * math.sqrt(p * (1.0 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def clopper_pearson(wins: int, trials: int,
                    alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial interval via beta quantiles."""
    if not 0 <= wins <= trials:
        raise ValueError("need 0 <= wins <= trials")
    lo = 0.0 if wins == 0 else _beta_ppf(alpha / 2, wins, trials - wins + 1)
    hi = 1.0 if wins == trials else _beta_ppf(1 - alpha / 2, wins + 1, trials - wins)
    return lo, hi


def binomial_ci(wins: int, trials: int) -> tuple[float, float, str]:
    """95% interval; normal approximation away from the boundary, exact
    Clopper-Pearson when either tail count drops below 10."""
    if wins < 10 or trials - wins < 10:
        lo, hi = clopper_pearson(wins, trials)
        return lo, hi, "clopper-pearson"
    lo, hi = normal_interval(wins, trials)
    return lo, hi, "normal"


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for even df:
    P(X > x) = exp(-x/2) * sum_{j<df/2} (x/2)^j / j!"""
    if df <= 0 or df % 2:
        raise ValueError("only positive even df supported")
    if x < 0:
        raise ValueError("x must be non-negative")
    half = x / 2.0
    term = 1.0
    total = 1.0
    for j in range(1, df // 2):
        term *= half / j
        total += term
    return math.exp(-half) * total


def chi2_stat(observed: list[int], expected: list[float]) -> float:
    if len(observed) != len(expected):
        raise ValueError("length mismatch")
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))
