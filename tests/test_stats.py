"""Statistics kit pinned against independently computed reference values.

Reference numbers below were produced with scipy (betainc / beta.ppf /
chi2.sf) and frozen here so the runtime stays dependency-free.
"""

import math

import pytest

from mirrorlab.stats import (_beta_ppf, betainc_reg, binomial_ci, chi2_sf,
                             chi2_stat, clopper_pearson, normal_interval)


def beta_ppf_200_steps(p, a, b):
    """The bisection run for all 200 steps, without the early stop."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if betainc_reg(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIncompleteBeta:
    REFERENCE = [
        (2.0, 3.0, 0.4, 0.5247999999999999),
        (10.0, 1.0, 0.9, 0.34867844010000004),
        (0.5, 0.5, 0.25, 0.33333333333333337),
        (50.0, 120.0, 0.3, 0.5755567051636294),
        (1.0, 1.0, 0.7, 0.7),
    ]

    def test_reference_values(self):
        for a, b, x, ref in self.REFERENCE:
            assert betainc_reg(a, b, x) == pytest.approx(ref, abs=1e-12)

    def test_edges(self):
        assert betainc_reg(3, 4, 0.0) == 0.0
        assert betainc_reg(3, 4, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc_reg(1, 1, 1.5)


class TestClopperPearson:
    REFERENCE = [
        (3, 50, 0.01254858783533406, 0.16548194660377288),
        (120, 1000, 0.10050092374816785, 0.14176686379282544),
        (0, 30, 0.0, 0.11570330822202779),
        (30, 30, 0.8842966917779722, 1.0),
        (9, 10**6, 4.115381090751938e-06, 1.7084734387823754e-05),
    ]

    def test_reference_values(self):
        for w, t, lo_ref, hi_ref in self.REFERENCE:
            lo, hi = clopper_pearson(w, t)
            assert lo == pytest.approx(lo_ref, abs=1e-9)
            assert hi == pytest.approx(hi_ref, abs=1e-9)

    def test_zero_successes_closed_form(self):
        # with no successes the upper bound is 1 - (alpha/2)^(1/n)
        for t in (10, 100, 1000):
            _, hi = clopper_pearson(0, t)
            assert hi == pytest.approx(1 - 0.025 ** (1 / t), abs=1e-9)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 3)

    def test_early_stop_matches_all_200_steps(self):
        # both tails, where binomial_ci uses Clopper-Pearson, plus the middle
        pairs = {(w, t) for t in (1, 2, 10, 50, 100, 1000, 10**4, 10**6)
                 for w in (0, 1, 2, 9, t // 2, t - 9, t - 1, t)
                 if 0 <= w <= t and (t <= 10**4 or min(w, t - w) < 10)}
        for w, t in sorted(pairs):
            for p, a, b in ((0.025, w, t - w + 1), (0.975, w + 1, t - w)):
                if a > 0 and b > 0:
                    assert _beta_ppf(p, a, b) == beta_ppf_200_steps(p, a, b), \
                        (w, t, p)

    def test_mid_range_counts_at_a_million_trials(self):
        # the continued fraction needs ~0.6 sqrt(max(a, b)) terms here, more
        # than a fixed cap of 300
        w, t = 500_000, 10**6
        lo, hi = clopper_pearson(w, t)
        assert lo == pytest.approx(0.49902, abs=1e-5)
        assert hi == pytest.approx(0.50098, abs=1e-5)
        assert lo < 0.5 < hi
        assert betainc_reg(w, t - w + 1, lo) == pytest.approx(0.025, abs=1e-9)
        assert betainc_reg(w + 1, t - w, hi) == pytest.approx(0.975, abs=1e-9)


class TestIntervals:
    def test_normal_interval(self):
        lo, hi = normal_interval(500, 1000)
        half = 1.959963984540054 * math.sqrt(0.25 / 1000)
        assert (lo, hi) == (pytest.approx(0.5 - half), pytest.approx(0.5 + half))

    def test_method_switch(self):
        assert binomial_ci(500, 1000)[2] == "normal"
        assert binomial_ci(3, 1000)[2] == "clopper-pearson"
        assert binomial_ci(999, 1000)[2] == "clopper-pearson"

    def test_interval_contains_point(self):
        for w, t in [(1, 50), (25, 50), (49, 50)]:
            lo, hi, _ = binomial_ci(w, t)
            assert lo <= w / t <= hi


class TestChiSquare:
    def test_df2_closed_form(self):
        for x in (0.026, 1.0, 5.99):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-14)

    def test_reference_values(self):
        assert chi2_sf(9.49, 4) == pytest.approx(0.049953131223294894, abs=1e-12)
        assert chi2_sf(23.7, 14) == pytest.approx(0.04979084646415284, abs=1e-12)

    def test_rejects_odd_df(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 3)

    def test_stat(self):
        assert chi2_stat([10, 10, 10], [10.0, 10.0, 10.0]) == 0.0
        assert chi2_stat([12, 8], [10.0, 10.0]) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            chi2_stat([1], [1.0, 2.0])
