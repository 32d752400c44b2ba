"""Power-sum sketches and missing-element recovery, against brute oracles."""

import copy
import math
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab import _core
from mirrorlab._core import INT64_MAX, INT64_MIN, _pycore
from mirrorlab.rng import SplitMix64
from mirrorlab.streamrec import (InconsistentSketch, PowerSumSketch, PrimeField,
                                 elementary_from_power, full_power_sums,
                                 recover_missing, select_prime,
                                 sqrt_strategy_params)


def brute_power_sums(xs, k, q):
    return [sum(pow(x, i, q) for x in xs) % q for i in range(1, k + 1)]


def planted(roots, q):
    """e1..ek of the roots mod q: the scanned polynomial is prod (x - r)."""
    e = [1]
    for r in roots:
        e = [(a + r * b) % q for a, b in zip(e + [0], [0] + e)]
    return e[1:]


def brute_elementary(xs, k, q):
    return [sum(math.prod(c) for c in combinations(xs, i)) % q
            for i in range(1, k + 1)]


class TestSelectPrime:
    def test_examples(self):
        assert select_prime(5).q == 7
        assert select_prime(10).q == 11
        assert select_prime(2).q == 3

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            select_prime(1)

    @given(st.integers(2, 5000))
    @settings(max_examples=100)
    def test_prime_in_range(self, n):
        f = select_prime(n)
        assert n < f.q <= 2 * n
        assert all(f.q % d for d in range(2, int(f.q ** 0.5) + 1))

    def test_field_validates(self):
        with pytest.raises(ValueError, match="9 is not prime"):
            PrimeField(9, 5)
        with pytest.raises(ValueError, match=r"prime 23 outside \(5, 10\]"):
            PrimeField(23, 5)

    def test_field_is_a_value(self):
        f = PrimeField(11, 10)
        assert f == PrimeField(q=11, n=10) == select_prime(10)
        assert f != PrimeField(13, 10) and f != PrimeField(11, 6)
        assert f != (11, 10)  # not a tuple
        assert hash(f) == hash(PrimeField(11, 10))
        assert len({f, PrimeField(11, 10), PrimeField(13, 10)}) == 2
        assert repr(f) == "PrimeField(q=11, n=10)"
        assert copy.deepcopy(f) == f
        assert pickle.loads(pickle.dumps(f)) == f

    def test_field_is_immutable(self):
        f = PrimeField(11, 10)
        for attr in ("q", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(f, attr, 13)
        with pytest.raises(AttributeError):
            del f.q
        assert (f.q, f.n) == (11, 10)


class TestSketch:
    def test_ingest_examples(self):
        s = PowerSumSketch(PrimeField(11, 10), 2)
        s.ingest(3)
        assert s.sums == [3, 9]
        s.ingest(5)
        assert s.sums == [8, 1]  # 3+5=8; 9+25 = 34 = 1 mod 11
        assert s.count == 2

    def test_out_of_range(self):
        s = PowerSumSketch(PrimeField(11, 10), 2)
        with pytest.raises(ValueError):
            s.ingest(0)
        with pytest.raises(ValueError):
            s.ingest(11)

    def test_rejects_a_number_that_is_not_an_int(self):
        # the same error ingest_stream gives, and nothing summed
        s = PowerSumSketch(select_prime(10), 2)
        for x in (1.5, 2.0):
            with pytest.raises(ValueError):
                s.ingest(x)
            with pytest.raises(ValueError):
                PowerSumSketch(select_prime(10), 2).ingest_stream([x])
        assert s.sums == [0, 0] and s.count == 0

    @given(st.lists(st.integers(1, 50), max_size=40), st.integers(0, 8))
    @settings(max_examples=80)
    def test_matches_brute_oracle(self, xs, k):
        f = select_prime(50)
        s = PowerSumSketch(f, k)
        for x in xs:
            s.ingest(x)
        assert s.sums == brute_power_sums(xs, k, f.q)

    @given(st.lists(st.integers(1, 30), max_size=30), st.integers(0, 5),
           st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_order_invariance(self, xs, k, seed):
        f = select_prime(30)
        perm = list(xs)
        rng = SplitMix64(seed)
        for i in range(len(perm) - 1, 0, -1):
            j = rng.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        s1, s2 = PowerSumSketch(f, k), PowerSumSketch(f, k)
        s1.ingest_stream(xs)
        s2.ingest_stream(perm)
        assert s1.sums == s2.sums

    @given(st.lists(st.integers(1, 40), max_size=25),
           st.lists(st.integers(1, 40), max_size=25), st.integers(0, 6))
    @settings(max_examples=60)
    def test_linearity(self, xs, ys, k):
        f = select_prime(40)
        sa, sb, sab = (PowerSumSketch(f, k) for _ in range(3))
        sa.ingest_stream(xs)
        sb.ingest_stream(ys)
        sab.ingest_stream(xs + ys)
        merged = sa.merge(sb)
        assert merged.sums == sab.sums
        assert merged.count == sab.count

    def test_bulk_equals_single(self):
        f = select_prime(99)
        s1, s2 = PowerSumSketch(f, 7), PowerSumSketch(f, 7)
        xs = [5, 17, 42, 99, 1, 63]
        s1.ingest_stream(xs)
        for x in xs:
            s2.ingest(x)
        assert s1.sums == s2.sums and s1.count == s2.count

    def test_serialized_bits(self):
        f = select_prime(1000)  # q = 1009, 10-bit elements
        s = PowerSumSketch(f, 20)
        assert s.serialized_bits == 20 * (f.q - 1).bit_length() + (1000).bit_length()
        assert s.serialized_bits <= 20 * math.ceil(math.log2(f.q)) + math.ceil(math.log2(1001))


class TestNewton:
    def test_pair_example(self):
        # {3, 5} over GF(11): e1 = 8, e2 = 15 = 4
        assert elementary_from_power([8, 1], PrimeField(11, 10)) == [8, 4]

    def test_empty_multiset(self):
        assert elementary_from_power([0, 0, 0], PrimeField(11, 10)) == [0, 0, 0]

    def test_singleton(self):
        q = 11
        for x in range(1, 11):
            e = elementary_from_power([x % q, x * x % q], PrimeField(11, 10))
            assert e == [x % q, 0]

    def test_degenerate_modulus(self):
        with pytest.raises(ValueError):
            elementary_from_power([1, 2, 3], PrimeField(3, 2))

    @given(st.sets(st.integers(1, 60), max_size=10))
    @settings(max_examples=80)
    def test_matches_brute_elementary(self, xs):
        xs = sorted(xs)
        k = len(xs)
        f = select_prime(60)
        p = brute_power_sums(xs, k, f.q)
        assert elementary_from_power(p, f) == brute_elementary(xs, k, f.q)

    @pytest.mark.parametrize("n", [2, 10, 60, 173, 400, 10_000])
    def test_matches_the_quadratic_recursion(self, n):
        # any p1..pk, not only the power sums of a set: the textbook O(k^2)
        # recursion with one pow per inverse gives the same e, bit for bit
        f = select_prime(n)
        q = f.q
        rng = SplitMix64(n)
        for k in (0, 1, 2, 33, 64, 173):
            if k >= q:
                continue
            for _ in range(3):
                p = [rng.randbelow(q) for _ in range(k)]
                e = [1]
                for i in range(1, k + 1):
                    acc = sum((-1) ** (j - 1) * e[i - j] * p[j - 1]
                              for j in range(1, i + 1))
                    e.append(acc * pow(i, q - 2, q) % q)
                assert elementary_from_power(p, f) == e[1:], (q, k)


class TestRecoverMissing:
    def test_examples(self):
        f = select_prime(5)
        s = PowerSumSketch(f, 2)
        s.ingest_stream([1, 2, 4])
        assert recover_missing(s, 5, 2) == [3, 5]

        f = select_prime(3)
        s = PowerSumSketch(f, 0)
        s.ingest_stream([1, 2, 3])
        assert recover_missing(s, 3, 0) == []

        f = select_prime(10)
        s = PowerSumSketch(f, 1)
        s.ingest_stream([v for v in range(1, 11) if v != 7])
        assert recover_missing(s, 10, 1) == [7]

    @given(st.integers(2, 300), st.integers(0, 64), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_exactness_vs_set_difference(self, n, k, seed):
        k = min(k, n - 1)
        rng = SplitMix64(seed)
        missing = set()
        while len(missing) < k:
            missing.add(1 + rng.randbelow(n))
        stream = [v for v in range(1, n + 1) if v not in missing]
        for i in range(len(stream) - 1, 0, -1):
            j = rng.randbelow(i + 1)
            stream[i], stream[j] = stream[j], stream[i]
        sketch = PowerSumSketch(select_prime(n), k)
        sketch.ingest_stream(stream)
        assert recover_missing(sketch, n, k) == sorted(missing)

    def test_duplicate_stream_detected(self):
        f = select_prime(6)
        s = PowerSumSketch(f, 2)
        s.ingest_stream([1, 2, 2, 3])  # duplicate breaks the preconditions
        with pytest.raises(InconsistentSketch):
            recover_missing(s, 6, 2)

    def test_spare_sum_catches_a_duplicate_for_an_absent_number(self):
        # with exactly k sums, 4 said twice in place of 2 and 6 passes as [4]
        xs = [1, 3, 4, 4, 5, 7, 8, 9, 10]
        f = select_prime(10)
        s = PowerSumSketch(f, 1)
        s.ingest_stream(xs)
        assert recover_missing(s, 10, 1) == [4]
        n = 200
        f = select_prime(n)
        for k in (1, 2, 3, 8):
            for seed in range(10):
                rng = SplitMix64(seed)
                absent = set()
                while len(absent) < k + 1:
                    absent.add(1 + rng.randbelow(n))
                xs = [v for v in range(1, n + 1) if v not in absent]
                spare = PowerSumSketch(f, k + 1)
                spare.ingest_stream(xs)
                assert recover_missing(spare, n, k + 1) == sorted(absent)
                spare.ingest(xs[rng.randbelow(len(xs))])
                with pytest.raises(InconsistentSketch):
                    recover_missing(spare, n, k)

    def test_count_must_be_n_minus_k(self):
        # one short: 2 and 6 absent pass for one absent 8 = 2 + 6 on p1 alone
        f = select_prime(10)
        short = PowerSumSketch(f, 1)
        short.ingest_stream([v for v in range(1, 11) if v not in (2, 6)])
        with pytest.raises(InconsistentSketch,
                           match="holds 8 numbers, not n - k = 9"):
            recover_missing(short, 10, 1)
        # one long: 3 and 7 absent, 5 said twice
        over = PowerSumSketch(f, 3)
        over.ingest_stream([v for v in range(1, 11) if v not in (3, 7)] + [5])
        with pytest.raises(InconsistentSketch,
                           match="holds 9 numbers, not n - k = 8"):
            recover_missing(over, 10, 2)

    def test_k_checked_before_the_sums_are_built(self):
        with pytest.raises(ValueError, match="k=3000000000"):
            PowerSumSketch(select_prime(10), 3_000_000_000)

    def test_too_few_sums(self):
        s = PowerSumSketch(select_prime(10), 2)
        with pytest.raises(ValueError):
            recover_missing(s, 10, 3)

    def test_foreign_n(self):
        s = PowerSumSketch(select_prime(10), 2)
        with pytest.raises(ValueError):
            recover_missing(s, 12, 2)

    def test_full_power_sums_cached_consistent(self):
        f = select_prime(100)
        direct = brute_power_sums(range(1, 101), 5, f.q)
        assert full_power_sums(100, 5, f) == direct

    def test_full_power_sums_served_as_prefixes(self, monkeypatch):
        # one cached tuple per (n, q), grown at least twofold when too short
        monkeypatch.setattr(_core, "_FULL_SUMS", {})
        asked = []
        core = _core._fast if _core.HAVE_FAST else _pycore
        compute = core.full_power_sums
        monkeypatch.setattr(core, "full_power_sums",
                            lambda n, k, q: asked.append(k) or compute(n, k, q))
        f = select_prime(97)
        for k in (3, 1, 5, 9, 4, 0):
            assert (full_power_sums(97, k, f)
                    == brute_power_sums(range(1, 98), k, f.q)), k
        assert asked == [3, 6, 12]
        for n in range(2, 100):
            full_power_sums(n, 1, select_prime(n))
        assert len(_core._FULL_SUMS) == _core._FULL_SUMS_PAIRS


class TestPurePythonFieldPaths:
    """The pure-Python core's deviation ingest and chirp-z root scan, against
    its column pass and Horner scan, on whichever core is loaded."""

    def test_chirp_scan_matches_horner(self):
        rng = random.Random(2)
        for n in range(2, 201):
            q = select_prime(n).q
            ks = [0, 1, 2, 7, 20]
            if n % 9 == 2:  # k >= q needs more than 2q chirp lanes
                ks += [q - 1, q, q + 2, 2 * q + 1]
            for k in ks:
                roots = [rng.randint(1, n) for _ in range(k)]
                for e in (planted(roots, q),
                          [rng.randrange(-q, 2 * q) for _ in range(k)]):
                    got = _pycore.poly_root_scan(e, n, q)
                    assert got == _pycore._horner_scan(e, n, q), (n, e)
                assert (_pycore.poly_root_scan(planted(roots, q), n, q)
                        == sorted(set(roots))), (n, roots)
        assert len(_pycore._CHIRPS) == _pycore._CHIRP_FIELDS

    def test_scan_after_a_shorter_and_a_longer_chirp(self):
        # the cached lanes grow for a higher degree and serve a lower one
        served = {}
        q, n = 10007, 10000
        for k in (3, 40, 5, 200, 1):
            roots = sorted(random.Random(k).sample(range(1, n + 1), k))
            assert _pycore.poly_root_scan(planted(roots, q), n, q) == roots
            served[k] = _pycore._CHIRPS[q][1]
        assert served[3] >= 3 and served[200] >= 200
        assert served[5] == served[40] and served[1] == served[200]

    @given(st.lists(st.integers(1, 40), max_size=90), st.integers(0, 40),
           st.integers(0, 9), st.sampled_from([1, 2, 12, 41, 43, 10007]))
    @settings(max_examples=150)
    def test_deviation_ingest_matches_column_pass(self, xs, extra, k, q):
        # a range from max(xs) up to 40 past it: repeats, absent numbers and
        # streams longer than their range, on either side of the 2x cut
        n = max(xs, default=1) + extra
        got = _pycore.power_sums(xs, k, q, 1, n)
        assert got == _pycore.power_sums(xs, k, q) == brute_power_sums(xs, k, q)

    @pytest.mark.parametrize("xs,n", [([], 1), ([], 5), ([1], 1), ([1, 1, 1], 1),
                                      ([3, 1, 2] * 4, 3), ([5, 5, 1], 5)],
                             ids=["empty-1", "empty-5", "one", "one-repeated",
                                  "thrice-over", "repeats"])
    def test_deviation_ingest_edge_streams(self, xs, n):
        for q in (1, 2, 7, 10007):
            for k in (0, 1, 4):
                assert (_pycore.power_sums(xs, k, q, 1, n)
                        == brute_power_sums(xs, k, q)), (q, k)

    def test_bools_are_ints_and_floats_are_not(self):
        for xs in ([True, 2, 3, True], [True] * 3 + [2] * 5):
            as_ints = [int(x) for x in xs]
            for lo, hi in ((1, 3), (INT64_MIN, INT64_MAX)):
                assert (_pycore.power_sums(xs, 3, 7, lo, hi)
                        == _pycore.power_sums(as_ints, 3, 7, lo, hi))
        for xs in ([1.0, 2, 3], [1, 2, 3, 3, 2.0], [1.5]):
            with pytest.raises(ValueError,
                               match=r"^stream element outside 1\.\.3$"):
                _pycore.power_sums(xs, 2, 7, 1, 3)
            with pytest.raises(ValueError, match="^stream elements must be "
                                                 "integers that fit"):
                _pycore.power_sums(xs, 2, 7)

    @pytest.mark.parametrize("k", [1, 32, 64])
    def test_recovery_at_the_benchmark_size(self, k):
        # n = 10^4 as perfbench recovers it, straight through the Python core
        n = 10_000
        field = select_prime(n)
        q = field.q
        rng = random.Random(k)
        missing = sorted(rng.sample(range(1, n + 1), k))
        gone = set(missing)
        xs = [v for v in range(1, n + 1) if v not in gone]
        rng.shuffle(xs)
        sums = _pycore.power_sums(xs, k, q, 1, n)
        assert sums == _pycore.power_sums(xs, k, q)
        full = _pycore.full_power_sums(n, k, q)
        e = elementary_from_power([(f - s) % q for f, s in zip(full, sums)],
                                  field)
        assert _pycore.poly_root_scan(e, n, q) == missing


class TestSqrtParams:
    def test_small_cases(self):
        r, k, f = sqrt_strategy_params(16)
        assert (r, k) == (4, 16)
        assert f.q == 17
        r, k, f = sqrt_strategy_params(400)
        assert (r, k) == (20, 173)
        assert f.q == 401

    def test_k_stays_below_q_everywhere(self):
        for n in range(16, 500, 2):
            r, k, f = sqrt_strategy_params(n)
            assert k < f.q, n
            assert k <= n
