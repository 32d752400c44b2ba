"""Set-family toolkit against definition-level oracles and brute search."""

import math
from itertools import combinations

import pytest

from mirrorlab.rng import SplitMix64
from mirrorlab.setfam import (EVEN_EVEN, EVEN_ODD, ODD_EVEN, ODD_ODD, MVFamily,
                              ModtownSpec, NotModtown, SetFamily, TooLarge,
                              TownKind, check_covering, check_modtown,
                              check_mv, check_town, covering_lower_bound,
                              enumerate_towns, eventown_pairing,
                              frankl_wilson_bound, mask_to_set, max_town_size,
                              modtown_to_mv)


def family(n, *sets):
    return SetFamily.from_sets(n, sets)


def oracle_check_town(sets, kind):
    """Definition-by-definition re-check on explicit frozensets."""
    fs = [frozenset(s) for s in sets]
    if any(len(s) % 2 != kind.set_parity.value for s in fs):
        return False
    return all(len(a & b) % 2 == kind.intersection_parity.value
               for i, a in enumerate(fs) for b in fs[i + 1:])


class TestFamilyInput:
    def test_from_json_dict_round_trip(self):
        d = {"n": 3, "sets": [[1, 2], [3]]}
        assert SetFamily.from_json_dict(d).to_json_dict() == d

    @pytest.mark.parametrize("doc,complaint", [
        ([[1, 2]], "JSON object"),
        ({"n": 3}, "JSON object"),
        ({"n": "3", "sets": [[1]]}, '"n" must be a JSON integer'),
        ({"n": True, "sets": [[1]]}, '"n" must be a JSON integer'),
        ({"n": 3, "sets": 5}, '"sets" must be a JSON list of lists'),
        ({"n": 3, "sets": [5]}, '"sets" must be a JSON list of lists'),
        ({"n": 3, "sets": [[1.0]]}, "not an integer"),
        ({"n": 3, "sets": [["1"]]}, "not an integer"),
        ({"n": 3, "sets": [[1, 1]]}, "element 1 repeated within a set"),
        ({"n": 3, "sets": [[4]]}, "outside 1..3"),
    ])
    def test_malformed_family_is_a_value_error(self, doc, complaint):
        with pytest.raises(ValueError, match=complaint):
            SetFamily.from_json_dict(doc)

    def test_repeated_element_is_not_folded(self):
        with pytest.raises(ValueError, match="repeated"):
            SetFamily.from_sets(3, [[2, 3, 2]])


class TestCheckTown:
    def test_examples(self):
        assert check_town(family(3, [1], [2], [3]), ODD_EVEN)
        assert check_town(family(3, [1, 2], [1, 3], [2, 3]), EVEN_ODD)
        assert not check_town(family(4, [1, 2], [3, 4]), EVEN_ODD)

    def test_empty_family_vacuous(self):
        for kind in (ODD_EVEN, EVEN_ODD, EVEN_EVEN, ODD_ODD):
            assert check_town(SetFamily(4, []), kind)

    def test_agrees_with_definition_oracle(self):
        # random families over a 5-element ground set
        rng = SplitMix64(2024)
        kinds = (ODD_EVEN, EVEN_ODD, EVEN_EVEN, ODD_ODD)
        for trial in range(10_000):
            size = rng.randbelow(4) + 1
            masks = set()
            while len(masks) < size:
                masks.add(rng.randbelow(32))
            fam = SetFamily(5, sorted(masks))
            sets = fam.sets()
            kind = kinds[trial % 4]
            assert check_town(fam, kind) == oracle_check_town(sets, kind)


class TestCheckModtown:
    def test_triangle_mod2(self):
        assert check_modtown(family(3, [1, 2], [1, 3], [2, 3]),
                             ModtownSpec(2, {1}))

    def test_single_set_vacuous_intersections(self):
        fam = family(3, [1, 2, 3])
        assert check_modtown(fam, ModtownSpec(3, {1}))   # 3 = 0 mod 3, not in {1}
        assert not check_modtown(fam, ModtownSpec(3, {0}))  # size lands in L

    def test_empty_family(self):
        assert check_modtown(SetFamily(4, []), ModtownSpec(5, {1, 2}))

    def test_mod2_matches_even_odd_town(self):
        rng = SplitMix64(7)
        spec = ModtownSpec(2, {1})
        for _ in range(2000):
            size = rng.randbelow(4) + 1
            masks = set()
            while len(masks) < size:
                masks.add(rng.randbelow(64))
            fam = SetFamily(6, sorted(masks))
            assert check_modtown(fam, spec) == check_town(fam, EVEN_ODD)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModtownSpec(1, {0})
        with pytest.raises(ValueError):
            ModtownSpec(3, {3})


class TestBounds:
    def test_frankl_wilson_examples(self):
        assert frankl_wilson_bound(4, 1) == 5
        assert frankl_wilson_bound(10, 0) == 1
        assert frankl_wilson_bound(6, 2) == 22

    def test_frankl_wilson_range(self):
        with pytest.raises(ValueError):
            frankl_wilson_bound(4, 5)

    def test_covering_lower_bound_examples(self):
        assert covering_lower_bound(10, 2, 2) == 8   # ceil(45/6)
        assert covering_lower_bound(4, 2, 1) == 2
        with pytest.raises(ValueError):
            covering_lower_bound(4, 3, 2)

    def test_covering_bound_exponential_growth_rate(self):
        # at r = n/5 the per-element exponent approaches log2(5) - 2
        target = math.log2(5) - 2
        for n in (50, 100, 200):
            r = n // 5
            bound = covering_lower_bound(n, 2, r)
            assert abs(math.log2(bound) / n - target) < 0.05


def brute_max_town(n, kind, include_empty=True):
    """Independent oracle: try every subset of eligible vertices."""
    sp, ip = kind.set_parity.value, kind.intersection_parity.value
    verts = [m for m in range(1 << n) if m.bit_count() % 2 == sp]
    if not include_empty and 0 in verts:
        verts.remove(0)
    best = 0
    for chosen in range(1 << len(verts)):
        members = [verts[i] for i in range(len(verts)) if chosen >> i & 1]
        ok = all((a & b).bit_count() % 2 == ip
                 for i, a in enumerate(members) for b in members[i + 1:])
        if ok:
            best = max(best, len(members))
    return best


class TestMaxTownSize:
    def test_examples(self):
        assert max_town_size(3, ODD_EVEN) == 3
        assert max_town_size(3, EVEN_ODD) == 3
        assert max_town_size(2, EVEN_EVEN) == 2  # empty set + {1,2}

    def test_against_brute_oracle_tiny(self):
        for n in (2, 3, 4):
            for kind in (ODD_EVEN, EVEN_ODD, EVEN_EVEN, ODD_ODD):
                for inc in (True, False):
                    assert (max_town_size(n, kind, include_empty=inc)
                            == brute_max_town(n, kind, inc)), (n, kind, inc)
        for kind in (ODD_EVEN, EVEN_ODD):
            assert max_town_size(5, kind) == brute_max_town(5, kind)

    def test_refuses_negative_n(self):
        for search in (max_town_size, enumerate_towns):
            with pytest.raises(ValueError, match="must be non-negative"):
                search(-1, ODD_EVEN)

    def test_refuses_large_n(self):
        with pytest.raises(TooLarge):
            max_town_size(9, ODD_EVEN)

    def test_oddtown_bound_achieved(self):
        for n in range(2, 7):
            assert max_town_size(n, ODD_EVEN) == n
            assert max_town_size(n, EVEN_ODD) <= n

    def test_even_odd_to_odd_even_embedding(self):
        # appending a fresh element to every member of an even-odd town
        # yields an odd-even town on the grown ground set
        for n in (2, 3, 4, 5):
            for fam in enumerate_towns(n, EVEN_ODD):
                lifted = SetFamily(n + 1, [m | (1 << n) for m in fam.masks])
                assert check_town(lifted, ODD_EVEN)


class TestEventown:
    def test_n4_construction(self):
        fam = eventown_pairing(4)
        assert sorted(fam.masks) == [0b0000, 0b0011, 0b1100, 0b1111]

    def test_sizes_and_validity(self):
        for n in (2, 4, 6, 8, 10):
            fam = eventown_pairing(n)
            assert len(fam) == 2 ** (n // 2)
            assert check_town(fam, EVEN_EVEN)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            eventown_pairing(5)


class TestCovering:
    def test_complete_collection(self):
        n, p, r = 6, 2, 1
        masks = [sum(1 << (v - 1) for v in c)
                 for c in combinations(range(1, n + 1), p * r)]
        assert check_covering(SetFamily(n, masks), p, r)
        assert len(masks) >= covering_lower_bound(n, p, r)

    def test_uncovered_subset(self):
        assert not check_covering(family(3, [1, 2]), 2, 1)

    def test_star_covers_singletons(self):
        assert check_covering(family(4, [1, 2], [1, 3], [1, 4]), 2, 1)

    def test_wrong_member_size(self):
        assert not check_covering(family(4, [1, 2, 3]), 2, 1)


class TestMV:
    def test_examples(self):
        good = MVFamily(2, 3, ((1, 1, 0), (0, 1, 1)), ((1, 1, 0), (0, 1, 1)))
        assert check_mv(good)
        dup = MVFamily(2, 3, ((1, 1, 0), (1, 1, 0)), ((1, 1, 0), (1, 1, 0)))
        assert not check_mv(dup)
        assert check_mv(MVFamily(2, 3, (), ()))

    def test_dimension_mismatch(self):
        bad = MVFamily(2, 3, ((1, 1),), ((1, 1, 0),))
        with pytest.raises(ValueError):
            check_mv(bad)

    def test_modtown_to_mv_triangle(self):
        mv = modtown_to_mv(family(3, [1, 2], [1, 3], [2, 3]), 2)
        assert len(mv) == 3
        assert mv.u == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert check_mv(mv)

    def test_modtown_to_mv_rejects_disjoint(self):
        with pytest.raises(NotModtown):
            modtown_to_mv(family(4, [1, 2], [3, 4]), 2)

    def test_single_set(self):
        mv = modtown_to_mv(family(2, [1, 2]), 2)
        assert len(mv) == 1 and check_mv(mv)


class TestSetFamilyType:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SetFamily(3, [1, 1])

    def test_out_of_ground_set(self):
        with pytest.raises(ValueError):
            SetFamily.from_sets(3, [[4]])

    def test_json_round_trip(self):
        fam = family(5, [1, 3], [2, 4, 5])
        again = SetFamily.from_json_dict(fam.to_json_dict())
        assert again.masks == fam.masks and again.n == 5

    def test_mask_to_set(self):
        assert mask_to_set(0b10110) == [2, 3, 5]

    def test_kind_parsing(self):
        assert TownKind.from_name("odd-even") == ODD_EVEN
        assert TownKind.from_name("even-odd") == EVEN_ODD
        with pytest.raises(ValueError):
            TownKind.from_name("odd")
