"""Strategy behavior: mirror plays, adversaries, matching-oracle players."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab.engine import GameConfig, Outcome, run_game, uint_bits
from mirrorlab.harness import enumerate_occurring, exhaust_games
from mirrorlab.rng import SplitMix64, derive_seed
from mirrorlab.strategies import (_ALICE_ONLY, _BOB_ONLY, STRATEGY_NAMES,
                                  AvoidSubset, BitmapStrategy, LargestUnsaid,
                                  MatchingOracle, MirrorBob, OddMirrorAlice,
                                  PreferSubset, RandLogAlice, RandSqrtAlice,
                                  SmallestUnsaid, TupleMirrorBob,
                                  UniformRandomUnsaid, make_players,
                                  make_strategy, parse_spec, sample_matching,
                                  spec_needs_matching)
from mirrorlab.streamrec import PowerSumSketch

from fixed_strategies import ConstantStrategy, ScriptedStrategy


class TestMatchingOracle:
    def test_two_element_matching_is_forced(self):
        for seed in range(50):
            assert sample_matching(2, seed).table[1] == 2

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            sample_matching(5, 0)

    @given(st.integers(1, 100), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_involution_no_fixed_points(self, half, seed):
        n = 2 * half
        m = sample_matching(n, seed)
        for x in range(1, n + 1):
            assert m.table[x] != x
            assert m.table[m.table[x]] == x

    def test_query_counter(self):
        m = sample_matching(4, 1)
        before = m.query_count
        m.query(1)
        m.query(2)
        assert m.query_count == before + 2

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            MatchingOracle(4, [0, 1, 2, 3, 4])  # fixed points
        with pytest.raises(ValueError):
            MatchingOracle(4, [0, 2, 1, 4, 4])  # not an involution


class TestMirrorFamilies:
    def test_mirror_replies(self):
        s = MirrorBob(10)
        s.reset(None)
        s.observe((3,), 1)
        assert s.emit(2) == (8,)
        s2 = MirrorBob(2)
        s2.reset(None)
        s2.observe((1,), 1)
        assert s2.emit(2) == (2,)

    def test_mirror_needs_even(self):
        with pytest.raises(ValueError):
            MirrorBob(7)

    def test_mirror_never_loses_exhaustively(self):
        for n in (2, 4, 6):
            games, losses = exhaust_games(MirrorBob(n), "B", GameConfig(n))
            assert losses == 0 and games > 0

    def test_odd_mirror_traces(self):
        for bob_first, rest in [((1,), (2,)), ((2,), (1,))]:
            t = run_game_pair(OddMirrorAlice(3), ScriptedStrategy([bob_first]),
                              GameConfig(3))
            assert t.outcome is Outcome.BOTH_WIN
            assert t.moves[0].numbers == (3,)

    def test_odd_mirror_single_element(self):
        t = run_game_pair(OddMirrorAlice(1), ConstantStrategy([1]), GameConfig(1))
        assert t.outcome is Outcome.BOTH_WIN

    def test_odd_mirror_needs_odd(self):
        with pytest.raises(ValueError):
            OddMirrorAlice(4)

    def test_odd_mirror_never_loses_exhaustively(self):
        for n in (1, 3, 5, 7):
            games, losses = exhaust_games(OddMirrorAlice(n), "A", GameConfig(n))
            assert losses == 0 and games > 0

    def test_tuple_mirror_replies(self):
        s = TupleMirrorBob(6, 2)
        s.reset(None)
        s.observe((2,), 1)
        assert s.emit(2) == (1, 3)
        s.observe((5,), 3)
        assert s.emit(4) == (4, 6)

    def test_tuple_mirror_divisibility(self):
        with pytest.raises(ValueError):
            TupleMirrorBob(7, 2)

    def test_tuple_mirror_never_loses_exhaustively(self):
        for n, b in [(3, 2), (6, 2), (4, 3), (8, 3)]:
            games, losses = exhaust_games(TupleMirrorBob(n, b), "B",
                                          GameConfig(n, 1, b))
            assert losses == 0 and games > 0


class TestBitmapAdversaries:
    def test_smallest_unsaid(self):
        s = SmallestUnsaid(4, 1)
        s.reset(None)
        s.observe((1,), 1)
        s.observe((3,), 2)
        assert s.emit(3) == (2,)

    def test_smallest_unsaid_pair_quota(self):
        s = SmallestUnsaid(4, 2)
        s.reset(None)
        assert s.emit(1) == (1, 2)

    def test_smallest_unsaid_forced_repeat(self):
        s = SmallestUnsaid(4, 1)
        s.reset(None)
        for v in (1, 2, 3, 4):
            s.observe((v,), 1)
        assert s.emit(2) == (1,)

    def test_naive_vs_mirror_trace(self):
        t = run_game_pair(SmallestUnsaid(4, 1, name="naive"), MirrorBob(4),
                          GameConfig(4))
        assert [m.numbers[0] for m in t.moves] == [1, 4, 2, 3]
        assert t.outcome is Outcome.BOTH_WIN

    def test_naive_state_bits(self):
        s = SmallestUnsaid(8, 1, name="naive")
        s.reset(None)
        assert s.state_bits() == 12
        assert s.budget_bits == 8 + 4

    def test_largest_unsaid(self):
        s = LargestUnsaid(5, 1)
        s.reset(None)
        s.observe((5,), 1)
        assert s.emit(2) == (4,)

    def test_random_unsaid_legal_and_seeded(self):
        s = UniformRandomUnsaid(30, 1)
        s.reset(SplitMix64(9))
        seen = set()
        for turn in range(1, 31):
            v = s.emit(turn)[0]
            assert v not in seen
            seen.add(v)
        assert seen == set(range(1, 31))

    def test_prefer_subset(self):
        s = PreferSubset(5, 1, (2, 4))
        s.reset(None)
        assert s.emit(1) == (2,)
        s.observe((4,), 2)
        assert s.emit(3) == (1,)  # T exhausted -> smallest unsaid overall

    def test_prefer_subset_forces_target(self):
        # after turn 2|T|, the said set contains T, whatever Alice plays
        target = (2, 4)
        for seed in range(30):
            cfg = GameConfig(8)
            alice = UniformRandomUnsaid(8, 1)
            bob = PreferSubset(8, 1, target)
            t = run_game(alice, bob, cfg, seed)
            said = []
            for m in t.moves[:2 * len(target)]:
                said.extend(m.numbers)
            if t.outcome is Outcome.BOTH_WIN or len(t.moves) >= 2 * len(target):
                assert set(target) <= set(said)

    def test_avoid_subset(self):
        s = AvoidSubset(4, 1, (3, 4))
        s.reset(None)
        s.observe((1,), 1)
        assert s.emit(2) == (2,)
        # everything outside D is now said: forced into D
        s2 = AvoidSubset(4, 1, (3, 4))
        s2.reset(None)
        s2.observe((1,), 1)
        s2.observe((2,), 2)
        assert s2.emit(3) == (3,)

    def test_avoid_subset_delays_d(self):
        # D first uttered by this player only once everything else is said
        for seed in range(20):
            cfg = GameConfig(8)
            avoid = (3, 6)
            alice = UniformRandomUnsaid(8, 1)
            bob = AvoidSubset(8, 1, avoid)
            t = run_game(alice, bob, cfg, seed)
            said_outside = set()
            for m in t.moves:
                if m.player.value == "B" and m.numbers[0] in avoid:
                    assert said_outside >= set(range(1, 9)) - set(avoid)
                said_outside |= set(m.numbers)


class TestRandLog:
    def _fixed_oracle(self):
        # pairs (1,3) and (2,4)
        return MatchingOracle(4, [0, 3, 4, 1, 2])

    def test_win_trace(self):
        alice = RandLogAlice(4, self._fixed_oracle())
        bob = SmallestUnsaid(4, 1)
        alice.reset(SplitMix64(0))
        alice.x = 1
        alice._started = False
        bob.reset(None)
        t = run_game_no_reset(alice, bob, GameConfig(4))
        assert [m.numbers[0] for m in t.moves] == [1, 2, 4, 3]
        assert t.outcome is Outcome.BOTH_WIN

    def test_loss_trace(self):
        alice = RandLogAlice(4, self._fixed_oracle())
        bob = ConstantStrategy([3])
        alice.reset(SplitMix64(0))
        alice.x = 1
        alice._started = False
        bob.reset(None)
        t = run_game_no_reset(alice, bob, GameConfig(4))
        assert t.outcome is Outcome.ALICE_LOSES
        assert t.losing_number == 1

    def test_wins_iff_bob_holds_the_match_of_x(self):
        # against any legal Bob, Alice survives exactly until Bob says M(x)
        n = 10
        for seed in range(200):
            oracle = sample_matching(n, derive_seed(seed, 0))
            alice = RandLogAlice(n, oracle)
            bob = UniformRandomUnsaid(n, 1)
            t = run_game(alice, bob, GameConfig(n), seed)
            mx = oracle.table[alice.x]
            bob_said = [m.numbers[0] for m in t.moves if m.player.value == "B"]
            if t.outcome is Outcome.BOTH_WIN:
                assert bob_said[-1] == mx
            else:
                assert t.outcome is Outcome.ALICE_LOSES
                assert t.losing_number == alice.x
                assert bob_said[-1] == mx and len(bob_said) < n // 2

    def test_needs_even_and_oracle(self):
        with pytest.raises(ValueError):
            RandLogAlice(5, self._fixed_oracle())
        with pytest.raises(ValueError):
            RandLogAlice(6, self._fixed_oracle())  # oracle built for n=4


class TestRandSqrt:
    def test_never_loses_after_endgame(self):
        for n in (16, 20, 50):
            for seed in range(60):
                oracle = sample_matching(n, derive_seed(seed, 0))
                alice = RandSqrtAlice(n, oracle)
                bob = UniformRandomUnsaid(n, 1)
                t = run_game(alice, bob, GameConfig(n), seed)
                if alice.entered_endgame:
                    assert t.outcome is not Outcome.ALICE_LOSES

    def test_budget_and_encoding_agree(self):
        n = 100
        oracle = sample_matching(n, 5)
        alice = RandSqrtAlice(n, oracle)
        bob = SmallestUnsaid(n, 1)
        checked = []

        def hook(player, turn, strategy):
            if strategy is alice:
                checked.append(strategy.state_bits())
                assert strategy.encode_state().nbits == strategy.state_bits()

        t = run_game(alice, bob, GameConfig(n), 5, on_state=hook)
        assert checked and max(checked) <= alice.budget_bits
        assert t.outcome is not None

    # n = 400 adds, to seed 0, the give-up seed of each Bob in
    # tests/test_core_equivalence.py
    @pytest.mark.parametrize("n,bob,seeds", [
        *[(n, bob, (0, 1)) for n in (16, 100)
          for bob in ("smallest-unsaid", "largest-unsaid", "random-unsaid")],
        (400, "smallest-unsaid", (0, 857202)),
        (400, "largest-unsaid", (0, 568286)),
        (400, "random-unsaid", (0, 470511)),
    ])
    def test_mirror_state_encodes_brute_power_sums(self, n, bob, seeds):
        # at every mirror-phase transition the encoding is the one a sketch
        # built from the numbers said so far, summed term by term, gives
        cfg, checked = GameConfig(n), 0
        for seed in seeds:
            alice, opponent = make_players(cfg, "rand-sqrt", bob, seed)
            q, k = alice.field.q, alice.k
            said, brute = [], [0] * k

            def recording(emit):
                def wrapped(turn):
                    numbers = emit(turn)
                    said.extend(numbers)
                    for x in numbers:
                        for i in range(k):
                            brute[i] = (brute[i] + pow(x, i + 1, q)) % q
                    return numbers
                return wrapped

            def hook(player, turn, strategy):
                nonlocal checked
                if strategy is alice and not alice.entered_endgame:
                    ref = copy.copy(alice)
                    ref._sketch = PowerSumSketch(alice.field, k, sums=brute,
                                                 count=len(said))
                    got, want = alice.encode_state(), ref.encode_state()
                    assert (got.value, got.nbits) == (want.value, want.nbits)
                    checked += 1

            alice.emit = recording(alice.emit)
            opponent.emit = recording(opponent.emit)
            run_game(alice, opponent, cfg, seed, on_state=hook)
        assert checked

    def test_tiny_n_degenerates_to_recovery(self):
        # n=16: k=16, so the sum phase ends right after the opening move
        wins = 0
        for seed in range(40):
            oracle = sample_matching(16, derive_seed(seed, 0))
            alice = RandSqrtAlice(16, oracle)
            bob = SmallestUnsaid(16, 1)
            t = run_game(alice, bob, GameConfig(16), seed)
            assert alice.entered_endgame
            wins += t.outcome is Outcome.BOTH_WIN
        assert wins == 40

    def test_preconditions(self):
        oracle = sample_matching(16, 0)
        with pytest.raises(ValueError):
            RandSqrtAlice(14, oracle)  # n < 16
        with pytest.raises(ValueError):
            RandSqrtAlice(17, oracle)


class TestRegistry:
    def test_parse_spec(self):
        assert parse_spec("mirror") == ("mirror", ())
        assert parse_spec("prefer-T:2,4") == ("prefer-T", (2, 4))
        with pytest.raises(ValueError):
            parse_spec("prefer-T:x")

    def test_needs_matching(self):
        assert spec_needs_matching("rand-log")
        assert spec_needs_matching("rand-sqrt")
        assert not spec_needs_matching("mirror")

    def test_role_restrictions(self):
        cfg = GameConfig(6)
        with pytest.raises(ValueError):
            make_strategy("A", "mirror", cfg)
        with pytest.raises(ValueError):
            make_strategy("B", "rand-log", cfg,
                          oracle=sample_matching(6, 0))
        with pytest.raises(ValueError):
            make_strategy("A", "no-such", cfg)

    def test_parameters_only_where_taken(self):
        cfg = GameConfig(6)
        oracle = sample_matching(6, 0)
        for role, spec in [("A", "naive:3"), ("B", "naive:3"),
                           ("A", "smallest-unsaid:1"), ("B", "mirror:1,2"),
                           ("A", "odd-mirror:1"), ("B", "tuple-mirror:2"),
                           ("A", "random-unsaid:5"), ("B", "largest-unsaid:2"),
                           ("A", "rand-log:4"), ("A", "rand-sqrt:4")]:
            with pytest.raises(ValueError, match="takes no parameters"):
                make_strategy(role, spec, cfg, oracle=oracle)
        for role in ("A", "B"):
            assert make_strategy(role, "prefer-T:2,4", cfg).target == (2, 4)
            assert make_strategy(role, "avoid-D:3", cfg).avoid == {3}

    def test_all_registry_names_buildable(self):
        cfg = GameConfig(18, 1, 1)
        oracle = sample_matching(18, 0)
        for role, spec in [("B", "mirror"), ("A", "naive"),
                           ("B", "smallest-unsaid"), ("B", "largest-unsaid"),
                           ("B", "random-unsaid"), ("A", "rand-log"),
                           ("A", "rand-sqrt"), ("B", "prefer-T:2,4"),
                           ("B", "avoid-D:3,4")]:
            s = make_strategy(role, spec, cfg, oracle=oracle)
            assert s.quota == 1
        assert make_strategy("A", "odd-mirror", GameConfig(7)).quota == 1
        assert make_strategy("B", "tuple-mirror", GameConfig(6, 1, 2)).quota == 2


def _track_said(strategy) -> set:
    """The numbers ``strategy`` has said or heard, kept up to date by
    wrapping its ``emit`` and ``observe``."""
    known: set = set()
    emit, observe = strategy.emit, strategy.observe

    def tracked_emit(turn):
        move = emit(turn)
        known.update(move)
        return move

    def tracked_observe(numbers, turn):
        observe(numbers, turn)
        known.update(numbers)

    strategy.emit, strategy.observe = tracked_emit, tracked_observe
    return known


BITMAP_SPECS = ["naive", "smallest-unsaid", "largest-unsaid", "random-unsaid",
                "prefer-T:3,7,8", "avoid-D:1,2,5"]
# (n, a, b, alice, bob): every registered strategy in every role it takes;
# the (2,3) and (3,2) boards run out mid-move, so bitmap players fill
FIXED_WIDTH_MATCHUPS = (
    [(16, 1, 1, s, "mirror") for s in BITMAP_SPECS]
    + [(15, 1, 1, "odd-mirror", s) for s in BITMAP_SPECS]
    + [(12, 1, 2, s, "tuple-mirror") for s in BITMAP_SPECS]
    + [(100, 1, 1, alice, s) for alice in ("rand-log", "rand-sqrt")
       for s in BITMAP_SPECS]
    + [(n, a, b, s, t) for n, a, b in ((13, 2, 3), (12, 3, 2), (14, 3, 2))
       for s in BITMAP_SPECS for t in BITMAP_SPECS])


class TestStateBitsMatchEncoding:
    def test_every_registered_strategy_in_both_roles(self):
        played = set()
        filled = 0
        for n, a, b, alice_spec, bob_spec in FIXED_WIDTH_MATCHUPS:
            cfg = GameConfig(n, a, b)
            for seed in range(3):
                alice, bob = make_players(cfg, alice_spec, bob_spec, seed)
                known = {alice: _track_said(alice), bob: _track_said(bob)}

                def hook(player, turn, strategy):
                    w = strategy.encode_state()
                    assert strategy.state_bits() == w.nbits, (strategy.name,
                                                              turn)
                    if isinstance(strategy, BitmapStrategy):
                        said = known[strategy]
                        mask = sum(1 << (v - 1) for v in said)
                        L = uint_bits(n)
                        assert w.value == (mask << L) | len(said), (
                            strategy.name, turn)

                t = run_game(alice, bob, cfg, seed, on_state=hook)
                filled += a > 1 and t.outcome is not Outcome.BOTH_WIN
                played.add(("A", parse_spec(alice_spec)[0]))
                played.add(("B", parse_spec(bob_spec)[0]))
        assert played == ({("A", s) for s in STRATEGY_NAMES
                           if s not in _BOB_ONLY}
                          | {("B", s) for s in STRATEGY_NAMES
                             if s not in _ALICE_ONLY})
        # every game on a multi-number board ends in a forced filler
        assert filled == 3 * 3 * len(BITMAP_SPECS) ** 2


class _ScanPrefer(PreferSubset):
    """``PreferSubset`` as first defined: every pick rescans T, then 1..n."""

    def _pick(self, move):
        for v in self.target:
            if not self._said[v]:
                return v
        for v in range(1, self.n + 1):
            if not self._said[v]:
                return v
        return None


class _ScanAvoid(AvoidSubset):
    """``AvoidSubset`` as first defined: every pick rescans 1..n."""

    def _pick(self, move):
        fallback = None
        for v in range(1, self.n + 1):
            if self._said[v]:
                continue
            if v not in self.avoid:
                return v
            if fallback is None:
                fallback = v
        return fallback


SUBSET_CASES = [(PreferSubset, _ScanPrefer, (2, 5)),
                (PreferSubset, _ScanPrefer, (1, 3, 4, 6)),
                (AvoidSubset, _ScanAvoid, (1, 2)),
                (AvoidSubset, _ScanAvoid, (2, 3, 5, 7))]


class TestSubsetCursors:
    @pytest.mark.parametrize("cursor_cls,scan_cls,numbers", SUBSET_CASES)
    def test_games_match_the_scan(self, cursor_cls, scan_cls, numbers):
        for n, a, b in ((8, 1, 1), (9, 1, 2), (11, 2, 3), (12, 3, 2),
                        (14, 3, 2), (13, 2, 2)):
            cfg = GameConfig(n, a, b)
            for role in "AB":
                quota, other = (a, b) if role == "A" else (b, a)
                for seed in range(15):
                    games = []
                    for cls in (cursor_cls, scan_cls):
                        fixed = cls(n, quota, numbers)
                        opponent = UniformRandomUnsaid(n, other)
                        players = ((fixed, opponent) if role == "A"
                                   else (opponent, fixed))
                        t = run_game(*players, cfg, seed)
                        games.append((t.said, t.outcome))
                    assert games[0] == games[1], (cfg, role, seed)

    @pytest.mark.parametrize("cursor_cls,scan_cls,numbers", SUBSET_CASES)
    def test_exhaustive_and_occurring_match_the_scan(self, cursor_cls,
                                                     scan_cls, numbers):
        # both deep-copy the player, cursors included, at every branch
        for n, a, b in ((7, 1, 1), (8, 1, 1), (7, 2, 1), (8, 2, 3),
                        (8, 3, 2)):
            cfg = GameConfig(n, a, b)
            for role in "AB":
                quota = a if role == "A" else b
                assert (exhaust_games(cursor_cls(n, quota, numbers), role, cfg)
                        == exhaust_games(scan_cls(n, quota, numbers), role,
                                         cfg)), (cfg, role)
            for r in (1, 2):
                if r * (a + b) <= n:
                    fams = [enumerate_occurring(cls(n, a, numbers), cfg, r)
                            .masks for cls in (cursor_cls, scan_cls)]
                    assert sorted(fams[0]) == sorted(fams[1]), (cfg, r)


def run_game_pair(alice, bob, cfg, seed=0):
    return run_game(alice, bob, cfg, seed)


def run_game_no_reset(alice, bob, cfg):
    """Referee a game without re-seeding (white-box traces fix the state)."""
    from mirrorlab import engine

    class _KeepState:
        def __init__(self, inner):
            self._inner = inner
            self.quota = inner.quota
            self.budget_bits = inner.budget_bits
            self.randomized = inner.randomized

        def reset(self, rng=None):
            pass  # keep the pre-seeded state

        def __getattr__(self, item):
            return getattr(self._inner, item)

    return engine.run_game(_KeepState(alice), _KeepState(bob), cfg, seed=0)
