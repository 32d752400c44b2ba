"""Experiment harness: reproducibility, merging, occurring sets, profiling."""

import json

import pytest

from mirrorlab import _core, harness, strategies
from mirrorlab.engine import GameConfig, MalformedMove
from mirrorlab.harness import (ExperimentSpec, enumerate_occurring,
                               exhaust_games, memory_profile, montecarlo)
from mirrorlab.setfam import TooLarge, check_covering, covering_lower_bound
from mirrorlab.strategies import (AvoidSubset, LargestUnsaid, MirrorBob,
                                  OddMirrorAlice, PreferSubset, SmallestUnsaid,
                                  TupleMirrorBob, UniformRandomUnsaid)

from fixed_strategies import ConstantStrategy


class TestMonteCarlo:
    def test_never_loser_scores_one(self):
        spec = ExperimentSpec(GameConfig(101), "odd-mirror", "smallest-unsaid",
                              trials=100, master_seed=1)
        rep = montecarlo(spec)
        assert rep["win_rate"] == 1.0
        assert rep["outcomes"]["alice_loses"] == 0

    def test_report_reproducible(self):
        spec = ExperimentSpec(GameConfig(40), "rand-log", "smallest-unsaid",
                              trials=300, master_seed=9)
        r1 = montecarlo(spec)
        r2 = montecarlo(spec)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_bob_losses_counted_as_alice_wins(self):
        # (1,2) on n=5: Bob's second move has one fresh number left and a
        # forced repeat, so he loses every game
        spec = ExperimentSpec(GameConfig(5, 1, 2), "naive", "smallest-unsaid",
                              trials=10, master_seed=0)
        rep = montecarlo(spec)
        assert rep["outcomes"]["bob_loses"] == 10
        assert rep["win_rate"] == 1.0
        assert rep["losses_by_cause"] == {"bob_loses": 10}

    def test_chunked_runs_merge_to_the_same_counts(self):
        cfg = GameConfig(30)
        full = _core.play_batch(cfg, "rand-log", "random-unsaid", 5, 0, 400)
        first = _core.play_batch(cfg, "rand-log", "random-unsaid", 5, 0, 150)
        rest = _core.play_batch(cfg, "rand-log", "random-unsaid", 5, 150, 250)
        assert {key: first[key] + rest[key] for key in full} == full

    def test_faulty_strategy_raises_on_the_python_core(self, monkeypatch):
        # Python-core batches count outcomes only: a strategy's fault is an
        # error there, as it is (RuntimeError) in the kernel
        def faulty_players(config, alice_spec, bob_spec, game_seed):
            return ConstantStrategy([config.n + 1]), MirrorBob(config.n)

        monkeypatch.setattr(strategies, "make_players", faulty_players)
        with pytest.raises(MalformedMove):
            _core.play_batch(GameConfig(6), "naive", "mirror", 0, 0, 3,
                             force_python=True)

    def test_transcript_sink(self):
        lines = []
        spec = ExperimentSpec(GameConfig(6), "naive", "mirror",
                              trials=3, master_seed=2)
        rep = montecarlo(spec, transcript_sink=lambda t: lines.append(t.to_json()))
        assert len(lines) == 3
        assert rep["win_rate"] == 1.0
        assert all(json.loads(s)["outcome"] == "BothWin" for s in lines)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(GameConfig(6), "naive", "mirror", trials=0)


class TestExhaustGames:
    def test_tree_sizes_and_safety(self):
        games, losses = exhaust_games(MirrorBob(6), "B", GameConfig(6))
        assert (games, losses) == (48, 0)  # 6*4*2 opponent lines
        games, losses = exhaust_games(MirrorBob(8), "B", GameConfig(8))
        assert (games, losses) == (384, 0)

    def test_rejects_randomized(self):
        with pytest.raises(ValueError):
            exhaust_games(UniformRandomUnsaid(4, 1), "B", GameConfig(4))

    def test_detects_losses(self):
        # smallest-unsaid as Bob does lose some lines, e.g. Alice plays 2
        # first on n=2 and Bob's smallest-unsaid is 1... n=2: Alice says 2,
        # Bob says 1: both win. Use a strategy that can actually lose:
        games, losses = exhaust_games(ConstantStrategy([1]), "B", GameConfig(2))
        assert games == 2 and losses == 1  # loses when Alice opened with 1

    @pytest.mark.parametrize("fixed,role,cfg,expected", [
        # (2,1) on n=7: after two rounds one number is left and Alice
        # must repeat on every line
        (SmallestUnsaid(7, 2), "A", GameConfig(7, 2, 1), (10, 10)),
        (LargestUnsaid(7, 1), "B", GameConfig(7, 2, 1), (126, 0)),
        (PreferSubset(6, 1, [2, 5]), "A", GameConfig(6, 1, 2), (10, 0)),
        (AvoidSubset(7, 2, [1, 4]), "B", GameConfig(7, 1, 2), (28, 0)),
        (OddMirrorAlice(7), "A", GameConfig(7), (48, 0)),
        (TupleMirrorBob(8, 3), "B", GameConfig(8, 1, 3), (32, 0)),
    ], ids=["smallest-A", "largest-B", "prefer-A", "avoid-B", "odd-mirror",
            "tuple-mirror"])
    def test_pinned_tree_sizes(self, fixed, role, cfg, expected):
        assert exhaust_games(fixed, role, cfg) == expected

    def test_refuses_a_tree_past_max_paths(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_PATHS", 383)
        with pytest.raises(TooLarge):
            exhaust_games(MirrorBob(8), "B", GameConfig(8))
        monkeypatch.setattr(harness, "MAX_PATHS", 384)
        assert exhaust_games(MirrorBob(8), "B", GameConfig(8)) == (384, 0)


class TestEnumerateOccurring:
    def test_naive_round_one(self):
        family = enumerate_occurring(SmallestUnsaid(4, 1, name="naive"),
                                     GameConfig(4), 1)
        assert family.sets() == [[1, 2], [1, 3], [1, 4]]

    def test_cardinalities(self):
        family = enumerate_occurring(SmallestUnsaid(8, 1, name="naive"),
                                     GameConfig(8), 2)
        assert all(m.bit_count() == 4 for m in family.masks)

    def test_covering_and_bound(self):
        for r in (1, 2):
            family = enumerate_occurring(SmallestUnsaid(8, 1, name="naive"),
                                         GameConfig(8), r)
            assert check_covering(family, 2, r)
            assert len(family) >= covering_lower_bound(8, 2, r)

    def test_one_b_game_cardinality(self):
        family = enumerate_occurring(SmallestUnsaid(6, 1, name="naive"),
                                     GameConfig(6, 1, 2), 1)
        assert all(m.bit_count() == 3 for m in family.masks)

    def test_pinned_families(self):
        family = enumerate_occurring(LargestUnsaid(7, 2), GameConfig(7, 2, 1),
                                     2)
        assert len(family) == 3
        assert family.sets()[0] == [1, 2, 4, 5, 6, 7]
        family = enumerate_occurring(PreferSubset(8, 1, [2, 5]), GameConfig(8),
                                     3)
        assert len(family) == 10
        assert all({2, 5} <= set(s) for s in family.sets())

    def test_rejects_randomized_or_oversized(self):
        with pytest.raises(ValueError):
            enumerate_occurring(UniformRandomUnsaid(4, 1), GameConfig(4), 1)
        with pytest.raises(ValueError):
            enumerate_occurring(SmallestUnsaid(4, 1), GameConfig(4), 3)


class TestMemoryProfile:
    def test_mirror_logarithmic(self):
        import math
        rep = memory_profile(ExperimentSpec(GameConfig(1024), "naive", "mirror",
                                            trials=2, master_seed=3))
        assert rep["bob"]["overall_max_bits"] <= 2 * math.ceil(math.log2(1024))
        assert rep["bob"]["within_budget"]

    def test_naive_bitmap(self):
        import math
        rep = memory_profile(ExperimentSpec(GameConfig(64), "naive",
                                            "random-unsaid",
                                            trials=2, master_seed=4))
        assert rep["alice"]["overall_max_bits"] <= 64 + math.ceil(math.log2(65))
        assert rep["alice"]["within_budget"]

    def test_per_turn_shape(self):
        rep = memory_profile(ExperimentSpec(GameConfig(10), "naive", "mirror",
                                            trials=3, master_seed=5))
        # no transition happens for the non-mover on the game's final turn,
        # so Alice's trace stops at turn 9 while Bob's covers all 10
        assert len(rep["alice"]["per_turn_max_bits"]) == 9
        assert len(rep["bob"]["per_turn_max_bits"]) == 10
        assert max(rep["alice"]["per_turn_max_bits"]) == rep["alice"]["overall_max_bits"]


class TestRefereeTotality:
    """Any registry pairing terminates in a well-formed, replayable game."""

    PAIRS = [
        ("naive", "mirror"), ("odd-mirror", "smallest-unsaid"),
        ("random-unsaid", "random-unsaid"), ("rand-log", "random-unsaid"),
        ("rand-sqrt", "largest-unsaid"), ("largest-unsaid", "prefer-T:1,5"),
        ("smallest-unsaid", "avoid-D:2,3"),
    ]

    def test_random_matchups_replay_clean(self):
        from mirrorlab.engine import replay
        from mirrorlab.harness import _run_recorded
        from mirrorlab.rng import SplitMix64
        from mirrorlab.strategies import parse_spec

        rng = SplitMix64(310)
        done = 0
        for alice, bob in self.PAIRS:
            for _ in range(40):
                n = 16 + 2 * rng.randbelow(20)  # even, 16..54
                if parse_spec(alice)[0] == "odd-mirror":
                    n += 1
                cfg = GameConfig(n)
                t = _run_recorded(cfg, alice, bob, rng.next64())
                assert t.outcome is not None
                assert len(t.moves) <= n
                assert replay(t), (alice, bob, n, t.to_json())
                done += 1
        assert done == len(self.PAIRS) * 40
