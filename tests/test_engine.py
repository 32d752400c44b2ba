"""Referee rules, transcripts, memory accounting."""

import json
import random

import pytest

from mirrorlab import _core
from mirrorlab.engine import (BitWriter, BudgetExceeded, GameConfig,
                              MalformedMove, Outcome, Player, Strategy,
                              Transcript, replay, run_game,
                              uint_bits)
from mirrorlab.strategies import (ConstantStrategy, MirrorBob, ScriptedStrategy,
                                  SmallestUnsaid, TupleMirrorBob)


class Hoarder(Strategy):
    """Remembers every number heard but claims a tiny budget."""

    def __init__(self, n):
        self.n = n
        self.quota = 1
        self.budget_bits = 4
        self._heard = []

    def reset(self, rng=None):
        self._heard = []

    def observe(self, numbers, turn):
        self._heard.extend(numbers)

    def emit(self, turn):
        for v in range(self.n, 0, -1):
            if v not in self._heard:
                self._heard.append(v)
                return (v,)
        return (1,)

    def encode_state(self):
        w = BitWriter()
        for v in self._heard:
            w.write(v, uint_bits(self.n))
        return w


class TestGameConfig:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            GameConfig(0, 1, 1)
        with pytest.raises(ValueError):
            GameConfig(5, 0, 1)
        with pytest.raises(ValueError):
            GameConfig(5, 1, 0)

    def test_quota_overflow_rejected(self):
        with pytest.raises(ValueError):
            GameConfig(2, 1, 2)  # Bob's first move is doomed
        with pytest.raises(ValueError):
            GameConfig(3, 4, 1)  # Alice cannot even move

    def test_degenerate_alice_covers_everything(self):
        # a == n: Alice finishes before Bob ever moves
        cfg = GameConfig(1, 1, 1)
        assert cfg.max_rounds == 1

    def test_max_rounds(self):
        assert GameConfig(6, 1, 2).max_rounds == 2
        assert GameConfig(7, 1, 2).max_rounds == 3


class TestRunGame:
    def test_two_element_game(self):
        t = run_game(SmallestUnsaid(2, 1, name="naive"), MirrorBob(2),
                     GameConfig(2), seed=0)
        assert t.outcome is Outcome.BOTH_WIN
        assert [m.numbers for m in t.moves] == [(1,), (2,)]
        assert t.losing_number is None

    def test_immediate_repeat_loses(self):
        t = run_game(SmallestUnsaid(2, 1, name="naive"), ConstantStrategy([1]),
                     GameConfig(2), seed=0)
        assert t.outcome is Outcome.BOB_LOSES
        assert t.losing_number == 1
        assert t.moves[-1].numbers == (1,)

    def test_tuple_mirror_trace(self):
        # hand trace: Alice opens 2 -> Bob completes {1,3}; 5 -> {4,6}
        t = run_game(ScriptedStrategy([(2,), (5,)]), TupleMirrorBob(6, 2),
                     GameConfig(6, 1, 2), seed=0)
        assert t.outcome is Outcome.BOTH_WIN
        assert [m.numbers for m in t.moves] == [(2,), (1, 3), (5,), (4, 6)]

    def test_turn_accounting_even_n(self):
        for n in (2, 6, 10):
            t = run_game(SmallestUnsaid(n, 1, name="naive"), MirrorBob(n),
                         GameConfig(n), seed=1)
            assert t.outcome is Outcome.BOTH_WIN
            assert len(t.moves) == n
            assert all(len(m.numbers) == 1 for m in t.moves)
            players = [m.player for m in t.moves]
            assert players[::2] == [Player.ALICE] * (n // 2)
            assert players[1::2] == [Player.BOB] * (n // 2)
            assert t.rounds == n // 2
            assert t.utterances == n

    def test_determinism_byte_identical(self):
        cfg = GameConfig(20)
        a = run_game(SmallestUnsaid(20, 1), MirrorBob(20), cfg, seed=7)
        b = run_game(SmallestUnsaid(20, 1), MirrorBob(20), cfg, seed=7)
        assert a.to_json() == b.to_json()

    def test_determinism_with_randomized_players(self):
        from mirrorlab.harness import _run_recorded
        cfg = GameConfig(40)
        a = _run_recorded(cfg, "rand-sqrt", "random-unsaid", 11)
        b = _run_recorded(cfg, "rand-sqrt", "random-unsaid", 11)
        assert a.to_json() == b.to_json()

    def test_naive_vs_constant_two(self):
        t = run_game(SmallestUnsaid(2, 1, name="naive"), ConstantStrategy([2]),
                     GameConfig(2), seed=0)
        assert t.outcome is Outcome.BOTH_WIN
        assert [m.numbers for m in t.moves] == [(1,), (2,)]

    def test_quota_mismatch(self):
        with pytest.raises(MalformedMove):
            run_game(SmallestUnsaid(6, 2), MirrorBob(6), GameConfig(6), seed=0)

    def test_malformed_out_of_range(self):
        t = ScriptedStrategy([(9,)])
        with pytest.raises(MalformedMove):
            run_game(t, MirrorBob(4), GameConfig(4), seed=0)

    def test_malformed_wrong_length(self):
        t = ScriptedStrategy([(1, 2)])  # quota says 1
        with pytest.raises(MalformedMove):
            run_game(t, MirrorBob(4), GameConfig(4), seed=0)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc:
            run_game(SmallestUnsaid(16, 1), Hoarder(16), GameConfig(16), seed=0)
        assert exc.value.player is Player.BOB

    def test_short_final_round_forced_repeat(self):
        # (2,1) on n=4: after round one 3 numbers are said; Alice must emit
        # two but only one fresh number remains
        t = run_game(SmallestUnsaid(4, 2), SmallestUnsaid(4, 1),
                     GameConfig(4, 2, 1), seed=0)
        assert t.outcome is Outcome.ALICE_LOSES
        assert t.moves[-1].numbers[-1] == t.losing_number

    def test_short_final_round_exact_fit(self):
        # (2,1) on n=5: Alice's second move exactly covers the remainder
        t = run_game(SmallestUnsaid(5, 2), SmallestUnsaid(5, 1),
                     GameConfig(5, 2, 1), seed=0)
        assert t.outcome is Outcome.BOTH_WIN
        assert [m.numbers for m in t.moves] == [(1, 2), (3,), (4, 5)]

    def test_single_element_game(self):
        t = run_game(ScriptedStrategy([(1,)]), ConstantStrategy([1]),
                     GameConfig(1), seed=0)
        assert t.outcome is Outcome.BOTH_WIN
        assert len(t.moves) == 1


class TestMeasureState:
    def test_mirror_counter_bits(self):
        import math
        for n in (2, 10, 1024):
            s = MirrorBob(n)
            s.reset(None)
            s.observe((1,), 1)
            assert s.state_bits() == uint_bits(n)
            assert s.state_bits() <= math.ceil(math.log2(n + 1))

    def test_naive_bitmap_bits(self):
        s = SmallestUnsaid(8, 1, name="naive")
        s.reset(None)
        assert s.state_bits() == 8 + 4  # bitmap + counter

    def test_stateless_strategy_zero_bits(self):
        s = ConstantStrategy([3])
        s.reset(None)
        assert s.state_bits() == 0

    def test_encode_matches_declared_length(self):
        s = MirrorBob(10)
        s.reset(None)
        s.observe((7,), 1)
        w = s.encode_state()
        assert w.nbits == s.state_bits()
        assert w.value == 7


class TestReplay:
    def test_round_trip(self):
        t = run_game(SmallestUnsaid(8, 1), MirrorBob(8), GameConfig(8), seed=3)
        assert replay(t)
        assert replay(Transcript.from_json(t.to_json()))

    def test_bothwin_with_missing_number_rejected(self):
        t = Transcript(
            config=GameConfig(4),
            said=[1, 2, 4],
            outcome=Outcome.BOTH_WIN,
        )
        assert not replay(t)

    def test_bothwin_with_repeat_rejected(self):
        t = Transcript(
            config=GameConfig(2),
            said=[1, 1],
            outcome=Outcome.BOTH_WIN,
        )
        assert not replay(t)

    def test_bothwin_ending_in_a_short_move_rejected(self):
        # (2,1) on n=4: Alice's second move holds one fresh number and must
        # repeat with the next, so the game cannot end complete after 4
        t = Transcript(config=GameConfig(4, 2, 1), said=[1, 2, 3, 4],
                       outcome=Outcome.BOTH_WIN)
        assert not replay(t)
        assert replay(Transcript(config=GameConfig(5, 2, 1),
                                 said=[1, 2, 3, 4, 5],
                                 outcome=Outcome.BOTH_WIN))

    def test_play_past_a_repeat_rejected(self):
        cfg = GameConfig(4)
        assert replay(Transcript(config=cfg, said=[1, 2, 1],
                                 outcome=Outcome.ALICE_LOSES, losing_number=1))
        assert not replay(Transcript(config=cfg, said=[1, 1, 2],
                                     outcome=Outcome.ALICE_LOSES,
                                     losing_number=2))
        assert not replay(Transcript(config=cfg, said=[1, 1, 2, 2],
                                     outcome=Outcome.BOB_LOSES,
                                     losing_number=2))

    def test_loss_bookkeeping_checked(self):
        good = Transcript(
            config=GameConfig(2),
            said=[1, 1],
            outcome=Outcome.BOB_LOSES, losing_number=1,
        )
        assert replay(good)
        wrong_loser = Transcript(
            config=GameConfig(2),
            said=[1, 1],
            outcome=Outcome.ALICE_LOSES, losing_number=1,
        )
        assert not replay(wrong_loser)
        wrong_number = Transcript(
            config=GameConfig(2),
            said=[1, 1],
            outcome=Outcome.BOB_LOSES, losing_number=2,
        )
        assert not replay(wrong_number)

    def test_json_shape(self):
        t = run_game(SmallestUnsaid(2, 1), ConstantStrategy([1]),
                     GameConfig(2), seed=5)
        d = json.loads(t.to_json())
        assert d["config"] == {"n": 2, "a": 1, "b": 1}
        assert d["moves"][0] == {"player": "A", "numbers": [1]}
        assert d["outcome"] == "BobLoses"
        assert d["losing_number"] == 1
        assert d["seed"] == 5


# (a, b, n) shapes, each with games won and lost, on the kernel and not
SHAPES = [(1, 1, 9), (1, 2, 10), (1, 3, 12), (2, 2, 16), (3, 2, 13),
          (2, 3, 12)]


def _games(a, b, n):
    """Seeded games of the shape: random-unsaid and smallest-unsaid pairs
    (mostly won), and scripted players that draw with replacement, so that
    most games end in a repeat partway through a move."""
    cfg = GameConfig(n, a, b)
    games = [_core.play_game(cfg, alice, bob, seed)
             for alice, bob in [("random-unsaid", "random-unsaid"),
                                ("smallest-unsaid", "largest-unsaid")]
             for seed in range(5)]
    for seed in range(20):
        rng = random.Random(seed)
        alice, bob = (ScriptedStrategy(
            [[rng.randint(1, n) for _ in range(quota)] for _ in range(n)],
            quota) for quota in (a, b))
        games.append(run_game(alice, bob, cfg, seed, check_budgets=False))
    return games


def _reference_json(t):
    d = {"config": {"n": t.config.n, "a": t.config.a, "b": t.config.b},
         "moves": [{"player": m.player.value, "numbers": list(m.numbers)}
                   for m in t.moves],
         "outcome": t.outcome.value}
    if t.losing_number is not None:
        d["losing_number"] = t.losing_number
    if t.seed is not None:
        d["seed"] = t.seed
    return json.dumps(d, separators=(",", ":"))


class TestTranscriptJson:
    @pytest.mark.parametrize("a,b,n", SHAPES)
    def test_to_json_matches_per_move_reference(self, a, b, n):
        games = _games(a, b, n)
        for t in games:
            assert t.to_json() == _reference_json(t)
        outcomes = {t.outcome for t in games}
        assert Outcome.BOTH_WIN in outcomes and len(outcomes) > 1
        short = [t for t in games
                 if len(t.moves[-1].numbers)
                 < (a if t.moves[-1].player is Player.ALICE else b)]
        assert short or (a, b) == (1, 1)
        assert all(t.outcome is not Outcome.BOTH_WIN for t in short)

    @pytest.mark.parametrize("a,b,n", SHAPES)
    def test_from_json_round_trips(self, a, b, n):
        for t in _games(a, b, n):
            back = Transcript.from_json(t.to_json())
            assert back == t
            assert back.moves == t.moves and replay(back)

    def test_from_json_rejects_moves_off_the_cut(self):
        d = json.loads(run_game(SmallestUnsaid(6, 1), TupleMirrorBob(6, 2),
                                GameConfig(6, 1, 2), seed=0).to_json())
        assert Transcript.from_json_dict(d).said == [
            v for m in d["moves"] for v in m["numbers"]]
        swapped = json.loads(json.dumps(d))
        swapped["moves"][1]["player"] = "A"
        with pytest.raises(ValueError, match="out of turn"):
            Transcript.from_json_dict(swapped)
        short = json.loads(json.dumps(d))
        short["moves"][1]["numbers"] = [6]
        with pytest.raises(ValueError, match="quota"):
            Transcript.from_json_dict(short)
        long_last = json.loads(json.dumps(d))
        long_last["moves"][-1]["numbers"].append(1)
        with pytest.raises(ValueError, match="quota"):
            Transcript.from_json_dict(long_last)
