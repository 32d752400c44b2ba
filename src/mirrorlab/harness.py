"""Experiment machinery: seeded Monte Carlo runs, one exhaustive game-tree
walk (never-lose verification, occurring sets), and memory profiling.

All batch randomness derives from (master_seed, trial_index), so reports are
reproducible and independent of execution order; trials can be re-run in any
split and merged (see ``merge_counts``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional

from . import _core
from .engine import (COUNT_KEYS, GameConfig, Player, Strategy, Transcript,
                     run_game)
from .rng import derive_seed
from .setfam import SetFamily, TooLarge
from .stats import binomial_ci
from .strategies import make_players


@dataclass
class ExperimentSpec:
    """A batch of seeded games between two registered strategies."""

    config: GameConfig
    alice: str
    bob: str
    trials: int
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")


def merge_counts(*counts: dict) -> dict:
    out: dict = {}
    for c in counts:
        for k, v in c.items():
            out[k] = out.get(k, 0) + v
    return out


def montecarlo(spec: ExperimentSpec,
               transcript_sink: Optional[Callable[[Transcript], None]] = None) -> dict:
    """Run the batch and report Alice's win rate with a 95% interval.

    Alice "wins" unless she is the player who repeated (a completed game is
    a win for both).  With a ``transcript_sink`` every game is recorded and
    handed to it.  Games run on the compiled game loop when both strategies
    are kernel-codable, recorded or not; ``backend`` in the report names
    the path this run took (``_core.route``).  No memory budget is checked
    here on either path: ``memory_profile`` measures every state against
    its budget, and the ``play`` command referees with every budget checked.
    """
    cfg = spec.config
    backend, _ = _core.route(cfg, spec.alice, spec.bob)
    if transcript_sink is None:
        counts = _core.play_batch(cfg, spec.alice, spec.bob,
                                  spec.master_seed, 0, spec.trials)
    else:
        counts = dict.fromkeys(COUNT_KEYS.values(), 0)
        for i in range(spec.trials):
            t = _core.play_game(cfg, spec.alice, spec.bob,
                                derive_seed(spec.master_seed, i))
            counts[COUNT_KEYS[t.outcome]] += 1
            transcript_sink(t)

    wins = counts["both_win"] + counts["bob_loses"]
    lo, hi, method = binomial_ci(wins, spec.trials)
    losses = {k: v for k, v in counts.items()
              if k != "both_win" and v}
    return {
        "config": {"n": cfg.n, "a": cfg.a, "b": cfg.b},
        "alice": spec.alice,
        "bob": spec.bob,
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "backend": backend,
        "alice_wins": wins,
        "win_rate": wins / spec.trials,
        "ci95": [lo, hi],
        "ci_method": method,
        "outcomes": counts,
        "losses_by_cause": losses,
    }


def _run_recorded(cfg: GameConfig, alice_spec: str, bob_spec: str,
                  game_seed: int) -> Transcript:
    """One game on the Python referee with every memory budget checked
    (``BudgetExceeded`` on an overrun): the ``play`` command's referee."""
    alice, bob = make_players(cfg, alice_spec, bob_spec, game_seed)
    return run_game(alice, bob, cfg, game_seed)


# --------------------------------------------------------------------------
# exhaustive verification

MAX_PATHS = 2_000_000  # opponent lines exhaust_games walks before it refuses


def _lines(fixed: Strategy, role: str, config: GameConfig,
           turns: int) -> Iterator[tuple[int, bool]]:
    """Walk every legal opponent line against the fixed deterministic
    strategy playing ``role``; yield (said mask, fixed player repeated)
    where each line ends: at a repeat, on a full board, on an opponent with
    too few fresh numbers for its quota, or after ``turns`` turns.

    The opponent branches over every fresh number choice (ascending
    combinations for multi-number quotas); the fixed player's moves are
    forced.  Each branch plays on its own deep copy of the fixed player.
    """
    if fixed.randomized:
        raise ValueError("exhaustive walks need a deterministic strategy")
    n = config.n
    full = (1 << n) - 1
    fixed_parity, opp_quota = (1, config.b) if role == "A" else (0, config.a)

    def step(strat: Strategy, mask: int, turn: int):
        if turn > turns or mask == full:
            yield mask, False
        elif turn % 2 == fixed_parity:
            strat = copy.deepcopy(strat)
            for v in strat.emit(turn):
                if mask >> (v - 1) & 1:
                    yield mask, True
                    return
                mask |= 1 << (v - 1)
            yield from step(strat, mask, turn + 1)
        else:
            fresh = [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]
            if len(fresh) < opp_quota:
                yield mask, False  # the opponent must repeat and loses
                return
            for combo in combinations(fresh, opp_quota):
                s2 = copy.deepcopy(strat)
                s2.observe(combo, turn)
                yield from step(s2, mask | sum(1 << (v - 1) for v in combo),
                                turn + 1)

    fixed.reset(None)
    yield from step(fixed, 0, 1)


def exhaust_games(fixed: Strategy, role: str,
                  config: GameConfig) -> tuple[int, int]:
    """Play the fixed deterministic strategy against every legal opponent
    line to the end of the game; returns (games, losses_by_fixed_player).
    A loss means the fixed player repeated.  ``TooLarge`` past
    ``MAX_PATHS`` lines."""
    games = losses = 0
    for _mask, repeated in _lines(fixed, role, config, config.n):
        games += 1
        if games > MAX_PATHS:
            raise TooLarge("opponent tree too large")
        losses += repeated
    return games, losses


def enumerate_occurring(alice: Strategy, config: GameConfig,
                        r: int) -> SetFamily:
    """All distinct said-sets right after turn 2r (r full rounds): the
    masks of the game-tree walk cut at turn 2r against the first player's
    fixed deterministic strategy, without the lines where she repeated.

    Every member has cardinality r*(a+b).  Multi-number opponent moves are
    enumerated as ascending combinations; the fixed strategies here react
    to the set said, not the order within a move.
    """
    n = config.n
    if r < 1 or r * (config.a + config.b) > n:
        raise ValueError("r rounds must fit in the game")
    if math.comb(n, r * config.b) > 200_000:
        raise TooLarge("opponent move space too large to enumerate")
    found = {mask for mask, repeated in _lines(alice, "A", config, 2 * r)
             if not repeated}
    return SetFamily(n, sorted(found))


# --------------------------------------------------------------------------
# memory profiling


def memory_profile(spec: ExperimentSpec) -> dict:
    """Per-turn maximum measured state bits for both players over seeded
    games, against each strategy's declared budget.

    The meter is the referee's state hook in place of its budget check, so
    it is the one measurement of each transition, and a state over its
    budget shows as ``within_budget: false`` in the report instead of
    raising."""
    cfg = spec.config
    alice_turns: list[int] = []
    bob_turns: list[int] = []
    ALICE = Player.ALICE

    def meter(player: Player, turn: int, strategy: Strategy):
        bits = strategy.state_bits()
        arr = alice_turns if player is ALICE else bob_turns
        while len(arr) < turn:
            arr.append(0)
        if bits > arr[turn - 1]:
            arr[turn - 1] = bits

    for i in range(spec.trials):
        seed = derive_seed(spec.master_seed, i)
        alice, bob = make_players(cfg, spec.alice, spec.bob, seed)
        run_game(alice, bob, cfg, seed, on_state=meter)

    def block(name: str, per_turn: list[int], budget: int) -> dict:
        overall = max(per_turn, default=0)
        return {
            "strategy": name,
            "per_turn_max_bits": per_turn,
            "overall_max_bits": overall,
            "budget_bits": budget,
            "within_budget": overall <= budget,
        }

    return {
        "config": {"n": cfg.n, "a": cfg.a, "b": cfg.b},
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "alice": block(spec.alice, alice_turns, alice.budget_bits),
        "bob": block(spec.bob, bob_turns, bob.budget_bits),
    }
