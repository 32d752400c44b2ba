"""Experiment machinery: seeded Monte Carlo runs, exhaustive game-tree
verification, occurring-set enumeration, and memory profiling.

All batch randomness derives from (master_seed, trial_index), so reports are
reproducible and independent of execution order; trials can be re-run in any
split and merged (see ``merge_counts``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

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


def exhaust_games(fixed: Strategy, role: str, config: GameConfig,
                  max_paths: int = 2_000_000) -> tuple[int, int]:
    """Play the fixed deterministic strategy against every legal opponent
    line; returns (games, losses_by_fixed_player).

    The opponent branches over every fresh number choice (combinations for
    multi-number quotas, ascending within a move); the fixed player's moves
    are forced.  Loss means the fixed player repeated.
    """
    if fixed.randomized:
        raise ValueError("exhaustive verification needs a deterministic strategy")
    n = config.n
    opp_quota = config.b if role == "A" else config.a
    games = 0
    losses = 0

    def unsaid(mask: int) -> list[int]:
        return [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]

    def step(strat: Strategy, mask: int, count: int, turn: int):
        nonlocal games, losses
        if games > max_paths:
            raise TooLarge("opponent tree too large")
        fixed_moving = (turn % 2 == 1) == (role == "A")
        if fixed_moving:
            s2 = copy.deepcopy(strat)
            numbers = s2.emit(turn)
            m2, c2 = mask, count
            for v in numbers:
                if m2 >> (v - 1) & 1:
                    games += 1
                    losses += 1
                    return
                m2 |= 1 << (v - 1)
                c2 += 1
            if c2 == n:
                games += 1
                return
            step(s2, m2, c2, turn + 1)
        else:
            fresh = unsaid(mask)
            if len(fresh) < opp_quota:
                # opponent is forced to repeat and loses; fixed player survives
                games += 1
                return
            for combo in combinations(fresh, opp_quota):
                s2 = copy.deepcopy(strat)
                s2.observe(combo, turn)
                m2, c2 = mask, count
                for v in combo:
                    m2 |= 1 << (v - 1)
                    c2 += 1
                if c2 == n:
                    games += 1
                    continue
                step(s2, m2, c2, turn + 1)

    fixed.reset(None)
    step(fixed, 0, 0, 1)
    return games, losses


@dataclass
class OccurringFamily:
    """Said-sets reachable right after round r against a fixed first player."""

    r: int
    family: SetFamily


def enumerate_occurring(alice: Strategy, config: GameConfig,
                        r: int) -> OccurringFamily:
    """All distinct said-sets immediately after turn 2r (r full rounds),
    over every legal line of the second player, with the first player's
    deterministic strategy fixed.

    Every member has cardinality r*(a+b).  Multi-number opponent moves are
    enumerated as ascending combinations; the fixed strategies here react
    to the set said, not the order within a move.
    """
    if alice.randomized:
        raise ValueError("occurring-set enumeration needs a deterministic Alice")
    cfg = config
    n = cfg.n
    if r < 1 or r * (cfg.a + cfg.b) > n:
        raise ValueError("r rounds must fit in the game")
    if math.comb(n, r * cfg.b) > 200_000:
        raise TooLarge("opponent move space too large to enumerate")

    found: set[int] = set()

    def step(strat: Strategy, mask: int, count: int, turn: int):
        if turn > 2 * r:
            found.add(mask)
            return
        if turn % 2 == 1:
            s2 = copy.deepcopy(strat)
            numbers = s2.emit(turn)
            m2, c2 = mask, count
            for v in numbers:
                if m2 >> (v - 1) & 1:
                    return  # Alice repeated; this line ends before round r
                m2 |= 1 << (v - 1)
                c2 += 1
            step(s2, m2, c2, turn + 1)
        else:
            fresh = [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]
            for combo in combinations(fresh, cfg.b):
                s2 = copy.deepcopy(strat)
                s2.observe(combo, turn)
                m2 = mask
                for v in combo:
                    m2 |= 1 << (v - 1)
                step(s2, m2, count + cfg.b, turn + 1)

    alice.reset(None)
    step(alice, 0, 0, 1)
    return OccurringFamily(r=r, family=SetFamily(n, sorted(found)))


# --------------------------------------------------------------------------
# memory profiling


def memory_profile(spec: ExperimentSpec) -> dict:
    """Per-turn maximum measured state bits for both players over seeded
    games, against each strategy's declared budget.

    The meter is the one measurement of each transition: the games run
    with no budget check of their own, so a state over its budget shows as
    ``within_budget: false`` in the report instead of raising."""
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
        run_game(alice, bob, cfg, seed, check_budgets=False, on_state=meter)

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
