"""Output checks that do not trust the program.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  They recompute the answer apart from mirrorlab (a set
difference, the game rules, a bound from the paper) or compare two paths of
the program that must agree.  Nothing here imports mirrorlab, so the tests in
``test_checks.py`` run without a core.
"""

from __future__ import annotations

import math

OUTCOME_KEYS = ("both_win", "alice_loses", "bob_loses")

# The O(sqrt(n) log^2 n) bound of the sqrt-space player, with the constant
# stated.  At n=400 the player holds 1778 bits against 2*20*8.64^2 = 2988.
SQRT_SPACE_CONSTANT = 2.0

# The mirroring side of each never-lose matchup, by strategy name.
MIRROR_SIDES = {"mirror": "bob", "tuple-mirror": "bob", "odd-mirror": "alice"}


def check_recovered(got, stream, n: int):
    """A recovered list must be the absent set of the stream, ascending."""
    expected = sorted(set(range(1, n + 1)).difference(stream))
    if list(got) != expected:
        return f"recovered {_short(got)}, absent are {_short(expected)}"
    return None


def check_counts(outcomes: dict, trials: int):
    """Outcome counts are non-negative and sum to the number of trials."""
    if any(outcomes.get(k, 0) < 0 for k in OUTCOME_KEYS):
        return f"negative outcome count in {outcomes}"
    total = sum(outcomes.get(k, 0) for k in OUTCOME_KEYS)
    if total != trials:
        return f"outcomes {outcomes} sum to {total}, not {trials} trials"
    return None


def check_same_counts(got: dict, reference: dict, what: str):
    """Two paths that play the same seeded games report the same counts."""
    keys = sorted(set(got) | set(reference))
    if any(got.get(k, 0) != reference.get(k, 0) for k in keys):
        return f"{what}: {got} differs from the reference {reference}"
    return None


def check_never_lose(alice: str, bob: str, outcomes: dict):
    """The mirroring side of a never-lose matchup loses no game."""
    for name, side in ((alice.partition(":")[0], "alice"),
                       (bob.partition(":")[0], "bob")):
        if MIRROR_SIDES.get(name) == side and outcomes.get(f"{side}_loses", 0):
            return (f"{name} lost {outcomes[f'{side}_loses']} games "
                    f"against {alice if side == 'bob' else bob}")
    return None


def check_sqrt_rate(wins: int, trials: int):
    """rand-sqrt wins with probability 1 - O(1/n); at n=400, >= 0.98."""
    if wins < 0.98 * trials:
        return f"rand-sqrt won {wins} of {trials} games, below 0.98"
    return None


def check_log_rate(wins: int, trials: int, n: int):
    """rand-log wins with probability at least 1/n; allow three sigma."""
    p = 1.0 / n
    floor = p - 3.0 * math.sqrt(p * (1.0 - p) / trials)
    if wins / trials < floor:
        return (f"rand-log won {wins} of {trials} games at n={n}, "
                f"below 1/n - 3 sigma = {floor:.5f}")
    return None


def space_bound(strategy: str, n: int):
    """The paper's bit bound for a strategy, or None when it states none."""
    name = strategy.partition(":")[0]
    log_n = math.log2(n)
    if name == "mirror":
        return 2 * math.ceil(log_n)
    if name == "rand-sqrt":
        return SQRT_SPACE_CONSTANT * math.sqrt(n) * log_n * log_n
    return None


def check_memory_profile(report: dict):
    """Measured state bits stay within the budget and the paper's bound."""
    n = report["config"]["n"]
    for side in ("alice", "bob"):
        block = report[side]
        peak = max([block["overall_max_bits"], *block["per_turn_max_bits"]])
        if not block["within_budget"] or peak > block["budget_bits"]:
            return (f"{block['strategy']} peaked at {peak} bits, over its "
                    f"budget of {block['budget_bits']}")
        bound = space_bound(block["strategy"], n)
        if bound is not None and peak > bound:
            return (f"{block['strategy']} peaked at {peak} bits at n={n}, "
                    f"over the paper's bound {bound:.0f}")
    return None


def check_transcript(doc: dict, *, mirror_bob: bool = False):
    """The game rules, read off a transcript's JSON form.

    Alice moves first and the players alternate; every move but the last
    holds exactly the mover's quota; numbers lie in 1..n; a number repeats
    only as the very last number said, and the player who said it loses;
    BothWin holds exactly when all n numbers were said.  With
    ``mirror_bob`` each Bob move must be n+1-x for Alice's x.
    """
    cfg = doc["config"]
    n, quota = cfg["n"], {"A": cfg["a"], "B": cfg["b"]}
    moves = doc["moves"]
    if not moves:
        return "no moves"
    said: set[int] = set()
    repeat = None
    for i, move in enumerate(moves):
        player, numbers = move["player"], move["numbers"]
        if player != "AB"[i % 2]:
            return f"move {i + 1} is by {player}, out of turn"
        last_move = i == len(moves) - 1
        if len(numbers) != quota[player] and not (
                last_move and 1 <= len(numbers) < quota[player]):
            return f"move {i + 1} holds {len(numbers)} numbers, quota {quota[player]}"
        for j, v in enumerate(numbers):
            if not 1 <= v <= n:
                return f"move {i + 1} says {v}, outside 1..{n}"
            if v in said:
                if not (last_move and j == len(numbers) - 1):
                    return f"move {i + 1} repeats {v} before the end of the game"
                repeat = (player, v)
            said.add(v)
        if mirror_bob and player == "B" and numbers != [n + 1 - moves[i - 1]["numbers"][0]]:
            return (f"mirror answered {numbers} to {moves[i - 1]['numbers']}, "
                    f"not [{n + 1 - moves[i - 1]['numbers'][0]}]")
    outcome = doc["outcome"]
    if repeat is None:
        if len(moves[-1]["numbers"]) != quota[moves[-1]["player"]]:
            return "the last move is cut short with no repeat"
        if len(said) != n:
            return f"game stops after {len(said)} of {n} numbers with no repeat"
        if outcome != "BothWin" or "losing_number" in doc:
            return f"all {n} numbers said, but the outcome is {outcome}"
        return None
    loser, number = repeat
    expected = "AliceLoses" if loser == "A" else "BobLoses"
    if outcome != expected or doc.get("losing_number") != number:
        return (f"{loser} repeated {number}, but the outcome is {outcome} "
                f"with losing number {doc.get('losing_number')}")
    return None


def outcome_key(outcome: str) -> str:
    return {"BothWin": "both_win", "AliceLoses": "alice_loses",
            "BobLoses": "bob_loses"}[outcome]


def _short(xs, limit: int = 8) -> str:
    xs = list(xs)
    body = ", ".join(map(str, xs[:limit]))
    return f"[{body}{', ...' if len(xs) > limit else ''}] ({len(xs)} items)"
