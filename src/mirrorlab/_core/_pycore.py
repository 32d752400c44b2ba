"""Pure-Python twin of the compiled core.

Same observable behavior as the native kernel (bit-identical transcripts and
sums), an order of magnitude or two slower.  The game loop here delegates to
the real Strategy objects and the regular referee, so this module is also
the reference the compiled loop is tested against.
"""

from __future__ import annotations

from ..rng import derive_seed


def power_sums(xs, k: int, q: int) -> list[int]:
    """First k power sums of the stream, modulo q."""
    sums = [0] * k
    for x in xs:
        acc = 1
        for i in range(k):
            acc = (acc * x) % q
            sums[i] = (sums[i] + acc) % q
    return sums


def full_power_sums(n: int, k: int, q: int) -> list[int]:
    return power_sums(range(1, n + 1), k, q)


def poly_root_scan(e, n: int, q: int) -> list[int]:
    """Roots in 1..n of x^k - e1*x^(k-1) + e2*x^(k-2) - ... over GF(q)."""
    k = len(e)
    coef = [(q - e[j]) % q if j % 2 == 0 else e[j] % q for j in range(k)]
    roots = []
    for x in range(1, n + 1):
        val = 1
        for c in coef:
            val = (val * x + c) % q
        if val == 0:
            roots.append(x)
    return roots


def matching_from_seed(n: int, seed: int) -> list[int]:
    """Partner table of the seeded uniform matching; entry 0 unused."""
    from ..strategies import sample_matching

    return list(sample_matching(n, seed).table)


def validate_matchup(config, alice_spec, bob_spec):
    """Both players, built once so a bad matchup fails loudly."""
    from ..strategies import make_players

    return make_players(config, alice_spec, bob_spec, 0)


def play_game(config, alice_spec: str, bob_spec: str, game_seed: int):
    """One recorded game, refereed without budget checks: a Transcript."""
    from ..engine import run_game
    from ..strategies import make_players

    alice, bob = make_players(config, alice_spec, bob_spec, game_seed)
    return run_game(alice, bob, config, game_seed, check_budgets=False)


def play_batch(config, alice_spec: str, bob_spec: str, master_seed: int,
               start: int, trials: int) -> dict:
    from ..engine import BudgetExceeded, MalformedMove, Outcome, run_game
    from ..strategies import make_players

    counts = {"both_win": 0, "alice_loses": 0, "bob_loses": 0,
              "alice_error": 0, "bob_error": 0}
    key = {Outcome.BOTH_WIN: "both_win", Outcome.ALICE_LOSES: "alice_loses",
           Outcome.BOB_LOSES: "bob_loses"}
    for i in range(trials):
        game_seed = derive_seed(master_seed, start + i)
        alice, bob = make_players(config, alice_spec, bob_spec, game_seed)
        try:
            t = run_game(alice, bob, config, game_seed,
                         check_budgets=False, record=False)
        except (MalformedMove, BudgetExceeded) as exc:
            who = "alice_error" if exc.player.value == "A" else "bob_error"
            counts[who] += 1
            continue
        counts[key[t.outcome]] += 1
    return counts
