"""Pure-Python twin of the compiled core.

Same observable behavior as the native kernel (bit-identical transcripts and
sums), an order of magnitude or two slower.  The game loop here delegates to
the real Strategy objects and the regular referee, so this module is also
the reference the compiled loop is tested against.  Only ``mirrorlab._core``
calls it, after range-checking every input.
"""

from __future__ import annotations

from itertools import repeat

from ..rng import derive_seed


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def stream_range_error(lo: int, hi: int) -> ValueError:
    """The error both cores raise for a stream element that is not an int
    in lo..hi."""
    if (lo, hi) == (INT64_MIN, INT64_MAX):
        return ValueError("stream elements must be integers that fit a "
                          "signed 64-bit integer")
    return ValueError(f"stream element outside {lo}..{hi}")


def power_sums(xs, k: int, q: int, lo: int = INT64_MIN,
               hi: int = INT64_MAX) -> list[int]:
    """First k power sums of the stream, modulo q; every element must be an
    int in lo..hi.  Column-wise: one pass over the reduced stream per power."""
    if not isinstance(xs, (list, tuple)):
        xs = list(xs)
    if xs and not (all(map(isinstance, xs, repeat(int)))
                   and lo <= min(xs) and max(xs) <= hi):
        raise stream_range_error(lo, hi)
    base = [x % q for x in xs]
    col, sums = base, []
    for i in range(k):
        if i:
            col = [c * x % q for c, x in zip(col, base)]
        sums.append(sum(col) % q)
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


def validate_matchup(config, alice_spec, bob_spec):
    """Both players, built once so a bad matchup fails loudly."""
    from ..strategies import make_players

    return make_players(config, alice_spec, bob_spec, 0)


def play_game(config, alice_spec: str, bob_spec: str, game_seed: int):
    """One recorded game, refereed without budget checks: a Transcript."""
    from ..engine import run_game
    from ..strategies import make_players

    alice, bob = make_players(config, alice_spec, bob_spec, game_seed)
    return run_game(alice, bob, config, game_seed, on_state=None)


def play_batch(config, alice_spec: str, bob_spec: str, master_seed: int,
               start: int, trials: int) -> dict:
    """Outcome counts of the seeded games, each played by ``play_game``;
    a faulty strategy's ``MalformedMove`` propagates."""
    from ..engine import COUNT_KEYS

    counts = dict.fromkeys(COUNT_KEYS.values(), 0)
    for i in range(trials):
        t = play_game(config, alice_spec, bob_spec,
                      derive_seed(master_seed, start + i))
        counts[COUNT_KEYS[t.outcome]] += 1
    return counts
