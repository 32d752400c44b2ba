"""Pure-Python twin of the compiled core.

Same observable behavior as the native kernel (bit-identical transcripts and
sums), an order of magnitude or two slower.  The game loop here delegates to
the real Strategy objects and the regular referee, so this module is also
the reference the compiled loop is tested against.  Only ``mirrorlab._core``
calls it, after range-checking every input.

The field functions avoid an n*k Python loop where a recovery calls them.
Given the memoized sums of 1..n, ``power_sums`` adds only the powers of the
numbers a stream over 1..n misses or repeats; ``mirrorlab._core.power_sums``
decides which streams are ingested that way.  A root scan modulo a prime q
in (n, 2n] is one chirp-z product (``poly_root_scan``).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from itertools import compress, count, repeat
from operator import mod, not_

from ..rng import derive_seed


def stream_range_error(n: int) -> ValueError:
    """The error both cores raise for a stream element that is not an int
    in 1..n."""
    return ValueError(f"stream element outside 1..{n}")


def power_sums(xs, k: int, q: int, n: int, full) -> list[int]:
    """First k power sums modulo q of the stream, every element an int in
    1..n.  With ``full``, the sums of 1..n, only the stream's deviation from
    1..n is multiplied out: the absent numbers at weight -1 and the repeats
    at weight count - 1, found with a set.  Without it, the stream itself
    is, one pass over it per power, and nothing n-sized is allocated."""
    if xs and not (all(map(isinstance, xs, repeat(int)))
                   and 1 <= min(xs) and max(xs) <= n):
        raise stream_range_error(n)
    if full is None:
        return _weighted_sums(xs, repeat(1), k, q)
    absent = set(range(1, n + 1))
    absent.difference_update(xs)
    dev = list(absent)
    weight = [-1] * len(dev)
    if len(xs) + len(dev) > n:  # fewer than len(xs) distinct numbers
        for x, c in Counter(xs).items():
            if c > 1:
                dev.append(x)
                weight.append(c - 1)
    return [(f + d) % q
            for f, d in zip(full, _weighted_sums(dev, weight, k, q))]


def _weighted_sums(xs, weights, k: int, q: int) -> list[int]:
    """sum(w * x^i) mod q over the stream for i = 1..k, column-wise."""
    base = [x % q for x in xs]
    col, sums = weights, []
    for _ in range(k):
        col = [c * x % q for c, x in zip(col, base)]
        sums.append(sum(col) % q)
    return sums


def full_power_sums(n: int, k: int, q: int) -> list[int]:
    return _weighted_sums(range(1, n + 1), repeat(1), k, q)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def poly_root_scan(e, n: int, q: int) -> list[int]:
    """Roots in 1..n of x^k - e1*x^(k-1) + e2*x^(k-2) - ... over GF(q).

    For a prime q in (n, 2n], the modulus of every ``PrimeField``, with
    (k+1)(q-1)^2 < 2^64, one chirp-z product evaluates the polynomial at
    every nonzero element (``_chirp_scan``).  Any other modulus (composite,
    q <= n or q > 2n) takes Horner's rule at each x in 1..n
    (``_horner_scan``)."""
    if (n < q <= 2 * n and (len(e) + 1) * (q - 1) ** 2 < 2**64
            and is_prime(q)):
        return _chirp_scan(e, n, q)
    return _horner_scan(e, n, q)


def _coefficients(e, q: int) -> list[int]:
    """The coefficients of x^(k-1), ..., x^0, reduced modulo q."""
    return [(q - v) % q if j % 2 == 0 else v % q for j, v in enumerate(e)]


def _horner_scan(e, n: int, q: int) -> list[int]:
    coef = _coefficients(e, q)
    roots = []
    for x in range(1, n + 1):
        val = 1
        for c in coef:
            val = (val * x + c) % q
        if val == 0:
            roots.append(x)
    return roots


# prime q -> (generator g of GF(q)*, the highest degree K served, and the
# chirp lanes B_m = g^C(m,2) mod q for m < q - 1 + K, packed 64 bits each
# into one int).  Oldest fields go first past the bound.
_CHIRPS: dict[int, tuple[int, int, int]] = {}
_CHIRP_FIELDS = 16
_LANE = 8  # bytes


def _pack(lanes, typecode: str = "Q") -> int:
    """The int whose lanes of array ``typecode`` (64 bits by default), least
    significant first, are ``lanes``."""
    a = array(typecode, lanes)
    if sys.byteorder == "big":
        a.byteswap()
    return int.from_bytes(a, "little")


def unpack(value: int, count: int, typecode: str) -> array:
    """The ``count`` lanes of array ``typecode`` that ``value`` packs, least
    significant first; the inverse of ``_pack``."""
    a = array(typecode)
    a.frombytes(value.to_bytes(count * a.itemsize, "little"))
    if sys.byteorder == "big":
        a.byteswap()
    return a


def power_row(x: int, k: int, q: int, typecode: str) -> int:
    """x^1..x^k mod q packed into lanes of array ``typecode``, the lowest
    power least significant, from k products."""
    acc, powers = 1, []
    for _ in range(k):
        acc = acc * x % q
        powers.append(acc)
    return _pack(powers, typecode)


def _chirp_lanes(q: int, k: int) -> tuple[int, int, int]:
    """(g, K, packed chirp lanes) for a scan of degree k <= K modulo the
    prime q."""
    g, degree, chirp = _CHIRPS.get(q, (0, -1, 0))
    if degree < k:
        g = g or _generator(q)
        # at least double the degree served, as the full sums are grown
        degree = max(k, 2 * degree)
        b, step, table = 1, 1, []
        for _ in range(q - 1 + degree):  # g^C(m+1,2) = g^C(m,2) * g^m
            table.append(b)
            b = b * step % q
            step = step * g % q
        chirp = _pack(table)
        _CHIRPS.pop(q, None)
        if len(_CHIRPS) >= _CHIRP_FIELDS:
            del _CHIRPS[next(iter(_CHIRPS))]
        _CHIRPS[q] = (g, degree, chirp)
    return g, degree, chirp


def _generator(q: int) -> int:
    """The least generator of GF(q)* for a prime q."""
    m, factors, f = q - 1, [], 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    g = 1
    while any(pow(g, (q - 1) // p, q) == 1 for p in factors):
        g += 1
    return g


def _chirp_scan(e, n: int, q: int) -> list[int]:
    """The roots x = g^i in 1..n, i < q - 1, by Bluestein's chirp-z.

    With c_d the coefficient of x^d and i*d = C(i+d,2) - C(i,2) - C(d,2),
    f(g^i) * g^C(i,2) = sum_d c_d g^-C(d,2) * g^C(i+d,2), which is lane
    i + k of the product of the reversed A_d = c_d g^-C(d,2) and the chirp
    lanes.  A lane sums at most k + 1 products below q^2, so no lane
    carries into the next while (k+1)(q-1)^2 < 2^64.
    """
    coef = _coefficients(e, q)
    k = len(coef)
    g, degree, chirp = _chirp_lanes(q, k)
    ginv = pow(g, q - 2, q)
    a, step, rev = 1, 1, []
    for c in [*reversed(coef), 1]:  # c_0 .. c_k; g^-C(d+1,2) = g^-C(d,2) g^-d
        rev.append(c * a % q)
        a = a * step % q
        step = step * ginv % q
    rev.reverse()
    # the product has (k + 1) + (q - 1 + degree) lanes
    raw = (_pack(rev) * chirp).to_bytes(_LANE * (k + q + degree), "little")
    vals = array("Q")
    vals.frombytes(memoryview(raw)[_LANE * k:_LANE * (k + q - 1)])
    if sys.byteorder == "big":
        vals.byteswap()
    zeros = compress(count(), map(not_, map(mod, vals, repeat(q))))
    return sorted(x for x in map(pow, repeat(g), zeros, repeat(q)) if x <= n)


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
