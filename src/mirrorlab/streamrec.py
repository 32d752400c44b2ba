"""Streaming recovery of missing elements via power sums over a prime field.

To find the k elements of ``1..n`` absent from a stream, keep the first k
power sums of the streamed elements modulo a prime ``q`` in ``(n, 2n]``.
Subtracting from the power sums of the full range gives the power sums of
the missing set; Newton's identities convert those to elementary symmetric
polynomials, and the missing elements are exactly the roots in ``1..n`` of

    x^k - e1*x^(k-1) + e2*x^(k-2) - ... + (-1)^k * ek    (mod q).

Storage is k field elements plus a counter: O(k log n) bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from . import _core


class InconsistentSketch(Exception):
    """Recovery produced the wrong roots; a precondition was broken
    (duplicate stream elements, wrong missing count, or a foreign sketch)."""


def _is_prime(m: int) -> bool:
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


@dataclass(frozen=True)
class PrimeField:
    """Prime modulus q in (n, 2n], remembered together with its n."""

    q: int
    n: int

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if not self.n < self.q <= 2 * self.n:
            raise ValueError(f"prime {self.q} outside ({self.n}, {2 * self.n}]")

    @property
    def element_bits(self) -> int:
        return (self.q - 1).bit_length()


def select_prime(n: int) -> PrimeField:
    """Smallest prime in (n, 2n]; Bertrand guarantees one exists."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n + 1
    while not _is_prime(m):
        m += 1
    return PrimeField(q=m, n=n)  # q <= 2n by Bertrand's postulate


class PowerSumSketch:
    """First k power sums of a streamed multiset, modulo the field prime."""

    __slots__ = ("field", "k", "sums", "count")

    def __init__(self, field: PrimeField, k: int,
                 sums: Sequence[int] | None = None, count: int = 0):
        if k < 0:
            raise ValueError("k must be non-negative")
        _core.check_size("k", k)  # before a k-long list is built
        self.field = field
        self.k = k
        self.sums = list(sums) if sums is not None else [0] * k
        if len(self.sums) != k:
            raise ValueError("sums length must equal k")
        self.count = count

    def ingest(self, x: int) -> None:
        """Add one element; sums[i] += x^(i+1) mod q."""
        if not isinstance(x, int) or not 1 <= x <= self.field.n:
            raise ValueError(f"element {x} outside 1..{self.field.n}")
        q = self.field.q
        acc = 1
        sums = []
        for s in self.sums:
            acc = acc * x % q
            sums.append((s + acc) % q)
        self.sums = sums
        self.count += 1

    def ingest_stream(self, xs: Iterable[int]) -> None:
        """Bulk ingest through the fast core, which range-checks every
        element in the same pass (``ValueError`` outside 1..n)."""
        if not isinstance(xs, (list, tuple)):
            xs = list(xs)
        q = self.field.q
        add = _core.power_sums(xs, self.k, q, 1, self.field.n)
        self.sums = [(s + d) % q for s, d in zip(self.sums, add)]
        self.count += len(xs)

    def merge(self, other: "PowerSumSketch") -> "PowerSumSketch":
        """Sketch of the disjoint union of the two streams."""
        if other.field != self.field or other.k != self.k:
            raise ValueError("sketches must share field and k")
        q = self.field.q
        return PowerSumSketch(
            self.field, self.k,
            sums=[(s + t) % q for s, t in zip(self.sums, other.sums)],
            count=self.count + other.count,
        )

    @property
    def serialized_bits(self) -> int:
        """k field elements plus the element counter."""
        return self.k * self.field.element_bits + self.field.n.bit_length()


def elementary_from_power(p: Sequence[int], field: PrimeField) -> list[int]:
    """Elementary symmetric polynomials e1..ek from power sums p1..pk.

    Newton's identities over GF(q):  i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} p_j,
    with e0 = 1.  Valid only while every i in 1..k is invertible, i.e. k < q.
    Each e_i is one sum of products over the sign-folded p and the e found
    so far, reduced once; the inverses of 1..k come from the recurrence
    1/i = -(q // i) * 1/(q mod i), which holds for a prime q.
    """
    k = len(p)
    q = field.q
    if k >= q:
        raise ValueError(f"k={k} >= q={q}: Newton recursion would divide by zero")
    inv = [0, 1]
    for i in range(2, k + 1):
        inv.append(-(q // i) * inv[q % i] % q)
    signed = [-v if j % 2 else v for j, v in enumerate(p)]
    e = [1]
    for i in range(1, k + 1):
        # signed[j - 1] pairs with e[i - j] for j = 1..i
        e.append(sum(map(mul, signed, reversed(e))) % q * inv[i] % q)
    return e[1:]


# (n, q) -> p1..pK of 1..n mod q for the largest K asked for so far; any
# shorter p1..pk is a prefix of it.  Oldest pairs go first past the bound.
_FULL_SUMS: dict[tuple[int, int], tuple[int, ...]] = {}
_FULL_SUMS_PAIRS = 64


def _full_power_sums(n: int, k: int, q: int) -> tuple[int, ...]:
    key = (n, q)
    sums = _FULL_SUMS.get(key, ())
    if len(sums) < k:
        # at least double, so asking for k = 1, 2, 3, ... costs O(log k) passes
        sums = tuple(_core.full_power_sums(n, max(k, 2 * len(sums)), q))
        _FULL_SUMS.pop(key, None)
        if len(_FULL_SUMS) >= _FULL_SUMS_PAIRS:
            del _FULL_SUMS[next(iter(_FULL_SUMS))]
        _FULL_SUMS[key] = sums
    return sums[:k]


def full_power_sums(n: int, k: int, field: PrimeField) -> list[int]:
    """Power sums p1..pk of the complete range 1..n."""
    return list(_full_power_sums(n, k, field.q))


def recover_missing(sketch: PowerSumSketch, n: int, k: int) -> list[int]:
    """The k elements of 1..n absent from the sketched stream, ascending.

    The sketch must track at least k sums and the stream must have held
    n-k distinct elements of 1..n; otherwise the root count comes out
    wrong, or the roots miss the sums past the k-th, and
    ``InconsistentSketch`` is raised.  One spare sum catches a duplicate
    standing for an absent number: k + 1 < q power sums fix k + 1 numbers.
    """
    if n != sketch.field.n:
        raise ValueError(f"sketch was built for n={sketch.field.n}, not {n}")
    if k < 0:
        raise ValueError("missing count must be non-negative")
    if k > sketch.k:
        raise ValueError(f"sketch tracks {sketch.k} sums, cannot recover {k}")
    q = sketch.field.q
    full = _full_power_sums(n, sketch.k, q)
    p_missing = [(f - s) % q for f, s in zip(full, sketch.sums)]
    e = elementary_from_power(p_missing[:k], sketch.field)
    roots = _core.poly_root_scan(e, n, q) if k else []
    if len(roots) != k:
        raise InconsistentSketch(
            f"expected {k} roots, found {len(roots)}; sketch preconditions violated"
        )
    for j, p in enumerate(p_missing[k:], start=k + 1):
        if sum(pow(r, j, q) for r in roots) % q != p:
            raise InconsistentSketch(f"the {k} roots miss power sum {j}; "
                                     "sketch preconditions violated")
    return roots


def sqrt_strategy_params(n: int) -> tuple[int, int, PrimeField]:
    """Backup count r, sum count k, and field for the sqrt-space player.

    r = ceil(sqrt(n)); k = ceil(r * log2 n), capped at n so that k < q and
    the Newton recursion stays valid for every n.
    """
    r = math.isqrt(n)
    if r * r < n:
        r += 1
    k = min(math.ceil(r * math.log2(n)), n)
    return r, k, select_prime(n)
