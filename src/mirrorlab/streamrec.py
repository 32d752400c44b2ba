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
from collections.abc import Iterable, Sequence
from operator import mul

from . import _core


class InconsistentSketch(Exception):
    """Recovery produced the wrong roots; a precondition was broken
    (duplicate stream elements, wrong missing count, or a foreign sketch)."""


class PrimeField:
    """Prime modulus q in (n, 2n], remembered together with its n.

    Immutable, equal and hashed by (q, n).  A plain class rather than a
    dataclass: ``dataclasses`` costs a recover-missing process ~11 ms to
    import.
    """

    __slots__ = ("q", "n")

    def __init__(self, q: int, n: int):
        if not _core.is_prime(q):
            raise ValueError(f"{q} is not prime")
        if not n < q <= 2 * n:
            raise ValueError(f"prime {q} outside ({n}, {2 * n}]")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"PrimeField is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PrimeField is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return self.__class__, (self.q, self.n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.n) == (other.q, other.n)

    def __hash__(self):
        return hash((self.q, self.n))

    def __repr__(self):
        return f"PrimeField(q={self.q!r}, n={self.n!r})"

    @property
    def element_bits(self) -> int:
        return (self.q - 1).bit_length()


def select_prime(n: int) -> PrimeField:
    """Smallest prime in (n, 2n]; Bertrand guarantees one exists."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n + 1
    while not _core.is_prime(m):
        m += 1
    return PrimeField(q=m, n=n)  # q <= 2n by Bertrand's postulate


class PowerSumSketch:
    """First k power sums of a streamed multiset, modulo the field prime.

    ``ingest`` is one big-int add: the number's row of powers, packed into
    lanes of one int (``_core.power_row``, memoized per field and k), goes
    into an unreduced accumulator.  The accumulator is folded into the
    reduced sums when ``sums`` is read and before its lanes could overflow
    (``_core.row_headroom``).
    """

    __slots__ = ("field", "k", "count", "_sums", "_acc", "_room")

    def __init__(self, field: PrimeField, k: int,
                 sums: Sequence[int] | None = None, count: int = 0):
        if k < 0:
            raise ValueError("k must be non-negative")
        _core.check_size("k", k)  # before a k-long list is built
        q = field.q
        if sums is None:
            sums = [0] * k
        else:
            sums = list(sums)
            if len(sums) != k:
                raise ValueError("sums length must equal k")
            if not all(isinstance(s, int) and 0 <= s < q for s in sums):
                raise ValueError(f"sums must be integers in 0..{q - 1}")
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"count {count!r} is not a non-negative integer")
        self.field = field
        self.k = k
        self.count = count
        self._sums = sums
        self._acc = 0  # packed rows not yet folded into _sums
        self._room = _core.row_headroom(q)  # rows _acc can take before a fold

    @property
    def sums(self) -> list[int]:
        """The power sums p1..pk, each reduced into 0..q-1."""
        if self._acc:
            self._fold()
        return list(self._sums)

    def _fold(self) -> None:
        q = self.field.q
        lanes = _core.row_lanes(self._acc, self.k, q)
        self._sums = [(s + a) % q for s, a in zip(self._sums, lanes)]
        self._acc = 0
        self._room = _core.row_headroom(q)

    def ingest(self, x: int) -> None:
        """Add one element; sums[i] += x^(i+1) mod q."""
        if not isinstance(x, int) or not 1 <= x <= self.field.n:
            raise ValueError(f"element {x} outside 1..{self.field.n}")
        self._acc += _core.power_row(x, self.k, self.field.q)
        self.count += 1
        self._room -= 1
        if not self._room:
            self._fold()

    def ingest_stream(self, xs: Iterable[int]) -> None:
        """Bulk ingest through the fast core, which range-checks every
        element in the same pass (``ValueError`` outside 1..n)."""
        if not isinstance(xs, (list, tuple)):
            xs = list(xs)
        q = self.field.q
        add = _core.power_sums(xs, self.k, q, self.field.n)
        self._sums = [(s + d) % q for s, d in zip(self._sums, add)]
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


def full_power_sums(n: int, k: int, field: PrimeField) -> list[int]:
    """Power sums p1..pk of the complete range 1..n."""
    return _core.full_power_sums(n, k, field.q)


def recover_missing(sketch: PowerSumSketch, n: int, k: int) -> list[int]:
    """The k elements of 1..n absent from the sketched stream, ascending.

    The sketch must track at least k sums and the stream must have held
    n-k distinct elements of 1..n; otherwise the count is not n-k, the root
    count comes out wrong, or the roots miss the sums past the k-th, and
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
    full = _core.full_power_sums(n, sketch.k, q)  # range-checks n first
    if sketch.count != n - k:
        raise InconsistentSketch(
            f"sketch holds {sketch.count} numbers, not n - k = {n - k}; "
            "sketch preconditions violated")
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
