"""The strategy zoo: mirror players, full-memory adversaries, and the
matching-oracle randomized players.

Every strategy is a bounded state machine conforming to the engine's
``Strategy`` contract, with a documented canonical state encoding backing
its declared bit budget.  Randomized strategies draw from the SplitMix64
tape handed to ``reset``; the compiled game loop consumes the same tapes in
the same order, which is what makes the two simulation paths agree move for
move.  A class the kernel plays carries its ``kernel_code``, the number of
the same machine in ``_core/kernel.c``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

from .engine import BitWriter, GameConfig, Strategy, uint_bits
from .rng import ORACLE_STREAM, SplitMix64, derive_seed, sample_distinct
from .streamrec import PowerSumSketch, recover_missing, sqrt_strategy_params


class MatchingOracle:
    """A uniformly sampled perfect matching on 1..n, queryable as an involution.

    Immutable after construction apart from the query counter; oracle
    queries are free of charge for strategy memory budgets.
    """

    __slots__ = ("n", "table", "query_count")

    def __init__(self, n: int, table: Sequence[int]):
        if n % 2:
            raise ValueError("a perfect matching needs even n")
        self.n = n
        self.table = tuple(table)  # index 0 unused
        if len(self.table) != n + 1:
            raise ValueError("partner table must have n+1 entries")
        for x in range(1, n + 1):
            m = self.table[x]
            if not 1 <= m <= n or m == x or self.table[m] != x:
                raise ValueError("table is not a fixed-point-free involution")
        self.query_count = 0

    def query(self, x: int) -> int:
        self.query_count += 1
        return self.table[x]

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, self.table[x]) for x in range(1, self.n + 1)
                if x < self.table[x]]


def sample_matching(n: int, seed: int) -> MatchingOracle:
    """Uniform perfect matching: shuffle 1..n, pair consecutive entries.

    Every matching arises from the same number of permutations, so the
    Fisher-Yates shuffle makes the draw exactly uniform over all (n-1)!!
    matchings.
    """
    if n % 2:
        raise ValueError("a perfect matching needs even n")
    rng = SplitMix64(seed)
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    table = [0] * (n + 1)
    for t in range(0, n, 2):
        u, v = perm[t], perm[t + 1]
        table[u] = v
        table[v] = u
    return MatchingOracle(n, table)


# --------------------------------------------------------------------------
# simple deterministic machines


class FixedWidthStrategy(Strategy):
    """A machine whose canonical encoding has the same width in every state:
    its declared budget, so measuring a state costs nothing."""

    def state_bits(self):
        return self.budget_bits


class MirrorBob(FixedWidthStrategy):
    """Replies n+1-x to Alice's x.  Never loses in the (1,1)-game, even n.

    State: the last number heard (values 0..n, 0 before the first move).
    """

    kernel_code = 1

    def __init__(self, n: int):
        if n % 2:
            raise ValueError("mirror pairing needs even n")
        self.name = "mirror"
        self.n = n
        self._last = 0
        self.budget_bits = uint_bits(n)

    def reset(self, rng=None):
        self._last = 0

    def observe(self, numbers, turn):
        self._last = numbers[0]

    def emit(self, turn):
        return (self.n + 1 - self._last,)

    def encode_state(self):
        return BitWriter().write(self._last, uint_bits(self.n))


class OddMirrorAlice(FixedWidthStrategy):
    """Says n first, then mirrors Bob within 1..n-1 via y -> n-y.  Odd n."""

    kernel_code = 2

    def __init__(self, n: int):
        if n % 2 == 0:
            raise ValueError("this opening needs odd n")
        self.name = "odd-mirror"
        self.n = n
        self._started = False
        self._last = 0
        self.budget_bits = uint_bits(n) + 1

    def reset(self, rng=None):
        self._started = False
        self._last = 0

    def observe(self, numbers, turn):
        self._last = numbers[0]

    def emit(self, turn):
        if not self._started:
            self._started = True
            return (self.n,)
        return (self.n - self._last,)

    def encode_state(self):
        return (BitWriter()
                .write(1 if self._started else 0, 1)
                .write(self._last, uint_bits(self.n)))


class TupleMirrorBob(FixedWidthStrategy):
    """Completes the consecutive (b+1)-block containing Alice's number.

    For the (1,b)-game with (b+1) | n: blocks are {1..b+1}, {b+2..2b+2}, ...
    Each Alice move must open a fresh block (previously touched blocks are
    already fully said), so the reply is always the b unsaid block-mates.
    State: the last number heard.
    """

    kernel_code = 3

    def __init__(self, n: int, b: int):
        if n % (b + 1):
            raise ValueError(f"(b+1)={b + 1} must divide n={n}")
        self.name = "tuple-mirror"
        self.n = n
        self.quota = b
        self._last = 0
        self.budget_bits = uint_bits(n)

    def reset(self, rng=None):
        self._last = 0

    def observe(self, numbers, turn):
        self._last = numbers[0]

    def emit(self, turn):
        width = self.quota + 1
        base = ((self._last - 1) // width) * width + 1
        return tuple(v for v in range(base, base + width) if v != self._last)

    def encode_state(self):
        return BitWriter().write(self._last, uint_bits(self.n))


# --------------------------------------------------------------------------
# full-memory bitmap players


# bytes 0/1 -> ASCII binary digits
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class BitmapStrategy(FixedWidthStrategy):
    """Base for players that remember the whole said set.

    Canonical state: n-bit said bitmap plus the said counter, so the budget
    is n + ceil(log2(n+1)) bits.  The said set is held as ``_said``, one
    byte per number (``_said[v]`` is 1 once v was said), so marking and
    testing a number cost O(1) and ``bytearray.find`` scans for the next
    unsaid one.  Subclasses choose the next numbers from it; when no fresh
    number remains mid-move, the forced (losing) filler is the smallest
    number not yet used within the current move.
    """

    def __init__(self, n: int, quota: int, name: str):
        self.name = name
        self.n = n
        self.quota = quota
        self.budget_bits = n + uint_bits(n)
        self.reset()

    def reset(self, rng=None):
        self._said = bytearray(self.n + 1)
        self._count = 0

    def _mark(self, v: int) -> None:
        if not self._said[v]:
            self._said[v] = 1
            self._count += 1

    def observe(self, numbers, turn):
        for v in numbers:
            self._mark(v)

    def _filler(self, move: list[int]) -> int:
        p = 1
        while p in move:
            p += 1
        return p

    def _pick(self, move: list[int]) -> Optional[int]:
        """Next fresh number, or None when the board is exhausted."""
        raise NotImplementedError

    def emit(self, turn):
        move: list[int] = []
        for _ in range(self.quota):
            v = self._pick(move)
            if v is None:
                v = self._filler(move)
            move.append(v)
            self._mark(v)
        return tuple(move)

    def encode_state(self):
        # bit v-1 of the mask is set once v was said: said[n..1] as digits
        mask = int(self._said[:0:-1].translate(_DIGITS), 2)
        return (BitWriter()
                .write(mask, self.n)
                .write(self._count, uint_bits(self.n)))


class SmallestUnsaid(BitmapStrategy):
    """Says the smallest numbers not yet said (the naive full-memory player)."""

    kernel_code = 4

    def __init__(self, n: int, quota: int = 1, name: str = "smallest-unsaid"):
        super().__init__(n, quota, name)

    def reset(self, rng=None):
        super().reset(rng)
        self._cursor = 1

    def _pick(self, move):
        # said sets only grow, so the smallest unsaid number never decreases
        c = self._said.find(0, self._cursor)
        if c < 0:
            return None
        self._cursor = c + 1
        return c


class LargestUnsaid(BitmapStrategy):
    """Says the largest numbers not yet said."""

    kernel_code = 5

    def __init__(self, n: int, quota: int = 1):
        super().__init__(n, quota, "largest-unsaid")

    def reset(self, rng=None):
        super().reset(rng)
        self._cursor = self.n

    def _pick(self, move):
        c = self._said.rfind(0, 1, self._cursor + 1)
        if c < 0:
            return None
        self._cursor = c - 1
        return c

    def _filler(self, move):
        p = self.n
        while p in move:
            p -= 1
        return p


class UniformRandomUnsaid(BitmapStrategy):
    """Says uniformly random fresh numbers; the generic legal opponent."""

    kernel_code = 6
    randomized = True

    def __init__(self, n: int, quota: int = 1):
        super().__init__(n, quota, "random-unsaid")

    def reset(self, rng=None):
        super().reset(rng)
        self._unsaid = list(range(1, self.n + 1))
        self._rng = rng

    def _mark(self, v):
        if not self._said[v]:
            # keep the sorted unsaid view in lockstep with the said set
            del self._unsaid[bisect.bisect_left(self._unsaid, v)]
        super()._mark(v)

    def _pick(self, move):
        if not self._unsaid:
            return None
        return self._unsaid[self._rng.randbelow(len(self._unsaid))]


def _first_unsaid(said: bytearray, numbers: tuple[int, ...], i: int) -> int:
    """Index of the first unsaid entry of ``numbers`` from ``i`` on."""
    while i < len(numbers) and said[numbers[i]]:
        i += 1
    return i


class PreferSubset(BitmapStrategy):
    """Exhausts a target set T first (smallest unsaid in T), then plays
    smallest-unsaid overall.  Forces T to be said within |T| of its moves.

    Said sets only grow, so both picks move forward only: one cursor into
    the sorted target and one over 1..n."""

    def __init__(self, n: int, quota: int, target: Iterable[int]):
        super().__init__(n, quota, "prefer-T")
        self.target = tuple(sorted(set(target)))
        if any(not 1 <= v <= n for v in self.target):
            raise ValueError("target set must lie within 1..n")

    def reset(self, rng=None):
        super().reset(rng)
        self._in_target = 0
        self._cursor = 1

    def _pick(self, move):
        t = self._in_target = _first_unsaid(self._said, self.target,
                                            self._in_target)
        if t < len(self.target):
            return self.target[t]
        c = self._said.find(0, self._cursor)
        if c < 0:
            return None
        self._cursor = c
        return c


class AvoidSubset(BitmapStrategy):
    """Avoids a set D while possible: smallest unsaid outside D, switching
    to the smallest unsaid inside D only when nothing else remains.

    Both picks move forward only, as in ``PreferSubset``: one cursor over
    1..n outside D and one into D, sorted."""

    def __init__(self, n: int, quota: int, avoid: Iterable[int]):
        super().__init__(n, quota, "avoid-D")
        self.avoid = frozenset(avoid)
        if any(not 1 <= v <= n for v in self.avoid):
            raise ValueError("avoid set must lie within 1..n")
        self._sorted_avoid = tuple(sorted(self.avoid))

    def reset(self, rng=None):
        super().reset(rng)
        self._in_avoid = 0
        self._cursor = 1

    def _pick(self, move):
        said = self._said
        c = said.find(0, self._cursor)
        while c in self.avoid:
            c = said.find(0, c + 1)
        if c > 0:
            self._cursor = c
            return c
        d = self._in_avoid = _first_unsaid(said, self._sorted_avoid,
                                           self._in_avoid)
        return self._sorted_avoid[d] if d < len(self._sorted_avoid) else None


# --------------------------------------------------------------------------
# matching-oracle randomized players


class RandLogAlice(FixedWidthStrategy):
    """Logarithmic-space gambler: open with a uniform x, then mirror Bob
    through the matching (reply M(y) to y).

    Wins exactly when Bob is left holding M(x) for the final turn, which
    against any non-repeating Bob happens with probability at least 1/n.
    State: a phase bit, the opening number, and the last number heard.
    """

    kernel_code = 7
    randomized = True

    def __init__(self, n: int, oracle: MatchingOracle):
        if n % 2:
            raise ValueError("matching play needs even n")
        if oracle.n != n:
            raise ValueError("oracle ground set mismatch")
        self.name = "rand-log"
        self.n = n
        self.oracle = oracle
        self._started = False
        self.x = 0
        self._last = 0
        self.budget_bits = 2 * uint_bits(n) + 1

    def reset(self, rng=None):
        self._started = False
        self._last = 0
        self.x = 1 + rng.randbelow(self.n)

    def observe(self, numbers, turn):
        self._last = numbers[0]

    def emit(self, turn):
        if not self._started:
            self._started = True
            return (self.x,)
        return (self.oracle.query(self._last),)

    def encode_state(self):
        L = uint_bits(self.n)
        return (BitWriter()
                .write(1 if self._started else 0, 1)
                .write(self.x, L)
                .write(self._last, L))


_MIRROR_PHASE = 0
_ENDGAME_PHASE = 1


class RandSqrtAlice(Strategy):
    """Square-root-space player: matching mirror + backups + power sums.

    Holds r = ceil(sqrt(n)) random backup numbers X, the first
    k = ceil(r*log2 n) power sums of everything said, and mirrors Bob
    through the matching.  When the mirror reply M(y) is an already-said
    backup, a fresh backup is spent instead; with no backups left the
    player gives up and says a random number.  Once at most k numbers
    remain unsaid, the missing set is reconstructed from the power sums
    and emitted smallest-first -- from that point the player cannot lose.

    A backup counts as spent as soon as either player says it.

    Canonical state, mirror phase: 3 header bits, X (r numbers), r spent
    flags, last number heard, said counter, k field elements.  Endgame:
    the sketch is replaced by the remaining-missing list.  Both fit the
    declared O(sqrt(n) log^2 n) budget.

    This class is the reference for the native kernel's rand-sqrt, which
    reads the endgame off its table of said numbers in place of the sketch;
    tests/test_core_equivalence.py checks the two move for move.
    """

    kernel_code = 8
    randomized = True

    def __init__(self, n: int, oracle: MatchingOracle):
        if n % 2:
            raise ValueError("matching play needs even n")
        if n < 16:
            raise ValueError("need n >= 16")
        if oracle.n != n:
            raise ValueError("oracle ground set mismatch")
        self.name = "rand-sqrt"
        self.n = n
        self.oracle = oracle
        self.r, self.k, self.field = sqrt_strategy_params(n)
        L = uint_bits(n)
        mirror_bits = 3 + self.r * L + self.r + 2 * L + self.k * self.field.element_bits
        endgame_bits = 3 + self.r * L + self.r + L + uint_bits(self.k) + self.k * L
        self.budget_bits = max(mirror_bits, endgame_bits)
        self._rng: Optional[SplitMix64] = None

    def reset(self, rng=None):
        self._rng = rng
        self.backups = sorted(sample_distinct(rng, self.n, self.r))
        self._spent = [False] * self.r
        self._sketch: Optional[PowerSumSketch] = PowerSumSketch(self.field, self.k)
        self._said_count = 0
        self._last = 0
        self._started = False
        self._phase = _MIRROR_PHASE
        self.gave_up = False
        self.entered_endgame = False
        self._missing: list[int] = []

    def _backup_index(self, v: int) -> int:
        i = bisect.bisect_left(self.backups, v)
        if i < self.r and self.backups[i] == v:
            return i
        return -1

    def _note_said(self, v: int) -> None:
        i = self._backup_index(v)
        if i >= 0:
            self._spent[i] = True

    def _say_mirror(self, v: int) -> tuple[int, ...]:
        self._note_said(v)
        self._sketch.ingest(v)
        self._said_count += 1
        return (v,)

    def _enter_endgame(self) -> None:
        missing_count = self.n - self._said_count
        self._missing = list(recover_missing(self._sketch, self.n, missing_count))
        self._sketch = None  # freed; the missing list replaces it
        self._phase = _ENDGAME_PHASE
        self.entered_endgame = True

    def observe(self, numbers, turn):
        y = numbers[0]
        self._last = y
        self._said_count += 1
        if self._phase == _MIRROR_PHASE:
            self._sketch.ingest(y)
            self._note_said(y)
        else:
            i = bisect.bisect_left(self._missing, y)
            if i < len(self._missing) and self._missing[i] == y:
                self._missing.pop(i)

    def emit(self, turn):
        if not self._started:
            self._started = True
            v = self.backups[self._rng.randbelow(self.r)]
            return self._say_mirror(v)
        if self._phase == _MIRROR_PHASE and self._said_count >= self.n - self.k:
            self._enter_endgame()
        if self._phase == _ENDGAME_PHASE:
            v = self._missing.pop(0)
            self._said_count += 1
            return (v,)
        m = self.oracle.query(self._last)
        i = self._backup_index(m)
        if i < 0 or not self._spent[i]:
            return self._say_mirror(m)
        fresh = [x for x, spent in zip(self.backups, self._spent) if not spent]
        if fresh:
            v = fresh[self._rng.randbelow(len(fresh))]
        else:
            self.gave_up = True
            v = 1 + self._rng.randbelow(self.n)
        return self._say_mirror(v)

    def encode_state(self):
        L = uint_bits(self.n)
        w = BitWriter()
        w.write(1 if self._started else 0, 1)
        w.write(self._phase, 1)
        w.write(1 if self.gave_up else 0, 1)
        for x in self.backups:
            w.write(x, L)
        for s in self._spent:
            w.write(1 if s else 0, 1)
        w.write(self._last, L)
        if self._phase == _MIRROR_PHASE:
            w.write(self._said_count, L)
            eb = self.field.element_bits
            for s in self._sketch.sums:
                w.write(s, eb)
        else:
            w.write(len(self._missing), uint_bits(self.k))
            for v in self._missing:
                w.write(v, L)
        return w

    def state_bits(self):
        L = uint_bits(self.n)
        base = 3 + self.r * L + self.r + L
        if self._phase == _MIRROR_PHASE:
            return base + L + self.k * self.field.element_bits
        return base + uint_bits(self.k) + len(self._missing) * L


# --------------------------------------------------------------------------
# registry


def parse_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Split "name" or "name:v1,v2,..." into (name, params)."""
    name, _, rest = spec.partition(":")
    if not rest:
        return name, ()
    try:
        params = tuple(int(v) for v in rest.split(",") if v != "")
    except ValueError as exc:
        raise ValueError(f"bad strategy parameters in {spec!r}") from exc
    return name, params


_NEEDS_MATCHING = {"rand-log", "rand-sqrt"}
_ALICE_ONLY = {"odd-mirror", "rand-log", "rand-sqrt"}
_BOB_ONLY = {"mirror", "tuple-mirror"}
_TAKES_PARAMS = {"prefer-T", "avoid-D"}

STRATEGY_NAMES = (
    "mirror", "odd-mirror", "tuple-mirror", "naive", "smallest-unsaid",
    "largest-unsaid", "random-unsaid", "rand-log", "rand-sqrt",
    "prefer-T", "avoid-D",
)


def spec_needs_matching(spec: str) -> bool:
    return parse_spec(spec)[0] in _NEEDS_MATCHING


def make_strategy(role: str, spec: str, config: GameConfig,
                  oracle: Optional[MatchingOracle] = None) -> Strategy:
    """Build a registered strategy for role "A" or "B" under this config.

    ``spec`` is a name from ``STRATEGY_NAMES``, e.g. "mirror" or
    "rand-sqrt"; only prefer-T and avoid-D take parameters, as in
    "prefer-T:2,4".
    """
    name, params = parse_spec(spec)
    n = config.n
    quota = config.a if role == "A" else config.b
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}; "
                         f"known: {', '.join(STRATEGY_NAMES)}")
    if params and name not in _TAKES_PARAMS:
        raise ValueError(f"{name} takes no parameters, got {spec!r}")
    if role == "A" and name in _BOB_ONLY:
        raise ValueError(f"{name} plays second; not an Alice strategy")
    if role == "B" and name in _ALICE_ONLY:
        raise ValueError(f"{name} plays first; not a Bob strategy")

    if name == "mirror":
        if config.a != 1 or config.b != 1:
            raise ValueError("mirror is a (1,1)-game strategy")
        return MirrorBob(n)
    if name == "odd-mirror":
        if config.a != 1 or config.b != 1:
            raise ValueError("odd-mirror is a (1,1)-game strategy")
        return OddMirrorAlice(n)
    if name == "tuple-mirror":
        if config.a != 1:
            raise ValueError("tuple-mirror answers single-number moves")
        return TupleMirrorBob(n, config.b)
    if name in ("naive", "smallest-unsaid"):
        return SmallestUnsaid(n, quota, name=name)
    if name == "largest-unsaid":
        return LargestUnsaid(n, quota)
    if name == "random-unsaid":
        return UniformRandomUnsaid(n, quota)
    if name == "prefer-T":
        if not params:
            raise ValueError("prefer-T needs a target set, e.g. prefer-T:2,4")
        return PreferSubset(n, quota, params)
    if name == "avoid-D":
        if not params:
            raise ValueError("avoid-D needs a set to dodge, e.g. avoid-D:3,4")
        return AvoidSubset(n, quota, params)
    # rand-log or rand-sqrt
    if config.a != 1 or config.b != 1:
        raise ValueError(f"{name} is a (1,1)-game strategy")
    if oracle is None:
        raise ValueError(f"{name} needs a matching oracle")
    cls = RandLogAlice if name == "rand-log" else RandSqrtAlice
    return cls(n, oracle)


def make_players(config: GameConfig, alice_spec: str, bob_spec: str,
                 game_seed: int) -> tuple[Strategy, Strategy]:
    """Alice and Bob for one game.  When either needs a matching oracle,
    both share the one drawn from ``game_seed``'s oracle stream."""
    oracle = None
    if spec_needs_matching(alice_spec) or spec_needs_matching(bob_spec):
        oracle = sample_matching(config.n, derive_seed(game_seed, ORACLE_STREAM))
    return (make_strategy("A", alice_spec, config, oracle=oracle),
            make_strategy("B", bob_spec, config, oracle=oracle))
