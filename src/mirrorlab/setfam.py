"""Extremal set families: parity towns, Modtowns, covering collections, and
matching vector families.

Sets over a ground set 1..n are stored as bitmasks (bit v-1 for element v),
which keeps every predicate a popcount away.  Exhaustive searches are
restricted to small n where they are oracle-grade; bounds use exact
big-integer binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

EXHAUSTIVE_LIMIT = 8  # 2^n candidate sets; beyond this the search refuses


class Parity(Enum):
    ODD = 1
    EVEN = 0


@dataclass(frozen=True)
class TownKind:
    """Required parity of member cardinalities and of pairwise intersections."""

    set_parity: Parity
    intersection_parity: Parity

    @classmethod
    def from_name(cls, name: str) -> "TownKind":
        try:
            s, i = name.split("-")
            return cls(Parity[s.upper()], Parity[i.upper()])
        except (ValueError, KeyError):
            raise ValueError(f"unknown town kind {name!r}; "
                             "use odd-even, even-odd, even-even or odd-odd") from None

    @property
    def name(self) -> str:
        return f"{self.set_parity.name.lower()}-{self.intersection_parity.name.lower()}"


ODD_EVEN = TownKind(Parity.ODD, Parity.EVEN)
EVEN_ODD = TownKind(Parity.EVEN, Parity.ODD)
EVEN_EVEN = TownKind(Parity.EVEN, Parity.EVEN)
ODD_ODD = TownKind(Parity.ODD, Parity.ODD)


@dataclass(frozen=True)
class ModtownSpec:
    """Modulus p and the residue set L: member sizes must avoid L mod p,
    pairwise intersection sizes must land in L mod p."""

    p: int
    residues: frozenset[int]

    def __init__(self, p: int, residues: Iterable[int]):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        rs = frozenset(residues)
        if any(not 0 <= r < p for r in rs):
            raise ValueError("residues must lie in 0..p-1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "residues", rs)


class SetFamily:
    """Distinct subsets of 1..n as bitmasks."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Iterable[int]):
        if n < 0:
            raise ValueError("ground set size must be non-negative")
        self.n = n
        self.masks = list(masks)
        full = (1 << n) - 1
        for m in self.masks:
            if m < 0 or m & ~full:
                raise ValueError("set exceeds the ground set")
        if len(set(self.masks)) != len(self.masks):
            raise ValueError("family members must be distinct")

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """``ValueError`` for an element that is not an int in 1..n, or one
        repeated within a set."""
        masks = []
        for s in sets:
            m = 0
            for v in s:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"element {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ValueError(f"element {v} outside 1..{n}")
                bit = 1 << (v - 1)
                if m & bit:
                    raise ValueError(f"element {v} repeated within a set")
                m |= bit
            masks.append(m)
        return cls(n, masks)

    def sets(self) -> list[list[int]]:
        return [mask_to_set(m) for m in self.masks]

    @classmethod
    def from_json_dict(cls, d) -> "SetFamily":
        """The family in ``{"n": int, "sets": [[int, ...], ...]}``;
        ``ValueError`` for any other shape."""
        if not isinstance(d, dict) or not {"n", "sets"} <= d.keys():
            raise ValueError('a set family must be a JSON object with "n" '
                             'and "sets"')
        n, sets = d["n"], d["sets"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError('"n" must be a JSON integer')
        if not (isinstance(sets, list)
                and all(isinstance(s, list) for s in sets)):
            raise ValueError('"sets" must be a JSON list of lists')
        return cls.from_sets(n, sets)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": self.sets()}


def mask_to_set(mask: int) -> list[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


class NotModtown(ValueError):
    """Input family violates the size/intersection congruences."""


class TooLarge(ValueError):
    """Instance beyond the exhaustive-search limit."""


def check_town(family: SetFamily, kind: TownKind) -> bool:
    """All member sizes match set_parity, all pairwise intersection sizes
    match intersection_parity."""
    sp = kind.set_parity.value
    ip = kind.intersection_parity.value
    masks = family.masks
    if any(m.bit_count() % 2 != sp for m in masks):
        return False
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if (mi & masks[j]).bit_count() % 2 != ip:
                return False
    return True


def check_modtown(family: SetFamily, spec: ModtownSpec) -> bool:
    """Sizes avoid the residue set mod p; pairwise intersections hit it."""
    p, L = spec.p, spec.residues
    masks = family.masks
    if any(m.bit_count() % p in L for m in masks):
        return False
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if (mi & masks[j]).bit_count() % p not in L:
                return False
    return True


def frankl_wilson_bound(n: int, s: int) -> int:
    """sum_{i=0..s} C(n, i): the size bound for families whose intersection
    sizes fall in s residue classes avoided by the member sizes."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    return sum(math.comb(n, i) for i in range(s + 1))


def _eligible_masks(n: int, set_parity: Parity, include_empty: bool) -> list[int]:
    if n < 0:
        raise ValueError(f"n={n}: the ground set size must be non-negative")
    masks = [m for m in range(1 << n) if m.bit_count() % 2 == set_parity.value]
    if not include_empty and set_parity is Parity.EVEN:
        masks.remove(0)
    return masks


def _max_clique(vertices: list[int], compatible) -> int:
    """Branch-and-bound maximum clique with a greedy-coloring bound."""
    adj = {v: set() for v in vertices}
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if compatible(u, v):
                adj[u].add(v)
                adj[v].add(u)

    best = 0

    def color_order(cands: list[int]) -> list[tuple[int, int]]:
        # (vertex, color) with colors counting up; color is the bound
        order: list[tuple[int, int]] = []
        color_classes: list[set[int]] = []
        for v in sorted(cands, key=lambda x: -len(adj[x])):
            for ci, cl in enumerate(color_classes):
                if adj[v].isdisjoint(cl):
                    cl.add(v)
                    order.append((v, ci + 1))
                    break
            else:
                color_classes.append({v})
                order.append((v, len(color_classes)))
        order.sort(key=lambda vc: vc[1])
        return order

    def expand(cands: list[int], size: int):
        nonlocal best
        order = color_order(cands)
        while order:
            v, bound = order.pop()
            if size + bound <= best:
                return
            best = max(best, size + 1)
            nxt = [u for u, _ in order if u in adj[v]]
            if nxt:
                expand(nxt, size + 1)

    if vertices:
        expand(vertices, 0)
    return best


def max_town_size(n: int, kind: TownKind, *,
                  include_empty: bool = True) -> int:
    """Exact maximum town size by exhaustive clique search over all eligible
    subsets of 1..n.  Oracle-grade but exponential: refuses
    n > EXHAUSTIVE_LIMIT."""
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive search capped at n={EXHAUSTIVE_LIMIT}")
    vertices = _eligible_masks(n, kind.set_parity, include_empty)
    ip = kind.intersection_parity.value
    return _max_clique(vertices, lambda u, v: (u & v).bit_count() % 2 == ip)


def enumerate_towns(n: int, kind: TownKind) -> list[SetFamily]:
    """Every non-empty town on 1..n of the given kind (clique enumeration);
    refuses n > EXHAUSTIVE_LIMIT."""
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at n={EXHAUSTIVE_LIMIT}")
    vertices = _eligible_masks(n, kind.set_parity, include_empty=True)
    ip = kind.intersection_parity.value
    out: list[SetFamily] = []

    def grow(chosen: list[int], start: int):
        if chosen:
            out.append(SetFamily(n, list(chosen)))
        for idx in range(start, len(vertices)):
            v = vertices[idx]
            if all((v & u).bit_count() % 2 == ip for u in chosen):
                chosen.append(v)
                grow(chosen, idx + 1)
                chosen.pop()

    grow([], 0)
    return out


def eventown_pairing(n: int) -> SetFamily:
    """All 2^(n/2) unions of the fixed pairs {1,2},{3,4},...: the classic
    exponential family with even sizes and even pairwise intersections."""
    if n % 2:
        raise ValueError("pairing construction needs even n")
    pairs = [(1 << (2 * i)) | (1 << (2 * i + 1)) for i in range(n // 2)]
    masks = [0]
    for p in pairs:
        masks += [m | p for m in masks]
    return SetFamily(n, masks)


def check_covering(collection: SetFamily, p: int, r: int) -> bool:
    """Members all have size p*r and every r-subset of 1..n lies inside
    some member."""
    n = collection.n
    if any(m.bit_count() != p * r for m in collection.masks):
        return False
    if math.comb(n, r) > 5_000_000:
        raise TooLarge("too many r-subsets to enumerate")
    for combo in combinations(range(n), r):
        t = 0
        for v in combo:
            t |= 1 << v
        if not any(t & ~m == 0 for m in collection.masks):
            return False
    return True


def covering_lower_bound(n: int, p: int, r: int) -> int:
    """ceil(C(n,r) / C(pr,r)): each size-pr member covers at most C(pr,r)
    of the C(n,r) r-subsets."""
    if p * r > n:
        raise ValueError("need p*r <= n")
    return -(-math.comb(n, r) // math.comb(p * r, r))


@dataclass(frozen=True)
class MVFamily:
    """Paired vector lists over Z_m^dim: zero diagonal dot products, nonzero
    off-diagonal ones."""

    m: int
    dim: int
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.u)


def check_mv(family: MVFamily) -> bool:
    if len(family.u) != len(family.v):
        raise ValueError("U and V must have equal length")
    for vec in (*family.u, *family.v):
        if len(vec) != family.dim:
            raise ValueError("vector dimension mismatch")
    m = family.m
    for i, ui in enumerate(family.u):
        for j, vj in enumerate(family.v):
            dot = sum(a * b for a, b in zip(ui, vj)) % m
            if (dot == 0) != (i == j):
                return False
    return True


def modtown_to_mv(family: SetFamily, m: int) -> MVFamily:
    """Characteristic vectors of a family with sizes = 0 mod m and pairwise
    intersections != 0 mod m form a matching vector family with U = V."""
    spec = ModtownSpec(m, range(1, m))
    if not check_modtown(family, spec):
        raise NotModtown(
            "family needs |S| = 0 mod m and pairwise |S1 & S2| != 0 mod m")
    vecs = tuple(
        tuple((mask >> i) & 1 for i in range(family.n)) for mask in family.masks
    )
    return MVFamily(m=m, dim=family.n, u=vecs, v=vecs)
