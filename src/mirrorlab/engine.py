"""The (a,b)-mirror game: rules, referee, and memory accounting.

Alice and Bob alternate (Alice first) saying fresh numbers from ``1..n``,
``a`` numbers per Alice move and ``b`` per Bob move.  Repeating any number
already said, by anyone, loses on the spot; if every number gets said with
no repeat, both players win.

Strategies are state machines with a declared bit budget.  The referee
calls one hook on each strategy's state after every transition; the default
hook measures that state against the budget, using the strategy's canonical
state encoding, so "low memory" is a checked contract rather than a
comment.

Rules enforced here:

* A move always contains exactly the mover's quota of numbers.  When fewer
  fresh numbers remain than the quota the mover must still emit a full move
  and the forced repeat loses.  When the remaining fresh numbers exactly
  fill the move and all get said, both players win.
* The game ends at the first repeat; the repeated number is the last
  number said, and it cuts the last move short.
* A "turn" is one player's move, numbered from 1; rounds pair turns
  (2k-1, 2k).

A played game is recorded as the list of numbers said (``Transcript.said``);
the quotas fix its cut into moves, which ``Transcript.moves`` makes on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .rng import ALICE_STREAM, BOB_STREAM, SplitMix64, derive_seed


class Player(Enum):
    ALICE = "A"
    BOB = "B"


class Outcome(Enum):
    ALICE_LOSES = "AliceLoses"
    BOB_LOSES = "BobLoses"
    BOTH_WIN = "BothWin"


# each outcome's key in the counts of a batch of games, in the native
# kernel's outcome order (0 both win, 1 Alice loses, 2 Bob loses)
COUNT_KEYS = {Outcome.BOTH_WIN: "both_win", Outcome.ALICE_LOSES: "alice_loses",
              Outcome.BOB_LOSES: "bob_loses"}


class MalformedMove(Exception):
    """A strategy emitted a move of the wrong length or out of range."""

    def __init__(self, player: Player, turn: int, reason: str):
        self.player = player
        self.turn = turn
        self.reason = reason
        super().__init__(f"{player.value} turn {turn}: {reason}")


class BudgetExceeded(Exception):
    """A strategy's measured state outgrew its declared bit budget."""

    def __init__(self, player: Player, turn: int, bits: int, budget: int):
        self.player = player
        self.turn = turn
        self.bits = bits
        self.budget = budget
        super().__init__(
            f"{player.value} turn {turn}: state is {bits} bits, budget {budget}"
        )


@dataclass(frozen=True)
class GameConfig:
    """Ground-set size and per-move quotas."""

    n: int
    a: int = 1
    b: int = 1

    def __post_init__(self):
        if self.n < 1 or self.a < 1 or self.b < 1:
            raise ValueError("n, a, b must all be positive")
        if self.a > self.n:
            raise ValueError("Alice's quota cannot exceed n")
        # a + b > n means Bob's first move is doomed -- reject, except in the
        # degenerate case a == n where Alice finishes before Bob ever moves.
        if self.a + self.b > self.n and self.a != self.n:
            raise ValueError("a + b must not exceed n")


@dataclass(frozen=True)
class MoveRecord:
    player: Player
    numbers: tuple[int, ...]
    turn: int  # 1-based move index; round = (turn + 1) // 2


def _move_format(player: str, count: int) -> str:
    return '{"player":"%s","numbers":[%s]}' % (player, ",".join(["%d"] * count))


@dataclass
class Transcript:
    """One played game: ``said`` holds every number said, in order.  Moves
    are Alice's ``a`` numbers, then Bob's ``b``, turn about; only the last
    can be short, cut by the repeat that lost."""

    config: GameConfig
    said: list[int]
    outcome: Outcome
    losing_number: Optional[int] = None
    seed: Optional[int] = None

    @property
    def moves(self) -> list[MoveRecord]:
        """``said`` cut into moves."""
        moves: list[MoveRecord] = []
        pos = 0
        while pos < len(self.said):
            who, quota = ((Player.ALICE, self.config.a) if len(moves) % 2 == 0
                          else (Player.BOB, self.config.b))
            moves.append(MoveRecord(who, tuple(self.said[pos:pos + quota]),
                                    len(moves) + 1))
            pos += quota
        return moves

    @property
    def rounds(self) -> int:
        return -(-len(self.said) // (self.config.a + self.config.b))

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The compact JSON line, formatted with one ``%`` over a repeated
        per-round template and the partial last round's moves."""
        cfg, said = self.config, self.said
        a, b = cfg.a, cfg.b
        rounds, cut = divmod(len(said), a + b)
        fmt = [_move_format("A", a) + "," + _move_format("B", b)] * rounds
        if cut:
            fmt.append(_move_format("A", min(cut, a)))
        if cut > a:
            fmt.append(_move_format("B", cut - a))
        line = ('{"config":{"n":%d,"a":%d,"b":%d},"moves":[%s],"outcome":"%s"'
                % (cfg.n, a, b, ",".join(fmt) % tuple(said),
                   self.outcome.value))
        if self.losing_number is not None:
            line += ',"losing_number":%d' % self.losing_number
        if self.seed is not None:
            line += ',"seed":%d' % self.seed
        return line + "}"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Transcript":
        """The transcript in a parsed JSON line.  ``ValueError`` when its
        moves do not follow the cut: a player out of turn, or a move off its
        quota that is not a short last move."""
        cfg = GameConfig(**d["config"])
        moves = d["moves"]
        said: list[int] = []
        for i, m in enumerate(moves):
            player, quota = ("A", cfg.a) if i % 2 == 0 else ("B", cfg.b)
            if m["player"] != player:
                raise ValueError(f"move {i + 1}: {m['player']!r} out of turn")
            count = len(m["numbers"])
            if count != quota and not (i == len(moves) - 1 and 0 < count < quota):
                raise ValueError(f"move {i + 1}: {count} numbers, quota {quota}")
            said.extend(m["numbers"])
        return cls(cfg, said, Outcome(d["outcome"]), d.get("losing_number"),
                   d.get("seed"))

    @classmethod
    def from_json(cls, s: str) -> "Transcript":
        return cls.from_json_dict(json.loads(s))


class BitWriter:
    """Accumulates a canonical bit string; length is the measured state size."""

    __slots__ = ("value", "nbits")

    def __init__(self):
        self.value = 0
        self.nbits = 0

    def write(self, v: int, width: int) -> "BitWriter":
        if width < 0 or v < 0 or v >> width:
            raise ValueError(f"value {v} does not fit in {width} bits")
        self.value = (self.value << width) | v
        self.nbits += width
        return self


def uint_bits(n: int) -> int:
    """Bits needed to store any value in 0..n."""
    return n.bit_length()


class Strategy:
    """A bounded-memory player: opaque state, transition, output.

    Subclasses set ``quota`` (numbers per move), ``budget_bits`` (declared
    canonical-encoding bound, checked by the referee) and, where relevant,
    ``randomized`` / ``kernel_code`` (the native kernel's number for the
    same machine; 0 when it has none).  ``observe`` is the transition on the
    opponent's move; ``emit`` produces this player's move and advances the
    player's own bookkeeping.  Turn indices are inputs to the machine and,
    like the random tape and any oracle, are not charged to the budget.
    """

    name: str = "strategy"
    quota: int = 1
    budget_bits: int = 0
    randomized: bool = False
    kernel_code: int = 0

    def reset(self, rng: Optional[SplitMix64] = None) -> None:
        raise NotImplementedError

    def observe(self, numbers: tuple[int, ...], turn: int) -> None:
        raise NotImplementedError

    def emit(self, turn: int) -> tuple[int, ...]:
        raise NotImplementedError

    def encode_state(self) -> BitWriter:
        """Canonical serialization of the current state."""
        raise NotImplementedError

    def state_bits(self) -> int:
        """Exact size in bits of the canonical encoding of the current state."""
        return self.encode_state().nbits


StateHook = Callable[[Player, int, Strategy], None]


def _check_budget(player: Player, turn: int, strategy: Strategy) -> None:
    """The default state hook: ``BudgetExceeded`` when the state outgrew
    its declared budget."""
    bits = strategy.state_bits()
    if bits > strategy.budget_bits:
        raise BudgetExceeded(player, turn, bits, strategy.budget_bits)


def run_game(
    alice: Strategy,
    bob: Strategy,
    config: GameConfig,
    seed: int,
    *,
    on_state: Optional[StateHook] = _check_budget,
) -> Transcript:
    """Referee one game between two strategies.

    Both strategies are reset with tapes derived from ``seed`` (streams 1
    and 2), so identical inputs replay identical games.  ``on_state`` is
    called as (player, turn, strategy) after every transition of either
    strategy; the default checks the memory budget and raises
    ``BudgetExceeded``, a meter can take its place, and ``None`` skips the
    check.  Raises ``MalformedMove`` on a malformed move; rule violations
    (repeats) are outcomes, not errors.
    """
    n = config.n
    if alice.quota != config.a:
        raise MalformedMove(Player.ALICE, 0, f"quota {alice.quota} != a={config.a}")
    if bob.quota != config.b:
        raise MalformedMove(Player.BOB, 0, f"quota {bob.quota} != b={config.b}")

    alice.reset(SplitMix64(derive_seed(seed, ALICE_STREAM)))
    bob.reset(SplitMix64(derive_seed(seed, BOB_STREAM)))

    seen = bytearray(n + 1)
    said: list[int] = []
    outcome: Optional[Outcome] = None
    losing: Optional[int] = None
    turn = 0
    # by turn parity: the mover, the outcome if it repeats, the other player
    sides = ((bob, Player.BOB, Outcome.BOB_LOSES, alice, Player.ALICE),
             (alice, Player.ALICE, Outcome.ALICE_LOSES, bob, Player.BOB))

    while outcome is None:
        turn += 1
        mover, who, repeat_loses, other, other_who = sides[turn & 1]

        numbers = tuple(mover.emit(turn))
        if len(numbers) != mover.quota:
            raise MalformedMove(who, turn, f"emitted {len(numbers)} numbers")
        for v in numbers:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise MalformedMove(who, turn, f"number {v!r} out of range")
            said.append(v)
            if seen[v]:
                outcome = repeat_loses
                losing = v
                break
            seen[v] = 1
        if on_state is not None:
            on_state(who, turn, mover)
        if outcome is not None:
            break
        if len(said) == n:
            outcome = Outcome.BOTH_WIN
            break

        other.observe(numbers, turn)
        if on_state is not None:
            on_state(other_who, turn, other)

    return Transcript(config=config, said=said, outcome=outcome,
                      losing_number=losing, seed=seed)


def replay(transcript: Transcript) -> bool:
    """Re-check every transcript invariant against the numbers said."""
    cfg = transcript.config
    n, a, b = cfg.n, cfg.a, cfg.b
    said = transcript.said
    if not all(1 <= v <= n for v in said):
        return False
    if transcript.outcome is Outcome.BOTH_WIN:
        return (len(set(said)) == len(said) == n
                and len(said) % (a + b) in (0, a)
                and transcript.losing_number is None)
    before = set(said[:-1])
    if (len(before) != len(said) - 1 or said[-1] not in before
            or transcript.losing_number != said[-1]):
        return False
    alice_said_it = (len(said) - 1) % (a + b) < a
    return transcript.outcome is (Outcome.ALICE_LOSES if alice_said_it
                                  else Outcome.BOB_LOSES)
