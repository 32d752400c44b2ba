"""Fixed-move opponents for referee and strategy tests: no command plays
them, so they live beside the tests rather than in ``mirrorlab.strategies``.
"""

from typing import Iterable, Sequence

from mirrorlab.engine import BitWriter, uint_bits
from mirrorlab.strategies import FixedWidthStrategy


class ConstantStrategy(FixedWidthStrategy):
    """Always says the same numbers; stateless (0 bits).  Test opponent."""

    def __init__(self, numbers: Iterable[int], quota: int = 1):
        self.name = "constant"
        self._numbers = tuple(numbers)
        self.quota = quota
        if len(self._numbers) != quota:
            raise ValueError("constant move must match quota")
        self.budget_bits = 0

    def reset(self, rng=None):
        pass

    def observe(self, numbers, turn):
        pass

    def emit(self, turn):
        return self._numbers

    def encode_state(self):
        return BitWriter()


class ScriptedStrategy(FixedWidthStrategy):
    """Plays a fixed list of moves; state is the move counter."""

    def __init__(self, moves: Sequence[Sequence[int]], quota: int = 1):
        self.name = "scripted"
        self._moves = [tuple(m) for m in moves]
        self.quota = quota
        self._pos = 0
        self.budget_bits = uint_bits(len(self._moves))

    def reset(self, rng=None):
        self._pos = 0

    def observe(self, numbers, turn):
        pass

    def emit(self, turn):
        if self._pos >= len(self._moves):
            raise RuntimeError("script exhausted")
        move = self._moves[self._pos]
        self._pos += 1
        return move

    def encode_state(self):
        return BitWriter().write(self._pos, self.budget_bits)
