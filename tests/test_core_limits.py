"""Inputs past the native kernel's integer limits fail with ValueError, the
same way on both backends, instead of wrapping inside ctypes."""

import pytest

from mirrorlab import _core
from mirrorlab._core import _pycore
from mirrorlab.engine import GameConfig
from mirrorlab.streamrec import PowerSumSketch, PrimeField

TOO_BIG = 3_000_000_000  # wraps to a negative C int


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_game_sizes(force_python):
    cfg = GameConfig(TOO_BIG)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.play_batch(cfg, "random-unsaid", "mirror", 0, 0, 1,
                         force_python=force_python)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.play_game(cfg, "random-unsaid", "mirror", 0,
                        force_python=force_python)


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_trial_indices(force_python):
    cfg = GameConfig(10)
    last = 2**63 - 1
    with pytest.raises(ValueError, match="64-bit"):
        _core.play_batch(cfg, "naive", "mirror", 0, last, 2,
                         force_python=force_python)
    with pytest.raises(ValueError, match="64-bit"):
        _core.play_batch(cfg, "naive", "mirror", 0, -2**63 - 1, 1,
                         force_python=force_python)
    with pytest.raises(ValueError, match="negative"):
        _core.play_batch(cfg, "naive", "mirror", 0, 0, -1,
                         force_python=force_python)
    counts = _core.play_batch(cfg, "random-unsaid", "largest-unsaid", 5,
                              last - 1, 2, force_python=force_python)
    assert counts == _core.play_batch(cfg, "random-unsaid", "largest-unsaid",
                                      5, last - 1, 2, force_python=True)


def test_field_sizes():
    with pytest.raises(ValueError, match="modulus"):
        _core.power_sums([1, 2], 2, 2**32)
    with pytest.raises(ValueError, match="modulus"):
        _core.power_sums([1, 2], 2, 0)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.full_power_sums(TOO_BIG, 1, 7)
    with pytest.raises(ValueError, match="n=3000000000"):
        _core.poly_root_scan([1], TOO_BIG, 7)


@pytest.mark.skipif(not _core.HAVE_FAST,
                    reason=f"no compiled core: {_core.FALLBACK_REASON}")
def test_binding_checks_on_its_own():
    # _core range-checks everything else; only packing sees a stream element
    # past 64 bits
    fast = _core._fast
    with pytest.raises(ValueError, match="64-bit"):
        fast.power_sums([2**64], 1, 7)
    xs = [-3, 10, 2**62]
    assert fast.power_sums(xs, 3, 7) == _pycore.power_sums(xs, 3, 7)


@pytest.mark.parametrize("force_python", [False, True],
                         ids=["default-core", "pure-python"])
def test_stream_elements_checked_the_same_on_both_cores(monkeypatch,
                                                        force_python):
    # each core checks the elements in its own pass over them
    if force_python:
        monkeypatch.setattr(_core, "HAVE_FAST", False)
    for xs in ([2**64], [-2**63 - 1], [1, 2, 3, 4, 5, 2**64], [1.5, 2],
               [2, 3.0]):
        with pytest.raises(ValueError,
                           match="^stream elements must be integers that fit "
                                 "a signed 64-bit integer$"):
            _core.power_sums(xs, 1, 7)
    edges = [-2**63, 2**63 - 1, 0, 5]
    assert _core.power_sums(edges, 3, 7) == [
        sum(pow(x, i, 7) for x in edges) % 7 for i in (1, 2, 3)]
    for xs in ([0], [11], [2**64], [-2**63], [1, 2, 3, 4, 5, 6, 7, 8, 11],
               [1.5, 2], [2, 3.0], [1, 2, 3, 4, 5, 6, 7, 8, 9.0]):
        with pytest.raises(ValueError,
                           match=r"^stream element outside 1\.\.10$"):
            _core.power_sums(xs, 2, 11, 1, 10)
        sketch = PowerSumSketch(PrimeField(11, 10), 2)
        with pytest.raises(ValueError,
                           match=r"^stream element outside 1\.\.10$"):
            sketch.ingest_stream(iter(xs))
        assert (sketch.sums, sketch.count) == ([0, 0], 0)


def test_binding_maps_stream_return_codes():
    # a stream kernel fails for a bad element or for want of memory, and
    # only the first is the range error
    from mirrorlab._core import _kernel

    with pytest.raises(ValueError, match=r"^stream element outside 1\.\.5$"):
        _kernel._check_stream(_kernel._OUT_OF_RANGE, 1, 5)
    with pytest.raises(MemoryError):
        _kernel._check_stream(_kernel._NOMEM, 1, 5)
    with pytest.raises(RuntimeError, match="kernel error 2"):
        _kernel._check_stream(2, 1, 5)
    _kernel._check_stream(0, 1, 5)
