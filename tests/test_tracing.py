"""The benchmark's tracer finds every function it spans in the package.

``perfbench/tracing.py`` looks its targets up by module and attribute name,
so a rename in the package breaks ``perfbench/run.py --trace 1`` without
failing any other test.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

TARGETS = tracing.SPANNED + tracing.COUNTED


def _owner(module, path):
    """The module or class that binds the target, and the target's name."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _bindings():
    """Every name bound in a mirrorlab module or a class the tracer patches."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "mirrorlab" or name.startswith("mirrorlab.")]
    owners += [_owner(module, path)[0] for _layer, module, path in TARGETS]
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_install_patches_every_target_and_remove_restores_it():
    targets = [_owner(module, path) for _layer, module, path in TARGETS]
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.remove()
    for owner, attr in targets:
        key = (id(owner), attr)
        assert during[key] is not before[key], attr
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
