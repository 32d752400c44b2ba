"""What a process loads: the package resolves its public names on first
use, and a CLI process imports only the modules its subcommand runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorlab
from mirrorlab import _core

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that neither recover-missing nor --backend runs.  dataclasses,
# subprocess and tempfile are loaded only by the referee, the harness or a
# kernel build; the kernel cache is keyed without hashlib and found without
# pathlib; threading only by a game batch that the binding splits.
NOT_LOADED = ["mirrorlab.engine", "mirrorlab.harness", "mirrorlab.strategies",
              "mirrorlab.setfam", "mirrorlab.stats", "dataclasses",
              "subprocess", "tempfile", "hashlib", "pathlib", "threading"]

# ``python -m mirrorlab.cli``, which then prints the loaded module names as
# the last line of stderr.  -S keeps site out, so that only the modules the
# interpreter and the CLI load are listed.
PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))
sys.argv = ["mirrorlab", *sys.argv[1:]]
runpy.run_module("mirrorlab.cli", run_name="__main__", alter_sys=True)
"""


def loaded_by_cli(argv, stdin="", pure_python=False):
    env = {k: v for k, v in os.environ.items()
           if k != "MIRRORLAB_PURE_PYTHON"}
    env["PYTHONPATH"] = str(SRC)
    if pure_python:
        env["MIRRORLAB_PURE_PYTHON"] = "1"
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, ast.literal_eval(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("pure_python", [False, True],
                         ids=["default-core", "pure-python"])
@pytest.mark.parametrize("argv,stdin", [
    (["recover-missing", "--n", "10", "--k", "2", "--stream", "-"],
     "1\n2\n4\n5\n6\n8\n9\n10\n"),
    (["--backend"], ""),
], ids=["recover-missing", "backend"])
def test_cli_loads_only_what_it_runs(argv, stdin, pure_python):
    if not (pure_python or _core.HAVE_FAST):
        pytest.skip("no cached kernel: the child would build one")
    out, modules = loaded_by_cli(argv, stdin, pure_python)
    if argv[0] == "recover-missing":
        assert json.loads(out) == [3, 7]
    else:
        report = json.loads(out)
        assert report["backend"] == ("python" if pure_python else "compiled")
        assert report["batch_threads"] == (
            1 if pure_python else _core.BATCH_THREADS)
    assert "mirrorlab._core" in modules
    assert [m for m in NOT_LOADED if m in modules] == []


def test_public_names_resolve():
    namespace = {}
    exec("from mirrorlab import *", namespace)
    for name in mirrorlab.__all__:
        value = getattr(mirrorlab, name)
        assert namespace[name] is value
    assert mirrorlab.montecarlo is sys.modules["mirrorlab.harness"].montecarlo
    assert mirrorlab.BACKEND == _core.BACKEND
    assert set(mirrorlab.__all__) <= set(dir(mirrorlab))
    assert len(set(mirrorlab.__all__)) == len(mirrorlab.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mirrorlab.no_such_name
    assert not hasattr(mirrorlab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from mirrorlab import no_such_name", {})
