"""Import-time build of the native kernel from the committed C source.

Each case imports a fresh copy of the package in a child process with its
own cache directory, so nothing here depends on (or writes to) the user's
cache or an in-tree build.
"""

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mirrorlab"

PROBE = ("import json, mirrorlab._core as c; "
         "print(json.dumps([c.BACKEND, c.FALLBACK_REASON, "
         "getattr(c._fast, 'path', None)]))")


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package with no prebuilt library next to it."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "mirrorlab",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    return root


def probe(src_root, cache_home, **env_overrides):
    env = {k: v for k, v in os.environ.items()
           if k != "MIRRORLAB_PURE_PYTHON"}
    env.update(PYTHONPATH=str(src_root), XDG_CACHE_HOME=str(cache_home))
    env.update(env_overrides)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=600,
                         check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_cold_cache_compiles_then_reuses(package_copy, tmp_path):
    cache = tmp_path / "cache"
    backend, reason, path = probe(package_copy, cache)
    assert (backend, reason) == ("compiled", None)
    assert Path(path).name.startswith("kernel-")
    built = sorted((cache / "mirrorlab").iterdir())
    assert [Path(path)] == built  # one library, no temporary file left over
    mtime = built[0].stat().st_mtime_ns

    assert probe(package_copy, cache) == [backend, reason, path]
    assert sorted((cache / "mirrorlab").iterdir()) == built
    assert built[0].stat().st_mtime_ns == mtime  # loaded, not rebuilt


def test_no_compiler_falls_back(package_copy, tmp_path):
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    backend, reason, path = probe(package_copy, tmp_path / "cache",
                                  PATH=str(empty_bin))
    assert backend == "python" and path is None
    assert reason and "compiler" in reason


def test_forced_pure_python_says_so(package_copy, tmp_path):
    backend, reason, _ = probe(package_copy, tmp_path / "cache",
                               MIRRORLAB_PURE_PYTHON="1")
    assert backend == "python"
    assert "MIRRORLAB_PURE_PYTHON" in reason


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_unwritable_cache_falls_back(package_copy, tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    backend, reason, _ = probe(package_copy, not_a_dir)
    assert backend == "python"
    assert reason.startswith("cache not writable")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_failed_compile_falls_back_with_first_error(package_copy, tmp_path):
    source = package_copy / "mirrorlab" / "_core" / "kernel.c"
    source.write_text("#error deliberately broken\n" + source.read_text())
    cache = tmp_path / "cache"
    backend, reason, _ = probe(package_copy, cache)
    assert backend == "python"
    assert reason.startswith("compile failed:")
    assert "deliberately broken" in reason
    assert list((cache / "mirrorlab").iterdir()) == []  # temp file removed


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_unloadable_library_falls_back(package_copy, tmp_path):
    cache = tmp_path / "cache"
    _, _, path = probe(package_copy, cache)
    Path(path).write_bytes(b"not a shared library")
    backend, reason, _ = probe(package_copy, cache)
    assert backend == "python"
    assert reason.startswith("compiled kernel failed to load:")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_has_no_warnings(tmp_path):
    # The import-time build enables no warnings; this catches dead code left
    # in the kernel.  It compiles to an object: -fsyntax-only would miss
    # unused static functions.
    source = PACKAGE / "_core" / "kernel.c"
    out = subprocess.run(["cc", "-std=c99", "-Wall", "-Wextra", "-Werror",
                          "-c", str(source), "-o", str(tmp_path / "kernel.o")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_kernel_and_python_agree_on_codes_and_exports():
    # The strategy codes and the exported functions live on both sides of
    # the ctypes boundary; each enum entry names its class in a comment.
    from mirrorlab import strategies
    from mirrorlab._core import _kernel
    from mirrorlab._core._kernel import FUNCTIONS

    source = (PACKAGE / "_core" / "kernel.c").read_text()
    codes = re.findall(r"^\s*CODE_\w+ = (\d+),\s*/\* (\w+) \*/", source,
                       re.M)
    assert codes
    assert {cls: getattr(strategies, cls).kernel_code for _, cls in codes} \
        == {cls: int(code) for code, cls in codes}
    codable = {name for name, cls in inspect.getmembers(strategies,
                                                        inspect.isclass)
               if getattr(cls, "kernel_code", 0)}
    assert codable == {cls for _, cls in codes}

    exported = re.findall(r"^(?!static\b)\w[\w ]*?\b(ml_\w+)\(", source, re.M)
    assert sorted(exported) == sorted(FUNCTIONS)

    codes = dict(re.findall(r"^\s*(ML_\w+) = (-?\d+),", source, re.M))
    assert int(codes["ML_NOMEM"]) == _kernel._NOMEM
    assert int(codes["ML_OUT_OF_RANGE"]) == _kernel._OUT_OF_RANGE
