"""The one-thread BLAS default that importing citefit sets, checked in
fresh interpreters: whether the variable is set, kept or left alone, the
threads a CLI import starts, and report bytes that do not depend on the
BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citefit

VAR = "OPENBLAS_NUM_THREADS"
SRC = str(Path(citefit.__file__).parent.parent)


def _python(args: list[str], blas_threads: str | None = None) -> str:
    """Stdout of a fresh interpreter run with ``args``, with ``VAR`` set to
    ``blas_threads`` or removed from its environment."""
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env[VAR] = blas_threads
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


READ_VAR = f"import os; print(os.environ.get({VAR!r}))"


@pytest.mark.parametrize("first,preset,seen", [
    ("import citefit", None, "1"),
    ("import citefit", "3", "3"),
    # NumPy's pool is already sized, so the variable would only reach children
    ("import numpy, citefit", None, "None"),
])
def test_import_sets_one_blas_thread_unless_set_or_too_late(first, preset, seen):
    assert _python(["-c", f"{first}; {READ_VAR}"], preset).strip() == seen


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_import_starts_no_thread():
    code = "import os, citefit.cli; print(len(os.listdir('/proc/self/task')))"
    assert _python(["-c", code]).strip() == "1"


# Above 10,000 elements OpenBLAS splits a dot product across its threads,
# which changes the order of the sum; with two or more cores this case then
# printed other fit bits without the one-thread default (on one core it
# cannot fail).
def test_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(0)
    counts = np.repeat(np.arange(11_000), rng.integers(1, 4, size=11_000))
    rng.shuffle(counts)
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(map(str, counts)) + "\n", encoding="utf-8")
    argv = ["-m", "citefit.cli", "fit", str(path), "--format", "json", "--seed", "1"]
    default, one = _python(argv), _python(argv, "1")
    assert len(json.loads(default)["rows"]) == 2
    assert default == one
