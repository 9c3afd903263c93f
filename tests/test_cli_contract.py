"""CLI contract: every subcommand, on any count file and at boundary option
values, exits 0, 2 or 3 without a traceback, and a successful run repeats
byte for byte."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit.cli import main

CEILING = 2 ** 62   # the largest count the sampler can draw

# Raw counts: small values and zeros, plus at most one value at or beyond
# the ceiling (c + offset > 2**62 is a parse error).
_SMALL = st.lists(st.integers(0, 40), max_size=5)
_EXTREME = st.sampled_from([[], [], [CEILING - 1], [CEILING], [2 ** 63], [10 ** 20]])


@st.composite
def count_files(draw):
    """(file bytes, offset option) for an empty, one-value, plain or CSV
    count file."""
    counts = draw(_SMALL) + draw(_EXTREME)
    header = draw(st.sampled_from([None, "citations", "id,citations",
                                   '"id","citations"']))
    if header is None:
        lines = [str(c) for c in counts]
    elif header == "citations":
        lines = [header, *map(str, counts)]
    else:
        lines = [header, *(f"r{i},{c}" for i, c in enumerate(counts))]
    text = "".join(f"{line}\n" for line in lines).encode("utf-8")
    # a UTF-8 byte-order mark, or a byte that is not UTF-8
    text = draw(st.sampled_from([b"", b"\xef\xbb\xbf", b"\xff"])) + text
    offset = draw(st.sampled_from([[], ["--offset", "0"], ["--offset", "1"]]))
    return text, offset


# One argv per subcommand and mode, with options at their smallest accepted
# values (or near them) so that each run stays cheap.
FILE_ARGV = [
    ["fit", "{file}", "--max-evals", "1"],
    ["fit", "{file}", "--dist", "lognormal", "--format", "json"],
    ["gof", "{file}", "--dist", "lognormal", "--nsim", "1", "--max-evals", "40"],
    ["gof", "{file}", "--dist", "hooked", "--nsim", "1", "--refit",
     "--max-evals", "20", "--format", "json"],
    ["vuong", "{file}", "--max-evals", "30"],
    ["bootstrap", "{file}", "--reps", "40", "--size", "1"],
    ["bootstrap", "{file}", "--reps", "40", "--statistic", "lognormal-sigma",
     "--size", "3", "--format", "json"],
    ["plot", "{file}", "--dist", "lognormal", "--max-evals", "1", "--out", "{out}"],
    ["study", "plausibility", "{file}", "--nsim", "1", "--format", "json"],
    ["study", "vuong", "{file}", "--reps", "40", "--size", "1"],
    ["study", "scale", "{file}", "--reps", "40", "--size", "1", "--out", "{out}"],
    ["study", "shape", "{file}", "--epsilon", "1e-300"],
]
SUBJECT_ARGV = [
    ["simulate", "--subject", "Virology", "-n", "1", "--out", "{out}"],
    ["simulate", "--dist", "hooked", "--alpha", "1.0000001", "--b", "1e-300", "-n", "1",
     "--seed", "3"],
    ["simulate", "--dist", "lognormal", "--mu", "700", "--sigma", "1e-300", "-n", "2"],
    ["study", "plausibility", "--subject", "all", "--n", "1", "--nsim", "1"],
    ["study", "vuong", "--subject", "Cultural Studies", "--n", "1", "--reps", "40",
     "--format", "json"],
    ["study", "scale", "--subject", "virology", "--n", "1", "--reps", "40"],
    ["study", "shape", "--subject", "all", "--family", "hooked", "--n", "1"],
    ["study", "mixture", "--n", "1", "--reps", "1", "--format", "json"],
    ["study", "mixture", "--n", "2", "--reps", "2", "--weight-a", "1e-9"],
    ["study", "means", "--format", "json"],
    ["study", "means", "--seed", str(2 ** 64)],
]


def run_cli(argv, out_path):
    """(exit code, output bytes, stderr) of ``main(argv)`` in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    out = stdout.getvalue().encode("utf-8")
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            out += handle.read()
        os.remove(out_path)
    return code, out, stderr.getvalue()


def _no_constants(name):
    raise AssertionError(f"{name} is not valid JSON")


def check_contract(argv, directory):
    out_path = os.path.join(directory, "report.out")
    argv = [a.replace("{out}", out_path) for a in argv]
    code, out, err = run_cli(argv, out_path)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert run_cli(argv, out_path) == (code, out, err), argv
        if "json" in argv:
            json.loads(out, parse_constant=_no_constants)
    return code, out


@pytest.mark.parametrize("argv", FILE_ARGV, ids=" ".join)
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(count_file=count_files(), seed=st.sampled_from(["0", "1", str(2 ** 32)]))
# most generated files are rejected; these two reach every subcommand's report
@example(count_file=(b"0\n3\n12\n7\n1\n0\n40\n", []), seed="0")
@example(count_file=(b'\xef\xbb\xbf"id","citations"\na,2\nb,9\nc,1\nd,30\n',
                     ["--offset", "0"]), seed="1")
def test_file_subcommands_keep_the_contract(argv, count_file, seed):
    text, offset = count_file
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "counts.txt")
        with open(path, "wb") as handle:
            handle.write(text)
        argv = [a.replace("{file}", path) for a in argv]
        check_contract([*argv, *offset, "--seed", seed], directory)


@pytest.mark.parametrize("argv", SUBJECT_ARGV, ids=" ".join)
def test_subject_subcommands_keep_the_contract(argv, tmp_path, monkeypatch):
    # without --seed the master seed comes from $CITEFIT_SEED
    monkeypatch.setenv("CITEFIT_SEED", "5")
    check_contract(argv, str(tmp_path))


def test_worker_count_does_not_change_the_report():
    argv = ["study", "mixture", "--n", "40", "--reps", "3", "--seed", "2"]
    with tempfile.TemporaryDirectory() as directory:
        one = check_contract([*argv, "--workers", "1"], directory)
        two = check_contract([*argv, "--workers", "2"], directory)
    assert one == two and one[0] == 0


# Sizes no array can hold. 10**20 overflows int64 and 2**60 draws overflow
# NumPy's byte count of an int64 array: both are usage errors. 10**15 draws
# need 7.1 PiB, more than any 47-bit address space, so the allocation fails
# at once, without touching memory: a numerical failure.
SIZE_ARGV = [
    ["bootstrap", "{file}", "--reps", "40", "--size", "{n}"],
    ["simulate", "--subject", "Virology", "-n", "{n}"],
    ["study", "vuong", "--subject", "Virology", "--reps", "40", "--n", "{n}"],
    ["study", "mixture", "--n", "{n}", "--reps", "1"],
]


@pytest.mark.parametrize("n,code,message", [
    (10 ** 20, 2, "need a size >= 1 and below 2**56"),
    (2 ** 60, 2, "need a size >= 1 and below 2**56"),
    (10 ** 15, 3, "citefit: failure: Unable to allocate"),
])
@pytest.mark.parametrize("argv", SIZE_ARGV, ids=" ".join)
def test_a_size_too_large_to_hold_exits_without_a_traceback(argv, n, code, message,
                                                            tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("1\n5\n9\n")
    argv = [a.replace("{file}", str(path)).replace("{n}", str(n)) for a in argv]
    got, out, err = run_cli([*argv, "--seed", "1"], str(tmp_path / "report.out"))
    assert (got, out) == (code, b"")
    assert message in err and "Traceback" not in err
