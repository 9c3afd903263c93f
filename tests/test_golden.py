"""Golden CLI corpus: recorded command lines replayed in-process through
``cli.main`` and compared byte for byte with the reports under
``tests/golden/``.

``tests/golden/MANIFEST.tsv`` lists one case per line: the exit code, the
SHA-256 of the output and the command line (shell-quoted, without the
program name, optionally led by ``CITEFIT_SEED=<value>``). The output is
stdout followed by the ``--out`` file, and it is kept as readable text in
the file that :func:`golden_name` names, so a moved report shows as a diff.
The inputs are rebuilt from their seeds by :func:`write_fixtures`.

A failing case means a report changed. Re-record only on purpose, with
``python tests/golden/regen.py --accept``, and say which files moved and
why in the change log.
"""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest

from citefit.cli import SEED_ENV_VAR, main
from citefit.distributions import DiscretisedLognormal

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.tsv"
OUT_FILE = "out.txt"


def write_fixtures(directory: Path) -> None:
    """The corpus inputs; ``missing.txt`` is deliberately not made."""
    counts = DiscretisedLognormal(2.0, 1.1).sample(300, 7) - 1
    lines = [str(int(c)) for c in counts]
    (directory / "counts.txt").write_text("\n".join(lines) + "\n")
    (directory / "counts.csv").write_text(
        "id,citations\n" + "".join(f"r{i},{c}\n" for i, c in enumerate(lines[:150])))
    (directory / "flat.txt").write_text("4\n" * 4)
    # a usable lognormal fit and a degenerate hooked one: the hooked start
    # b = mean (about 6.7e11) lies outside the fitter's box
    (directory / "hookdeg.txt").write_text("0\n999999999999\n1000000000004\n")
    (directory / "bad.txt").write_text("12\n-3\n")
    # lines that int() reads or rejects but the count rule does not take
    (directory / "underscore.txt").write_text("1_000\n5\n")
    (directory / "digits.csv").write_text("id,citations\na,3\nb,\u0663\n", encoding="utf-8")
    (directory / "long.txt").write_text("7\n" + "1" * 5000 + "\n")
    # a header after blank lines, and a form feed inside a line
    (directory / "late_header.csv").write_text("\n\nid,cites\n1,2\n")
    (directory / "formfeed.txt").write_text("3\x0c4\n5\n")


def read_manifest() -> list[tuple[int, str, str]]:
    """(exit code, SHA-256, command) per case, in file order."""
    rows = MANIFEST.read_text(encoding="utf-8").splitlines()[1:]
    return [(int(code), digest, command)
            for code, digest, command in (row.split("\t") for row in rows)]


def golden_name(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9.=-]+", "_", command).strip("_") + ".txt"


def split_command(command: str) -> tuple[list[str], str | None]:
    """The argv of ``command`` and the seed variable's value (None: unset)."""
    argv = shlex.split(command)
    prefix = f"{SEED_ENV_VAR}="
    if argv[0].startswith(prefix):
        return argv[1:], argv[0][len(prefix):]
    return argv, None


def run_argv(argv: list[str], directory: Path) -> tuple[int, bytes]:
    """Exit code and output (stdout, then the ``--out`` file) of one run of
    ``main`` in ``directory``, which must be the working directory."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:   # argparse rejects the command line
            code = stop.code
    out_path = directory / OUT_FILE
    output = stdout.getvalue().encode("utf-8")
    if out_path.exists():
        output += out_path.read_bytes()
        out_path.unlink()
    return code, output


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


CASES = read_manifest()


@pytest.mark.parametrize("code,digest,command", CASES, ids=[case[2] for case in CASES])
def test_golden_report(code, digest, command, corpus_dir, monkeypatch):
    argv, seed_env = split_command(command)
    monkeypatch.chdir(corpus_dir)
    if seed_env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, seed_env)
    got_code, output = run_argv(argv, corpus_dir)
    assert got_code == code
    assert output == (GOLDEN / golden_name(command)).read_bytes()
    assert hashlib.sha256(output).hexdigest() == digest


# stderr is not recorded; there the count rule's fixtures name their line
@pytest.mark.parametrize("name,line", [("underscore.txt", 1), ("digits.csv", 3),
                                       ("long.txt", 2), ("late_header.csv", 3),
                                       ("formfeed.txt", 1)])
def test_count_rule_fixtures_name_their_line(name, line, corpus_dir, monkeypatch, capsys):
    monkeypatch.chdir(corpus_dir)
    assert main(["fit", name, "--seed", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"citefit: error: line {line}: ")


def test_readme_claim_commands_are_golden_cases():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The paper's claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    assert rows[0][:2] == [" Claim ", " Command "]
    commands = [re.fullmatch(r" `citefit (.+)` ", row[1]) for row in rows[1:]]
    named = [m.group(1) for m in commands if m]
    assert len(named) >= 4 and all(m or row[1] == " none " for m, row in zip(commands, rows[1:]))
    manifest = {command for _, _, command in CASES}
    assert [c for c in named if c not in manifest] == []
