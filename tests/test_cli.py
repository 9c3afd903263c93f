"""Command-line interface: subcommands, reproducibility and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citefit
import citefit.bootstrap
import citefit.cli

from citefit.cli import main
from citefit.distributions import DiscretisedLognormal


@pytest.fixture()
def counts_file(tmp_path):
    counts = DiscretisedLognormal(2.0, 1.1).sample(800, 7) - 1  # raw, pre-offset
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(str(int(c)) for c in counts) + "\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_both_families(capsys, counts_file):
    code, out, err = _run(capsys, ["fit", counts_file, "--seed", "5"])
    assert code == 0
    assert "master seed: 5" in err
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split("\t")[0] == "family"
    assert {l.split("\t")[0] for l in lines[1:]} == {"lognormal", "hooked"}


def test_fit_json_format(capsys, counts_file):
    code, out, _ = _run(capsys, ["fit", counts_file, "--seed", "5",
                                 "--format", "json", "--dist", "lognormal"])
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["master_seed"] == 5
    assert doc["rows"][0]["family"] == "lognormal"
    assert doc["rows"][0]["status"] == "converged"


def test_gof_runs(capsys, counts_file):
    code, out, _ = _run(capsys, ["gof", counts_file, "--dist", "lognormal",
                                 "--nsim", "49", "--seed", "3",
                                 "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert 0.0 < row["p"] <= 1.0
    assert row["n_sim"] == 49
    assert row["refit_mode"] == "fixed"


def test_vuong_runs(capsys, counts_file):
    code, out, _ = _run(capsys, ["vuong", counts_file, "--seed", "3",
                                 "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["favored"] in {"hooked", "lognormal", "neither"}


def test_bootstrap_runs(capsys, counts_file):
    code, out, _ = _run(capsys, ["bootstrap", counts_file, "--statistic", "mean",
                                 "--reps", "40", "--seed", "3",
                                 "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["lo95"] <= row["median"] <= row["hi95"]
    assert row["reps"] == 40


def test_simulate_then_fit_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "sim.txt")
    code, _, err = _run(capsys, ["simulate", "--dist", "lognormal",
                                 "--mu", "2.08", "--sigma", "1.11",
                                 "-n", "500", "--seed", "9", "--out", out_path])
    assert code == 0
    assert "master seed: 9" in err
    values = [int(l) for l in Path(out_path).read_text().splitlines()]
    assert len(values) == 500 and min(values) >= 1
    # counts are already offset-adjusted, so re-ingest with offset 0
    code, out, _ = _run(capsys, ["fit", out_path, "--dist", "lognormal",
                                 "--offset", "0", "--seed", "1",
                                 "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["mu"] - 2.08) < 0.2


def test_simulate_from_subject(capsys):
    code, out, _ = _run(capsys, ["simulate", "--subject", "Food Science",
                                 "--dist", "hooked", "-n", "50", "--seed", "2"])
    assert code == 0
    assert len(out.splitlines()) == 50


def test_plot_emits_csv(capsys, counts_file):
    code, out, _ = _run(capsys, ["plot", counts_file, "--dist", "hooked",
                                 "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,empirical_cdf,model_cdf"
    assert float(lines[-1].split(",")[1]) == 1.0


def test_study_plausibility_from_subject(capsys):
    code, out, _ = _run(capsys, ["study", "plausibility", "--subject",
                                 "Control and Optimization", "--n", "400",
                                 "--nsim", "49", "--seed", "11",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["data_source"].startswith("simulated")
    assert doc["rows"][0]["subject"] == "Control and Optimization"


def test_study_vuong_simulation_mode(capsys):
    code, out, _ = _run(capsys, ["study", "vuong", "--subject", "Virology",
                                 "--family", "lognormal", "--size", "300",
                                 "--reps", "40", "--seed", "8",
                                 "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["hooked_wins"] + row["lognormal_wins"] + row["neither"] \
        + row["failed"] == 40


def test_study_means(capsys):
    code, out, _ = _run(capsys, ["study", "means", "--seed", "0",
                                 "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[-1]["subject"] == "average"
    assert abs(rows[-1]["ln_mean"] - 25.4) < 0.3
    assert abs(rows[-1]["hook_mean"] - 14.2) < 0.3


def test_study_mixture(capsys):
    code, out, _ = _run(capsys, ["study", "mixture", "--n", "800",
                                 "--reps", "5", "--seed", "4",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["reps"] == 5
    assert len(doc["rows"]) == 5


def _no_constants(name):
    raise AssertionError(f"{name} is not valid JSON")


@pytest.mark.parametrize("argv,nulls", [
    (["study", "mixture", "--n", "1", "--reps", "2"], ("fraction_worse",)),
    (["study", "vuong", "--subject", "Virology", "--n", "2", "--reps", "40"],
     ("z_lo95", "z_median", "z_hi95")),
])
def test_json_reports_write_nan_as_null(capsys, argv, nulls):
    code, out, _ = _run(capsys, argv + ["--seed", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out, parse_constant=_no_constants)
    cells = {**doc["header"], **doc["rows"][0]}
    assert all(cells[key] is None for key in nulls)


def test_tsv_header_writes_nan_as_na(capsys):
    code, out, _ = _run(capsys, ["study", "mixture", "--n", "1", "--reps", "2",
                                 "--seed", "1"])
    assert code == 0
    assert "# fraction_worse\tNA\n" in out
    assert "nan" not in out


# A file's stem labels its row; a tab, newline or backslash in it is escaped,
# so every row has as many cells as the column line.
@pytest.mark.parametrize("argv", [["shape"], ["plausibility", "--nsim", "9"]])
def test_a_file_stem_cannot_break_the_tsv_table(capsys, tmp_path, counts_file, argv):
    odd = tmp_path / "a\tb\nc\\d.txt"
    odd.write_bytes(Path(counts_file).read_bytes())
    code, out, _ = _run(capsys, ["study", *argv, counts_file, str(odd), "--seed", "1"])
    assert code == 0
    table = [line.split("\t") for line in out.split("\n")
             if line and not line.startswith("#")]
    assert [len(cells) for cells in table[1:]] == [len(table[0])] * (len(table) - 1)
    assert [cells[0] for cells in table[1:3]] == ["counts", "a\\tb\\nc\\\\d"]


def test_byte_identical_reruns(capsys, counts_file):
    args = ["study", "vuong", counts_file, "--reps", "40", "--size", "300",
            "--seed", "21"]
    code1, out1, _ = _run(capsys, args)
    code2, out2, _ = _run(capsys, args + ["--workers", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.fixture()
def opened_pools(monkeypatch):
    """Count the process pools the replicate runner opens, as perfbench does."""
    opened = []
    real = citefit.bootstrap.ProcessPoolExecutor

    def counting(*args, **kwargs):
        opened.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(citefit.bootstrap, "ProcessPoolExecutor", counting)
    return opened


@pytest.mark.parametrize("study", ["scale", "vuong-files", "vuong-subjects"])
def test_multi_sample_study_opens_one_pool(capsys, tmp_path, monkeypatch, counts_file,
                                           opened_pools, study):
    other = tmp_path / "other.txt"
    other.write_text("\n".join(map(str, DiscretisedLognormal(1.0, 0.7).sample(300, 3))))
    flat = tmp_path / "flat.txt"     # every lognormal fit of it is degenerate
    flat.write_text("3\n" * 200)
    argv = {
        "scale": ["study", "scale", counts_file, str(flat), str(other), "--size", "100"],
        "vuong-files": ["study", "vuong", counts_file, str(other), "--size", "100"],
        "vuong-subjects": ["study", "vuong", "--subject", "all", "--size", "100"],
    }[study] + ["--reps", "40", "--seed", "8"]
    monkeypatch.setattr(citefit.cli, "SUBJECTS", citefit.SUBJECTS[:2])
    code1, out1, _ = _run(capsys, argv)
    assert (code1, len(opened_pools)) == (0, 0)
    code2, out2, _ = _run(capsys, argv + ["--workers", "2"])
    assert (code2, len(opened_pools)) == (0, 1)
    assert out1 == out2
    rows = [line for line in out1.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == (2 if study.startswith("vuong") else 3)
    if study == "scale":
        assert rows[1].startswith("flat\t") and rows[1].endswith("\tdegenerate")


def test_seed_env_var_honoured(capsys, counts_file, monkeypatch):
    monkeypatch.setenv("CITEFIT_SEED", "777")
    code, out, err = _run(capsys, ["fit", counts_file, "--format", "json"])
    assert code == 0
    assert "master seed: 777" in err
    assert json.loads(out)["header"]["master_seed"] == 777


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("12\n-3\n")
    code, _, err = _run(capsys, ["fit", str(bad), "--seed", "1"])
    assert code == 2
    assert "line 2" in err


def test_exit_code_numerical_failure(tmp_path, capsys):
    flat = tmp_path / "flat.txt"
    flat.write_text("4\n4\n4\n4\n")
    code, _, err = _run(capsys, ["vuong", str(flat), "--seed", "1"])
    assert code == 3


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gof"])  # missing required file and --dist
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--subject", "Astrology", "-n", "10", "--seed", "1"],
    ["study", "vuong", "--subject", "Astrology", "--reps", "40", "--seed", "1"],
])
def test_unknown_subject_exits_2(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "unknown subject 'Astrology'" in err


@pytest.mark.parametrize("argv,named", [
    (["study", "shape", "--subject", "Astrology", "--family", "hooked", "--n", "5"],
     "--subject, --family, --n"),
    (["study", "scale", "--subject", "Virology", "--reps", "40"], "--subject"),
    (["study", "vuong", "--n", "7", "--family", "hooked", "--reps", "40"], "--family, --n"),
    (["study", "plausibility", "--subject", "all", "--nsim", "9"], "--subject"),
])
def test_simulation_options_with_count_files_exit_2(capsys, tmp_path, argv, named):
    path = tmp_path / "c.txt"
    path.write_text("\n".join(str(v % 7) for v in range(40)) + "\n")
    code, out, err = _run(capsys, argv[:2] + [str(path)] + argv[2:] + ["--seed", "1"])
    assert (code, out) == (2, "")
    assert f"citefit: error: {named} only choose simulated data" in err


# --offset shifts the raw counts of count files; simulated data have none.
@pytest.mark.parametrize("argv", [
    ["plausibility", "--nsim", "9"],
    ["vuong", "--n", "50", "--reps", "40"],
    ["scale", "--reps", "40"],
    ["shape", "--n", "200"],
], ids=["plausibility", "vuong", "scale", "shape"])
@pytest.mark.parametrize("offset", ["0", "7"])
def test_offset_without_count_files_exits_2(capsys, argv, offset):
    code, out, err = _run(capsys, ["study", *argv, "--subject", "Virology",
                                   "--offset", offset, "--seed", "1"])
    assert (code, out) == (2, "")
    assert "citefit: error: --offset applies only to count files" in err


# An offset of 0 is read as given: a file of shifted counts read with
# --offset 0 gives the report of the raw file read with the default offset 1.
def test_study_offset_of_zero_applies_to_count_files(capsys, tmp_path):
    raw = [0, 0, 1, 2, 3, 5, 8, 13, 21, 1, 4, 2]
    paths = []
    for name, shift in (("raw", 0), ("shifted", 1)):
        (tmp_path / name).mkdir()
        paths.append(_write_counts(tmp_path / name, [c + shift for c in raw]))
    runs = [_run(capsys, ["study", "plausibility", path, "--nsim", "9", "--seed", "1", *extra])
            for path, extra in ((paths[0], []), (paths[1], ["--offset", "0"]))]
    assert runs[0][0] == 0 and runs[0] == runs[1]


@pytest.mark.parametrize("argv,message", [
    (["--subject", "Virology", "--mu", "40", "--sigma", "0.1"],
     "--subject takes no --mu, --sigma"),
    (["--subject", "Virology", "--dist", "hooked", "--b", "3"], "--subject takes no --b"),
    (["--dist", "lognormal", "--mu", "2", "--sigma", "1", "--alpha", "3"],
     "--dist lognormal takes no --alpha"),
    (["--dist", "hooked", "--alpha", "3", "--b", "2", "--mu", "1"],
     "--dist hooked takes no --mu"),
    (["--dist", "lognormal", "--mu", "2"], "--dist lognormal needs --mu and --sigma"),
])
def test_simulate_rejects_model_options_it_would_ignore_or_lacks(capsys, argv, message):
    code, out, err = _run(capsys, ["simulate", *argv, "-n", "3", "--seed", "1"])
    assert (code, out) == (2, "")
    assert f"citefit: error: {message}" in err


@pytest.mark.parametrize("argv,message", [
    (["study", "vuong", "--subject", "Virology", "--reps", "39"], "need reps >= 40"),
    (["study", "scale", "--subject", "Virology", "--reps", "10"], "need reps >= 40"),
    (["bootstrap", "counts.txt", "--reps", "0"], "need reps >= 40"),
    (["gof", "counts.txt", "--dist", "hooked", "--nsim", "0"], "at least one simulation"),
    (["study", "plausibility", "--subject", "Virology", "--nsim", "-3"],
     "at least one simulation"),
    (["study", "mixture", "--weight-a", "1"], "strictly between 0 and 1"),
    (["study", "mixture", "--weight-a", "0"], "strictly between 0 and 1"),
    (["study", "vuong", "--subject", "Virology", "--reps", "many"], "invalid int value"),
    (["study", "vuong", "--subject", "Virology", "--reps", "40", "--size", "0"],
     "need a size >= 1"),
    (["study", "vuong", "--subject", "Virology", "--reps", "40", "--n", "0"],
     "need a size >= 1"),
    (["study", "plausibility", "--subject", "Virology", "--n", "0"], "need a size >= 1"),
    (["study", "scale", "--subject", "Virology", "--size", "-3"], "need a size >= 1"),
    (["bootstrap", "counts.txt", "--size", "0"], "need a size >= 1"),
    (["simulate", "--subject", "Virology", "-n", "-5"], "need a size >= 1"),
    (["simulate", "--subject", "Virology", "-n", "0"], "need a size >= 1"),
    (["study", "mixture", "--reps", "0", "--n", "100"], "need reps >= 1"),
    (["study", "mixture", "--n", "0"], "need a size >= 1"),
    (["study", "mixture", "--workers", "0"], "need at least one worker"),
    (["study", "scale", "--subject", "Virology", "--workers", "-1"],
     "need at least one worker"),
    (["bootstrap", "counts.txt", "--workers", "0"], "need at least one worker"),
    (["fit", "counts.txt", "--max-evals", "0"], "need max-evals >= 1"),
    (["fit", "counts.txt", "--max-evals", "-4", "--seed", "1"], "need max-evals >= 1"),
    (["gof", "counts.txt", "--dist", "lognormal", "--max-evals", "0"],
     "need max-evals >= 1"),
    (["vuong", "counts.txt", "--max-evals", "-4"], "need max-evals >= 1"),
    (["plot", "counts.txt", "--dist", "hooked", "--max-evals", "0"],
     "need max-evals >= 1"),
    (["study", "shape", "--subject", "Virology", "--epsilon", "0"], "epsilon must be > 0"),
    (["study", "shape", "--subject", "Virology", "--epsilon", "nan"],
     "epsilon must be > 0"),
    (["gof", "counts.txt", "--dist", "lognormal", "--seed", "-1"], "need a seed >= 0"),
    (["simulate", "--subject", "Virology", "--seed", "-1"], "need a seed >= 0"),
    (["plot", "counts.txt", "--dist", "hooked", "--seed", "-2"], "need a seed >= 0"),
    (["study", "shape", "--subject", "Virology", "--epsilon", "inf"],
     "epsilon must be > 0 and finite"),
    (["simulate", "--dist", "lognormal", "--mu", "nan", "--sigma", "1", "-n", "5"],
     "mu must be finite"),
    (["simulate", "--dist", "lognormal", "--mu", "1", "--sigma", "0", "-n", "5"],
     "sigma must be > 0 and finite"),
    (["simulate", "--dist", "hooked", "--alpha", "0.5", "--b", "1", "-n", "5"],
     "alpha must be > 1 and finite"),
    (["simulate", "--dist", "hooked", "--alpha", "2", "--b=-inf", "-n", "5"],
     "b must be > 0 and finite"),
    (["study", "mixture", "--sigma-a", "-1"], "sigma must be > 0 and finite"),
    (["study", "mixture", "--sigma-b", "inf"], "sigma must be > 0 and finite"),
    (["study", "mixture", "--mu-a", "inf"], "mu must be finite"),
    (["study", "mixture", "--mu-b=-inf"], "mu must be finite"),
    (["study", "mixture", "--pure-mu", "nan"], "mu must be finite"),
    (["study", "mixture", "--pure-sigma", "0"], "sigma must be > 0 and finite"),
])
def test_invalid_option_values_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,env_seed,message", [
    (["gof", "{file}", "--dist", "lognormal", "--seed", "-1"], None, ">= 0, got -1"),
    (["bootstrap", "{file}", "--reps", "40"], "-1", "CITEFIT_SEED must be >= 0, got -1"),
    (["bootstrap", "{file}", "--reps", "40"], "1.5",
     "CITEFIT_SEED must be an integer, got '1.5'"),
])
def test_invalid_seed_exits_2_without_traceback(counts_file, argv, env_seed, message):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(citefit.__file__)))
    env.pop("CITEFIT_SEED", None)
    if env_seed is not None:
        env["CITEFIT_SEED"] = env_seed
    argv = [a.format(file=counts_file) for a in argv]
    done = subprocess.run([sys.executable, "-m", "citefit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_study_sizes_given_explicitly_are_used(capsys):
    base = ["study", "vuong", "--subject", "Virology", "--reps", "40", "--seed", "1",
            "--format", "json"]
    for extra, n in ((["--n", "60"], 60), (["--size", "50"], 50)):
        code, out, _ = _run(capsys, base + extra)
        assert code == 0
        assert json.loads(out)["rows"][0]["n"] == n


def test_simulated_study_vuong_rejects_n_with_size(capsys):
    code, out, err = _run(capsys, ["study", "vuong", "--subject", "Virology", "--n", "60",
                                   "--size", "50", "--reps", "40", "--seed", "1"])
    assert (code, out) == (2, "")
    assert "--n and --size both set the simulated sample size" in err


def test_simulate_explicit_n(capsys):
    code, out, _ = _run(capsys, ["simulate", "--subject", "Virology", "-n", "3",
                                 "--seed", "1"])
    assert code == 0
    assert len(out.split()) == 3


def _write_counts(tmp_path, counts):
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(str(c) for c in counts) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["gof", "{file}", "--dist", "hooked", "--nsim", "5", "--seed", "1"],
    ["plot", "{file}", "--dist", "lognormal", "--seed", "1"],
])
def test_gof_and_plot_on_a_count_of_10_to_the_12(capsys, tmp_path, argv):
    # the KS statistic and the plot rows never span 1..max(sample)
    base = DiscretisedLognormal(2.0, 1.1).sample(200, 7) - 1
    path = _write_counts(tmp_path, [*map(int, base), 10 ** 12])
    code, out, err = _run(capsys, [a.format(file=path) for a in argv])
    assert code == 0
    assert "Traceback" not in err
    if argv[0] == "plot":
        assert out.splitlines()[-1].startswith(f"{10 ** 12 + 1},1.0,")


@pytest.mark.parametrize("count", [2 ** 63 - 1, 10 ** 20])
def test_counts_beyond_the_ceiling_exit_2(capsys, tmp_path, count):
    path = _write_counts(tmp_path, [3, 5, count])
    code, _, err = _run(capsys, ["fit", path, "--seed", "1"])
    assert code == 2
    assert "exceeds the largest supported count 2**62" in err
    assert "Traceback" not in err
