"""Workload definitions shared by the harness (run.py) and its job processes.

Every input is a pure function of (benchmark seed, workload, input set):
samples are drawn from the bundled ``citefit.subjects.SUBJECTS`` parameters,
and the study seeds derive from the benchmark seed, so the program under
test only ever receives generated inputs. A run cycles through a few input
sets: plausibility-mc cycles through 24, so that its medians do not
rest on a few draws of its heavy-tailed inputs; the other two repeat one
input set, whose cost varies little between draws, so that each subject is
timed several times on the same input. citefit is imported from
``<checkout>/src`` and nowhere else.

Workloads, and why each is in the benchmark:

* ``vuong-boot``: ``bootstrap_vuong_study`` (workers=1) on one sample per
  subject, drawn from the subject's hooked parameters at its own n. Every
  replicate fits both families and runs a Vuong test, so it stresses model
  construction (the hooked normaliser), the simplex and the fitter, and
  never touches KS or CDF tables.
* ``plausibility-mc``: ``plausibility_row`` with fixed-null Monte-Carlo KS
  for every subject, on samples drawn from the lognormal parameters. Two
  fits per row; the time goes to sampling, the dense KS grids and seeding.
  The heavy-tailed hooked fits dominate time and memory.
* ``cli-scale``: ``citefit study scale <files> --workers 2`` as a
  subprocess on count files written for every subject: interpreter start,
  imports, ingestion, a process pool per subject and many small
  lognormal-only fits. It bypasses the hooked normaliser and KS.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("vuong-boot", "plausibility-mc", "cli-scale")

# Seed at which every input set 0 report must match reference.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Size:
    """Input size of one job; ``subjects=None`` means all 23."""

    name: str
    subjects: int | None
    n_cap: int | None
    boot_reps: int       # vuong-boot replicates per subject
    mc_n: int            # plausibility-mc sample size cap
    n_sim: int           # plausibility-mc simulations per family
    scale_reps: int      # cli-scale bootstrap replicates per subject
    scale_size: int      # cli-scale resample size
    input_sets: dict     # workload -> distinct input sets a run cycles through
    job_rounds: dict     # workload -> rounds one library job process runs
    setup_repeats: int   # timed fresh set-up processes per run


SIZES = {
    "full": Size("full", None, None, boot_reps=40, mc_n=250, n_sim=20,
                 scale_reps=50, scale_size=500,
                 input_sets={"vuong-boot": 1, "plausibility-mc": 24, "cli-scale": 1},
                 job_rounds={"vuong-boot": 1, "plausibility-mc": 7},
                 setup_repeats=5),
    # the self-test size: every code path, a fraction of a second per job
    "smoke": Size("smoke", 3, 300, boot_reps=40, mc_n=300, n_sim=4,
                  scale_reps=40, scale_size=100,
                  input_sets=dict.fromkeys(WORKLOADS, 2),
                  job_rounds={"vuong-boot": 1, "plausibility-mc": 1}, setup_repeats=1),
}


def require_source() -> None:
    """Put ``<checkout>/src`` first on sys.path, or exit if it is missing."""
    if not (SRC / "citefit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no citefit package under {SRC}; "
                         "run from a full checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import citefit
    if Path(citefit.__file__).resolve().parent != SRC / "citefit":
        raise SystemExit(f"perfbench: citefit imported from {citefit.__file__}, "
                         f"not from {SRC}")


def derived_seed(seed: int, *path: int) -> int:
    """Integer seed for (benchmark seed, *path), independent of citefit."""
    seq = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


def _workload_index(workload: str) -> int:
    return WORKLOADS.index(workload)


def subjects(size: Size):
    from citefit.subjects import SUBJECTS
    return SUBJECTS if size.subjects is None else SUBJECTS[:size.subjects]


def slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def study_seed(workload: str, seed: int, input_set: int) -> int:
    return derived_seed(seed, _workload_index(workload), input_set, 1)


def build_samples(workload: str, seed: int, size: Size, input_set: int) -> list:
    """The input set's samples, one per subject."""
    from citefit.sample import CitationSample
    wl = _workload_index(workload)
    samples = []
    for i, subject in enumerate(subjects(size)):
        model = subject.hooked() if workload == "vuong-boot" else subject.lognormal()
        n = subject.n if workload != "plausibility-mc" else min(subject.n, size.mc_n)
        n = n if size.n_cap is None else min(n, size.n_cap)
        counts = model.sample(n, derived_seed(seed, wl, input_set, 0, i))
        label = slug(subject.name) if workload == "cli-scale" else subject.name
        samples.append(CitationSample(counts, label=label))
    return samples


def write_count_files(samples, directory: Path) -> list[Path]:
    """Raw counts (one per line, offset 1 removed) for the CLI to ingest."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for sample in samples:
        path = directory / f"{sample.label}.txt"
        path.write_text("".join(f"{int(c) - 1}\n" for c in sample.counts),
                        encoding="utf-8")
        paths.append(path)
    return paths


def cli_argv(paths, seed: int, size: Size, input_set: int, workers: int) -> list[str]:
    return ["study", "scale", *map(str, paths), "--workers", str(workers),
            "--reps", str(size.scale_reps), "--size", str(size.scale_size),
            "--seed", str(study_seed("cli-scale", seed, input_set)), "--format", "tsv"]


@dataclass
class LibraryJob:
    """Outcome of one in-process library job (study rows + rendered report)."""

    report: str
    errors: list         # [label, reason] per row that raised
    reps: int
    part_wall_s: list    # wall time of each row, then of the report
    part_cpu_s: list     # CPU time (user + sys) of the same parts


def run_library_job(workload: str, samples, seed: int, size: Size,
                    input_set: int) -> LibraryJob:
    """Run the study driver on every sample and render the TSV report.

    A row that raises is left out of the report and recorded in
    ``errors``; the remaining rows still run. Each row, and the rendering
    of the report, is timed on its own (raised rows too), so that the
    harness can take best times part by part. Study drivers are looked up
    on ``citefit.studies`` at call time so that a traced pass sees them.
    """
    import citefit.io
    import citefit.studies as studies
    base = study_seed(workload, seed, input_set)
    rows, errors, reps = [], [], 0
    walls, cpus = [], []
    for i, sample in enumerate(samples):
        row_seed = derived_seed(base, i)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            if workload == "vuong-boot":
                study = studies.bootstrap_vuong_study(
                    sample, size.boot_reps, seed=row_seed, workers=1)
                rows.append(study.row(sample.label, len(sample)))
                reps += size.boot_reps
            else:
                row = studies.plausibility_row(sample, n_sim=size.n_sim, seed=row_seed)
                rows.append(row)
                if row["plausible"] != "degenerate":
                    reps += 2 * size.n_sim
        except Exception as err:  # counted in error_frac; the job goes on
            errors.append([sample.label, f"{type(err).__name__}: {err}"])
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    if workload == "vuong-boot":
        columns, count_key = studies.VUONG_STUDY_COLUMNS, "reps"
        count = size.boot_reps
    else:
        columns, count_key = studies.PLAUSIBILITY_COLUMNS, "n_sim"
        count = size.n_sim
    header = {"workload": workload, "benchmark_seed": seed, "input_set": input_set,
              count_key: count}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    report = citefit.io.render_report(rows, "tsv", header, columns=list(columns))
    walls.append(time.perf_counter() - wall0)
    cpus.append(time.process_time() - cpu0)
    return LibraryJob(report=report, errors=errors, reps=reps,
                      part_wall_s=walls, part_cpu_s=cpus)


# --- output checks -------------------------------------------------------------

def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def parse_tsv(text: str) -> tuple[dict, list[dict]]:
    """Header block and rows of a citefit TSV report ('NA' becomes None)."""
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("\t")
            header[key] = value
        elif columns is None:
            columns = line.split("\t")
        elif line:
            cells = [None if c == "NA" else c for c in line.split("\t")]
            rows.append(dict(zip(columns, cells)))
    return header, rows


def _num(value) -> float:
    return math.nan if value is None else float(value)


def _ordered(lo, mid, hi) -> bool:
    lo, mid, hi = _num(lo), _num(mid), _num(hi)
    if math.isnan(lo) and math.isnan(hi):
        return True          # interval not available: too many failed reps
    return lo <= mid <= hi


@dataclass
class Check:
    """Result of checking one report."""

    bad_rows: set           # labels of rows that failed a check
    problems: list          # human-readable reasons
    report_ok: bool         # False: the report as a whole is wrong
    lib_failed: int         # replicates/rows the library reports as failed
    lib_attempted: int


def check_report(workload: str, report: str, size: Size,
                 expected_labels: list[str]) -> Check:
    """Invariants every report must satisfy, on any seed.

    vuong-boot: tallies sum to reps, z_lo95 <= z_median <= z_hi95.
    plausibility-mc: 0 < p <= 1 and KS values in [0, 1].
    cli-scale: sigma_lo95 <= sigma_median <= sigma_hi95, 0 <= failed <= reps.
    """
    header, rows = parse_tsv(report)
    bad, problems = set(), []
    failed = attempted = 0

    def flag(label, reason):
        bad.add(label)
        problems.append(f"{workload} {label}: {reason}")

    for row in rows:
        label = row.get("label") or row.get("subject")
        try:
            if workload == "vuong-boot":
                reps = int(header["reps"])
                tally = sum(int(row[k]) for k in
                            ("hooked_wins", "lognormal_wins", "neither", "failed"))
                if tally != reps:
                    flag(label, f"tallies sum to {tally}, not {reps}")
                if not _ordered(row["z_lo95"], row["z_median"], row["z_hi95"]):
                    flag(label, "z interval out of order")
                failed += int(row["failed"])
                attempted += reps
            elif workload == "plausibility-mc":
                attempted += 1
                if row["plausible"] == "degenerate":
                    failed += 1
                    continue
                for key in ("ln_p", "hook_p"):
                    if not 0.0 < _num(row[key]) <= 1.0:
                        flag(label, f"{key}={row[key]} outside (0, 1]")
                for key in ("ln_ks", "hook_ks"):
                    if not 0.0 <= _num(row[key]) <= 1.0:
                        flag(label, f"{key}={row[key]} outside [0, 1]")
            else:
                reps = int(row["reps"])
                if reps != size.scale_reps or not 0 <= int(row["failed"]) <= reps:
                    flag(label, f"reps={row['reps']} failed={row['failed']}")
                if row["note"] != "degenerate" and not _ordered(
                        row["sigma_lo95"], row["sigma_median"], row["sigma_hi95"]):
                    flag(label, "sigma interval out of order")
                failed += int(row["failed"])
                attempted += reps
        except (KeyError, TypeError, ValueError) as err:
            flag(label, f"malformed row: {type(err).__name__}: {err}")
    labels = [row.get("label") or row.get("subject") for row in rows]
    report_ok = labels == list(expected_labels)
    if not report_ok:
        problems.append(f"{workload}: rows {labels} differ from {list(expected_labels)}")
    return Check(bad, problems, report_ok, failed, attempted)
