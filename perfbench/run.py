#!/usr/bin/env python3
"""citefit benchmark: three study workloads, end to end and per layer.

    python3 perfbench/run.py --workload vuong-boot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The inputs are a pure function of ``--seed`` and an input-set index.
``--trace 0`` times the workload with tracing off. A round is the study
over every subject on one input set, plus its report. Fresh job processes
run rounds, cycling through the workload's input sets, until ``--seconds``
is used up. ``wall_s`` and ``cpu_s`` are those of one round: the sum over
its parts (each subject's row, then the report; for cli-scale the whole
process) of each part's best time over the run's rounds. The other
end-to-end metrics are medians over rounds or job processes (``setup_s``:
over fresh set-up processes). ``--trace 1`` runs the job on input set 0 in
this process with workers=1, alternating untraced and traced passes, and
reports per-layer self time and work counts (see spans.py). ``--smoke``
is the self-test: every workload at a tiny size in both modes, checking
metric names and units against BENCHMARK.json.

Every report is checked: row invariants on any seed, the reference digest
of input set 0 at seed 0, identical reports for repeats of an input set
and at workers=1 and workers=2 (cli-scale), identical work counts across
traced passes.
A row that raises, a process that exits non-zero and a failed check count
as failed operations, and the run goes on; ``correct`` is false only when
an output failed a check. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from workloads import DEFAULT_SEED, ROOT, SIZES, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# A run that is still going after this long raises, kills its processes and
# exits non-zero without a result.
RUN_LIMIT_S = 170
# Address-space cap for this process and every process it starts. A heavy-
# tailed draw can ask the dense KS grid for many GiB; under the cap that
# allocation raises MemoryError in the row, which counts as a failed
# operation, instead of exhausting a shared machine.
MEMORY_CAP_BYTES = 2 << 30

END_TO_END = {
    "reps_per_s": "reps/s",     # MC/bootstrap replicates per second of job wall
    "wall_s": "s",              # wall time of one job
    "cpu_s": "s",               # user + sys of the job, children included
    "peak_rss_mb": "MB",        # peak resident memory of the job's processes
    "setup_s": "s",             # fresh process: import citefit + build inputs
    "ok_frac": "ratio",         # 1 - error_frac
    "rep_ok_frac": "ratio",     # 1 - rep_failed_frac
}

SPAN_TIMES = (
    "distributions.hooked_init", "kernels.power_sum", "kernels.interval_masses",
    "distributions.lognormal_init", "distributions.sample", "gof.ks_statistic",
    "seeding.spawn_rng", "simplex.nelder_mead", "fitting.fit",
    "sample.citation_sample", "vuong.vuong", "bootstrap.bootstrap_study",
    "studies.driver", "io.load_counts", "io.render_report",
)
WORK_COUNTS = (
    "kernels.power_sum.terms", "kernels.interval_masses.elems",
    "distributions.sample.draws", "gof.ks_statistic.grid_elems",
    "simplex.nelder_mead.evals", "fitting.status.converged",
    "fitting.status.non_converged", "fitting.status.degenerate",
    "io.load_counts.bytes", "io.render_report.bytes",
)
PER_LAYER = {
    **{f"{span}.calls": "count" for span in SPAN_TIMES},
    **{f"{span}.self_s": "s" for span in SPAN_TIMES},
    **{name: "bytes" if name.endswith(".bytes") else "count" for name in WORK_COUNTS},
    "gof.ks_grid.max_elems": "count",
    "fitting.converged_ratio": "ratio",
    "studies.pool_starts": "count",
    "cli.startup_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "error_frac": "ratio",
    "rep_failed_frac": "ratio",
}


# --- processes -----------------------------------------------------------------

@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float          # user + sys of the process and its reaped children
    peak_rss_mb: float    # largest RSS of the process or any reaped child


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def run_process(argv, scratch: Path, env=None) -> Proc:
    """Run ``argv`` from the checkout root in its own process group and wait."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # the run's time limit, or an interrupt
            _kill_group(proc.pid)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)   # strays left in the process group, if any
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode(), err.read().decode(), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# --- accounting ----------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures.

    An operation is one report row (one subject), one set-up process or
    one cross-check. ``failed`` counts rows that raised, processes that
    exited non-zero and outputs that failed a check; ``wrong`` counts only
    the last, so a row that raised is a failure but not a wrong answer.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    lib_failed: int = 0
    lib_attempted: int = 0
    problems: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, *problems: str, wrong: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong
        self.problems.extend(problems)

    def report(self, workload, seed, size, input_set, report, errors, first=None) -> None:
        """Check one report against the invariants, the reference digest of
        input set 0 at the default seed and, when given, the first report
        of the same input set."""
        labels = [workloads.slug(s.name) if workload == "cli-scale" else s.name
                  for s in workloads.subjects(size)]
        errored = {label for label, _ in errors}
        problems = [f"{workload} {label}: raised {reason}" for label, reason in errors]
        if report is None:
            self.add(len(labels), len(labels), *problems)
            return
        check = workloads.check_report(workload, report, size,
                                       [lab for lab in labels if lab not in errored])
        problems += check.problems
        report_ok = check.report_ok
        if seed == DEFAULT_SEED and size.name == "full" and input_set == 0:
            expected = json.loads(REFERENCE.read_text()).get(workload)
            if workloads.digest(report) != expected:
                report_ok = False
                problems.append(f"{workload}: report digest {workloads.digest(report)} "
                                f"differs from the reference {expected}")
        if first is not None and report != first:
            report_ok = False
            problems.append(f"{workload}: report of input set {input_set} changed")
        wrong = len(labels) if not report_ok else len(check.bad_rows)
        failed = len(labels) if not report_ok else len(errored | check.bad_rows)
        self.add(len(labels), failed, *problems, wrong=wrong)
        self.lib_failed += check.lib_failed
        self.lib_attempted += check.lib_attempted

    def cross_check(self, same: bool, problem: str) -> None:
        self.add(1, int(not same), *([] if same else [problem]), wrong=int(not same))


# --- untraced run ----------------------------------------------------------------

@dataclass
class Round:
    """The study over every subject on one input set, plus its report."""

    input_set: int
    reps: int
    wall_s: float
    report: str | None
    errors: list
    part_wall_s: list     # library rounds: each row, then the report;
    part_cpu_s: list      # a CLI round is one part, its whole process


@dataclass
class Job:
    """One fresh process and the rounds it ran."""

    process_wall_s: float
    peak_rss_mb: float    # library jobs: at the end of the first round
    rounds: list


def _library_job(workload, seed, size, first_round, scratch) -> Job:
    proc = run_process([sys.executable, str(HERE / "job.py"), "--workload", workload,
                        "--seed", str(seed), "--first-round", str(first_round),
                        "--size", size.name], scratch, child_env())
    if proc.code != 0:
        failed = Round(first_round % size.input_sets[workload], 0, 0.0, None,
                       [["job", f"exit {proc.code}: {_tail(proc.err)}"]], [], [])
        return Job(proc.wall_s, 0.0, [failed])
    data = json.loads(proc.out.splitlines()[-1])
    rounds = [Round(r["input_set"], r["reps"], r["wall_s"], r["report"], r["errors"],
                    r["part_wall_s"], r["part_cpu_s"]) for r in data["rounds"]]
    return Job(proc.wall_s, data["peak_rss_mb"], rounds)


def _cli_job(paths, seed, size, input_set, scratch, workers=2) -> Job:
    argv = [sys.executable, "-m", "citefit.cli",
            *workloads.cli_argv(paths, seed, size, input_set, workers)]
    proc = run_process(argv, scratch, child_env())
    ok = proc.code == 0
    whole = Round(input_set, size.scale_reps * len(paths), proc.wall_s,
                  proc.out if ok else None,
                  [] if ok else [["cli", f"exit {proc.code}: {_tail(proc.err)}"]],
                  [proc.wall_s], [proc.cpu_s])
    return Job(proc.wall_s, proc.peak_rss_mb, [whole])


def _count_files(seed, size, input_set, scratch):
    samples = workloads.build_samples("cli-scale", seed, size, input_set)
    return workloads.write_count_files(samples, scratch / f"counts-{input_set}")


def _setup_times(workload, seed, size, scratch, tally) -> list[float]:
    if workload == "cli-scale":
        argv = [sys.executable, "-m", "citefit.cli", "--version"]
    else:
        argv = [sys.executable, str(HERE / "job.py"), "--workload", workload,
                "--seed", str(seed), "--first-round", "0", "--size", size.name,
                "--setup-only"]
    times = []
    for attempt in range(size.setup_repeats + 1):
        proc = run_process(argv, scratch, child_env())
        failed = proc.code != 0
        tally.add(1, int(failed), *([f"set-up exit {proc.code}: {_tail(proc.err)}"]
                                    if failed else []))
        if attempt and not failed:      # the first one warms the caches
            times.append(proc.wall_s)
    return times


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _round_time(rounds, parts: str) -> float:
    """The time of one round: the sum over its parts of each part's best
    time over the run's rounds.

    The best of repeated timings is the one least inflated by other load
    on the host (the rule ``timeit`` follows): on a shared machine whose
    speed drifts for tens of seconds at a time, a median over a run's
    rounds moves with that drift. Over plausibility-mc's 24 input sets the
    best time is also that of the subject's cheapest draw, so a rare
    costly draw of its heavy-tailed inputs does not set the figure."""
    if not rounds:
        return 0.0
    return sum(min(getattr(r, parts)[k] for r in rounds)
               for k in range(len(getattr(rounds[0], parts))))


def timed_run(workload, seed, seconds, size, scratch) -> tuple[Tally, dict]:
    tally = Tally()
    setup = _setup_times(workload, seed, size, scratch, tally)
    n_sets = size.input_sets[workload]
    files = ([_count_files(seed, size, i, scratch) for i in range(n_sets)]
             if workload == "cli-scale" else None)
    jobs, rounds, firsts = [], [], {}
    start = time.perf_counter()
    while True:
        i = len(rounds) % n_sets
        job = (_cli_job(files[i], seed, size, i, scratch) if files
               else _library_job(workload, seed, size, len(rounds), scratch))
        for r in job.rounds:
            tally.report(workload, seed, size, r.input_set, r.report, r.errors,
                         firsts.get(r.input_set))
            firsts.setdefault(r.input_set, r.report)
        jobs.append(job)
        rounds.extend(job.rounds)
        # start another job only if it should end within half a job of the limit
        elapsed = time.perf_counter() - start
        if elapsed + _median(j.process_wall_s for j in jobs) / 2 > seconds:
            break
    if files:
        # untimed: the report must not depend on the worker count
        single = _cli_job(files[0], seed, size, 0, scratch, workers=1).rounds[0]
        tally.cross_check(single.report is not None and single.report == firsts[0],
                          "cli-scale: report differs at workers=1 and workers=2")

    done = [r for r in rounds if r.report is not None and r.wall_s > 0]
    wall = _round_time(done, "part_wall_s")
    metrics = {
        "reps_per_s": _median(r.reps for r in done) / wall if wall else 0.0,
        "wall_s": wall,
        "cpu_s": _round_time(done, "part_cpu_s"),
        "peak_rss_mb": _median(j.peak_rss_mb for j in jobs if j.peak_rss_mb > 0),
        "setup_s": _median(setup),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "rep_ok_frac": 1.0 - tally.lib_failed / max(tally.lib_attempted, 1),
    }
    info = {"jobs": len(jobs), "rounds": len(rounds), "input_sets": n_sets,
            "round_wall_s": [round(r.wall_s, 4) for r in rounds],
            "setup_s": [round(t, 4) for t in setup]}
    return tally, {"metrics": metrics, "info": info}


# --- traced run ----------------------------------------------------------------

@dataclass
class Pass:
    report: str | None
    errors: list
    wall_s: float


def _cli_main(argv) -> int:
    import citefit.cli
    with contextlib.redirect_stderr(io.StringIO()):
        return citefit.cli.main(argv)


def _one_pass(workload, seed, size, inputs, scratch, tracer=None, workers=1) -> Pass:
    """The job on input set 0 in this process, traced when ``tracer`` is given."""
    installed = spans.installed(tracer) if tracer else contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        try:
            if workload == "cli-scale":
                out = scratch / "report.tsv"
                code = _cli_main(workloads.cli_argv(inputs, seed, size, 0, workers)
                                 + ["--out", str(out)])
                report = out.read_text(encoding="utf-8") if code == 0 else None
                errors = [] if code == 0 else [["cli", f"exit {code}"]]
            else:
                job = workloads.run_library_job(workload, inputs, seed, size, 0)
                report, errors = job.report, job.errors
        except Exception as err:  # counted as a failed pass; the run goes on
            report, errors = None, [["pass", f"{type(err).__name__}: {err}"]]
        wall = time.perf_counter() - start
    return Pass(report, errors, wall)


def _cli_startup_s(scratch, repeats: int) -> float:
    """Median time to import the CLI module graph in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import citefit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats + 1):
        proc = run_process([sys.executable, "-c", code], scratch, child_env())
        if proc.code == 0:
            times.append(float(proc.out.strip()))
    return _median(times[1:])


def traced_run(workload, seed, seconds, size, scratch) -> tuple[Tally, dict]:
    tally = Tally()
    inputs = (_count_files(seed, size, 0, scratch) if workload == "cli-scale"
              else workloads.build_samples(workload, seed, size, 0))
    untraced, traced, tracers = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        plain = _one_pass(workload, seed, size, inputs, scratch)
        tracer = spans.Tracer()
        seen = _one_pass(workload, seed, size, inputs, scratch, tracer)
        for p in (plain, seen):
            tally.report(workload, seed, size, 0, p.report, p.errors, first)
            first = p.report if first is None else first
        tally.cross_check(not tracer.bad_spans,
                          f"{tracer.bad_spans} spans with self time outside [0, duration]")
        if tracers:
            tally.cross_check(tracer.deterministic() == tracers[0].deterministic(),
                              "work counts differ between traced passes")
        untraced.append(plain.wall_s)
        traced.append(seen.wall_s)
        tracers.append(tracer)
        if time.perf_counter() - start + plain.wall_s + seen.wall_s > seconds:
            break

    pools = Counter()
    if workload == "cli-scale":
        with spans.counting_pools(pools):
            pooled = _one_pass(workload, seed, size, inputs, scratch, workers=2)
        tally.cross_check(pooled.report is not None and pooled.report == first,
                          "cli-scale: report differs at workers=1 and workers=2")

    head = tracers[0]
    metrics = {}
    for span in SPAN_TIMES:
        metrics[f"{span}.calls"] = head.calls[span]
        metrics[f"{span}.self_s"] = statistics.median(t.self_ns[span] for t in tracers) / 1e9
    for name in WORK_COUNTS:
        metrics[name] = head.counts[name]
    fits = head.calls["fitting.fit"]
    metrics.update({
        "gof.ks_grid.max_elems": head.maxima["gof.ks_grid.max_elems"],
        "fitting.converged_ratio": head.counts["fitting.status.converged"] / fits if fits else 0.0,
        "studies.pool_starts": pools["studies.pool_starts"],
        "cli.startup_s": _cli_startup_s(scratch, size.setup_repeats),
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.traced_wall_s": statistics.median(traced),
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "error_frac": tally.failed / tally.attempted,
        "rep_failed_frac": tally.lib_failed / max(tally.lib_attempted, 1),
    })
    info = {"passes": len(tracers), "workers": 1,
            "pool_pass_workers": 2 if workload == "cli-scale" else None}
    return tally, {"metrics": metrics, "info": info}


# --- output ---------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy
    import citefit
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "kernel_backend": getattr(citefit, "KERNEL_BACKEND", None),
    }


class Stopped(BaseException):
    """Raised on SIGALRM (the run's time limit) or SIGTERM; a BaseException so
    that no per-row handler absorbs it and every started process is killed."""


def _stop(signum, frame):
    raise Stopped(f"stopped by {signal.Signals(signum).name}")


def measure(args) -> int:
    workloads.require_source()
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_LIMIT_S)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))
    size = SIZES[args.size]
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        tally, out = run(args.workload, args.seed, args.seconds, size, scratch)
        env = environment()
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    units = PER_LAYER if args.trace else END_TO_END
    for problem, times in Counter(tally.problems).most_common(20):
        print(f"perfbench: FAILED ({times}x) {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:40s} {out['metrics'][name]:>14.6g} {unit}")
    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "size": size.name,
                      **out["info"]}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def smoke() -> int:
    """Self-test: each workload at the smoke size, in both modes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    scratch = ROOT / ".perfbench_tmp" / f"smoke-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = run_process([sys.executable, str(HERE / "run.py"),
                                    "--workload", workload, "--seed", "1",
                                    "--seconds", "2", "--trace", str(trace),
                                    "--size", "smoke"], scratch)
                label = f"{workload} --trace {trace}"
                if proc.code != 0:
                    failures.append(f"{label}: exit {proc.code}: {_tail(proc.err)}")
                    continue
                result = json.loads(proc.out.splitlines()[-1])
                expected = {m["name"]: m["unit"] for m in spec[key]}
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != expected:
                    failures.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                    f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
                if not result["correct"] or result["failed"]:
                    failures.append(f"{label}: output checks failed: {proc.err.strip()}")
                print(f"smoke {label}: {result['attempted']} operations, "
                      f"{result['failed']} failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    for failure in failures:
        print(f"smoke FAILED: {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else "smoke: FAILED")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at a tiny size, all workloads, both modes")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    if args.smoke:
        workloads.require_source()
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
