"""Library job rounds in a fresh process; run by run.py, not by hand.

    python perfbench/job.py --workload vuong-boot --seed 0 --first-round 0 --size full

Imports citefit from the checkout and runs the size's ``job_rounds``
rounds from ``--first-round`` on. A round builds its input set (the round
number modulo the workload's input sets), runs the study driver on it and
renders the report. ``--setup-only`` builds input set 0 and stops.

The last stdout line is JSON: the peak RSS of the process at the end of
its first round, and per round the input set, the report, the rows that
raised, the replicates completed, the wall time of the round, and the wall
and CPU time (user + sys) of each part of it (each row, then the report).
Times are taken around the study and the report only; import and input
building are the set-up that run.py times from outside.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w for w in workloads.WORKLOADS if w != "cli-scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-round", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workloads.require_source()
    size = workloads.SIZES[args.size]
    if args.setup_only:
        workloads.build_samples(args.workload, args.seed, size, 0)
        return 0

    rounds, peak_kb = [], 0
    for number in range(size.job_rounds[args.workload]):
        input_set = (args.first_round + number) % size.input_sets[args.workload]
        samples = workloads.build_samples(args.workload, args.seed, size, input_set)
        wall0 = time.perf_counter()
        job = workloads.run_library_job(args.workload, samples, args.seed, size,
                                        input_set)
        wall = time.perf_counter() - wall0
        if not rounds:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append({
            "input_set": input_set, "report": job.report, "errors": job.errors,
            "reps": job.reps, "wall_s": wall,
            "part_wall_s": job.part_wall_s, "part_cpu_s": job.part_cpu_s,
        })
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
