"""Command-line front end.

One subcommand per primitive (fit, gof, vuong, bootstrap, simulate, plot)
plus ``study`` subcommands for the table-producing experiments. Studies
accept count files or, when none are given, draw simulated data from the
bundled subject parameters; that substitution is stamped into the report
header. Every run prints its master seed (stderr), and rerunning with the
same seed reproduces the output byte for byte.

Exit codes: 0 success, 2 parse/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import secrets
import sys
from functools import partial

import numpy as np

from citefit import __version__
from citefit.bootstrap import MIN_REPS, bootstrap_study
from citefit.distributions import (
    DiscretisedLognormal,
    HookedPowerLaw,
    continuous_moments,
)
from citefit.exceptions import CitefitError, OffsetError, ParseError
from citefit.fitting import FitConfig, fit, log_likelihood
from citefit.gof import ks_p_value
from citefit.io import _write, emit_plot_data, emit_report, ingest_file
from citefit.sample import CitationSample
from citefit.seeding import child_seed
from citefit.studies import (
    MIXTURE_COLUMNS,
    PLAUSIBILITY_COLUMNS,
    SCALE_COLUMNS,
    SHAPE_COLUMNS,
    VUONG_STUDY_COLUMNS,
    MixtureSpec,
    bootstrap_vuong_study,
    fitted_lognormal_sigma,
    hooked_vs_lognormal_z,
    mixture_impurity_study,
    plausibility_row,
    scale_ci_study,
    shape_table,
    simulation_study,
)
from citefit.subjects import SUBJECTS, get_subject
from citefit.vuong import MODEL_A, MODEL_B, vuong

SEED_ENV_VAR = "CITEFIT_SEED"

def _stat_mean(sample):
    return float(np.mean(sample.counts))


def _stat_median(sample):
    return float(np.median(sample.counts))


def _fitted_param(sample, family, name):
    result = fit(family, sample)
    if not result.usable:
        raise CitefitError(result.message)
    return float(getattr(result.model, name))


BOOTSTRAP_STATISTICS = {
    "mean": _stat_mean,
    "median": _stat_median,
    "lognormal-sigma": fitted_lognormal_sigma,
    "lognormal-mu": partial(_fitted_param, family="lognormal", name="mu"),
    "hooked-alpha": partial(_fitted_param, family="hooked", name="alpha"),
    "hooked-b": partial(_fitted_param, family="hooked", name="b"),
    "vuong-z": hooked_vs_lognormal_z,
}


def _resolve_seed(args) -> int:
    """The master seed (--seed, else $CITEFIT_SEED, else random), printed to stderr."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = secrets.randbits(32) if env is None else int(env)
        except ValueError:
            raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        if seed < 0:
            raise ParseError(f"{SEED_ENV_VAR} must be >= 0, got {seed}")
    print(f"master seed: {seed}", file=sys.stderr)
    return seed


def _base_header(args, seed: int, **extra) -> dict:
    header = {"tool_version": __version__, "master_seed": seed}
    header.update(extra)
    return header


def _load_file(args, path) -> CitationSample:
    label = os.path.splitext(os.path.basename(path))[0]
    return ingest_file(path, offset=args.offset, label=label)


def _subject(name: str):
    try:
        return get_subject(name)
    except KeyError as err:
        raise ParseError(err.args[0]) from None


def _chosen_subjects(name: str | None) -> list:
    """The bundled subjects that ``--subject`` names: one, or 'all'."""
    if name is None:
        raise ParseError("give count files or --subject (a name, or 'all')")
    return list(SUBJECTS) if name.lower() == "all" else [_subject(name)]


def _study_samples(args, seed: int) -> tuple[list[CitationSample], dict]:
    """Count files if given, otherwise simulated data from the fixture."""
    if args.files:
        return [_load_file(args, p) for p in args.files], {"data_source": "files"}
    samples = []
    for index, subject in enumerate(_chosen_subjects(args.subject)):
        model = subject.lognormal() if args.family == "lognormal" else subject.hooked()
        n = subject.n if args.n is None else args.n
        counts = model.sample(n, child_seed(seed, 900, index))
        samples.append(CitationSample(counts, label=subject.name))
    extra = {
        "data_source": "simulated from bundled subject parameters",
        "generator_family": args.family,
    }
    return samples, extra


# --- subcommand handlers -----------------------------------------------------

def _cmd_fit(args) -> int:
    sample = _load_file(args, args.file)
    seed = _resolve_seed(args)
    families = ["lognormal", "hooked"] if args.dist == "both" else [args.dist]
    config = FitConfig(max_evals=args.max_evals)
    rows = []
    for family in families:
        result = fit(family, sample, config)
        row = {"family": family, "n": len(sample),
               "mu": None, "sigma": None, "alpha": None, "b": None,
               "log_likelihood": None, "status": result.status.value,
               "evaluations": result.evaluations}
        if result.usable:
            row.update(result.model.params)
            row["log_likelihood"] = result.log_likelihood
        rows.append(row)
    emit_report(rows, args.format, args.out, _base_header(args, seed))
    return 0


def _cmd_gof(args) -> int:
    sample = _load_file(args, args.file)
    seed = _resolve_seed(args)
    config = FitConfig(max_evals=args.max_evals)
    result = ks_p_value(args.dist, sample, n_sim=args.nsim, seed=seed,
                        refit=args.refit, config=config)
    row = {"family": args.dist, "n": len(sample)}
    row.update(result.fit.model.params)
    row.update({
        "ks": result.ks_stat, "p": result.p_value, "n_sim": result.n_sim,
        "refit_mode": result.refit_mode, "fit_status": result.fit.status.value,
        "plausible": result.plausible,
    })
    emit_report([row], args.format, args.out,
                _base_header(args, seed, n_sim=args.nsim))
    return 0


def _cmd_vuong(args) -> int:
    sample = _load_file(args, args.file)
    seed = _resolve_seed(args)
    config = FitConfig(max_evals=args.max_evals)
    hk = fit("hooked", sample, config)
    ln = fit("lognormal", sample, config)
    if not (hk.usable and ln.usable):
        raise CitefitError("cannot compare: a fit is degenerate")
    result = vuong(hk.model, ln.model, sample)
    favored = {MODEL_A: "hooked", MODEL_B: "lognormal"}.get(result.favored, "neither")
    row = {
        "n": result.n, "z": result.z, "p_two_sided": result.p_two_sided,
        "favored": favored,
        "hook_alpha": hk.model.alpha, "hook_b": hk.model.b,
        "hook_status": hk.status.value,
        "ln_mu": ln.model.mu, "ln_sigma": ln.model.sigma,
        "ln_status": ln.status.value,
    }
    emit_report([row], args.format, args.out, _base_header(args, seed))
    return 0


def _cmd_bootstrap(args) -> int:
    sample = _load_file(args, args.file)
    seed = _resolve_seed(args)
    statistic = BOOTSTRAP_STATISTICS[args.statistic]
    summary = bootstrap_study(
        sample, args.reps, statistic, size=args.size, seed=seed,
        statistic_name=args.statistic, workers=args.workers,
    )
    row = {
        "statistic": summary.statistic_name, "n": len(sample),
        "size": args.size or len(sample), "median": summary.median,
        "lo95": summary.lo95, "hi95": summary.hi95,
        "reps": summary.reps, "failed": summary.n_failed,
    }
    emit_report([row], args.format, args.out,
                _base_header(args, seed, reps=args.reps))
    return 0


def _make_generator(args):
    if args.subject:
        subject = _subject(args.subject)
        model = subject.lognormal() if args.dist == "lognormal" else subject.hooked()
        return model, subject.n
    if args.dist == "lognormal":
        if args.mu is None or args.sigma is None:
            raise ParseError("--dist lognormal needs --mu and --sigma")
        return DiscretisedLognormal(args.mu, args.sigma), None
    if args.alpha is None or args.b is None:
        raise ParseError("--dist hooked needs --alpha and --b")
    return HookedPowerLaw(args.alpha, args.b), None


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    model, fixture_n = _make_generator(args)
    n = fixture_n if args.n is None else args.n
    if n is None:
        raise ParseError("give -n (no size available from the fixture)")
    counts = model.sample(n, seed)
    _write("\n".join(str(int(c)) for c in counts) + "\n", args.out)
    print(f"simulated {n} counts from {model!r}", file=sys.stderr)
    return 0


def _cmd_plot(args) -> int:
    sample = _load_file(args, args.file)
    seed = _resolve_seed(args)
    result = fit(args.dist, sample, FitConfig(max_evals=args.max_evals))
    if not result.usable:
        raise CitefitError(f"cannot plot a degenerate fit: {result.message}")
    emit_plot_data(result.model, sample, args.out)
    return 0


def _cmd_study_plausibility(args) -> int:
    seed = _resolve_seed(args)
    samples, extra = _study_samples(args, seed)
    rows = [
        plausibility_row(sample, n_sim=args.nsim, seed=child_seed(seed, i))
        for i, sample in enumerate(samples)
    ]
    header = _base_header(args, seed, n_sim=args.nsim, **extra)
    emit_report(rows, args.format, args.out, header,
                columns=list(PLAUSIBILITY_COLUMNS))
    return 0


def _cmd_study_vuong(args) -> int:
    seed = _resolve_seed(args)
    if args.files:
        samples, extra = _study_samples(args, seed)
        mode = "bootstrap resamples of the input data"
        rows = []
        for i, sample in enumerate(samples):
            study = bootstrap_vuong_study(
                sample, args.reps, size=args.size,
                seed=child_seed(seed, i), workers=args.workers,
            )
            rows.append(study.row(sample.label, len(sample)))
    else:
        mode = "fresh samples simulated from bundled subject parameters"
        rows = []
        for i, subject in enumerate(_chosen_subjects(args.subject)):
            model = (subject.lognormal() if args.family == "lognormal"
                     else subject.hooked())
            n = subject.n if args.n is None else args.n
            if args.size is not None:
                n = args.size
            study = simulation_study(model, n, args.reps,
                                     seed=child_seed(seed, i),
                                     workers=args.workers)
            rows.append(study.row(subject.name, n))
    header = _base_header(args, seed, reps=args.reps, mode=mode,
                          generator_family=args.family)
    emit_report(rows, args.format, args.out, header,
                columns=list(VUONG_STUDY_COLUMNS))
    return 0


def _cmd_study_scale(args) -> int:
    seed = _resolve_seed(args)
    samples, extra = _study_samples(args, seed)
    rows = scale_ci_study(samples, reps=args.reps, size=args.size,
                          seed=seed, workers=args.workers)
    header = _base_header(args, seed, reps=args.reps, size=args.size, **extra)
    emit_report(rows, args.format, args.out, header, columns=list(SCALE_COLUMNS))
    return 0


def _cmd_study_shape(args) -> int:
    seed = _resolve_seed(args)
    samples, extra = _study_samples(args, seed)
    rows, totals = shape_table(samples, epsilon=args.epsilon)
    header = _base_header(args, seed, epsilon=args.epsilon, **extra)
    emit_report(rows + totals, args.format, args.out, header,
                columns=list(SHAPE_COLUMNS))
    return 0


def _cmd_study_mixture(args) -> int:
    seed = _resolve_seed(args)
    spec = MixtureSpec(
        components=(DiscretisedLognormal(args.mu_a, args.sigma_a),
                    DiscretisedLognormal(args.mu_b, args.sigma_b)),
        weights=(args.weight_a, 1.0 - args.weight_a),
    )
    pure = DiscretisedLognormal(args.pure_mu, args.pure_sigma)
    rows, summary = mixture_impurity_study(
        spec, pure, n=args.n, reps=args.reps, seed=seed, workers=args.workers,
    )
    header = _base_header(args, seed, n=args.n, **summary)
    emit_report(rows, args.format, args.out, header, columns=list(MIXTURE_COLUMNS))
    return 0


def _cmd_study_means(args) -> int:
    seed = _resolve_seed(args)
    rows = [{"subject": subject.name,
             "ln_mean": continuous_moments(subject.lognormal()).mean,
             "hook_mean": continuous_moments(subject.hooked()).mean}
            for subject in SUBJECTS]
    rows.append({"subject": "average",
                 "ln_mean": float(np.mean([r["ln_mean"] for r in rows])),
                 "hook_mean": float(np.mean([r["hook_mean"] for r in rows]))})
    emit_report(rows, args.format, args.out, _base_header(args, seed))
    return 0


# --- parser ------------------------------------------------------------------

def _checked(convert, accept, need: str):
    """argparse type: ``convert`` the text, then reject values failing ``accept``."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{need}, got {value}")
        return value
    parse.__name__ = convert.__name__   # argparse names it in "invalid int value"
    return parse


_REPS = _checked(int, lambda v: v >= MIN_REPS, f"need reps >= {MIN_REPS}")
_MIXTURE_REPS = _checked(int, lambda v: v >= 1, "need reps >= 1")
_NSIM = _checked(int, lambda v: v >= 1, "need at least one simulation")
_SIZE = _checked(int, lambda v: v >= 1, "need a size >= 1")
_WORKERS = _checked(int, lambda v: v >= 1, "need at least one worker")
_WEIGHT = _checked(float, lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1")
_EPSILON = _checked(float, lambda v: 0.0 < v < math.inf, "epsilon must be > 0 and finite")
_MAX_EVALS = _checked(int, lambda v: v >= 1, "need max-evals >= 1")
_SEED = _checked(int, lambda v: v >= 0, "need a seed >= 0")
_MU = _checked(float, math.isfinite, "mu must be finite")
_SIGMA = _checked(float, lambda v: 0.0 < v < math.inf, "sigma must be > 0 and finite")
_ALPHA = _checked(float, lambda v: 1.0 < v < math.inf, "alpha must be > 1 and finite")
_B = _checked(float, lambda v: 0.0 < v < math.inf, "b must be > 0 and finite")


def _add_common(parser, seed=True, fmt=True, offset=False, workers=False):
    if seed:
        parser.add_argument("--seed", type=_SEED, default=None,
                            help=f"master seed (default: ${SEED_ENV_VAR} or random)")
    if fmt:
        parser.add_argument("--format", choices=["tsv", "json"], default="tsv")
        parser.add_argument("--out", default="-", help="output path (default stdout)")
    if offset:
        parser.add_argument("--offset", type=int, default=1,
                            help="offset added to raw counts (default 1)")
    if workers:
        parser.add_argument("--workers", type=_WORKERS, default=1,
                            help="parallel workers (identical results for any count)")


def _add_study_source(parser):
    parser.add_argument("files", nargs="*", help="count files (plain lines or CSV)")
    parser.add_argument("--subject", default=None,
                        help="bundled subject name, or 'all', used when no files given")
    parser.add_argument("--family", choices=["lognormal", "hooked"],
                        default="lognormal",
                        help="generator family for simulated study data")
    parser.add_argument("--n", type=_SIZE, default=None,
                        help="simulated sample size (default: the subject's n)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefit",
        description="Fit, test and compare discretised lognormal and hooked "
                    "power law models for citation-like count data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="maximum-likelihood fit")
    p.add_argument("file")
    p.add_argument("--dist", choices=["lognormal", "hooked", "both"], default="both")
    p.add_argument("--max-evals", type=_MAX_EVALS, default=10_000)
    _add_common(p, offset=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("gof", help="Monte-Carlo KS goodness of fit")
    p.add_argument("file")
    p.add_argument("--dist", choices=["lognormal", "hooked"], required=True)
    p.add_argument("--nsim", type=_NSIM, default=1000)
    p.add_argument("--refit", action="store_true",
                   help="refit each simulated sample")
    p.add_argument("--max-evals", type=_MAX_EVALS, default=10_000)
    _add_common(p, offset=True)
    p.set_defaults(handler=_cmd_gof)

    p = sub.add_parser("vuong", help="hooked vs lognormal Vuong test")
    p.add_argument("file")
    p.add_argument("--max-evals", type=_MAX_EVALS, default=10_000)
    _add_common(p, offset=True)
    p.set_defaults(handler=_cmd_vuong)

    p = sub.add_parser("bootstrap", help="bootstrap a statistic")
    p.add_argument("file")
    p.add_argument("--statistic", choices=sorted(BOOTSTRAP_STATISTICS),
                   default="mean")
    p.add_argument("--reps", type=_REPS, default=1000)
    p.add_argument("--size", type=_SIZE, default=None,
                   help="resample size (default: same as input)")
    _add_common(p, offset=True, workers=True)
    p.set_defaults(handler=_cmd_bootstrap)

    p = sub.add_parser("simulate", help="draw counts from a model")
    p.add_argument("--dist", choices=["lognormal", "hooked"], default="lognormal")
    p.add_argument("--subject", default=None,
                   help="take parameters from a bundled subject")
    p.add_argument("--mu", type=_MU, default=None)
    p.add_argument("--sigma", type=_SIGMA, default=None)
    p.add_argument("--alpha", type=_ALPHA, default=None)
    p.add_argument("--b", type=_B, default=None)
    p.add_argument("-n", type=_SIZE, default=None, dest="n")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=_SEED, default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("plot", help="emit empirical/model CDF plot data")
    p.add_argument("file")
    p.add_argument("--dist", choices=["lognormal", "hooked"], required=True)
    p.add_argument("--max-evals", type=_MAX_EVALS, default=10_000)
    p.add_argument("--out", default="-")
    p.add_argument("--offset", type=int, default=1)
    p.add_argument("--seed", type=_SEED, default=None)
    p.set_defaults(handler=_cmd_plot)

    study = sub.add_parser("study", help="table-producing experiments")
    study_sub = study.add_subparsers(dest="study", required=True)

    p = study_sub.add_parser("plausibility", help="KS plausibility per sample")
    _add_study_source(p)
    p.add_argument("--nsim", type=_NSIM, default=1000)
    _add_common(p, offset=True)
    p.set_defaults(handler=_cmd_study_plausibility)

    p = study_sub.add_parser("vuong", help="bootstrap/simulation Vuong tallies")
    _add_study_source(p)
    p.add_argument("--reps", type=_REPS, default=50)
    p.add_argument("--size", type=_SIZE, default=None,
                   help="resample or simulation size (default: same size)")
    _add_common(p, offset=True, workers=True)
    p.set_defaults(handler=_cmd_study_vuong)

    p = study_sub.add_parser("scale", help="bootstrap CIs of lognormal sigma")
    _add_study_source(p)
    p.add_argument("--reps", type=_REPS, default=50)
    p.add_argument("--size", type=_SIZE, default=500)
    _add_common(p, offset=True, workers=True)
    p.set_defaults(handler=_cmd_study_scale)

    p = study_sub.add_parser("shape", help="cumulative-shape table")
    _add_study_source(p)
    p.add_argument("--epsilon", type=_EPSILON, default=0.01)
    _add_common(p, offset=True)
    p.set_defaults(handler=_cmd_study_shape)

    p = study_sub.add_parser("mixture", help="mixture-impurity experiment")
    p.add_argument("--mu-a", type=_MU, default=1.0)
    p.add_argument("--mu-b", type=_MU, default=3.5)
    p.add_argument("--sigma-a", type=_SIGMA, default=1.0)
    p.add_argument("--sigma-b", type=_SIGMA, default=1.0)
    p.add_argument("--weight-a", type=_WEIGHT, default=0.5)
    p.add_argument("--pure-mu", type=_MU, default=2.25)
    p.add_argument("--pure-sigma", type=_SIGMA, default=1.0)
    p.add_argument("--n", type=_SIZE, default=10_000)
    p.add_argument("--reps", type=_MIXTURE_REPS, default=100)
    _add_common(p, workers=True)
    p.set_defaults(handler=_cmd_study_mixture)

    p = study_sub.add_parser("means", help="closed-form mean cross-check")
    _add_common(p)
    p.set_defaults(handler=_cmd_study_means)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OffsetError) as err:
        print(f"citefit: error: {err}", file=sys.stderr)
        return 2
    except CitefitError as err:
        print(f"citefit: failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"citefit: io failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
