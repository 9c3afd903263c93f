"""Command-line front end.

One subcommand per primitive (fit, gof, vuong, bootstrap, simulate, plot)
plus ``study`` subcommands for the table-producing experiments. Studies
accept count files or, when none are given, draw simulated data from the
bundled subject parameters; that substitution is stamped into the report
header. Every run prints its master seed (stderr), and rerunning with the
same seed reproduces the output byte for byte.

Each subcommand's handler maps the parsed arguments and the master seed
to the text it outputs, and renders a report through :func:`_report`.
:func:`main` alone resolves the seed (before any input is read, so it is
printed even when the input is rejected), runs the handler and writes its
text to ``--out``.

Exit codes: 0 success, 2 parse/usage error, 3 numerical failure (also an
input/output error, or an array too large to allocate).
"""

from __future__ import annotations

import argparse
import math
import os
import secrets
import sys

import citefit.io
from citefit import __version__
from citefit.bootstrap import MIN_REPS, resample_draw
from citefit.distributions import MODELS, DiscretisedLognormal, Mixture
from citefit.exceptions import CitefitError, OffsetError, ParseError
from citefit.fitting import MAX_EVALS, fit
from citefit.gof import ks_p_value, simulation_draw
from citefit.io import _write, ingest_file, render_plot_data
from citefit.sample import CitationSample
from citefit.seeding import child_seed
from citefit.studies import (
    BOOTSTRAP_STATISTICS,
    MIXTURE_COLUMNS,
    PLAUSIBILITY_COLUMNS,
    SCALE_COLUMNS,
    SHAPE_COLUMNS,
    VUONG_STUDY_COLUMNS,
    bootstrap_study,
    mean_table,
    mixture_impurity_study,
    plausibility_row,
    scale_ci_study,
    shape_table,
    vuong_studies,
)
from citefit.subjects import SUBJECTS, get_subject
from citefit.vuong import MODEL_A, MODEL_B, vuong

SEED_ENV_VAR = "CITEFIT_SEED"
_PARAM_NAMES = tuple(name for cls in MODELS.values() for name in cls.PARAMS)


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


def _report(args, seed: int, rows, columns=None, /, **extra) -> str:
    """``rows`` in ``--format`` under a header of the master seed and ``extra``;
    ``render_report`` is looked up on ``citefit.io`` at each call, so that the
    benchmark's tracer, which wraps it there, sees every report."""
    return citefit.io.render_report(rows, args.format, {"master_seed": seed, **extra},
                                    columns)


def _subject(name: str):
    try:
        return get_subject(name)
    except KeyError as err:
        raise ParseError(err.args[0]) from None


def _generator_family(args) -> str:
    return "lognormal" if args.family is None else args.family


def _subject_generators(args) -> list:
    """(subject, model, n) for each bundled subject that ``--subject`` names
    (one, or 'all'): its ``--family`` model, and ``--n`` or its own size."""
    if args.subject is None:
        raise ParseError("give count files or --subject (a name, or 'all')")
    if args.offset is not None:
        raise ParseError("--offset applies only to count files; drop it or give files")
    subjects = list(SUBJECTS) if args.subject.lower() == "all" else [_subject(args.subject)]
    family = _generator_family(args)
    return [(s, s.model(family), s.n if args.n is None else args.n) for s in subjects]


def _study_samples(args, seed: int) -> tuple[list[CitationSample], dict]:
    """Count files if given, otherwise simulated data from the fixture.

    The options that choose the simulated data are rejected with files.
    """
    if args.files:
        given = [f"--{name}" for name in ("subject", "family", "n")
                 if getattr(args, name) is not None]
        if given:
            raise ParseError(f"{', '.join(given)} only choose simulated data; "
                             "drop them or the count files")
        offset = 1 if args.offset is None else args.offset
        return [ingest_file(p, offset) for p in args.files], {"data_source": "files"}
    samples = [CitationSample(model.sample(n, child_seed(seed, 900, index)),
                              label=subject.name)
               for index, (subject, model, n) in enumerate(_subject_generators(args))]
    extra = {
        "data_source": "simulated from bundled subject parameters",
        "generator_family": _generator_family(args),
    }
    return samples, extra


# --- subcommand handlers: (args, master seed) -> output text ---------------

def _cmd_fit(args, seed: int) -> str:
    sample = ingest_file(args.file, args.offset)
    families = list(MODELS) if args.dist == "both" else [args.dist]
    rows = []
    for family in families:
        result = fit(family, sample, args.max_evals)
        row = {"family": family, "n": len(sample), **dict.fromkeys(_PARAM_NAMES),
               "log_likelihood": None, "status": result.status.value,
               "evaluations": result.evaluations}
        if result.usable:
            row.update(result.model.params)
            row["log_likelihood"] = result.log_likelihood
        rows.append(row)
    return _report(args, seed, rows)


def _cmd_gof(args, seed: int) -> str:
    sample = ingest_file(args.file, args.offset)
    result = ks_p_value(args.dist, sample, n_sim=args.nsim, seed=seed,
                        refit=args.refit, max_evals=args.max_evals)
    row = {
        "family": args.dist, "n": len(sample), **result.fit.model.params,
        "ks": result.ks_stat, "p": result.p_value, "n_sim": result.n_sim,
        "refit_mode": result.refit_mode, "fit_status": result.fit.status.value,
        "plausible": result.plausible,
    }
    return _report(args, seed, [row], n_sim=args.nsim)


def _cmd_vuong(args, seed: int) -> str:
    sample = ingest_file(args.file, args.offset)
    hk = fit("hooked", sample, args.max_evals)
    ln = fit("lognormal", sample, args.max_evals)
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
    return _report(args, seed, [row])


def _cmd_bootstrap(args, seed: int) -> str:
    sample = ingest_file(args.file, args.offset)
    summary = bootstrap_study(sample, args.reps, args.statistic, size=args.size,
                              seed=seed, workers=args.workers)
    row = {
        "statistic": args.statistic, "n": len(sample),
        "size": len(sample) if args.size is None else args.size, "median": summary.median,
        "lo95": summary.lo95, "hi95": summary.hi95,
        "reps": summary.reps, "failed": summary.n_failed,
    }
    return _report(args, seed, [row], reps=args.reps)


def _cmd_simulate(args, seed: int) -> str:
    cls = MODELS[args.dist]
    ignored = [f"--{name}" for name in _PARAM_NAMES
               if getattr(args, name) is not None and (args.subject or name not in cls.PARAMS)]
    if ignored:
        chosen = "--subject" if args.subject else f"--dist {args.dist}"
        raise ParseError(f"{chosen} takes no {', '.join(ignored)}")
    n = args.n
    if args.subject:
        subject = _subject(args.subject)
        model = subject.model(args.dist)
        n = subject.n if n is None else n
    else:
        values = [getattr(args, name) for name in cls.PARAMS]
        if None in values:
            needed = " and ".join(f"--{name}" for name in cls.PARAMS)
            raise ParseError(f"--dist {args.dist} needs {needed}")
        model = cls(*values)
    if n is None:
        raise ParseError("give -n (no size available from the fixture)")
    counts = model.sample(n, seed)
    print(f"simulated {n} counts from {model!r}", file=sys.stderr)
    return "\n".join(str(int(c)) for c in counts) + "\n"


def _cmd_plot(args, seed: int) -> str:
    sample = ingest_file(args.file, args.offset)
    result = fit(args.dist, sample, args.max_evals)
    if not result.usable:
        raise CitefitError(f"cannot plot a degenerate fit: {result.message}")
    return render_plot_data(result.model, sample)


def _cmd_study_plausibility(args, seed: int) -> str:
    samples, extra = _study_samples(args, seed)
    rows = [
        plausibility_row(sample, n_sim=args.nsim, seed=child_seed(seed, i))
        for i, sample in enumerate(samples)
    ]
    return _report(args, seed, rows, PLAUSIBILITY_COLUMNS, n_sim=args.nsim, **extra)


def _cmd_study_vuong(args, seed: int) -> str:
    if args.files:
        mode = "bootstrap resamples of the input data"
        samples, extra = _study_samples(args, seed)
        studied = [(sample.label, len(sample),
                    resample_draw(sample, args.size, child_seed(seed, i)))
                   for i, sample in enumerate(samples)]
    else:
        if args.n is not None and args.size is not None:
            raise ParseError("--n and --size both set the simulated sample size; give one")
        mode = "fresh samples simulated from bundled subject parameters"
        extra = {"generator_family": _generator_family(args)}
        studied = []
        for i, (subject, model, n) in enumerate(_subject_generators(args)):
            n = n if args.size is None else args.size
            studied.append((subject.name, n, simulation_draw(model, n, child_seed(seed, i))))
    studies = vuong_studies([draw for _, _, draw in studied], args.reps, args.workers)
    rows = [study.row(label, n) for (label, n, _), study in zip(studied, studies)]
    return _report(args, seed, rows, VUONG_STUDY_COLUMNS, reps=args.reps, mode=mode,
                   **extra)


def _cmd_study_scale(args, seed: int) -> str:
    samples, extra = _study_samples(args, seed)
    rows = scale_ci_study(samples, reps=args.reps, size=args.size,
                          seed=seed, workers=args.workers)
    return _report(args, seed, rows, SCALE_COLUMNS, reps=args.reps, size=args.size,
                   **extra)


def _cmd_study_shape(args, seed: int) -> str:
    samples, extra = _study_samples(args, seed)
    rows, totals = shape_table(samples, epsilon=args.epsilon)
    return _report(args, seed, rows + totals, SHAPE_COLUMNS, epsilon=args.epsilon, **extra)


def _cmd_study_mixture(args, seed: int) -> str:
    mixture = Mixture((DiscretisedLognormal(args.mu_a, args.sigma_a),
                       DiscretisedLognormal(args.mu_b, args.sigma_b)),
                      (args.weight_a, 1.0 - args.weight_a))
    pure = DiscretisedLognormal(args.pure_mu, args.pure_sigma)
    rows, summary = mixture_impurity_study(
        mixture, pure, n=args.n, reps=args.reps, seed=seed, workers=args.workers,
    )
    return _report(args, seed, rows, MIXTURE_COLUMNS, n=args.n, **summary)


def _cmd_study_means(args, seed: int) -> str:
    return _report(args, seed, mean_table())


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
# From 2**60 draws on, NumPy's byte count of an 8-byte array overflows (a
# ValueError, not a MemoryError); 2**56 leaves room for arrays of a few such
# rows. A smaller size that does not fit in memory fails to allocate (exit 3).
_SIZE = _checked(int, lambda v: 1 <= v < 2 ** 56, "need a size >= 1 and below 2**56")
_WORKERS = _checked(int, lambda v: v >= 1, "need at least one worker")
_WEIGHT = _checked(float, lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1")
_EPSILON = _checked(float, lambda v: 0.0 < v < math.inf, "epsilon must be > 0 and finite")
_MAX_EVALS = _checked(int, lambda v: v >= 1, "need max-evals >= 1")
_SEED = _checked(int, lambda v: v >= 0, "need a seed >= 0")
_MU = _checked(float, math.isfinite, "mu must be finite")
_SIGMA = _checked(float, lambda v: 0.0 < v < math.inf, "sigma must be > 0 and finite")
_ALPHA = _checked(float, lambda v: 1.0 < v < math.inf, "alpha must be > 1 and finite")
_B = _checked(float, lambda v: 0.0 < v < math.inf, "b must be > 0 and finite")


def _add_file(parser, max_evals=True):
    """One count file; ``max_evals`` adds the budget of the fits made on it."""
    parser.add_argument("file")
    parser.add_argument("--offset", type=int, default=1,
                        help="offset added to raw counts (default 1)")
    if max_evals:
        parser.add_argument("--max-evals", type=_MAX_EVALS, default=MAX_EVALS)


def _add_study_source(parser):
    parser.add_argument("files", nargs="*", help="count files (plain lines or CSV)")
    parser.add_argument("--offset", type=int, default=None,
                        help="offset added to the raw counts of count files (default 1)")
    parser.add_argument("--subject", default=None,
                        help="bundled subject name, or 'all', used when no files given")
    parser.add_argument("--family", choices=list(MODELS), default=None,
                        help="generator family for simulated study data "
                             "(default lognormal)")
    parser.add_argument("--n", type=_SIZE, default=None,
                        help="simulated sample size (default: the subject's n)")


def _add_subcommand(sub, name: str, handler, summary: str, report=True):
    """The parser of subcommand ``name``, run by ``handler``, with the
    --seed and --out that :func:`main` reads, and --format when ``report``."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(handler=handler)
    parser.add_argument("--seed", type=_SEED, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or random)")
    parser.add_argument("--out", default="-", help="output path (default stdout)")
    if report:
        parser.add_argument("--format", choices=["tsv", "json"], default="tsv")
    return parser


def _add_workers(parser):
    parser.add_argument("--workers", type=_WORKERS, default=1,
                        help="parallel workers (identical results for any count)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefit",
        description="Fit, test and compare discretised lognormal and hooked "
                    "power law models for citation-like count data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subcommand(sub, "fit", _cmd_fit, "maximum-likelihood fit")
    _add_file(p)
    p.add_argument("--dist", choices=[*MODELS, "both"], default="both")

    p = _add_subcommand(sub, "gof", _cmd_gof, "Monte-Carlo KS goodness of fit")
    _add_file(p)
    p.add_argument("--dist", choices=list(MODELS), required=True)
    p.add_argument("--nsim", type=_NSIM, default=1000)
    p.add_argument("--refit", action="store_true",
                   help="refit each simulated sample")

    p = _add_subcommand(sub, "vuong", _cmd_vuong, "hooked vs lognormal Vuong test")
    _add_file(p)

    p = _add_subcommand(sub, "bootstrap", _cmd_bootstrap, "bootstrap a statistic")
    _add_file(p, max_evals=False)
    p.add_argument("--statistic", choices=sorted(BOOTSTRAP_STATISTICS),
                   default="mean")
    p.add_argument("--reps", type=_REPS, default=1000)
    p.add_argument("--size", type=_SIZE, default=None,
                   help="resample size (default: same as input)")
    _add_workers(p)

    p = _add_subcommand(sub, "simulate", _cmd_simulate,
                        "draw counts from a model", report=False)
    p.add_argument("--dist", choices=list(MODELS), default="lognormal")
    p.add_argument("--subject", default=None,
                   help="take parameters from a bundled subject")
    p.add_argument("--mu", type=_MU, default=None)
    p.add_argument("--sigma", type=_SIGMA, default=None)
    p.add_argument("--alpha", type=_ALPHA, default=None)
    p.add_argument("--b", type=_B, default=None)
    p.add_argument("-n", type=_SIZE, default=None, dest="n")

    p = _add_subcommand(sub, "plot", _cmd_plot,
                        "emit empirical/model CDF plot data", report=False)
    _add_file(p)
    p.add_argument("--dist", choices=list(MODELS), required=True)

    study = sub.add_parser("study", help="table-producing experiments")
    study_sub = study.add_subparsers(dest="study", required=True)

    p = _add_subcommand(study_sub, "plausibility", _cmd_study_plausibility,
                        "KS plausibility per sample")
    _add_study_source(p)
    p.add_argument("--nsim", type=_NSIM, default=1000)

    p = _add_subcommand(study_sub, "vuong", _cmd_study_vuong,
                        "bootstrap/simulation Vuong tallies")
    _add_study_source(p)
    p.add_argument("--reps", type=_REPS, default=50)
    p.add_argument("--size", type=_SIZE, default=None,
                   help="resample or simulation size (default: same size)")
    _add_workers(p)

    p = _add_subcommand(study_sub, "scale", _cmd_study_scale,
                        "bootstrap CIs of lognormal sigma")
    _add_study_source(p)
    p.add_argument("--reps", type=_REPS, default=50)
    p.add_argument("--size", type=_SIZE, default=500)
    _add_workers(p)

    p = _add_subcommand(study_sub, "shape", _cmd_study_shape, "cumulative-shape table")
    _add_study_source(p)
    p.add_argument("--epsilon", type=_EPSILON, default=0.01)

    p = _add_subcommand(study_sub, "mixture", _cmd_study_mixture,
                        "mixture-impurity experiment")
    p.add_argument("--mu-a", type=_MU, default=1.0)
    p.add_argument("--mu-b", type=_MU, default=3.5)
    p.add_argument("--sigma-a", type=_SIGMA, default=1.0)
    p.add_argument("--sigma-b", type=_SIGMA, default=1.0)
    p.add_argument("--weight-a", type=_WEIGHT, default=0.5)
    p.add_argument("--pure-mu", type=_MU, default=2.25)
    p.add_argument("--pure-sigma", type=_SIGMA, default=1.0)
    p.add_argument("--n", type=_SIZE, default=10_000)
    p.add_argument("--reps", type=_MIXTURE_REPS, default=100)
    _add_workers(p)

    _add_subcommand(study_sub, "means", _cmd_study_means, "closed-form mean cross-check")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(args)
        _write(args.handler(args, seed), args.out)
    except (ParseError, OffsetError) as err:
        print(f"citefit: error: {err}", file=sys.stderr)
        return 2
    except (CitefitError, MemoryError) as err:
        print(f"citefit: failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"citefit: io failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
