"""Command-line front end for planning, estimation, and verification runs.

Subcommands:
  plan        print a sample-size schedule as a table plus JSON
  estimate    run the multilevel estimator on a built-in model
  limit-var   estimate the limiting variance by direct simulation
  verify      run one statistical verification experiment, named by its
              own subcommand (verify clt, verify bracket, ...)
  benchmark   cost-versus-RMSE table for crude and multilevel Monte Carlo

Exit codes are a stable contract: 0 success, 2 usage or validation
failure (abbreviated flags and flags the command does not read
included), 3 numerical failure (diverged path, degenerate transport or
statistics).  Numeric output is byte-identical across reruns and
--threads settings; floats are printed with shortest round-trip
formatting and a '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (
    DegenerateStatisticsError,
    _replicate,
    berry_esseen,
    bracket_expectation_check,
    coverage_experiment,
    ks_statistic_two_sample,
    run_clt_experiment,
)
from .estimator import MlmcPlan, complexity, estimate, plan_bak, plan_giles
from .limit_law import (
    DegenerateTransportError,
    LimitSimConfig,
    estimate_limit_variance,
    limit_draws,
    projected_samples,
    two_level_error_samples,
)
from .models import (
    AnalyticReference,
    black_scholes_call_reference,
    call_payoff,
    gbm_identity_reference,
    identity_payoff,
    make_gbm,
)
from .paths import EulerDivergedError, single_terminals

__all__ = ["main"]


class UsageError(Exception):
    """Invalid flag combination or parameter value (exit code 2)."""


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError("%s expects a comma-separated list of integers" % flag)
    if not values:
        raise UsageError("%s must not be empty" % flag)
    return values


def _model_payoff(args) -> Tuple[object, object, Optional[AnalyticReference]]:
    """Build (model, payoff, analytic reference) from the shared flags."""
    model = make_gbm(args.x0, args.mu, args.vol, args.T)
    if (args.strike is None) == (args.payoff == "call"):
        raise UsageError("--payoff call requires --strike, and --strike requires --payoff call")
    payoff = identity_payoff() if args.strike is None else call_payoff(args.strike)
    try:
        if args.payoff == "identity":
            reference = gbm_identity_reference(args.x0, args.mu, args.vol, args.T)
        elif args.vol > 0.0:
            reference = black_scholes_call_reference(
                args.x0, args.mu, args.vol, args.T, args.strike
            )
        else:
            reference = AnalyticReference(
                exact_expectation=max(args.x0 * math.exp(args.mu * args.T) - args.strike, 0.0)
            )
    except OverflowError:
        # exp(mu T) can leave the float range while the discrete scheme is
        # still finite; commands that need a truth value then ask for --truth
        reference = None
    return model, payoff, reference


def _truth_value(args, reference: Optional[AnalyticReference]) -> float:
    if args.truth is not None:
        return args.truth
    if reference is None:
        raise UsageError("no analytic reference for these parameters; pass --truth")
    return reference.exact_expectation


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expects an integer, got %r" % text)


def _seed(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64)."""
    value = _integer(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("must lie in [0, 2**64), got %d" % value)
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``low``, so the error names the flag."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value

    return parse


# the flags each allocator reads; they default to None, so a given one is seen
_ALLOCATOR_FLAGS = {"bak": ("beta0", "weights"), "giles": ("c2",)}


def _plan_from_args(args, n: Optional[int] = None) -> MlmcPlan:
    """The plan the flags describe, at ``n`` steps when given instead of --n.

    A flag of the other allocator is rejected rather than ignored; an
    allocator flag left out takes the library default.
    """
    n = args.n if n is None else n
    kwargs = {}
    for allocator, names in _ALLOCATOR_FLAGS.items():
        for name in names:
            value = getattr(args, name)
            if value is None:
                continue
            if allocator != args.allocator:
                raise UsageError("--%s applies only to --allocator %s" % (name, allocator))
            kwargs[name] = value
    if "weights" in kwargs:
        try:
            kwargs["weights"] = [float(w) for w in kwargs["weights"].split(",") if w.strip()]
        except ValueError:
            raise UsageError("--weights expects a comma-separated list of reals")
    build = plan_bak if args.allocator == "bak" else plan_giles
    return build(n, args.m, args.alpha, horizon=args.T, **kwargs)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_plan(args) -> int:
    plan = _plan_from_args(args)
    lines = ["level  samples  fine_steps  coarse_steps"]
    for lvl, size in enumerate(plan.sample_sizes):
        fine = plan.m**lvl if lvl else 1
        coarse = plan.m ** (lvl - 1) if lvl else 0
        lines.append("%5d  %7d  %10d  %12d" % (lvl, size, fine, coarse))
    lines.append("total cost (Euler sub-steps): %d" % complexity(plan))
    payload = dict(plan.to_json_dict(), total_cost=complexity(plan))
    text = "\n".join(lines) + "\n" + _json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_estimate(args) -> int:
    model, payoff, _ = _model_payoff(args)
    plan = _plan_from_args(args)
    report = estimate(
        model,
        payoff,
        plan,
        args.seed,
        replication=args.replication,
        threads=_threads(args),
        confidence=args.confidence,
        ci_method=args.ci_method,
        bias_pilot=args.bias_pilot,
    )
    for stats in report.level_stats:
        _log(
            args,
            "level %d: count=%d mean=%r variance=%r"
            % (stats.level, stats.count, stats.mean, stats.variance),
        )
    if args.format == "json":
        _emit(_json_text(report.to_json_dict()), args.out)
    else:
        rows = [
            (s.level, s.count, s.mean, s.variance, s.third_abs_moment, s.cost)
            for s in report.level_stats
        ]
        _emit(
            _csv_text(
                ("level", "count", "mean", "variance", "third_abs_moment", "cost"), rows
            ),
            args.out,
        )
    return 0


def _cmd_limit_var(args) -> int:
    model, payoff, _ = _model_payoff(args)
    config = LimitSimConfig(
        samples=args.samples,
        master_seed=args.seed,
        n_steps=args.grid_steps,
        replication=args.replication,
        threads=_threads(args),
    )
    variance, stderr = estimate_limit_variance(model, payoff, config)
    payload = {
        "variance": variance,
        "standard_error": stderr,
        "samples": args.samples,
        "grid_steps": args.grid_steps,
        "seed": args.seed,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        _emit(
            _csv_text(
                ("variance", "standard_error", "samples", "grid_steps"),
                [(variance, stderr, args.samples, args.grid_steps)],
            ),
            args.out,
        )
    return 0


def _verify_bracket(args) -> Tuple[dict, str]:
    t = args.t if args.t is not None else args.T
    if args.mode == "time":
        for name in ("samples", "seed", "threads"):
            if getattr(args, name) is not None:
                raise UsageError("--%s applies only to --mode brownian" % name)
        est, target = bracket_expectation_check(args.n, args.m, args.T, t)
    else:
        est, target = bracket_expectation_check(
            args.n,
            args.m,
            args.T,
            t,
            samples=100_000 if args.samples is None else args.samples,
            master_seed=0 if args.seed is None else args.seed,
            mode="brownian",
            threads=_threads(args),
        )
    summary = {
        "experiment": "bracket",
        "mode": args.mode,
        "n": args.n,
        "m": args.m,
        "horizon": args.T,
        "t": t,
        "estimate": est,
        "target": target,
    }
    artifact = _csv_text(
        ("mode", "n", "m", "horizon", "t", "estimate", "target"),
        [(args.mode, args.n, args.m, args.T, t, est, target)],
    )
    return summary, artifact


def _verify_clt(args) -> Tuple[dict, str]:
    if args.sigma2 is not None and not 0.0 < args.sigma2 < math.inf:
        raise UsageError("--sigma2 must be finite and > 0")
    model, payoff, reference = _model_payoff(args)
    plan = _plan_from_args(args)
    truth = _truth_value(args, reference)
    result = run_clt_experiment(
        model,
        payoff,
        plan,
        args.replications,
        truth,
        args.seed,
        sigma2=args.sigma2,
        threads=_threads(args),
    )
    summary = {
        "experiment": "clt",
        "replications": result.replications,
        "n": plan.n,
        "alpha": plan.alpha,
        "sample_mean": result.sample_mean,
        "sample_variance": result.sample_variance,
        "ks_statistic": result.ks_statistic,
        "degenerate": result.degenerate,
    }
    artifact = _csv_text(
        ("replication", "standardized_error"),
        list(enumerate(result.standardized_errors.tolist())),
    )
    return summary, artifact


def _verify_coverage(args) -> Tuple[dict, str]:
    model, payoff, reference = _model_payoff(args)
    plan = _plan_from_args(args)
    truth = _truth_value(args, reference)
    result = coverage_experiment(
        model,
        payoff,
        plan,
        args.replications,
        truth,
        args.confidence,
        args.seed,
        threads=_threads(args),
    )
    ratio = None
    if result.mean_radius.get("clt"):
        ratio = result.mean_radius["chebyshev"] / result.mean_radius["clt"]
    summary = {
        "experiment": "coverage",
        "replications": result.replications,
        "confidence": result.confidence,
        "coverage": dict(result.coverage),
        "mean_radius": dict(result.mean_radius),
        "radius_ratio_chebyshev_clt": ratio,
    }
    artifact = _csv_text(
        ("method", "coverage", "mean_radius"),
        [(k, result.coverage[k], result.mean_radius[k]) for k in sorted(result.coverage)],
    )
    return summary, artifact


def _verify_berry_esseen(args) -> Tuple[dict, str]:
    model, payoff, _ = _model_payoff(args)
    plans = [_plan_from_args(args, n) for n in _parse_int_list(args.n_list, "--n-list")]
    rows = []
    for idx, plan in enumerate(plans):
        (report,) = _replicate(model, payoff, plan, args.seed, 1, _threads(args), first=idx)
        bound = berry_esseen(report.level_stats, plan)
        _log(args, "n=%d: bound=%r" % (plan.n, bound.bound))
        rows.append((plan.n, bound.s_squared, bound.rho, bound.bound))
    slope = None
    if len(rows) >= 2:
        loglog_n = np.log(np.log([row[0] for row in rows]))
        log_bound = np.log([row[3] for row in rows])
        slope = float(np.polyfit(loglog_n, log_bound, 1)[0])
    summary = {
        "experiment": "berry-esseen",
        "rows": [
            {"n": n, "s_squared": s2, "rho": rho, "bound": bound}
            for n, s2, rho, bound in rows
        ],
        "slope_vs_loglog_n": slope,
    }
    artifact = _csv_text(("n", "s_squared", "rho", "bound"), rows)
    return summary, artifact


def _verify_two_level_law(args) -> Tuple[dict, str]:
    model, payoff, _ = _model_payoff(args)
    errors = two_level_error_samples(
        model,
        payoff,
        args.level,
        args.m,
        args.samples,
        args.seed,
        threads=_threads(args),
    )
    x, u = limit_draws(
        model,
        args.grid_steps,
        args.samples,
        args.seed,
        threads=_threads(args),
    )
    projections = projected_samples(payoff, x, u)
    distance = ks_statistic_two_sample(errors, projections)
    summary = {
        "experiment": "two-level-law",
        "level": args.level,
        "m": args.m,
        "samples": args.samples,
        "grid_steps": args.grid_steps,
        "ks_distance": distance,
        "error_variance": float(np.var(errors, ddof=1)),
        "limit_variance": float(np.var(projections, ddof=1)),
    }
    artifact = _csv_text(
        ("index", "two_level_error", "limit_projection"),
        list(zip(range(len(errors)), errors.tolist(), projections.tolist())),
    )
    return summary, artifact


def _cmd_verify(args) -> int:
    summary, artifact = args.run(args)
    sys.stdout.write(_json_text(summary))
    if args.out:
        _emit(artifact, args.out)
    return 0


def _cmd_benchmark(args) -> int:
    model, payoff, reference = _model_payoff(args)
    truth = _truth_value(args, reference)
    methods = [part.strip() for part in args.methods.split(",") if part.strip()]
    for method in methods:
        if method not in ("crude-mc", "mlmc"):
            raise UsageError("unknown method %r (choose from crude-mc, mlmc)" % method)
    n_list = _parse_int_list(args.n_list, "--n-list")
    # every plan is built, and so checked, before any path is simulated
    plans = {n: _plan_from_args(args, n) for n in n_list} if "mlmc" in methods else {}
    threads = _threads(args)
    reps = args.replications
    rows = []
    for method in methods:
        for idx, n in enumerate(n_list):
            target_rmse = n**-args.alpha
            if method == "mlmc":
                cost_units = complexity(plans[n])
                start = time.perf_counter()
                reports = _replicate(
                    model, payoff, plans[n], args.seed, reps, threads, first=idx * reps
                )
                wall = time.perf_counter() - start
                estimates = np.array([report.estimate for report in reports])
            else:
                # classical single-resolution baseline: N = n**(2 alpha)
                # samples of the n-step scheme, cost N * n sub-steps
                samples = max(2, round(n ** (2.0 * args.alpha)))
                cost_units = samples * n
                estimates = np.empty(reps)
                start = time.perf_counter()
                for rep in range(reps):
                    terminals = single_terminals(
                        model,
                        n,
                        samples,
                        args.seed,
                        slot=n,
                        replication=idx * reps + rep,
                        threads=threads,
                    )
                    estimates[rep] = float(np.mean(payoff.value(terminals)))
                wall = time.perf_counter() - start
            achieved = float(np.sqrt(np.mean((estimates - truth) ** 2)))
            _log(
                args,
                "%s n=%d: rmse=%r cost=%d wall=%.3fs" % (method, n, achieved, cost_units, wall),
            )
            rows.append((method, n, target_rmse, achieved, wall, cost_units))
    text = _csv_text(
        ("method", "n", "target_rmse", "achieved_rmse", "wall_time_seconds", "cost_units"),
        rows,
    )
    if args.format == "json":
        keys = ("method", "n", "target_rmse", "achieved_rmse", "wall_time_seconds", "cost_units")
        text = _json_text([dict(zip(keys, row)) for row in rows])
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(parser) -> None:
    group = parser.add_argument_group("model and payoff")
    group.add_argument("--x0", type=float, default=1.0, help="initial state (default 1)")
    group.add_argument("--mu", type=float, default=0.0, help="drift rate (default 0)")
    group.add_argument("--vol", type=float, default=1.0, help="volatility (default 1)")
    group.add_argument("--payoff", choices=("identity", "call"), default="identity")
    group.add_argument("--strike", type=float, help="strike, required for --payoff call")


def _add_plan_flags(parser, n_default: Optional[int] = None, n_list: bool = False) -> None:
    """--n (required unless ``n_default`` is given) or --n-list, and the allocator flags."""
    group = parser.add_argument_group("sampling plan")
    if n_list:
        group.add_argument("--n-list", required=True, help="comma-separated n values, powers of m")
        # no --weights: one weight per level cannot fit every n, because L = log_m(n) varies
        parser.set_defaults(weights=None)
    else:
        group.add_argument(
            "--n", type=int, required=n_default is None, default=n_default,
            help="finest step count, a power of m",
        )
        group.add_argument("--weights", help="bak: comma-separated level weights a_1..a_L")
    _add_common_flags(group, "--m")
    group.add_argument("--alpha", type=float, default=1.0, help="weak error order (default 1)")
    group.add_argument(
        "--allocator", choices=("bak", "giles"), default="bak", help="sample-size rule"
    )
    group.add_argument("--c2", type=float, help="giles: variance constant (default 1)")
    group.add_argument("--beta0", type=float, help="bak: level-0 log power (default 1.9)")


_COMMON_FLAGS = {
    "--m": dict(type=int, default=2, help="refinement factor (default 2)"),
    "--T": dict(type=float, default=1.0, help="time horizon (default 1)"),
    "--seed": dict(type=_seed, default=0, help="master seed in [0, 2**64) (default 0)"),
    "--replication": dict(
        type=_int_at_least(0), default=0, help="replication index for stream derivation"
    ),
    "--threads": dict(type=int, default=None, help="worker threads (default: all cores)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(help="write output to this file instead of stdout"),
    "--verbose": dict(action="store_true", help="one log line per level on stderr"),
    "--truth": dict(type=float, help="override the analytic expectation"),
    "--samples": dict(type=_int_at_least(2), default=100_000),
    "--grid-steps": dict(type=_int_at_least(1), default=1024),
}


def _add_common_flags(parser, *names: str) -> None:
    # a command declares only the shared flags it reads; argparse rejects the rest
    for name in names:
        parser.add_argument(name, **_COMMON_FLAGS[name])


def _add_verify_parsers(sub) -> None:
    """``verify EXPERIMENT``: each experiment declares only the flags it reads."""
    p_ver = sub.add_parser(
        "verify",
        help="run one verification experiment",
        description="The JSON summary goes to stdout; --out adds a CSV artifact.",
        allow_abbrev=False,
    )
    experiments = p_ver.add_subparsers(dest="experiment", required=True)

    def experiment(name, run, help, columns):
        parser = experiments.add_parser(
            name,
            help=help,
            epilog="CSV artifact columns: " + columns,
            allow_abbrev=False,
        )
        parser.set_defaults(func=_cmd_verify, run=run)
        return parser

    p = experiment(
        "bracket", _verify_bracket, "expected coupling bracket against its closed form",
        "mode,n,m,horizon,t,estimate,target",
    )
    p.add_argument("--n", type=_int_at_least(1), default=16, help="coarse step count (default 16)")
    _add_common_flags(p, "--m", "--T", "--out")
    p.add_argument("--t", type=float, help="upper integration time (default T)")
    p.add_argument("--mode", choices=("time", "brownian"), default="time")
    # time mode draws no paths, so it rejects these three
    p.add_argument("--samples", type=_int_at_least(1), help="brownian: paths (default 100000)")
    _add_common_flags(p, "--seed", "--threads")
    p.set_defaults(seed=None)

    p = experiment(
        "clt", _verify_clt, "KS test of the scaled error law over replications",
        "replication,standardized_error",
    )
    _add_model_flags(p)
    _add_plan_flags(p, n_default=16)
    _add_common_flags(p, "--T", "--seed", "--threads", "--out", "--truth")
    p.add_argument("--replications", type=_int_at_least(2), default=200)
    p.add_argument("--sigma2", type=float, help="null variance (default: sample)")

    p = experiment(
        "coverage", _verify_coverage, "confidence-interval coverage over replications",
        "method,coverage,mean_radius",
    )
    _add_model_flags(p)
    _add_plan_flags(p, n_default=16)
    _add_common_flags(p, "--T", "--seed", "--threads", "--out", "--truth")
    p.add_argument("--replications", type=_int_at_least(1), default=200)
    p.add_argument("--confidence", type=float, default=0.9)

    p = experiment(
        "berry-esseen", _verify_berry_esseen, "Berry-Esseen bound per n",
        "n,s_squared,rho,bound",
    )
    _add_model_flags(p)
    _add_plan_flags(p, n_list=True)
    _add_common_flags(p, "--T", "--seed", "--threads", "--out", "--verbose")

    p = experiment(
        "two-level-law", _verify_two_level_law, "two-level error against the limit law",
        "index,two_level_error,limit_projection",
    )
    _add_model_flags(p)
    _add_common_flags(p, "--m", "--T", "--seed", "--threads", "--out", "--samples", "--grid-steps")
    p.add_argument("--level", type=_int_at_least(1), default=8, help="fine level (default 8)")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere, or --replication would alias --replications
    parser = argparse.ArgumentParser(
        prog="mlmc-euler",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print a sample-size schedule", allow_abbrev=False)
    _add_plan_flags(p_plan)
    _add_common_flags(p_plan, "--T", "--out")
    p_plan.set_defaults(func=_cmd_plan)

    p_est = sub.add_parser(
        "estimate",
        help="run the multilevel estimator",
        epilog="csv columns: level,count,mean,variance,third_abs_moment,cost "
        "(json carries the full report)",
        allow_abbrev=False,
    )
    _add_model_flags(p_est)
    _add_plan_flags(p_est)
    _add_common_flags(
        p_est, "--T", "--seed", "--replication", "--threads", "--format", "--out", "--verbose"
    )
    p_est.add_argument("--confidence", type=float, default=0.9)
    p_est.add_argument("--ci-method", choices=("clt", "chebyshev"), default="clt")
    p_est.add_argument(
        "--bias-pilot",
        type=_int_at_least(0),
        default=4096,
        help="paths for the Richardson bias pilot (0 disables it)",
    )
    p_est.set_defaults(func=_cmd_estimate)

    p_lv = sub.add_parser(
        "limit-var",
        help="simulate the limiting variance",
        epilog="csv columns: variance,standard_error,samples,grid_steps",
        allow_abbrev=False,
    )
    _add_model_flags(p_lv)
    _add_common_flags(
        p_lv, "--T", "--seed", "--replication", "--threads", "--format", "--out",
        "--samples", "--grid-steps",
    )
    p_lv.set_defaults(func=_cmd_limit_var)

    _add_verify_parsers(sub)

    p_bench = sub.add_parser(
        "benchmark",
        help="cost-versus-RMSE table",
        epilog="csv columns: method,n,target_rmse,achieved_rmse,wall_time_seconds,cost_units. "
        "Wall time covers the sampling loop only; cost_units and achieved_rmse are "
        "seed-deterministic, wall time is not.",
        allow_abbrev=False,
    )
    _add_model_flags(p_bench)
    _add_plan_flags(p_bench, n_list=True)
    _add_common_flags(
        p_bench, "--T", "--seed", "--threads", "--format", "--out", "--verbose", "--truth"
    )
    p_bench.add_argument("--methods", default="crude-mc,mlmc")
    p_bench.add_argument("--replications", type=_int_at_least(1), default=25)
    p_bench.set_defaults(func=_cmd_benchmark, format="csv")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags; keep main() a plain int contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (EulerDivergedError, DegenerateTransportError, DegenerateStatisticsError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
