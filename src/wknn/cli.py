"""Batch command-line front end.

Subcommands: weights, distance, rate-exp, qi-exp, atom-demo, regress-exp,
constants. Every subcommand is pure in (inputs, flags, seed): re-runs
write identical bytes (runs.csv excepted in its wall-time column).
Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import (
    InvalidInputError,
    LabeledSample,
    Norm,
    NumericalError,
    Sample,
    _write_lines,
    _write_table,
    read_sample_csv,
    uniform_empirical,
)
from .experiments import (
    KRule,
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    generalization_error_mc,
    power_k,
    qi_experiment,
    scenario_names,
    wasserstein_rate_experiment,
    write_ratefit_csv,
    write_runs_csv,
    write_summary_csv,
)
from .knn import neighbor_table
from .ot import exact_wq, wq_knn_bound
from .theory import cdq, inv_density_moment, rate_constant, zador_exponent
from .weights import knn_weights, weighted_measure

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _parse_grid(text: str, kind: type, name: str) -> list:
    try:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad {name} grid {text!r}") from exc
    if not values:
        raise InvalidInputError("empty grid")
    return values


def _parse_k_rule(text: str) -> KRule:
    text = str(text).strip()
    kind, _, arg = text.partition(":")
    try:
        if kind == "const" and arg:
            return const_k(int(arg))
        if kind == "power" and arg:
            return power_k(float(arg))
    except ValueError as exc:
        raise InvalidInputError(f"bad k rule argument {arg!r} in {text!r}") from exc
    raise InvalidInputError(f"bad k rule {text!r}; expected const:K or power:ALPHA")


def _inputs_of(data) -> Sample:
    return data.inputs if isinstance(data, LabeledSample) else data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wknn",
        description="Nearest-neighbor reweighting, exact transport checks and rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed=False, threads=False, out=False) -> None:
        p.add_argument("--config", default=None, help="key=value config file; flags override")
        p.add_argument("--norm", default="l2", choices=["l1", "l2", "linf"])
        if seed:
            p.add_argument("--seed", type=int, default=None, help="default: $WKNN_SEED or 0")
        if threads:
            p.add_argument("--threads", type=int, default=1)
        if out:
            p.add_argument("--out", default=None, help="output directory (required)")

    p_weights = sub.add_parser("weights", help="k-NN weight vector from two sample CSVs")
    common(p_weights)
    p_weights.add_argument("--eval", dest="eval_csv", required=True)
    p_weights.add_argument("--train", dest="train_csv", required=True)
    p_weights.add_argument("--k", type=int, default=1)

    p_dist = sub.add_parser("distance", help="transport cost between two sample CSVs")
    common(p_dist)
    p_dist.add_argument("--eval", dest="eval_csv", required=True)
    p_dist.add_argument("--train", dest="train_csv", required=True)
    p_dist.add_argument("--k", type=int, default=1)
    p_dist.add_argument("--q", type=float, default=2.0)
    p_dist.add_argument("--exact", action="store_true", help="solve and certify the exact LP")

    p_rate = sub.add_parser("rate-exp", help="transport-cost decay experiment")
    common(p_rate, seed=True, threads=True, out=True)
    p_rate.add_argument("--reps", type=int, default=None)
    p_rate.add_argument("--certify", action="store_true")
    p_rate.add_argument("--scenario", default="diag_uniform_gauss", choices=scenario_names())
    p_rate.add_argument("--scorr", type=float, default=None)
    p_rate.add_argument("--m-grid", default="100,200,400,800,1600,3200")
    p_rate.add_argument("--n", type=int, default=100)
    p_rate.add_argument("--k-rule", default="const:1")
    p_rate.add_argument("--q", type=float, default=2.0)

    p_qi = sub.add_parser("qi-exp", help="estimation-error experiment over s_corr")
    common(p_qi, seed=True, threads=True, out=True)
    p_qi.add_argument("--reps", type=int, default=None)
    p_qi.add_argument("--scenario", default="diag_uniform_gauss", choices=scenario_names())
    p_qi.add_argument("--m", type=int, default=900)
    p_qi.add_argument("--n", type=int, default=900)
    p_qi.add_argument("--k", type=int, default=4)
    p_qi.add_argument("--scorr-grid", default="-0.9,0,0.9")

    p_atom = sub.add_parser("atom-demo", help="atom inconsistency demonstration")
    common(p_atom, seed=True, threads=True, out=True)
    p_atom.add_argument("--reps", type=int, default=None)
    p_atom.add_argument("--m-grid", default="100,1000,10000")
    p_atom.add_argument("--n", type=int, default=100)

    p_reg = sub.add_parser("regress-exp", help="k-NN regression generalization error")
    common(p_reg, seed=True, out=True)
    p_reg.add_argument("--scenario", default="diag_uniform_gauss", choices=scenario_names())
    p_reg.add_argument("--m", type=int, default=1000)
    p_reg.add_argument("--k", type=int, default=1)
    p_reg.add_argument("--n-test", type=int, default=500)

    p_const = sub.add_parser("constants", help="asymptotic constants for a scenario")
    common(p_const, seed=True)
    p_const.add_argument("--scenario", default="identity_1d_uniform", choices=scenario_names())
    p_const.add_argument("--q", type=float, default=2.0)
    p_const.add_argument("--draws", type=int, default=10000)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        values = _read_config(Path(args.config))
        sub = _subparser_for(parser, args.command)
        dests = {a.dest: a for a in sub._actions}
        defaults = {}
        for raw_key, raw_val in values.items():
            dest = raw_key.replace("-", "_")
            if dest not in dests or dest in {"config", "help"}:
                raise InvalidInputError(f"unknown config key {raw_key!r}")
            defaults[dest] = _convert(dests[dest], raw_val)
        sub.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def _read_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _subparser_for(parser, command):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise RuntimeError("no subparsers registered")


def _convert(action, raw: str):
    if isinstance(action, argparse._StoreTrueAction):
        low = raw.lower()
        if low in {"1", "true", "yes", "on"}:
            return True
        if low in {"0", "false", "no", "off"}:
            return False
        raise InvalidInputError(f"bad boolean {raw!r} for {action.dest}")
    if action.type is not None:
        try:
            return action.type(raw)
        except ValueError as exc:
            raise InvalidInputError(f"bad value {raw!r} for {action.dest}") from exc
    return raw


def _resolved_seed(args) -> int:
    return int(os.environ.get("WKNN_SEED", "0")) if args.seed is None else int(args.seed)


def _require_out(args) -> Path:
    if not getattr(args, "out", None):
        raise InvalidInputError("--out DIR is required for experiment subcommands")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, extra: dict) -> None:
    resolved = [(k, v) for k, v in sorted(vars(args).items()) if k not in {"command", "config"}]
    versions = [("version.wknn", __version__), ("version.python", platform.python_version()),
                ("version.numpy", np.__version__), ("version.scipy", scipy.__version__)]
    pairs = [("command", args.command), *resolved, *sorted(extra.items()), *versions]
    _write_lines(out / "manifest.txt", [f"{key}={val}" for key, val in pairs])


def _cmd_weights(args) -> int:
    norm = Norm.parse(args.norm)
    eval_sample = _inputs_of(read_sample_csv(args.eval_csv))
    train = _inputs_of(read_sample_csv(args.train_csv))
    table = neighbor_table(eval_sample, train, args.k, norm)
    wv = knn_weights(table, train.size)
    _write_table(sys.stdout, ("index", "weight"), enumerate(wv.w))
    return EXIT_OK


def _cmd_distance(args) -> int:
    norm = Norm.parse(args.norm)
    eval_sample = _inputs_of(read_sample_csv(args.eval_csv))
    train = _inputs_of(read_sample_csv(args.train_csv))
    if args.exact:
        table = neighbor_table(eval_sample, train, args.k, norm)
        wv = knn_weights(table, train.size)
        value, _ = exact_wq(
            uniform_empirical(eval_sample), weighted_measure(train, wv), args.q, norm
        )
        method = "exact_lp"
    else:
        value = wq_knn_bound(eval_sample, train, args.k, args.q, norm)
        method = "closed_form_1nn" if args.k == 1 else "knn_bound"
    _write_table(sys.stdout, ("wq_q_power", "method"), [(value, method)])
    return EXIT_OK


def _cmd_rate_exp(args) -> int:
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args)
    out = _require_out(args)
    reps = 200 if args.reps is None else int(args.reps)
    overrides = {} if args.scorr is None else {"s_corr": args.scorr}
    scenario = builtin_scenario(args.scenario, overrides)
    rule = _parse_k_rule(args.k_rule)
    result = wasserstein_rate_experiment(
        scenario,
        _parse_grid(args.m_grid, int, "integer"),
        args.n,
        rule,
        args.q,
        reps,
        seed,
        norm=norm,
        threads=args.threads,
        certify=args.certify,
    )
    write_runs_csv(out / "runs.csv", result.records)
    write_summary_csv(out / "summary.csv", result.summary, "m")
    if result.fit is not None:
        write_ratefit_csv(out / "ratefit.csv", result.fit)
    _write_manifest(out, args, {"seed.resolved": seed, "reps.resolved": reps,
                                "statistic": result.statistic})
    return EXIT_OK


def _cmd_qi_exp(args) -> int:
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args)
    out = _require_out(args)
    reps = 500 if args.reps is None else int(args.reps)
    scenario = builtin_scenario(args.scenario)
    result = qi_experiment(
        scenario,
        args.m,
        args.n,
        args.k,
        _parse_grid(args.scorr_grid, float, "float"),
        reps,
        seed,
        norm=norm,
        threads=args.threads,
    )
    write_runs_csv(out / "runs.csv", result.records)
    write_summary_csv(out / "summary.csv", result.summary, "s_corr")
    _write_manifest(out, args, {"seed.resolved": seed, "reps.resolved": reps,
                                "statistic": "squared_qi_error"})
    return EXIT_OK


def _cmd_atom_demo(args) -> int:
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args)
    out = _require_out(args)
    reps = 200 if args.reps is None else int(args.reps)
    result = atom_consistency_experiment(
        _parse_grid(args.m_grid, int, "integer"),
        reps,
        seed,
        n=args.n,
        norm=norm,
        threads=args.threads,
    )
    write_runs_csv(out / "runs.csv", result.records)
    write_summary_csv(out / "summary_k1.csv", result.summary_1nn, "m")
    write_summary_csv(out / "summary_ksqrt.csv", result.summary_sqrt, "m")
    _write_manifest(out, args, {"seed.resolved": seed, "reps.resolved": reps,
                                "statistic": "abs_qi_error"})
    return EXIT_OK


def _cmd_regress_exp(args) -> int:
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args)
    out = _require_out(args)
    scenario = builtin_scenario(args.scenario)
    if scenario.psi is None:
        raise InvalidInputError("regress-exp needs a scenario with an analytic regression function")
    mse, stderr = generalization_error_mc(
        scenario.model,
        scenario.x_sampler,
        scenario.xp_sampler,
        scenario.psi,
        args.m,
        args.k,
        args.n_test,
        norm=norm,
        seed=seed,
    )
    _write_table(out / "summary.csv", ("mse", "stderr", "n_test"), [(mse, stderr, args.n_test)])
    _write_manifest(out, args, {"seed.resolved": seed, "statistic": "l2_generalization_error"})
    return EXIT_OK


def _cmd_constants(args) -> int:
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args)
    scenario = builtin_scenario(args.scenario)
    if scenario.log_density_xp is None:
        raise InvalidInputError("scenario lacks a training log-density")
    moment, moment_se = inv_density_moment(
        scenario.x_sampler, scenario.log_density_xp, args.q, scenario.d, args.draws, seed
    )
    const = rate_constant(args.q, scenario.d, norm, moment)
    columns = ("scenario", "q", "d", "v_d", "inv_density_moment", "inv_density_moment_stderr",
               "rate_constant", "cdq_inf", "zador_exponent")
    row = (scenario.name, args.q, scenario.d, const.v_d, moment, moment_se, const.value,
           cdq(args.q, scenario.d, math.inf), zador_exponent(args.q, scenario.d))
    _write_table(sys.stdout, columns, [row])
    return EXIT_OK


_HANDLERS = {
    "weights": _cmd_weights,
    "distance": _cmd_distance,
    "rate-exp": _cmd_rate_exp,
    "qi-exp": _cmd_qi_exp,
    "atom-demo": _cmd_atom_demo,
    "regress-exp": _cmd_regress_exp,
    "constants": _cmd_constants,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:
            # argparse has printed usage or help: 2 for a usage error, 0 for --help.
            return int(exc.code or 0)
        if getattr(args, "threads", 1) < 1:
            raise InvalidInputError(f"--threads must be at least 1, got {args.threads}")
        return _HANDLERS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
