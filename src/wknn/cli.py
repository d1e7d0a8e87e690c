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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DEFAULT_NORM,
    InvalidInputError,
    LabeledSample,
    Norm,
    NumericalError,
    Sample,
    _check_int,
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

# Replications per run when --reps is not given.
_DEFAULT_REPS = {"rate-exp": 200, "qi-exp": 500, "atom-demo": 200}


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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="wknn",
        description="Nearest-neighbor reweighting, exact transport checks and rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, pair=False, seed=False, threads=False,
               out=False, reps=False) -> None:
        p.add_argument("--config", default=None, help="key=value config file; flags override")
        p.add_argument("--norm", default=DEFAULT_NORM.value, choices=[n.value for n in Norm])
        if pair:
            p.add_argument("--eval", help="evaluation sample CSV (required)")
            p.add_argument("--train", help="training sample CSV (required)")
            p.add_argument("--k", type=int, default=1)
        if seed:
            p.add_argument("--seed", type=int, default=None, help="default: $WKNN_SEED or 0")
        if threads:
            p.add_argument("--threads", type=int, default=1)
        if out:
            p.add_argument("--out", default=None, help="output directory (required)")
        if reps:
            p.add_argument("--reps", type=int, default=None)

    p_weights = sub.add_parser("weights", help="k-NN weight vector from two sample CSVs")
    common(p_weights, pair=True)

    p_dist = sub.add_parser("distance", help="transport cost between two sample CSVs")
    common(p_dist, pair=True)
    p_dist.add_argument("--q", type=float, default=2.0)
    p_dist.add_argument("--exact", action="store_true", help="solve and certify the exact LP")

    p_rate = sub.add_parser("rate-exp", help="transport-cost decay experiment")
    common(p_rate, seed=True, threads=True, out=True, reps=True)
    p_rate.add_argument("--certify", action="store_true")
    p_rate.add_argument("--scenario", default="diag_uniform_gauss", choices=scenario_names())
    p_rate.add_argument("--scorr", type=float, default=None)
    p_rate.add_argument("--m-grid", default="100,200,400,800,1600,3200")
    p_rate.add_argument("--n", type=int, default=100)
    p_rate.add_argument("--k-rule", default="const:1")
    p_rate.add_argument("--q", type=float, default=2.0)

    p_qi = sub.add_parser("qi-exp", help="estimation-error experiment over s_corr")
    common(p_qi, seed=True, threads=True, out=True, reps=True)
    p_qi.add_argument("--scenario", default="diag_uniform_gauss", choices=scenario_names())
    p_qi.add_argument("--m", type=int, default=900)
    p_qi.add_argument("--n", type=int, default=900)
    p_qi.add_argument("--k", type=int, default=4)
    p_qi.add_argument("--scorr-grid", default="-0.9,0,0.9")

    p_atom = sub.add_parser("atom-demo", help="atom inconsistency demonstration")
    common(p_atom, seed=True, threads=True, out=True, reps=True)
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

    return parser, sub.choices


def _apply_config(parser: argparse.ArgumentParser, commands: dict,
                  argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config == "":
        raise InvalidInputError("--config needs a file path, got an empty one")
    if args.config is not None:
        values = _read_config(Path(args.config))
        sub = commands[args.command]
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
    except (OSError, UnicodeDecodeError) as exc:
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
    raw = os.environ.get("WKNN_SEED", "0") if args.seed is None else args.seed
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"WKNN_SEED must be an integer, got {raw!r}") from None


def _require_out(args) -> Path:
    """The --out directory, checked but not created: ``_writing`` creates it."""
    if not args.out:
        raise InvalidInputError("--out DIR is required for experiment subcommands")
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InvalidInputError(f"--out {out}: {path} is not a directory")
            break
    return out


@contextmanager
def _writing(out: Path):
    """Create ``out`` just before the first write, so a run that fails
    before it leaves no directory; an OS error on the way is invalid input."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot write to --out {out}: {exc}") from exc


def _write_manifest(out: Path, args, extra: dict) -> None:
    import scipy

    resolved = [(k, v) for k, v in sorted(vars(args).items()) if k not in {"command", "config"}]
    versions = [("version.wknn", __version__), ("version.python", platform.python_version()),
                ("version.numpy", np.__version__), ("version.scipy", scipy.__version__)]
    pairs = [("command", args.command), *resolved, *sorted(extra.items()), *versions]
    _write_lines(out / "manifest.txt", [f"{key}={val}" for key, val in pairs])


def _read_pair(args) -> tuple[Sample, Sample]:
    """The --eval and --train samples (an empty path is missing); a labeled CSV gives its inputs."""
    missing = [f"--{name}" for name in ("eval", "train") if not getattr(args, name)]
    if missing:
        raise InvalidInputError(f"the following arguments are required: {', '.join(missing)}")
    data = [read_sample_csv(args.eval), read_sample_csv(args.train)]
    return tuple(d.inputs if isinstance(d, LabeledSample) else d for d in data)


# Each handler takes the parsed flags and the resolved norm, seed and reps
# (None where the subcommand has no such flag). One that prints returns
# None; one that writes to --out returns its writer and statistic name.
def _cmd_weights(args, norm, seed, reps) -> None:
    eval_sample, train = _read_pair(args)
    table = neighbor_table(eval_sample, train, args.k, norm)
    wv = knn_weights(table, train.size)
    _write_table(sys.stdout, ("index", "weight"), enumerate(wv.w))


def _cmd_distance(args, norm, seed, reps) -> None:
    eval_sample, train = _read_pair(args)
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


def _cmd_rate_exp(args, norm, seed, reps):
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

    def write(out: Path) -> None:
        write_runs_csv(out / "runs.csv", result.records)
        write_summary_csv(out / "summary.csv", result.summary, "m")
        if result.fit is not None:
            write_ratefit_csv(out / "ratefit.csv", result.fit)

    return write, result.statistic


def _cmd_qi_exp(args, norm, seed, reps):
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

    def write(out: Path) -> None:
        write_runs_csv(out / "runs.csv", result.records)
        write_summary_csv(out / "summary.csv", result.summary, "s_corr")

    return write, "squared_qi_error"


def _cmd_atom_demo(args, norm, seed, reps):
    result = atom_consistency_experiment(
        _parse_grid(args.m_grid, int, "integer"),
        reps,
        seed,
        n=args.n,
        norm=norm,
        threads=args.threads,
    )

    def write(out: Path) -> None:
        write_runs_csv(out / "runs.csv", result.records)
        write_summary_csv(out / "summary_k1.csv", result.summary_1nn, "m")
        write_summary_csv(out / "summary_ksqrt.csv", result.summary_sqrt, "m")

    return write, "abs_qi_error"


def _cmd_regress_exp(args, norm, seed, reps):
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

    def write(out: Path) -> None:
        _write_table(out / "summary.csv", ("mse", "stderr", "n_test"),
                     [(mse, stderr, args.n_test)])

    return write, "l2_generalization_error"


def _cmd_constants(args, norm, seed, reps) -> None:
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


_HANDLERS = {
    "weights": _cmd_weights,
    "distance": _cmd_distance,
    "rate-exp": _cmd_rate_exp,
    "qi-exp": _cmd_qi_exp,
    "atom-demo": _cmd_atom_demo,
    "regress-exp": _cmd_regress_exp,
    "constants": _cmd_constants,
}


def _run(args) -> int:
    """Resolve the shared inputs in a fixed order (--threads, norm, seed,
    --out, reps), run the subcommand, then write its files and manifest."""
    _check_int(getattr(args, "threads", 1), "--threads")
    norm = Norm.parse(args.norm)
    seed = _resolved_seed(args) if "seed" in args else None
    out = _require_out(args) if "out" in args else None
    reps = _DEFAULT_REPS.get(args.command) if getattr(args, "reps", None) is None else args.reps
    result = _HANDLERS[args.command](args, norm, seed, reps)
    if out is not None:
        write, statistic = result
        extra = {"seed.resolved": seed, "reps.resolved": reps, "statistic": statistic}
        with _writing(out):
            write(out)
            _write_manifest(out, args, {k: v for k, v in extra.items() if v is not None})
    return EXIT_OK


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        try:
            args = _apply_config(parser, commands, list(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:
            # argparse has printed usage or help: 2 for a usage error, 0 for --help.
            return int(exc.code or 0)
        return _run(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
