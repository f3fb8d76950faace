"""Command-line interface.

Subcommands:
  run                train per the JSON config (multi-seed, any scheduler)
  sweep              repeat the config across one axis (T, epsilon, beta, T_init)
  verify-accountant  numeric-vs-bound moment report on the standard panels
  accountant         emit calibration or moment CSV tables
  pilot-clip         recommend a clipping threshold from a noiseless pass
  fetch-mnist        explicit opt-in MNIST download
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .accountant import calibration_table, moment_table, sensitivity, verify_accountant
from .data import fetch_mnist
from .harness import (
    SCHEDULERS,
    SWEEP_AXES,
    ExperimentConfig,
    _atomic_write_text,
    _csv,
    pilot_clip,
    run_experiment,
    sweep,
)

VERIFY_COLUMNS = (
    "panel", "q", "sigma", "lambda", "log_D10", "log_D01", "log_bound",
    "regime_ratio", "bound_checked", "ordering_violation", "bound_violation",
)
CALIBRATION_COLUMNS = ("epsilon", "delta", "q", "T", "sensitivity", "sigma")
MOMENT_COLUMNS = ("q", "sigma", "lambda", "log_D10", "log_D01", "log_bound")


def _num_list(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            out.append(float(tok))
    return tuple(out)


def _int_list(text: str, option: str) -> tuple:
    """``_num_list`` for an option that takes integers only: a float is an error, not
    truncated."""
    values = _num_list(text)
    bad = [v for v in values if not isinstance(v, int)]
    if bad:
        raise ValueError(f"{option} takes integers, got {', '.join(map(repr, bad))}")
    return values


def _config_with_overrides(args) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return dataclasses.replace(ExperimentConfig.from_json(args.config), **overrides)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    # each option's dest is the config field it overrides
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--scheduler", choices=SCHEDULERS)
    p.add_argument("--beta", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--t-init", dest="T_init", type=int)
    p.add_argument("--epsilon", dest="epsilon_p", type=float, help="override epsilon_p")
    p.add_argument("--seeds", type=_num_list, help="comma-separated seed list")
    p.add_argument("--workers", type=int)
    p.add_argument("--output-dir", dest="output_dir")


def _cmd_run(args) -> int:
    manifest = run_experiment(_config_with_overrides(args))
    print(f"config hash: {manifest.config_hash}")
    for seed, info in sorted(manifest.outputs.items(), key=lambda kv: int(kv[0])):
        print(
            f"seed {seed}: final_test_loss={info['final_test_loss']:.6g} "
            f"rounds={info['realized_T']} -> {info['rounds']}"
        )
    for seed, err in sorted(manifest.errors.items()):
        print(f"seed {seed}: FAILED: {err}", file=sys.stderr)
    return 1 if manifest.errors else 0


def _cmd_sweep(args) -> int:
    cfg = _config_with_overrides(args)
    path = sweep(cfg, args.axis, _num_list(args.values))
    print(f"sweep curve: {path}")
    return 0


def _table_csv(columns, rows) -> str:
    # a verify row whose quadrature failed has no moments: NaN moments, empty flags
    cells = ([r.get(c, math.nan if c.startswith("log_") else "") for c in columns] for r in rows)
    return _csv(columns, cells)


def _cmd_verify_accountant(args) -> int:
    rows = verify_accountant()
    if args.output:
        _atomic_write_text(args.output, _table_csv(VERIFY_COLUMNS, rows))
    checked = sum(r["bound_checked"] for r in rows)
    bound_bad = sum(r.get("bound_violation", 0) for r in rows)
    order_bad = sum(r.get("ordering_violation", 0) for r in rows)
    quad_fail = sum(1 for r in rows if "error" in r)
    print(f"rows: {len(rows)} (bound checked on {checked})")
    print(f"bound violations: {bound_bad}")
    print(f"ordering violations: {order_bad}")
    if quad_fail:
        print(f"quadrature failures: {quad_fail}", file=sys.stderr)
    if args.output:
        print(f"report: {args.output}")
    return 1 if (bound_bad or order_bad or quad_fail) else 0


def _cmd_accountant(args) -> int:
    if args.table == "calibration":
        if args.sensitivity:
            sens = _num_list(args.sensitivity)
        elif args.eta and args.clip and args.n_samples:
            n_samples = _int_list(args.n_samples, "--n-samples")
            sens = [sensitivity(args.eta, args.clip, n) for n in n_samples]
        else:
            raise ValueError("need --sensitivity or all of --eta/--clip/--n-samples")
        rows = calibration_table(
            _num_list(args.epsilon),
            _num_list(args.delta),
            _num_list(args.q),
            _int_list(args.T, "--T"),
            sens,
        )
        text = _table_csv(CALIBRATION_COLUMNS, rows)
    else:
        rows = moment_table(
            args.q_value,
            args.sigma,
            args.sensitivity_value,
            range(1, args.lambda_max + 1),
        )
        text = _table_csv(MOMENT_COLUMNS, rows)
    if args.output:
        _atomic_write_text(args.output, text)
        print(f"table: {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_pilot_clip(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    c_value, path = pilot_clip(cfg, seed=args.seed, rounds=args.rounds)
    print(f"recommended clip_C: {c_value!r}")
    print(f"norms log: {path}")
    if c_value == 0.0:
        print(
            "warning: median gradient norm is zero (degenerate at this "
            "initialization); try more --rounds",
            file=sys.stderr,
        )
    return 0


def _cmd_fetch_mnist(args) -> int:
    path = fetch_mnist(args.dir)
    print(f"MNIST ready under {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udpfl",
        description="Deterministic federated-learning simulator with a "
        "user-level differential-privacy accountant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    _add_run_options(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="sweep one config axis")
    _add_run_options(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "verify-accountant", help="bound-vs-numeric moment verification report"
    )
    p.add_argument("--output", help="CSV report path")
    p.set_defaults(fn=_cmd_verify_accountant)

    p = sub.add_parser("accountant", help="emit calibration/moment tables")
    p.add_argument("--table", choices=("calibration", "moments"), default="calibration")
    p.add_argument("--epsilon", default="8", help="calibration: epsilon list")
    p.add_argument("--delta", default="0.001", help="calibration: delta list")
    p.add_argument("--q", default="0.6", help="calibration: sampling-ratio list")
    p.add_argument("--T", default="200", help="calibration: round-count list")
    p.add_argument("--sensitivity", help="calibration: per-step sensitivity list")
    p.add_argument("--eta", type=float, help="derive sensitivity: learning rate")
    p.add_argument("--clip", type=float, help="derive sensitivity: clip threshold")
    p.add_argument("--n-samples", dest="n_samples", help="derive sensitivity: shard sizes")
    p.add_argument("--q-value", dest="q_value", type=float, default=0.6, help="moments: q")
    p.add_argument("--sigma", type=float, default=0.01, help="moments: noise scale")
    p.add_argument(
        "--sensitivity-value",
        dest="sensitivity_value",
        type=float,
        default=1.25e-4,
        help="moments: per-step sensitivity",
    )
    p.add_argument("--lambda-max", dest="lambda_max", type=int, default=32)
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=_cmd_accountant)

    p = sub.add_parser("pilot-clip", help="recommend a clipping threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(fn=_cmd_pilot_clip)

    p = sub.add_parser("fetch-mnist", help="download MNIST (explicit opt-in)")
    p.add_argument("--dir", help="target directory (default: cache dir)")
    p.set_defaults(fn=_cmd_fetch_mnist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError, IdxParseError, missing files
        print(f"udpfl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
