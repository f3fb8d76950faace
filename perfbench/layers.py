"""The traced pass: which public functions get a span, and the per-layer metrics.

Each site wraps a public function at the name its caller binds, for example
``udpfl.federation.local_update`` (called by ``run_round``) or
``udpfl.harness.load_experiment_data`` (called by ``run_single_seed``).  No
private name is wrapped, so work reachable only through one, such as
``_noise_rng`` or ``_check_eta_against_smoothness``, shows up in its
caller's self time.  Span names are ``<layer>.<function>``, where the layer
is the module that defines the function.

Operation counts (``models.flop``) are computed from array shapes, not
measured: a multiply-add counts as two operations and elementwise work
other than the squared row norms is ignored.
"""

from __future__ import annotations

from udpfl import accountant, data, federation, harness, models, scheduler


def forward_flops(spec, n: int) -> int:
    """Operations of one forward pass over n rows."""
    d = spec.input_dim
    if spec.kind == "svm":
        return 2 * n * d
    if spec.kind == "logistic":
        return 2 * n * d * spec.num_classes
    return 2 * n * spec.hidden_dim * (d + spec.num_classes)


def step_flops(spec, n: int) -> int:
    """Operations of one clipped local step: forward, per-sample norms, backward."""
    d = spec.input_dim
    if spec.kind == "svm":
        return 6 * n * d
    if spec.kind == "logistic":
        return 4 * n * d * spec.num_classes + 2 * n * d
    h, c = spec.hidden_dim, spec.num_classes
    return 4 * n * d * h + 6 * n * h * c + 2 * n * (d + h)


def _count_step(counts, args, result):
    spec, X = args[0], args[2]
    counts["models.train_rows"] += len(X)
    counts["models.flop"] += step_flops(spec, len(X))


def _count_forward(counts, args, result):
    spec, X = args[0], args[2]
    counts["models.eval_rows"] += len(X)
    counts["models.flop"] += forward_flops(spec, len(X))


def _count_noise(counts, args, result):
    params, sigma = args[0], args[1]
    if sigma > 0.0:
        counts["federation.noise_draws"] += params.size


def _count_ledger_terms(counts, args, result):
    counts["accountant.ledger_terms"] += len(args[4])  # the sigma history


def _count_idx_bytes(counts, args, result):
    directory = data.mnist_dir(args[0] if args else None)
    counts["data.bytes_parsed"] += sum(
        (directory / name).stat().st_size for name in data.MNIST_FILES
    )


# (owner, attribute, span name, counter)
SITES = (
    (harness, "sweep", "harness.sweep", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness.ExperimentConfig, "validate", "harness.validate", None),
    (harness, "run_single_seed", "harness.run_single_seed", None),
    (harness, "load_experiment_data", "harness.load_experiment_data", None),
    (harness, "load_mnist", "data.load_mnist", _count_idx_bytes),
    (harness, "synth_linear", "data.synth_linear", None),
    (harness, "partition", "data.partition", None),
    (data.Dataset, "subset", "data.subset", None),
    (harness, "rounds_csv_text", "harness.rounds_csv_text", None),
    (harness, "evaluate", "federation.evaluate", None),
    (harness, "run_training", "federation.run_training", None),
    (harness, "linear_decay_baseline", "scheduler.linear_decay_baseline", None),
    (scheduler.CrdScheduler, "__call__", "scheduler.crd_decide", None),
    (scheduler, "evaluate", "federation.evaluate", None),
    (scheduler, "run_round", "federation.run_round", None),
    (accountant.MomentLedger, "within", "accountant.moment_ledger", None),
    (accountant.MomentLedger, "charge", "accountant.moment_ledger", None),
    (federation, "run_round", "federation.run_round", None),
    (federation, "recalibrate_sigma", "accountant.recalibrate_sigma", _count_ledger_terms),
    (federation, "sample_clients", "federation.sample_clients", None),
    (federation, "local_update", "models.local_update", _count_step),
    (federation, "add_noise", "federation.add_noise", _count_noise),
    (federation, "aggregate", "federation.aggregate", None),
    (federation, "evaluate", "federation.evaluate", None),
    (federation, "loss", "models.loss", _count_forward),
    (federation, "accuracy", "models.accuracy", None),
    (models, "predict", "models.predict", _count_forward),
)


def instrument(tracer):
    """Replacements for ``spans.patched`` that wrap every site in a span."""
    return [
        (owner, attr, lambda fn, name=name, count=count: tracer.wrap(name, fn, count))
        for owner, attr, name, count in SITES
    ]


# per-layer metric -> unit; times and counts are per training run ("/run")
PER_LAYER = {
    "accountant.recalibrate_s": "s/run",
    "accountant.recalibrate_calls": "calls/run",
    "accountant.ledger_terms": "terms/run",
    "accountant.moment_ledger_s": "s/run",
    "accountant.moment_ledger_calls": "calls/run",
    "models.local_update_s": "s/run",
    "models.local_update_calls": "calls/run",
    "models.train_rows": "rows/run",
    "models.eval_s": "s/run",
    "models.forward_passes": "passes/run",
    "models.forward_passes_per_round": "passes/round",
    "models.eval_rows": "rows/run",
    "models.computed_gflop": "GFLOP/run",
    "models.gflop_per_s": "GFLOP/s",
    "federation.round_s": "s/run",
    "federation.self_s": "s/run",
    "federation.rounds": "rounds/run",
    "federation.client_updates": "updates/run",
    "federation.noise_s": "s/run",
    "federation.noise_draws": "draws/run",
    "federation.aggregate_s": "s/run",
    "federation.select_s": "s/run",
    "scheduler.decide_s": "s/run",
    "scheduler.triggers": "triggers/run",
    "scheduler.decay_self_s": "s/run",
    "data.load_s": "s/run",
    "data.partition_s": "s/run",
    "data.subset_s": "s/run",
    "data.bytes_parsed": "bytes/run",
    "harness.setup_s": "s/run",
    "harness.validate_s": "s/run",
    "harness.self_s": "s/run",
    "harness.csv_s": "s/run",
    "harness.bytes_written": "bytes/run",
    "trace.overhead_pct": "%",
    "trace.coverage": "frac",
}


def per_layer_values(summary: dict, counts, runs: int, triggers: int, bytes_written: int) -> dict:
    """Per-layer values from a traced pass of ``runs`` training runs.

    ``trace.*`` values depend on the untraced pass too and are filled in by
    the caller.
    """
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    forward = n("models.loss", "models.predict")
    rounds = n("federation.run_round")
    model_s = t("models.local_update", "models.loss", "models.accuracy")
    gflop = counts["models.flop"] / 1e9
    totals = {
        "accountant.recalibrate_s": t("accountant.recalibrate_sigma"),
        "accountant.recalibrate_calls": n("accountant.recalibrate_sigma"),
        "accountant.ledger_terms": counts["accountant.ledger_terms"],
        "accountant.moment_ledger_s": t("accountant.moment_ledger"),
        "accountant.moment_ledger_calls": n("accountant.moment_ledger"),
        "models.local_update_s": t("models.local_update"),
        "models.local_update_calls": n("models.local_update"),
        "models.train_rows": counts["models.train_rows"],
        "models.eval_s": t("models.loss", "models.accuracy"),
        "models.forward_passes": forward,
        "models.eval_rows": counts["models.eval_rows"],
        "models.computed_gflop": gflop,
        "federation.round_s": t("federation.run_round"),
        "federation.self_s": own.get("federation.run_round", 0.0),
        "federation.rounds": rounds,
        "federation.client_updates": n("models.local_update"),
        "federation.noise_s": t("federation.add_noise"),
        "federation.noise_draws": counts["federation.noise_draws"],
        "federation.aggregate_s": t("federation.aggregate"),
        "federation.select_s": t("federation.sample_clients"),
        "scheduler.decide_s": t("scheduler.crd_decide"),
        "scheduler.triggers": triggers,
        "scheduler.decay_self_s": own.get("scheduler.linear_decay_baseline", 0.0),
        "data.load_s": t("data.load_mnist", "data.synth_linear"),
        "data.partition_s": t("data.partition"),
        "data.subset_s": t("data.subset"),
        "data.bytes_parsed": counts["data.bytes_parsed"],
        "harness.setup_s": t("harness.load_experiment_data"),
        "harness.validate_s": t("harness.validate"),
        "harness.self_s": own.get("harness.run_single_seed", 0.0),
        "harness.csv_s": t("harness.rounds_csv_text"),
        "harness.bytes_written": bytes_written,
    }
    values = {k: v / runs for k, v in totals.items()}
    values["models.forward_passes_per_round"] = forward / rounds if rounds else 0.0
    values["models.gflop_per_s"] = gflop / model_s if model_s > 0 else 0.0
    return values
