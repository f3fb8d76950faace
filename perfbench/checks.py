"""Capture of every training run, and the checks on its outputs.

``RunLog.replacements`` wraps ``harness.run_single_seed`` to time each run
(one config x seed) and ``harness.run_training`` /
``harness.linear_decay_baseline`` to keep a reference to the clients' sigma
histories, which ``rounds.csv`` cannot show: it lists only the selected
clients' noise.  The checks read the run's ``rounds.csv`` and those
histories after the timed unit has ended.  The final-test-loss check looks
at the mean over a pass's runs of one key, since single CRD runs vary too
much for a useful per-run band.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# The pinned rounds.csv column order; kept here rather than imported so that
# a change to the program's copy is caught.
ROUNDS_COLUMNS = (
    "seed",
    "round",
    "T_current",
    "sigma",
    "train_loss",
    "test_loss",
    "test_accuracy",
    "selected_clients",
    "trigger_fired",
)

LEDGER_SLACK = 1e-9


@dataclass
class Run:
    key: str
    seed: int
    rounds_csv: Path
    wall_s: float = 0.0
    error: str | None = None
    ledgers: list = field(default_factory=list)  # (n_samples, budget, sigma history)
    participation: tuple | None = None  # (K, U, eta, clip)


class RunLog:
    def __init__(self, run_key) -> None:
        self.runs: list[Run] = []
        self._run_key = run_key

    def replacements(self, harness):
        """Wrappers for ``spans.patched``: one per run, none per round."""

        def time_run(fn):
            def run_single_seed(cfg, seed, outdir):
                run = Run(self._run_key(cfg), seed, Path(outdir) / f"seed_{seed}" / "rounds.csv")
                self.runs.append(run)
                start = time.perf_counter()
                try:
                    return fn(cfg, seed, outdir)
                except Exception as exc:
                    run.error = repr(exc)
                    raise
                finally:
                    run.wall_s = time.perf_counter() - start

            return run_single_seed

        def capture_clients(fn):
            def train(server, clients, cfg, *args, **kwargs):
                run = self.runs[-1]
                run.ledgers = [(len(c.shard), c.budget, c.sigma_history) for c in clients]
                run.participation = (cfg.K, len(clients), cfg.eta, cfg.clip)
                return fn(server, clients, cfg, *args, **kwargs)

            return train

        return [
            (harness, "run_single_seed", time_run),
            (harness, "run_training", capture_clients),
            (harness, "linear_decay_baseline", capture_clients),
        ]


def inverse_variance_budget(epsilon: float, delta: float, q: float, dl: float) -> float:
    """eps^2 / (2 q dl^2 ln(1/delta)): the total 1/sigma^2 a client may spend."""
    return epsilon * epsilon / (2.0 * q * dl * dl * math.log(1.0 / delta))


def ledger_violations(run: Run) -> list:
    if run.participation is None:
        return ["clients were never handed to a training loop"]
    K, U, eta, clip = run.participation
    out = []
    for client, (n, budget, history) in enumerate(run.ledgers):
        if math.isinf(budget.epsilon):
            continue
        dl = 2.0 * eta * clip / n
        spent = math.fsum(1.0 / (s * s) for s in history)
        limit = inverse_variance_budget(budget.epsilon, budget.delta, K / U, dl)
        if spent > limit + LEDGER_SLACK:
            out.append(f"client {client} spent {spent!r} > budget {limit!r}")
    return out


def check_run(run: Run) -> tuple:
    """Check one run's outputs; return (violations, stats).

    ``stats`` holds the run's realized rounds, client-rounds, triggers, final
    test loss and its rounds.csv bytes; it is None if the file is unusable.
    """
    if run.error is not None:
        return [f"run raised {run.error}"], None
    try:
        text = run.rounds_csv.read_text()
    except OSError as exc:
        return [f"rounds.csv unreadable: {exc}"], None
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != ROUNDS_COLUMNS:
        return [f"rounds.csv header {lines[:1]} != pinned columns"], None
    rows = [dict(zip(ROUNDS_COLUMNS, line.split(","))) for line in lines[1:]]
    if not rows:
        return ["rounds.csv has no rounds"], None
    try:
        losses = [float(r[c]) for r in rows for c in ("train_loss", "test_loss")]
        budgets = [int(r["T_current"]) for r in rows]
        stats = {
            "rounds": len(rows),
            "client_rounds": sum(len(r["selected_clients"].split(";")) for r in rows),
            "triggers": sum(int(r["trigger_fired"]) for r in rows),
            "final_test_loss": losses[-1],
            "rounds_csv": text.encode(),
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"rounds.csv malformed: {exc!r}"], None
    violations = []
    if not all(math.isfinite(x) for x in losses):
        violations.append("non-finite loss in rounds.csv")
    if any(b > a for a, b in zip(budgets, budgets[1:])):
        violations.append("T_current increased")
    violations += ledger_violations(run)
    return violations, stats


def check_reference(results: list, bands: dict) -> None:
    """Compare each run key's mean final test loss with its reference band.

    ``results`` holds (run, violations, stats) for one pass; every run of a
    key whose mean leaves ``bands[key] = [low, high]`` gets a violation.
    """
    losses = defaultdict(list)
    for run, violations, stats in results:
        if not violations:
            losses[run.key].append(stats["final_test_loss"])
    for key, values in losses.items():
        low, high = bands.get(key, (math.nan, math.nan))
        mean = math.fsum(values) / len(values)
        if not low <= mean <= high:
            message = f"mean final test loss {mean!r} of {key} outside reference band [{low}, {high}]"
            for run, violations, _ in results:
                if run.key == key:
                    violations.append(message)
