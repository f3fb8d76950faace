"""Benchmark of the udpfl simulator on three training workloads.

Run from the repository root:

    python3 perfbench/run.py --workload svm_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times, then runs timed units
untraced for ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
runs each unit twice in a row, untraced and then with a span around each
public function of the simulator (see ``layers.py``), for ``--seconds`` in
all, and prints the per-layer metrics, the tracing overhead and the span
coverage.  Every run's outputs are checked (see ``checks.py``); the traced
mode also checks that each rerun's rounds.csv is byte-identical to the
untraced one.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The full record, with the environment, goes to ``perfbench/out/results/``.
The simulator is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with an error and prints no result.
"""

import os

# one BLAS thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPS = 5
TAIL_PERCENTILE = 75
MIN_COVERAGE = 0.95

END_TO_END = {
    "setup_s": "s",
    "client_rounds_per_s": "1/s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "peak_rss_mb": "MB",
    "final_test_loss": "loss",
    "passed_frac": "frac",
}


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import udpfl from it."""
    if not (SRC / "udpfl" / "__init__.py").is_file():
        raise SystemExit(f"error: simulator source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import udpfl

    if Path(udpfl.__file__).resolve().parent != (SRC / "udpfl").resolve():
        raise SystemExit(f"error: udpfl imported from {udpfl.__file__}, not {SRC}")


@dataclass
class Pass:
    """One mode's share of the timed units: untraced, or traced by ``tracer``."""

    log: object  # checks.RunLog
    tracer: object = None  # spans.Tracer
    unit_walls: list = field(default_factory=list)
    runs: list = field(default_factory=list)  # (Run, violations, stats)
    unit_errors: list = field(default_factory=list)
    bytes_written: int = 0
    wall_s: float = 0.0  # units and their checks
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.unit_errors)

    @property
    def failed(self) -> int:
        return sum(1 for _, v, _ in self.runs if v) + len(self.unit_errors)

    def good_stats(self) -> list:
        return [s for _, v, s in self.runs if not v]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_unit(wl, seed: int, k: int, p: Pass, workdir: Path) -> None:
    """Run unit ``k`` under pass ``p``'s wrappers, then check and delete its outputs."""
    from checks import check_run
    from layers import instrument
    from spans import patched
    from udpfl import harness
    from workloads import training_seeds

    replacements = p.log.replacements(harness)
    if p.tracer is not None:
        replacements += instrument(p.tracer)
    outdir = workdir / f"unit_{k}"
    first = len(p.log.runs)
    t0, cpu0 = time.perf_counter(), time.process_time()
    with patched(replacements):
        try:
            wl.unit(training_seeds(seed, k, wl.seeds_per_unit), outdir)
        except Exception as exc:  # noqa: BLE001 - a failed unit is a failed attempt
            p.unit_errors.append(repr(exc))
    p.unit_walls.append(time.perf_counter() - t0)
    with p.tracer.span("bench.check") if p.tracer else contextlib.nullcontext():
        for run in p.log.runs[first:]:
            p.runs.append((run, *check_run(run)))
        if outdir.exists():
            p.bytes_written += _tree_bytes(outdir)
            shutil.rmtree(outdir)
    p.wall_s += time.perf_counter() - t0
    p.cpu_s += time.process_time() - cpu0


def run_units(wl, seed: int, passes: list, workdir: Path, seconds=None, units=None) -> int:
    """Run units 0, 1, ... once per pass, back to back; return how many ran.

    Runs exactly ``units`` units, or while they fit in ``seconds``: a unit
    starts only if the mean time per unit so far still fits, and the first
    always runs.  Running each unit under every pass in turn pairs the
    traced and untraced runs of the same inputs close in time.
    """
    start = time.perf_counter()
    k = 0
    while units is None or k < units:
        elapsed = time.perf_counter() - start
        if units is None and k and elapsed + elapsed / k > seconds:
            break
        for p in passes:
            run_unit(wl, seed, k, p, workdir)
        k += 1
    return k


def end_to_end(setup_times, res: Pass, units: int) -> tuple:
    walls = [run.wall_s for run, _, _ in res.runs]
    good = res.good_stats()
    losses = [s["final_test_loss"] for _, _, s in res.runs if s]
    # A fixed percentile, so that a faster commit, which fits more runs in
    # a pass, is compared at the same point of the distribution.
    tail_s = float(np.percentile(walls, TAIL_PERCENTILE)) if walls else float("nan")
    values = {
        "setup_s": statistics.median(setup_times),
        "client_rounds_per_s": sum(s["client_rounds"] for s in good) / sum(res.unit_walls),
        "run_s_p50": statistics.median(walls) if walls else float("nan"),
        "run_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_test_loss": statistics.fmean(losses) if losses else float("nan"),
        "passed_frac": 1.0 - res.failed / res.attempted,
    }
    details = {
        "run_s_tail_percentile": TAIL_PERCENTILE,
        "runs_timed": len(walls),
        "runs_beyond_tail": sum(1 for w in walls if w > tail_s),
        "units": units,
        "unit_walls": res.unit_walls,
        "run_walls": walls,
        "cpu_share": res.cpu_s / res.wall_s,
        "setup_s_samples": setup_times,
        "failed_frac": res.failed / res.attempted,
    }
    return values, details


def traced_metrics(untraced: Pass, traced: Pass, units: int) -> tuple:
    from layers import per_layer_values

    summary = traced.tracer.summary()
    good = traced.good_stats()
    values = per_layer_values(
        summary,
        traced.tracer.counts,
        runs=max(len(traced.runs), 1),
        triggers=sum(s["triggers"] for s in good),
        bytes_written=traced.bytes_written,
    )
    values["trace.overhead_pct"] = 100.0 * (
        sum(traced.unit_walls) / sum(untraced.unit_walls) - 1.0
    )
    values["trace.coverage"] = summary["top_level_s"] / traced.wall_s
    details = {
        "untraced_wall_s": sum(untraced.unit_walls),
        "traced_wall_s": sum(traced.unit_walls),
        "span_count": len(traced.tracer.spans),
        "span_calls": summary["calls"],
        "span_total_s": summary["total_s"],
        "span_self_s": summary["self_s"],
        "units": units,
    }
    return values, details


def determinism_violations(untraced: Pass, traced: Pass) -> list:
    """Every run executed in both passes must write a byte-identical rounds.csv."""
    first = {(r.key, r.seed): s["rounds_csv"] for r, _, s in untraced.runs if s}
    pairs, out = 0, []
    for run, _, stats in traced.runs:
        before = first.get((run.key, run.seed))
        if stats is None or before is None:
            continue
        pairs += 1
        if stats["rounds_csv"] != before:
            out.append(f"rounds.csv of {run.key} seed {run.seed} differs on rerun")
    if pairs == 0:
        out.append("no run was executed twice")
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "udpfl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def contention(env: dict, passes) -> list:
    """Reasons to believe another job shared the machine during the timed passes."""
    reasons = []
    cpus = env["cpus_usable"]
    for when in ("loadavg_start", "loadavg_end"):
        if env[when][0] > cpus:
            reasons.append(f"1-minute {when} {env[when][0]:.2f} > {cpus} usable CPUs")
    for res in passes:
        share = res.cpu_s / res.wall_s
        if share < 0.9:
            reasons.append(f"process had {share:.2f} of a CPU during a timed pass")
    return reasons


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    load_program()
    args = parse_args(argv)

    from checks import RunLog, check_reference
    from layers import PER_LAYER
    from spans import Tracer
    from workloads import WORKLOADS, run_key, setup, training_seeds

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    inputs = OUT / "inputs" / args.workload
    workdir = OUT / "work" / args.workload
    for d in (inputs, workdir):
        shutil.rmtree(d, ignore_errors=True)
    bands = json.loads(REFERENCE.read_text())["bands"][args.workload].get(args.size, {})

    wl = WORKLOADS[args.workload](args.size, args.seed, inputs)
    wl.prepare()
    setup_seed = training_seeds(args.seed, 0, 1)[0]
    setup_times = []
    for _ in range(SETUP_REPS if args.trace == 0 else 1):
        t0 = time.perf_counter()
        setup(wl.setup_cfg, setup_seed)
        setup_times.append(time.perf_counter() - t0)

    passes = [Pass(RunLog(run_key))]
    if args.trace:
        passes.append(Pass(RunLog(run_key), Tracer()))
    units = run_units(wl, args.seed, passes, workdir, seconds=args.seconds)
    for p in passes:
        check_reference(p.runs, bands)
    problems = []
    if args.trace == 0:
        values, details = end_to_end(setup_times, passes[0], units)
        declared = END_TO_END
    else:
        untraced, traced = passes
        values, details = traced_metrics(untraced, traced, units)
        declared = PER_LAYER
        problems += determinism_violations(untraced, traced)
        if values["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"top-level spans cover {values['trace.coverage']:.3f} of the pass")
        traced.tracer.write(OUT / "spans" / f"{args.workload}.csv")

    env["loadavg_end"] = os.getloadavg()
    reasons = contention(env, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    violations = [f"seed {r.seed} {r.key}: {v}" for p in passes for r, vs, _ in p.runs for v in vs]
    violations += [f"unit raised {e}" for p in passes for e in p.unit_errors] + problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in declared.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "contended": reasons,
        "usable": not reasons,
        "details": details,
        "violations": violations[:50],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True))
    for d in (inputs, workdir):
        shutil.rmtree(d, ignore_errors=True)

    for v in violations[:10]:
        print(f"violation: {v}", file=sys.stderr)
    if reasons:
        print("warning: result flagged as contended, not usable: " + "; ".join(reasons),
              file=sys.stderr)
    print(json.dumps({"environment": env, "contended": reasons, "details": details}))
    for k, u in declared.items():
        print(f"{k} = {values[k]!r} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
