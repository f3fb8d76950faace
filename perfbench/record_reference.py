"""Record the final-test-loss reference bands in ``perfbench/reference.json``.

Run from the repository root, on the commit whose accuracy is the reference:

    python3 perfbench/record_reference.py [workload ...]

For every workload named (default: all) and both sizes it runs one untraced
unit for each of twelve workload seeds (seeds no benchmark run is expected
to use) and stores, per run key, the band of +-20% around the mean of the
observed final test losses.  When the mean final test loss of a key's runs
in a benchmark pass leaves its band, every one of those runs counts as
failed.
"""

import json
import shutil
import statistics
import sys
from collections import defaultdict

import run

REFERENCE_SEEDS = range(1000, 1012)
TOLERANCE = 0.2


def band(losses: list) -> list:
    mean = statistics.fmean(losses)
    return [(1.0 - TOLERANCE) * mean, (1.0 + TOLERANCE) * mean]


def main() -> int:
    run.load_program()
    from checks import RunLog
    from workloads import WORKLOADS, run_key

    names = sys.argv[1:] or list(WORKLOADS)
    doc = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"bands": {}}
    bands = doc["bands"]
    for name in names:
        make = WORKLOADS[name]
        bands[name] = {}
        for size in ("tiny", "full"):
            losses = defaultdict(list)
            for seed in REFERENCE_SEEDS:
                inputs = run.OUT / "inputs" / name
                workdir = run.OUT / "work" / name
                wl = make(size, seed, inputs)
                wl.prepare()
                res = run.Pass(RunLog(run_key))
                run.run_units(wl, seed, [res], workdir, units=1)
                shutil.rmtree(inputs, ignore_errors=True)
                if res.failed:
                    raise SystemExit(f"{name} {size} seed {seed}: a reference run failed")
                for r, _, stats in res.runs:
                    losses[r.key].append(stats["final_test_loss"])
            bands[name][size] = {key: band(v) for key, v in sorted(losses.items())}
            print(name, size, {k: (min(v), max(v), len(v)) for k, v in losses.items()})
    doc.update(recorded_at=run.git_commit(), seeds=list(REFERENCE_SEEDS))
    run.REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
