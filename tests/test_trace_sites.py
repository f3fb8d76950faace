"""The traced benchmark pass (perfbench/layers.py) wraps simulator functions
by attribute name.  A renamed or no-longer-imported name would otherwise fail
only the benchmark's own smoke test, which is not part of this suite."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    unresolved = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in layers.SITES
        if not callable(getattr(owner, attr, None))
    ]
    assert layers.SITES
    assert unresolved == []
