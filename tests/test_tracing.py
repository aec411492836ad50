"""The benchmark's trace hooks still find what they wrap in the package."""

import json
import sys
from pathlib import Path

from torusbundles.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import Tracer, per_layer_metrics  # noqa: E402  bench/tracing.py

KODAIRA = ROOT / "demos" / "kodaira.json"


def test_trace_hooks_cover_every_per_layer_metric(capsys):
    tracer = Tracer()
    tracer.install()
    originals = list(tracer._undo)  # (owner, attribute, value before install)
    try:
        assert main(["certify", str(KODAIRA), "--samples", "3", "--format", "machine"]) == 0
        assert main(["check-bundle", str(KODAIRA), "--format", "machine"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert originals and all(getattr(owner, attr) is value for owner, attr, value in originals)
    metrics = per_layer_metrics(tracer, 2, {"torusbundles": 0.0, "numpy": 0.0})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    assert metrics["solver_explorer.ConstraintSystem.residual_pair.calls"][0] > 0
    assert metrics["solver_explorer.connect.calls"][0] > 0
