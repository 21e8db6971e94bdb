"""The benchmark's tracer still counts the layers it reads.

``perfbench/spans.py`` wraps bindings of ``magdecay`` by name and reads
fields of their results (``RateResult.n_max_used``, the oracle report's
``trials``), so a refactor of either can zero a layer of
``perfbench/run.py --trace 1`` without an error.  The test runs the tracer
as the benchmark does, without changing it.
"""

import importlib.util
import sys
from pathlib import Path

from magdecay import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while it is built
    monkeypatch.setitem(sys.modules, "spans", module)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_levels_and_trials(capsys, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["rate", "--p-perp2", "1e4", "--m", "30"]),
            cli.main(["verify", "--trials", "3"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["rate.levels"] > 0
    assert metrics["oracle.trials"] > 0
