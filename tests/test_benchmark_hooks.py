"""The names the benchmark wraps: a change to ``src/`` that drops one fails
here, not only in a benchmark run."""

from pathlib import Path

from fednet import harness

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

# the harness attributes that benchmark/workloads.py's untraced probes rebind
PROBED = ("backward", "clip_gradients", "sgd_step", "largest_component",
          "stack_adjacent_slices", "grad_check")


def test_tracer_installs_and_probed_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import tracer

    before = dict(vars(harness))
    spans = tracer.Tracer()
    spans.install()
    try:
        assert vars(harness)["predict_volume"] is not before["predict_volume"]
    finally:
        spans.uninstall()
    assert all(vars(harness)[name] is value for name, value in before.items())
    missing = [name for name in PROBED if not callable(getattr(harness, name, None))]
    assert missing == []
