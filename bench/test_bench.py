"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q bench

They take about two minutes: each runs real workload operations.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Span, layer_metrics, self_seconds
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

SEED = 7


def _passes(name):
    """One operation untraced, then traced: (workload, values, values, spans)."""
    workload = WORKLOADS[name]()
    inputs = workload.inputs(SEED, 1)
    workload.setup()
    _, values_u, failed_u = run.run_ops(workload, inputs)
    _, values_t, failed_t, spans = run.traced_pass(workload, inputs)
    assert failed_u == failed_t == 0
    return workload, values_u, values_t, spans


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_values_equal_untraced_bitwise(name):
    _, values_u, values_t, spans = _passes(name)
    assert values_u == values_t
    assert spans


def _counts(spans):
    m = layer_metrics(spans, 0.0)
    return {k: m[k][0] for k in ("maximizer.q_value.calls",
                                 "maximizer.q_gradient.calls",
                                 "maximizer.search.iterations",
                                 "harmonics.harmonic_values.calls",
                                 "forms.quadrilinear_q.calls",
                                 "trace.spans")}


@pytest.mark.parametrize("name", ["ascent-L8", "chain-L8-streamed"])
def test_counts_repeat_exactly(name):
    workload, _, _, spans_a = _passes(name)
    _, _, _, spans_b = run.traced_pass(workload, workload.inputs(SEED, 1))
    first, second = _counts(spans_a), _counts(spans_b)
    assert first == second
    assert first["harmonics.harmonic_values.calls"] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(layer_metrics([], 0.0)) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_share"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_children():
    spans = [Span("cli.main", 0.0, -1, end=10.0),
             Span("maximizer.search", 1.0, 0, end=7.0),
             Span("maximizer.q_value", 2.0, 1, end=3.0),
             Span("harmonics.harmonic_values", 8.0, 0, end=9.0)]
    own = self_seconds(spans)
    assert own["cli"] == pytest.approx(3.0)
    assert own["maximizer"] == pytest.approx(6.0)
    assert own["harmonics"] == pytest.approx(1.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ascent-L8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
