"""Smoke test of the benchmark itself: every workload at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--size", "smoke"])
    return code, out.getvalue().splitlines()


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_every_check_passes(workload, trace, tmp_path):
    code, lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 7 * (2 if trace else 1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        files = corpus.generate(tmp_path, SEED, run.SMOKE_SIZES["train_sentences"],
                                run.SMOKE_SIZES["test_sentences"])
        assert metrics["llm.fallbacks"] == files.expected_fallbacks > 0
        assert metrics["llm.retries"] == files.expected_retries > 0
        assert metrics["trace.attributed_frac"] > 0.9


def test_corpus_is_a_function_of_the_seed(tmp_path):
    a = corpus.generate(tmp_path / "a", 5, 20, 10)
    b = corpus.generate(tmp_path / "b", 5, 20, 10)
    c = corpus.generate(tmp_path / "c", 6, 20, 10)
    names = ("train.json", "test.jsonl", "test_instances.jsonl", "transcript.jsonl")
    assert all((a.root / n).read_bytes() == (b.root / n).read_bytes() for n in names)
    assert (a.root / "train.json").read_bytes() != (c.root / "train.json").read_bytes()


def test_missing_trace_target_is_recorded_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("dimasr.kernels:no_such_kernel", "kernels.no_such_kernel", None),))
    tracer = tracing.Tracer()
    with tracer.installed(0):
        pass
    assert tracer.absent == ["dimasr.kernels:no_such_kernel"]
