"""Self-test of the benchmark: smoke runs of every workload, untraced and traced.

    python3 -m pytest bench/tests -q

Each run is a subprocess of ``bench/run.py --smoke``: a couple of steps or
chunks on small inputs, with the full correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = sorted(run.SHAPES)
COUNTS = ("autodiff.tape_records", "word_attention.calls", "sentence_attention.calls",
          "encoder.lstm_steps", "evaluation.forward_passes_per_bag",
          "encoder.bilstm.tape_records", "word_attention.tape_records",
          "sentence_attention.tape_records", "model.tape_records",
          "training.loss.tape_records", "encoder.embed.tape_records",
          "encoder.useful_col_frac")


def smoke(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload):
    report, result = smoke(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0

    kind = run.SHAPES[workload]["kind"]
    expected = {"setup_s", "setup_s_wall", "step_ms_norm", "step_ms_p5", "step_ms_p50",
                "peak_rss_mb", "failed_frac", "ref_ms_p50"}
    expected |= ({"train_bags_per_s", "train_loss_last"} if kind == "train"
                 else {"eval_bags_per_s", "eval_pr_auc"})
    printed = {}
    for line in report:
        parts = line.split()
        if len(parts) == 3 and parts[0] in run.REPORT_UNITS:
            printed[parts[0]] = (float(parts[1]), parts[2])
    assert expected <= set(printed)
    for name in expected:
        assert printed[name][1] == run.REPORT_UNITS[name]
    assert printed["failed_frac"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    _, first = smoke(workload, trace=1)
    _, second = smoke(workload, trace=1)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(values[k] for k in run.STEP_PARTS)
        assert parts == pytest.approx(values["trace.step_ms"], rel=1e-9)
        assert values["trace.overhead_frac"] > 0
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert values["encoder.lstm_steps"] > 0 and values["word_attention.calls"] > 0
    if run.SHAPES[workload]["kind"] == "train":
        assert values["autodiff.tape_records"] > 0 and values["training.adam_ms"] > 0
    else:
        assert values["evaluation.forward_passes_per_bag"] > 1
        assert values["autodiff.tape_records"] == 0


def test_gate_catches_a_wrong_forward_pass(monkeypatch):
    import relattn.word_attention as wa

    assert run.check_gate("eval_synth")
    original = wa.word_attention_matrix

    def unmasked(tape, hidden, params, valid_cols=None):   # padding leaks into attention
        return original(tape, hidden, params, valid_cols=None)

    monkeypatch.setattr(wa, "word_attention_matrix", unmasked)
    assert not run.check_gate("eval_synth")
    assert not run.check_gate("train_synth")
