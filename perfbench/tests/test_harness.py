"""Self-check of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from jtvsampling import sampling  # noqa: E402

import harness  # noqa: E402
from tracer import OP  # noqa: E402
from workloads import WORKLOADS, CliPipeline, OracleTiny, PlanScale, ReconStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name):
    return {
        "cli-pipeline": lambda: CliPipeline(n=8, k_t=2, k_g=2),
        "plan-scale": lambda: PlanScale(n=8, k_t=3, k_g=3),
        "recon-stream": lambda: ReconStream(n=8, k_t=3, k_g=3, k=5),
        "oracle-tiny": lambda: OracleTiny(t=3, n=3, k_t=2, k_g=2, k=3),
    }[name]()


def run(name, tmp_path, trace=False, seconds=0.2):
    return harness.run_workload(toy(name), seed=3, seconds=seconds, trace=trace, workdir=tmp_path)


def test_spec_names_the_harness_workloads_and_metrics():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_spec_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run(name, tmp_path, trace=trace)
    line = harness.result_line(result, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


@pytest.mark.parametrize("name", ["cli-pipeline", "oracle-tiny", "recon-stream"])
def test_self_times_account_for_traced_op_wall(name, tmp_path):
    result = run(name, tmp_path, trace=True)
    spans = result.tracer.spans
    wall = sum(s.dur for s in spans if s.name == OP)
    assert sum(secs for _, secs in result.self_times) == pytest.approx(wall, rel=1e-9)
    assert result.metrics["trace.uncovered_ratio"] < 0.2


def test_cli_pipeline_attributes_plan_steps(tmp_path):
    m = run("cli-pipeline", tmp_path, trace=True).metrics
    assert m["spectral.eig_sym.calls"] == 8  # gen signal, analyze, plan, reconstruct
    assert m["sampling.select.rows_scanned"] == 8 + 8 + 2 * 2  # T + N, then K_T*K_G
    assert m["sampling.qualify.calls"] == 1 + m["sampling.fallback.count"]


def test_corrupted_sample_value_counts_as_failure(tmp_path, monkeypatch):
    original = sampling.sample

    def corrupt(x_mat, plan):
        values = original(x_mat, plan)
        values[0] += 1.0
        return values

    monkeypatch.setattr(sampling, "sample", corrupt)
    result = run("recon-stream", tmp_path)
    assert result.attempted >= 1
    assert len(result.failures) == result.attempted
    assert not harness.result_line(result, False)["correct"]


@pytest.mark.parametrize("name", ["cli-pipeline", "plan-scale"])
def test_dropped_plan_row_counts_as_failure(name, tmp_path, monkeypatch):
    original = sampling.critical_sampling_set

    def drop_row(*args):
        plan, report = original(*args)
        kept = frozenset(plan.sorted_samples[1:])
        return sampling.SamplingPlan(plan.t_dim, plan.g_dim, kept), report

    monkeypatch.setattr(sampling, "critical_sampling_set", drop_row)
    result = run(name, tmp_path)
    assert result.attempted >= 1
    assert len(result.failures) == result.attempted


def test_nearest_rank_tail_keeps_ten_beyond():
    values = list(range(40))
    assert harness.nearest_rank(values, 75) == (29, 10)
    assert harness.nearest_rank(values, 50) == (19, 20)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
