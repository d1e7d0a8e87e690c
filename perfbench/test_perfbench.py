"""The benchmark's own tests: smoke sizes, caught corruption, tracing, refusal without sources.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import calib  # noqa: E402
import spans  # noqa: E402
from wknn import experiments, knn, ot  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_smoke(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric(capsys, workload, trace):
    lines, result = run_smoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{workload} {m['name']} = ") for line in lines)
    assert any(line.startswith(f"{workload} error_rate = 0 ") for line in lines)
    if not trace:
        assert any(line.startswith(f"{workload} raw reps_per_s = ") for line in lines)


def _perturb(module, attr, monkeypatch, bump):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: bump(original(*a, **kw)))


@pytest.mark.parametrize("workload", ["rate", "lp_small"])
def test_corrupted_result_is_counted(capsys, monkeypatch, workload):
    if workload == "rate":
        _perturb(experiments, "knn_transport_cost", monkeypatch, lambda x: x * (1 + 1e-12))
    else:
        _perturb(ot, "exact_wq", monkeypatch, lambda r: (r[0] * (1 + 1e-6), r[1]))
    lines, result = run_smoke(capsys, workload)
    assert not result["correct"] and result["failed"] > 0
    assert not any(line.startswith(f"{workload} error_rate = 0 ") for line in lines)


def test_rep_ms_takes_class_medians_and_pooled_p90():
    p50, p90 = run.rep_ms({100: [0.001, 0.001, 0.005], 400: [0.004, 0.004]})
    assert p50 == pytest.approx(2.0)  # geometric mean of 1 ms and 4 ms
    assert p90 == pytest.approx(4.6)  # 90th percentile of the five reps, in ms


def test_calibration_scales_to_the_reference():
    assert calib.scale(0.02, 0.04) == pytest.approx(calib.REFERENCE_S / 0.03)
    assert calib.loop_seconds(repeats=1) > 0.0


def test_traced_wraps_only_inside_the_block():
    original = knn.KnnIndex.__dict__["__init__"]
    rec = spans.Recorder()
    with spans.traced(rec):
        assert knn.KnnIndex.__dict__["__init__"] is not original
        knn.neighbor_table([[0.0], [1.0]], [[float(i)] for i in range(600)], 2)
    assert knn.KnnIndex.__dict__["__init__"] is original
    table, build, query = rec.spans
    assert [table[0], build[0], query[0]] == ["knn.neighbor_table", "knn.index_build",
                                              "knn.index_query"]
    assert build[3] == 0 and query[3] == 0 and table[3] == -1
    total, own, calls = rec.totals()
    children = (build[2] - build[1]) + (query[2] - query[1])
    assert own["knn.neighbor_table"] == pytest.approx(total["knn.neighbor_table"] - children)
    assert rec.counts["knn.rows"] == 2 and rec.unique_row_frac() == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rate", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - t0 < 180
