"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``.  They
use the cheap operations of ``cli_scenarios`` so they finish in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import qrevival  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CliScenarios  # noqa: E402

CHEAP = ("evolve_circle", "evolve_box", "revival_map_box", "theta_batch")


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def cheap_runner(workdir: Path):
    workload = CliScenarios(1, str(workdir))
    runner = run.Runner(workload)
    runner.ops = [op for op in runner.ops if op[0] in CHEAP]
    return workload, runner


def rewrite_table(out_dir: Path, name: str, edit) -> None:
    """Apply ``edit`` to a CSV's rows and re-hash it in the manifest."""
    path = out_dir / name
    lines = path.read_text().splitlines()
    lines = [lines[0]] + [edit(line) for line in lines[1:]]
    payload = ("\n".join(lines) + "\n").encode()
    path.write_bytes(payload)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        if entry.get("file") == name:
            entry["sha256"] = hashlib.sha256(payload).hexdigest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def test_clean_outputs_pass(workdir):
    workload, runner = cheap_runner(workdir)
    runner.iteration()
    checked = workload.check(runner.outputs)
    failed, why = runner.failures(checked)
    assert failed == 0, why
    assert 0.0 < checked.err_over_tol < 1.0
    assert checked.long_time_err is not None


def test_corrupted_bytes_fail_manifest_and_count(workdir):
    workload, runner = cheap_runner(workdir)
    runner.iteration()
    runner.iteration()
    path = Path(runner.outputs["evolve_circle"]) / "density.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    checked = workload.check(runner.outputs)
    assert checked.failed == {"evolve_circle"}
    failed, why = runner.failures(checked)
    assert failed == 2 and set(why) == {"evolve_circle"}
    assert failed / runner.attempted == 2 / (2 * len(CHEAP))


def test_discrepancy_over_tolerance_fails(workdir):
    workload, runner = cheap_runner(workdir)
    runner.iteration()
    out = Path(runner.outputs["evolve_box"])
    header = (out / "density.csv").read_text().splitlines()[0].split(",")
    col = header.index("discrepancy_t1 (1/length)")

    def edit(line):
        cells = line.split(",")
        cells[col] = f"{2e-10:.16e}"
        return ",".join(cells)

    rewrite_table(out, "density.csv", edit)
    checked = workload.check(runner.outputs)
    assert qrevival.cli.verify_manifest(str(out))
    assert checked.ratios["dual_engine"] == pytest.approx(2.0)
    assert checked.failed == {"evolve_box"}
    assert runner.failures(checked)[0] == 1


def test_revival_mismatch_fails(workdir):
    workload, runner = cheap_runner(workdir)
    runner.iteration()
    out = Path(runner.outputs["revival_map_box"])
    rewrite_table(out, "revival_map.csv",
                  lambda line: line.rsplit(",", 1)[0] + ",false")
    checked = workload.check(runner.outputs)
    assert checked.failed == {"revival_map_box"}


def test_self_times_add_up_to_traced_wall(workdir):
    workload, runner = cheap_runner(workdir)
    runner.iteration()
    tracer = Tracer(run.COUNTERS, run.MAXIMA)
    untraced, traced = run.traced_loop(runner, tracer, 0.0)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    rows = tracer.summary()
    assert len(rows) == len(traced)
    for row in rows.values():
        modules = sum(v for k, v in row.items()
                      if k.endswith(".self_s") and k.count(".") == 1)
        assert modules + row["bench.iteration.self_s"] \
            == pytest.approx(row["wall_s"], rel=1e-9)
        gap = row["wall_s"] - modules
        assert 0.0 <= gap <= abs(overhead) + 0.01 * row["wall_s"]
        assert row["circle.eval_state.calls"] > 0
        assert row["theta.theta.calls"] == len(CliScenarios.THETA_IM)
        assert row["circle.basis_bytes"] > 0
    # Traced outputs are byte-identical to the untraced ones.
    assert not runner.mismatched
    assert qrevival.theta.__name__ == "theta"
    assert not hasattr(qrevival.theta, "__wrapped__")
    assert not hasattr(qrevival.cli.eval_state, "__wrapped__")


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random_box",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_output(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_scenarios",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
