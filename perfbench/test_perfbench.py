"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench

The smoke runs use each workload's real items on its cheapest shapes, so
they check metric names, units and output checks without the full cost.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from crystalk import abelian, crystal  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "verify-grid": {"shapes": ((3, 6),)},
    "report-sweep": {"shapes": ((31, 1), (3, 8), (2, 12))},
    "report-conjugated": {"shapes": ((3, 2, 3), (5, 2, 1), (7, 1, 2))},
}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name, trace, monkeypatch, capsys):
    small = functools.partial(workloads.WORKLOADS[name], **SMALL[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio=0 " in lines[-2]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checks_catch_wrong_outputs():
    items = workloads.report_sweep(1, 0, shapes=((3, 8),))
    items += workloads.report_conjugated(1, 0, shapes=((3, 2, 1),))
    for item in items:
        good = item.run()
        assert item.check(good) is None
        assert item.check(good.replace('"Z', '"Z^2 (+) Z', 1)) is not None
    bad = [workloads.Item(i.label, lambda: "{}", i.check) for i in items]
    wall, cpu, errors = run.run_pass(bad)
    assert wall >= 0 and cpu >= 0 and len(errors) == len(items)


def test_inputs_follow_the_seed_and_pass():
    def rows(seed, index):
        items = workloads.report_conjugated(seed, index, shapes=((3, 2, 4),))
        return [json.loads(item.run())["descriptor"]["rho"] for item in items]
    assert rows(5, 0) == rows(5, 0)
    assert rows(5, 0) != rows(6, 0)
    assert rows(5, 0) != rows(5, 1)


def test_tracer_rebinds_imported_names_and_restores_them():
    original = crystal.expr_evaluate
    assert original is abelian.expr_evaluate
    rec = tracer.Recorder()
    saved = tracer.install(rec, sys.modules["crystalk"])
    try:
        assert crystal.expr_evaluate is abelian.expr_evaluate
        assert crystal.expr_evaluate.__wrapped__ is original
        crystal.build_report(crystal.canonical_gamma(3, 1))
    finally:
        tracer.uninstall(saved)
    assert crystal.expr_evaluate is original
    assert rec.calls["abelian.expr_evaluate"] > 0
    assert rec.self_s["crystal.build_report"] > 0
    assert not rec._stack


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / "perfbench" / "out").exists()


def test_unknown_workload_fails():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1",
                  "--trace", "1"])
    assert exc.value.code != 0
