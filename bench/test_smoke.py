"""Smoke test: every workload end to end at a tiny size, untimed. Each run
must pass its output checks and report exactly the metrics BENCHMARK.json
declares."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import NAMES  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "0.05"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(NAMES)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", NAMES)
def test_workload_traced_tiny(capsys, workload):
    result = bench(capsys, workload, trace=1)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CONTRACT["per_layer"])
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_untraced_metrics_tiny(capsys):
    result = bench(capsys, "bundled", trace=0)
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
