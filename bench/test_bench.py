"""Fast self-test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest bench -q

Checks that each workload passes its correctness checks, emits every metric
named in BENCHMARK.json with its unit, and that tracing leaves the results
unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "train_ula": {"cut": 400},
    "anomaly_replay": {"cut": 400},
    # the checked cell keeps its shipped value: every cell reuses the same draws
    "snr_sweep": {"pos_stds": [0.0, 0.03], "gain_stds": [0.0, 0.09]},
}
SEED = 20260811


def check_emitted(doc: dict, expected: dict[str, str]) -> None:
    assert doc["correct"], doc["failures"]
    assert doc["failed"] == 0 and doc["attempted"] >= run.MIN_REPS
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def test_workload_list_matches_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_workload(name):
    plain = run.run_workload(name, SEED, 0.0, trace=False, sizes=TINY[name])
    check_emitted(plain, run.declared_units("end_to_end"))
    traced = run.run_workload(name, SEED, 0.0, trace=True, sizes=TINY[name])
    check_emitted(traced, run.declared_units("per_layer"))
    assert not traced["details"]["absent_layers"]
    computed = {key for r in traced["repetitions"] if r["traced"] for key in r["layers"]}
    assert computed | {"config.load_s", "trace.overhead_frac"} == set(run.declared_units("per_layer"))

    reps = plain["repetitions"] + traced["repetitions"]
    assert {r["traced"] for r in reps} == {False, True}
    assert len({(r["err_main"], r["err_ref"]) for r in reps}) == 1
    assert len({json.dumps(r["artifacts"], sort_keys=True) for r in reps}) == 1
