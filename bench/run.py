"""mpnetlab benchmark: run a workload for a set time and print its metrics.

    python3 bench/run.py --workload train_ula --seed 1 --seconds 30 --trace 0

Each repetition of a workload is a fresh single-threaded process (``rep.py``)
that imports the package from ``src/``, loads a config derived from a shipped
one with the workload seed, and runs it through the public entry points. The
loop is closed: one repetition at a time, and inside it the next minibatch is
pulled only after the previous one is done. Repetitions continue until the
next one would overrun ``--seconds`` (at least three). ``--trace 1`` alternates
traced and untraced repetitions and reports per-layer metrics instead of the
end-to-end ones. Without ``--workload`` every workload runs in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit. Details of every repetition and the
environment go to ``.bench_out/<workload>/result.json``. The exit code is 0
only when every repetition ran and passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
RUN_LIMIT_S = 170.0

# Why each workload exists is in README.md. ``cut`` is the stream length of a
# learning run; the SNR-loss sweep runs as shipped.
WORKLOADS = {
    "train_ula": {"config": "fig2_left.yaml", "cut": 2000},
    "snr_sweep": {"config": "fig1_snr_loss.yaml"},
    "anomaly_replay": {"config": "fig6_break30.yaml", "cut": 2000},
}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def write_configs(name: str, seed: int, cfg_dir: Path, sizes: dict | None = None) -> None:
    """Derive the workload's config files from the shipped ones.

    ``sizes`` overrides the stream cut (``cut``) or the sweep grid
    (``pos_stds``, ``gain_stds``); the self-test uses it to run small.
    """
    spec = {**WORKLOADS[name], **(sizes or {})}
    data = yaml.safe_load((CONFIGS / spec["config"]).read_text(encoding="utf-8"))
    data["seed"] = seed
    if name == "snr_sweep":
        for key in ("pos_stds", "gain_stds"):
            if key in spec:
                data["snr_loss"][key] = spec[key]
    else:
        data["total_samples"] = spec["cut"]
    if name == "anomaly_replay":
        (event,) = data["anomalies"]
        event["index"] = spec["cut"] // 2
        data["stream"] = {"dump": True}
        replay = {**data, "stream": {"replay": "live/stream.csv"}}
        replay["estimators"] = [e for e in data["estimators"] if e != "omp:oracle:sc2"]
        (cfg_dir / f"{name}.replay.yaml").write_text(yaml.safe_dump(replay), encoding="utf-8")
    (cfg_dir / f"{name}.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")


def run_rep(name: str, index: int, traced: bool, work: Path, timeout: float) -> dict:
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir()
    result = rep_dir / "rep.json"
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", name,
        "--configs", str(work / "configs"),
        "--src", str(SRC),
        "--trace", str(int(traced)),
        "--result", str(result),
    ]
    if index == 0:
        cmd.append("--env")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            cwd=rep_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"repetition killed after {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {"traced": traced, "failures": [f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(result.read_text(encoding="utf-8"))


def tail_percentile(n_min: int) -> float:
    """Highest percentile with at least ten minibatches beyond it in the
    smallest run (``n_min`` minibatches); never below the median."""
    return max(50.0, math.floor(100.0 * (n_min - 10) / n_min)) if n_min > 10 else 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def summarize(reps: list[dict], traced_mode: bool) -> tuple[dict, dict]:
    """Aggregate repetitions into (metrics, details)."""
    ok = [r for r in reps if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    details: dict = {"reps": len(reps)}
    if not plain or (traced_mode and not traced):
        return {}, details
    if traced_mode:
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        layers["config.load_s"] = statistics.median(r["config_load_s"] for r in traced)
        run_traced = statistics.median(r["run_s"] for r in traced)
        run_plain = statistics.median(r["run_s"] for r in plain)
        layers["trace.overhead_frac"] = run_traced / run_plain - 1.0
        details["absent_layers"] = traced[0]["absent_layers"]
        return {key: (layers[key], unit) for key, unit in declared_units("per_layer").items()}, details

    intervals = [1000.0 * t for r in plain for t in r["intervals"]]
    per_rep = min(len(r["intervals"]) for r in plain)
    pct = tail_percentile(MIN_REPS * per_rep)
    details.update(minibatches=len(intervals), tail_percentile=pct)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "samples_per_s": statistics.median(r["samples"] / r["run_s"] for r in plain),
        "minibatch_ms_p50": statistics.median(intervals),
        "minibatch_ms_tail": percentile(intervals, pct),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "err_main": plain[0]["err_main"],
        "err_ref": plain[0]["err_ref"],
    }
    return {key: (values[key], unit) for key, unit in declared_units("end_to_end").items()}, details


def consistency_failures(reps: list[dict]) -> list[str]:
    """Every repetition, traced or not, must write identical artifacts."""
    ran = [r for r in reps if "artifacts" in r]
    if any(r["artifacts"] != ran[0]["artifacts"] for r in ran[1:]):
        return ["repetitions wrote different artifacts"]
    if any((r["err_main"], r["err_ref"]) != (ran[0]["err_main"], ran[0]["err_ref"]) for r in ran[1:]):
        return ["repetitions report different quality"]
    return []


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload; returns the result document (also written to disk)."""
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    write_configs(name, seed, work / "configs", sizes)

    started = time.perf_counter()
    reps: list[dict] = []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
        t0 = time.perf_counter()
        traced = trace and len(reps) % 2 == 0
        reps.append(run_rep(name, len(reps), traced, work, max(5.0, RUN_LIMIT_S - elapsed)))
        last = time.perf_counter() - t0

    failures = [f"rep{i}: {msg}" for i, r in enumerate(reps) for msg in r["failures"]]
    failures += consistency_failures(reps)
    metrics, details = summarize(reps, trace)
    failed = sum(1 for r in reps if r["failures"])
    if failures and not failed:
        failed = len(reps)
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "failures": failures,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        "details": details,
        "src_lines": source_lines(),
        "environment": reps[0].get("environment"),
        "repetitions": reps,
    }
    (work / "result.json").write_text(json.dumps(doc, indent=1, default=str), encoding="utf-8")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpnetlab" / "__init__.py").is_file():
        print(f"error: no mpnetlab sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    docs = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]

    for doc in docs:
        for msg in doc["failures"]:
            print(f"{doc['workload']}: FAILED {msg}", file=sys.stderr)
        for key, metric in doc["metrics"].items():
            print(f"{doc['workload']:>14}  {key:<26} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{doc['workload']:>14}  {json.dumps(doc['details'])}")
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": m for d in docs for k, m in d["metrics"].items()}
    summary = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
