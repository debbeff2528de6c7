"""One repetition of a benchmark workload in a fresh single-threaded process.

Started by ``run.py`` with the working directory set to the repetition's own
output directory. Writes one JSON document (timings, quality, correctness
failures, artifact digests and, when traced, per-layer metrics) to the path
given by ``--result``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans

# The mismatch penalty of the shipped SNR-loss sweep at pos_std 0.03,
# gain_std 0.09 is 14.33 dB at its own seed, and the mean over its fifteen
# nonzero cells 15.02 dB. Other seeds draw other arrays: over seeds 1-40 the
# checked cell ranged from 13.8 to 16.1 dB (standard deviation 0.6 dB).
SWEEP_CELL = (0.03, 0.09)
SWEEP_CELL_DB = 14.33
SWEEP_MEAN_DB = 15.02
SWEEP_CELL_TOL_DB = 3.0
SWEEP_ZERO_TOL_DB = 0.1


def _digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(map(str, paths))}


def _tail_mean(curve) -> float:
    """Mean linear rMSE over the last tenth of minibatches (at least one)."""
    k = max(1, len(curve) // 10)
    return float(sum(curve[-k:]) / k)


def _learning_checks(result, failures: list[str]) -> None:
    for name in result.estimator_names:
        for label, curve in (("rmse", result.rmse_linear[name]), ("depth", result.mean_depth[name])):
            if not np.all(np.isfinite(curve)):
                failures.append(f"{name}: non-finite {label} curve")


def run_learning(rec, config, experiments, cfg_dir: Path, workload: str):
    """The live run, and for anomaly_replay the replay of its dumped stream."""
    live_cfg = rec.call("config.load", config.load_config, cfg_dir / f"{workload}.yaml")
    results = [experiments.run_learning_experiment(live_cfg, "live")]
    if workload == "anomaly_replay":
        replay_cfg = rec.call("config.load", config.load_config, cfg_dir / f"{workload}.replay.yaml")
        results.append(experiments.run_learning_experiment(replay_cfg, "replay"))
    t_end = time.perf_counter()

    live = results[0]
    failures: list[str] = []
    for result in results:
        _learning_checks(result, failures)
    for replay in results[1:]:
        for name in replay.estimator_names:
            for kind in ("rmse_linear", "mean_depth"):
                if getattr(replay, kind)[name].tolist() != getattr(live, kind)[name].tolist():
                    failures.append(f"{name}: replayed {kind} differs from the live run")

    # minibatches of the live stream only: that is the online budget
    starts = rec.starts(spans.TAKE_LAYERS)[: len(live.records)]
    batch = live_cfg.training.minibatch_size
    return {
        "run_start": starts[0],
        "run_end": t_end,
        "samples": sum(len(r.records) * batch for r in results),
        "intervals": [nxt - prev for prev, nxt in zip(starts, starts[1:])],
        # mpNet against OMP on the same nominal dictionary, and OMP on the true
        # one: both ratios hardly depend on the seed's array draw
        "err_main": _tail_mean(live.rmse_linear["mpnet:nominal:sc2"]) / _tail_mean(live.rmse_linear["omp:nominal:sc2"]),
        "err_ref": float(live.rmse_linear["omp:ideal:sc2"].mean()),
        "failures": failures,
        "artifacts": _digests(p for r in results for p in r.output_files.values()),
    }


def run_sweep(rec, config, experiments, cfg_dir: Path, workload: str):
    cfg = rec.call("config.load", config.load_config, cfg_dir / f"{workload}.yaml")
    t_start = time.perf_counter()
    pos, gain, loss = experiments.snr_loss_experiment(cfg, ".")
    t_end = time.perf_counter()

    failures: list[str] = []
    cells = {(float(p), float(g)): float(loss[i, j]) for i, p in enumerate(pos) for j, g in enumerate(gain)}
    if not all(math.isfinite(v) for v in cells.values()):
        failures.append("non-finite SNR loss")
    if abs(cells[(0.0, 0.0)]) > SWEEP_ZERO_TOL_DB:
        failures.append(f"zero-uncertainty cell at {cells[(0.0, 0.0)]!r} dB, not within {SWEEP_ZERO_TOL_DB} dB of 0")
    if abs(cells[SWEEP_CELL] - SWEEP_CELL_DB) > SWEEP_CELL_TOL_DB:
        failures.append(f"cell {SWEEP_CELL} at {cells[SWEEP_CELL]!r} dB, not within {SWEEP_CELL_TOL_DB} dB of {SWEEP_CELL_DB}")

    spec = cfg.snr_loss
    # one boundary per (array draw, grid cell); the first build is the nominal dictionary
    starts = rec.starts((spans.CELL_LAYER,))[1:] + [t_end]
    nonzero = [v for key, v in cells.items() if key != (0.0, 0.0)]
    return {
        "run_start": t_start,
        "run_end": t_end,
        "samples": spec.n_arrays * spec.channels_per_array * len(cells),
        "intervals": [b - a for a, b in zip(starts, starts[1:])],
        "err_main": cells[SWEEP_CELL] / SWEEP_CELL_DB,
        "err_ref": sum(nonzero) / len(nonzero) / SWEEP_MEAN_DB,
        "failures": failures,
        "artifacts": _digests([Path("snr_loss.csv")]),
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--configs", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent's perf_counter() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--env", action="store_true", help="also record the environment")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import mpnetlab
    from mpnetlab import config, experiments

    if src not in Path(mpnetlab.__file__).resolve().parents:
        raise RuntimeError(f"imported mpnetlab from {mpnetlab.__file__}, not from {src}")

    rec = spans.Recorder()
    spans.install(rec, traced=bool(args.trace))
    missing = [name for name in rec.absent if name in spans.BOUNDARIES]
    if missing:
        raise RuntimeError(f"cannot time minibatches: {', '.join(missing)} no longer exists")
    runner = run_sweep if args.workload == "snr_sweep" else run_learning
    try:
        out = runner(rec, config, experiments, args.configs, args.workload)
    finally:
        rec.restore()
    out["setup_s"] = out["run_start"] - args.spawned
    out["run_s"] = out.pop("run_end") - out["run_start"]
    out["config_load_s"] = sum(end - start for name, start, end, _ in rec.spans if name == "config.load")
    out["absent_layers"] = rec.absent
    out["traced"] = bool(args.trace)
    if args.trace:
        out["layers"] = spans.layer_metrics(rec, out["run_start"], out["run_start"] + out["run_s"])
        rec.write(Path("spans.csv"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.env:
        out["environment"] = environment()
    args.result.write_text(json.dumps(out, indent=1, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
