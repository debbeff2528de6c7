"""In-memory span recording around mpnetlab's public layer functions.

The recorder replaces module-level names (and two stream methods) with thin
wrappers, so the package itself carries no timing code. Each call becomes one
span: layer name, start, end and the index of the enclosing span (-1 for calls
made directly by the experiment loop). A name that no longer exists is
recorded as an absent layer instead of failing, so the benchmark keeps running
after a refactor removes it.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

# Flops of one correlation ``W^H r`` with a complex N x A matrix: one complex
# multiply-add (8 real flops) per entry. Bytes are the matrix read once
# (complex128), computed from the shape rather than measured.
FLOPS_PER_ENTRY = 8
BYTES_PER_ENTRY = 16

# Layers a minibatch boundary is read from: a stream ``take`` for the learning
# runs, one dictionary build per (array, grid cell) for the SNR-loss sweep.
TAKE_LAYERS = ("channels.synth", "channels.replay")
CELL_LAYER = "arrays.dictionary"
BOUNDARIES = ("ChannelStream.take", "ReplayStream.take", "mpnetlab.experiments.build_dictionary")


class Recorder:
    """Spans and per-layer counters of one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, layer: str, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span named ``layer``; ``counter`` sees the call's result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent)
        if counter is not None:
            counter(self, args, out)
        return out

    def wrap(self, owner, attr: str, layer: str, counter=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until :meth:`restore`."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.call(layer, original, *args, counter=counter, **kwargs)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def starts(self, layers) -> list[float]:
        return [start for name, start, _, _ in self.spans if name in layers]

    def write(self, path: Path) -> None:
        lines = ["layer,start_s,end_s,parent"]
        lines += [f"{name},{start!r},{end!r},{parent}" for name, start, end, parent in self.spans]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pursuit_counter(prefix: str):
    def count(rec: Recorder, args, out) -> None:
        n, a = args[0].atoms.shape
        rec._count(f"{prefix}.calls", 1)
        rec._count(f"{prefix}.layers", out.depth)
        rec._count(f"{prefix}.flops", FLOPS_PER_ENTRY * n * a * out.depth)

    return count


def _forward_counter(rec: Recorder, args, out) -> None:
    n, a = args[0].weights.shape
    depth = out[1].depth
    rec._count("forward.calls", 1)
    rec._count("forward.layers", depth)
    rec._count("forward.flops", FLOPS_PER_ENTRY * n * a * depth)
    rec._count("forward.bytes", BYTES_PER_ENTRY * n * a * depth)


def _take_counter(rec: Recorder, args, out) -> None:
    rec._count("samples", len(out))


def _write_counter(rec: Recorder, args, out) -> None:
    path = Path(args[0])
    size = os.path.getsize(path)
    rec._count("bytes_written", size)
    if path.name == "stream.csv":
        rec._count("stream_bytes", size)


def _count_calls(key: str):
    def count(rec: Recorder, args, out) -> None:
        rec._count(key, 1)

    return count


def install(rec: Recorder, traced: bool) -> None:
    """Wrap the minibatch-boundary layers, and with ``traced`` every public layer."""
    from mpnetlab import channels, experiments, mpnet

    rec.wrap(channels.ChannelStream, "take", "channels.synth", _take_counter)
    rec.wrap(channels.ReplayStream, "take", "channels.replay", _take_counter)
    rec.wrap(experiments, "build_dictionary", CELL_LAYER, _count_calls("dictionary.calls"))
    if not traced:
        return
    rec.wrap(experiments, "omp", "estimators.omp", _pursuit_counter("omp"))
    rec.wrap(experiments, "matching_pursuit", "estimators.mp", _pursuit_counter("mp"))
    rec.wrap(experiments, "ls_estimate", "estimators.ls")
    rec.wrap(experiments, "steering_vector", "arrays.steering")
    rec.wrap(experiments, "rmse", "metrics.rmse", _count_calls("rmse.calls"))
    rec.wrap(experiments, "sample_to_row", "channels.dump")
    rec.wrap(experiments, "load_stream", "channels.load")
    rec.wrap(experiments, "atomic_write_rows", "fileio.write", _write_counter)
    rec.wrap(experiments, "save_checkpoint", "mpnet.checkpoint")
    rec.wrap(mpnet, "forward", "mpnet.forward", _forward_counter)
    rec.wrap(mpnet, "backward", "mpnet.backward")
    rec.wrap(mpnet, "adam_step", "mpnet.adam", _count_calls("adam.steps"))
    rec.wrap(mpnet, "rmse", "metrics.rmse", _count_calls("rmse.calls"))


# (metric, layers whose self time it sums) for every share of the run window.
SHARES = (
    ("mpnet.forward_pct", ("mpnet.forward",)),
    ("mpnet.backward_pct", ("mpnet.backward",)),
    ("mpnet.adam_pct", ("mpnet.adam",)),
    ("mpnet.checkpoint_pct", ("mpnet.checkpoint",)),
    ("estimators.ls_pct", ("estimators.ls",)),
    ("estimators.mp_pct", ("estimators.mp",)),
    ("estimators.omp_pct", ("estimators.omp",)),
    ("arrays.dictionary_pct", ("arrays.dictionary",)),
    ("arrays.steering_pct", ("arrays.steering",)),
    ("channels.synth_pct", ("channels.synth",)),
    ("channels.dump_pct", ("channels.dump",)),
    ("channels.load_pct", ("channels.load", "channels.replay")),
    ("metrics.rmse_pct", ("metrics.rmse",)),
    ("fileio.write_pct", ("fileio.write",)),
)


def layer_metrics(rec: Recorder, window_start: float, window_end: float) -> dict[str, float]:
    """Per-layer self times (as shares of the run window) and counters.

    A span's self time is its duration minus that of its direct children;
    ``experiments.self_pct`` is what the window leaves after every top-level
    span, so the self times of all layers plus it account for the window.
    Counters cover the whole process, set-up included.
    """
    window = window_end - window_start
    self_time: dict[str, float] = {}
    child_time = [0.0] * len(rec.spans)
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(rec.spans):
        if start < window_start:
            continue
        if end > window_end:
            raise RuntimeError(f"span {name} ends after the run window")
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
        if parent < 0:
            top_level += end - start
    out = {metric: 100.0 * sum(self_time.get(n, 0.0) for n in names) / window for metric, names in SHARES}
    out["experiments.self_pct"] = 100.0 * (window - top_level) / window
    accounted = sum(self_time.values()) + window - top_level
    if not math.isclose(accounted, window, rel_tol=1e-9):
        raise RuntimeError(f"layer self times account for {accounted!r} s of a {window!r} s run window")

    c = rec.counts
    forward_s = self_time.get("mpnet.forward", 0.0)
    pursuit_s = self_time.get("estimators.mp", 0.0) + self_time.get("estimators.omp", 0.0)
    out.update(
        {
            "mpnet.forward_calls": c.get("forward.calls", 0),
            "mpnet.forward_layers": c.get("forward.layers", 0),
            "mpnet.forward_gflops": c.get("forward.flops", 0) / forward_s / 1e9 if forward_s else 0.0,
            "mpnet.forward_bytes": c.get("forward.bytes", 0),
            "mpnet.adam_steps": c.get("adam.steps", 0),
            "mpnet.mean_depth": c["forward.layers"] / c["forward.calls"] if c.get("forward.calls") else 0.0,
            "estimators.mp_calls": c.get("mp.calls", 0),
            "estimators.mp_layers": c.get("mp.layers", 0),
            "estimators.omp_calls": c.get("omp.calls", 0),
            "estimators.omp_layers": c.get("omp.layers", 0),
            "estimators.corr_gflops": (c.get("mp.flops", 0) + c.get("omp.flops", 0)) / pursuit_s / 1e9
            if pursuit_s
            else 0.0,
            "arrays.dictionary_calls": c.get("dictionary.calls", 0),
            "channels.samples": c.get("samples", 0),
            "channels.stream_bytes": c.get("stream_bytes", 0),
            "metrics.rmse_calls": c.get("rmse.calls", 0),
            "fileio.bytes_written": c.get("bytes_written", 0),
        }
    )
    return out
