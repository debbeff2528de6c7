"""Print a SHA-256 digest of every artifact the shipped scenarios write.

    python3 tools/artifact_digests.py [--seed 20260811] [--scenario smoke ...]
    python3 tools/artifact_digests.py --against REF [--seed ...] [--scenario ...]

Each scenario runs at the given seed into a temporary directory, importing
the package from this checkout's ``src/`` (or from ``--src DIR``). Learning
scenarios other than ``smoke`` are cut to 2000 samples; ``fig6_break30`` and
``fig8_break50`` break their antennas at the midpoint, ``fig6_break30`` dumps
the stream and replays it without the oracle entry, and ``fig7_aging`` ages
its array from sample 1000, every 100 samples, ten times.
``fig5_varying_snr`` covers the truncated-Gaussian SNR and the fixed-depth
mpNet entries, ``fig9_upa`` the planar grid and hemisphere directions. Output is
one ``<sha256>  <scenario>/<file>`` line per artifact, sorted, so a claim that
two commits write the same bytes is one ``diff`` of their outputs.

``--against REF`` makes that diff: it extracts the ``src/`` of git revision
REF with ``git archive``, runs the same scenarios (with this checkout's
configs) on that package in a child process and on this checkout here, and
prints a unified diff of the two outputs. It exits 1 on any difference and
otherwise reports how many lines are identical. When REF's artifacts cannot
be made (git does not know REF, or REF's package fails a scenario), it prints
the failing command's standard error and exits 2 naming REF.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

CUT = 2000
SCENARIOS = ("smoke", "fig2_left", "fig5_varying_snr", "fig6_break30", "fig7_aging", "fig8_break50", "fig9_upa", "fig1_snr_loss")


def _shipped(name: str, seed: int) -> dict:
    data = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8"))
    data["seed"] = seed
    if name not in ("smoke", "fig1_snr_loss"):
        data["total_samples"] = CUT
    if name == "fig7_aging":
        (event,) = data["anomalies"]
        event.update(index=CUT // 2, every=CUT // 20)
    if name in ("fig6_break30", "fig8_break50"):
        (event,) = data["anomalies"]
        event["index"] = CUT // 2
    return data


def run_scenario(name: str, seed: int, out: Path) -> None:
    """Write the artifacts of scenario ``name`` under ``out/<name>``."""
    from mpnetlab.config import config_from_mapping
    from mpnetlab.experiments import run_learning_experiment, snr_loss_experiment

    data = _shipped(name, seed)
    if name == "fig1_snr_loss":
        snr_loss_experiment(config_from_mapping(data), out / name)
    elif name == "fig6_break30":
        live = out / name / "live"
        stream = run_learning_experiment(config_from_mapping({**data, "stream": {"dump": True}}), live).output_files["stream"]
        replay = {**data, "stream": {"replay": str(stream)}}
        replay["estimators"] = [e for e in data["estimators"] if e != "omp:oracle:sc2"]
        run_learning_experiment(config_from_mapping(replay), out / name / "replay")
    else:
        run_learning_experiment(config_from_mapping(data), out / name)


def digest_lines(names, seed: int) -> list[str]:
    """The sorted ``<sha256>  <scenario>/<file>`` lines of the scenarios ``names``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in names:
            (out / name).mkdir(parents=True)
            run_scenario(name, seed, out)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())
        ]


def digest_lines_at(ref: str, names, seed: int) -> list[str]:
    """:func:`digest_lines` of the package at git revision ``ref``, run in a child process."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        command = [sys.executable, __file__, "--src", str(Path(tmp) / "src"), "--seed", str(seed)]
        for name in names:
            command += ["--scenario", name]
        return subprocess.run(command, check=True, capture_output=True, text=True).stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--scenario", action="append", choices=SCENARIOS, help="run only these (repeatable)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="import the package from this directory")
    parser.add_argument("--against", metavar="REF", help="diff against the artifacts of git revision REF")
    args = parser.parse_args(argv)
    names = args.scenario or SCENARIOS
    sys.path.insert(0, str(args.src.resolve()))
    if args.against is None:
        for line in digest_lines(names, args.seed):
            print(line)
        return 0
    try:
        theirs = digest_lines_at(args.against, names, args.seed)
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) else exc.stderr
        sys.stderr.write(stderr)
        print(f"cannot make the artifacts of {args.against}: {shlex.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        return 2
    ours = digest_lines(names, args.seed)
    diff = list(difflib.unified_diff(theirs, ours, args.against, "this checkout", lineterm=""))
    for line in diff:
        print(line)
    if diff:
        return 1
    print(f"all {len(ours)} lines identical to {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
