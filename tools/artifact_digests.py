"""Print a SHA-256 digest of every artifact the shipped scenarios write.

    python3 tools/artifact_digests.py [--seed 20260811] [--scenario smoke ...]

Each scenario runs at the given seed into a temporary directory, importing
the package from this checkout's ``src/``. Learning scenarios other than
``smoke`` are cut to 2000 samples; ``fig6_break30`` breaks its antennas at the
midpoint, dumps the stream and replays it without the oracle entry, and
``fig7_aging`` ages its array from sample 1000, every 100 samples, ten times.
``fig5_varying_snr`` covers the truncated-Gaussian SNR and the fixed-depth
mpNet entries, ``fig9_upa`` the planar grid and hemisphere directions. Output is
one ``<sha256>  <scenario>/<file>`` line per artifact, sorted, so a claim that
two commits write the same bytes is one ``diff`` of their outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpnetlab.config import config_from_mapping  # noqa: E402
from mpnetlab.experiments import run_learning_experiment, snr_loss_experiment  # noqa: E402

CUT = 2000
SCENARIOS = ("smoke", "fig2_left", "fig5_varying_snr", "fig6_break30", "fig7_aging", "fig9_upa", "fig1_snr_loss")


def _shipped(name: str, seed: int) -> dict:
    data = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8"))
    data["seed"] = seed
    if name not in ("smoke", "fig1_snr_loss"):
        data["total_samples"] = CUT
    if name == "fig7_aging":
        (event,) = data["anomalies"]
        event.update(index=CUT // 2, every=CUT // 20)
    return data


def run_scenario(name: str, seed: int, out: Path) -> None:
    """Write the artifacts of scenario ``name`` under ``out/<name>``."""
    data = _shipped(name, seed)
    if name == "fig1_snr_loss":
        snr_loss_experiment(config_from_mapping(data), out / name)
    elif name == "fig6_break30":
        (event,) = data["anomalies"]
        event["index"] = CUT // 2
        live = out / name / "live"
        stream = run_learning_experiment(config_from_mapping({**data, "stream": {"dump": True}}), live).output_files["stream"]
        replay = {**data, "stream": {"replay": str(stream)}}
        replay["estimators"] = [e for e in data["estimators"] if e != "omp:oracle:sc2"]
        run_learning_experiment(config_from_mapping(replay), out / name / "replay")
    else:
        run_learning_experiment(config_from_mapping(data), out / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--scenario", action="append", choices=SCENARIOS, help="run only these (repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in args.scenario or SCENARIOS:
            (out / name).mkdir(parents=True)
            run_scenario(name, args.seed, out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
