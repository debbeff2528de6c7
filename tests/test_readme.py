"""The README's code runs against the current API."""

import re
import shlex
from pathlib import Path

import yaml

from mpnetlab.cli import build_parser
from mpnetlab.config import config_from_mapping

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert block.count("40_000") == 1
    exec(compile(block.replace("40_000", "400"), "README.md quick start", "exec"), {})
    assert re.fullmatch(r"relative error: -?\d+\.\d dB -> -?\d+\.\d dB\n", capsys.readouterr().out)


def test_configuration_blocks_load():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"## Configuration file\n(.*?)\n## ", text, re.S).group(1)
    blocks = re.findall(r"```yaml\n(.*?)```", section, re.S)
    assert len(blocks) == 2  # a learning run and an SNR-loss sweep
    kinds = [config_from_mapping(yaml.safe_load(block)).snr_loss is None for block in blocks]
    assert kinds == [True, False]


def test_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines() if line.startswith("mpnetlab ")]
    assert len(commands) >= 2
    for command in commands:
        build_parser().parse_args(command[1:])  # a usage error exits 2
