"""The README's code runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert block.count("40_000") == 1
    exec(compile(block.replace("40_000", "400"), "README.md quick start", "exec"), {})
    assert re.fullmatch(r"relative error: -?\d+\.\d dB -> -?\d+\.\d dB\n", capsys.readouterr().out)
