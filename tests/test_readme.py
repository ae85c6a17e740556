"""The README's Python quick start runs as written and gives the result it states."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_and_finds_the_stated_gap_mode():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(Python\)\n\n```python\n(.*?)```", text, re.S)
    assert block, "README.md has no 'Quick start (Python)' code block"
    namespace = {}
    exec(block.group(1), namespace)
    modes = namespace["result"].gap_report.gap_modes
    assert len(modes) == 1 and modes[0].index == 40
    stated = re.search(r"# -> (\[GapMode\(.*?)\.\.\.", block.group(1))  # the printed prefix
    assert stated and repr(modes).startswith(stated.group(1))
    assert 0.0 <= namespace["alpha"] <= math.pi
