"""The README's quick start and CLI examples run as written and give the results they state."""

import math
import re
import shlex
from pathlib import Path

import numpy as np

from bandrec import matrices, symbols
from bandrec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
OUTPUT_FILE = re.compile(r"[\w-]+\.(?:csv|json|svg)\b")


def test_readme_quick_start_runs_and_finds_the_stated_gap_mode():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(Python\)\n\n```python\n(.*?)```", text, re.S)
    assert block, "README.md has no 'Quick start (Python)' code block"
    namespace = {}
    exec(block.group(1), namespace)
    modes = namespace["result"].gap_report["gap_modes"]
    assert len(modes) == 1 and modes[0]["index"] == 40
    stated = re.search(r"# -> (\[\{.*?)\.\.\.", block.group(1))  # the printed prefix
    assert stated and repr(modes).startswith(stated.group(1))
    assert 0.0 <= namespace["alpha"] <= math.pi and namespace["evanescent"] is False


def _cli_examples():
    """(argv, files its comment names) for each command of the README's CLI block.

    A line that is only a comment continues the comment of the command above it.
    """
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no CLI code block"
    examples = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            argv = shlex.split(command)
            assert argv[0] == "bandrec", line
            examples.append((argv[1:], []))
        examples[-1][1].extend(OUTPUT_FILE.findall(comment))
    return examples


def test_readme_cli_examples_write_the_files_they_name(tmp_path, monkeypatch):
    examples = [(argv, files) for argv, files in _cli_examples() if argv[0] != "verify"]
    assert examples
    for i, (argv, files) in enumerate(examples):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        matrices.save_matrix(matrices.chain_capacitance(matrices.dimer_alternation(1.0, 2.0, 39)),
                             "mat.csv")
        np.savetxt("vec.csv", np.cos(0.4 * np.arange(12)))
        assert main(argv) == 0, argv
        assert files, f"the comment of {argv} names no file"
        assert sorted(p.name for p in Path("out").iterdir()) == sorted(files), argv


def test_readme_quotes_the_tolerance_rules_as_the_code_states_them():
    text = " ".join(README.read_text(encoding="utf-8").split())  # a quote may wrap across lines
    assert f"`{symbols.HERMITIAN_RULE}`" in text
    evenness = re.search(r"must stay within `(\S+) \* max\|lambda\|`", text)  # Limits; :g would write 1e-08
    assert evenness and float(evenness.group(1)) == symbols.EVENNESS_TOL
