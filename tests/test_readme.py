"""The README's library examples run as written.

Every ```python block of README.md is executed in order in one namespace,
as a reader pasting them into one session would.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_examples_run_in_order(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out  # the examples print their results
