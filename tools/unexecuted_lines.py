"""Print the lines of src/olfl that no tier-1 test executes.

Runs the tier-1 suite (pytest over pyproject's testpaths, `tests` and
`benchmark/tests`) in this process under `sys.settrace` and
`threading.settrace`, records every line of src/olfl/*.py that runs, and
prints each executable line that never ran, one a line as
`module.py:LINE: source`, then a count per module and in all. A line is
executable when the module's compiled code maps an instruction to it, so
blank lines, comments and docstrings are left out, as are `else:` lines
and the continuation lines of a statement that hold no instruction.

A test that installs a tracer of its own (`tests/test_verify_reach.py`)
suspends this one until it restores it, and a test's subprocess
(`python -m olfl` runs `__main__.py`) is not traced: the lines only they
run are reported as unexecuted. The suite runs several times slower traced,
so a timing gate in it may fail; the lines are reported all the same, and
pytest's exit status is printed last.

Run from anywhere: python tools/unexecuted_lines.py [pytest arguments]
(default: -q -p no:cacheprovider --continue-on-collection-errors).
"""
from __future__ import annotations

import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "olfl"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers that the compiled module's code objects, nested ones
    included, map an instruction to."""
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on `args`, and the lines of each package module
    that ran, keyed by file name."""
    files = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), files


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pytest reads its testpaths from pyproject.toml here
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))  # for subprocesses
    status, ran = traced_run(argv or DEFAULT_ARGS)
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran[str(path)])
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
        counts.append((path.name, len(missed)))
        total += len(missed)
    for name, count in counts:
        print(f"  {name} {count}")
    print(f"unexecuted lines {total}; pytest exit status {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
