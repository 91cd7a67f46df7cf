"""A line census of tier-1 over ``src/wbansim/``, with the standard library's
``trace``.

    python3 tools/coverage.py

Runs tier-1 (``pytest -q`` on ``tests/``) in this process under
``trace.Trace``, counting lines only in the files of ``src/wbansim/``.  A
line is executable when the compiler gives it an instruction, as
``python -m trace --missing`` counts them: docstrings, comments, blank lines
and ``else:`` lines are not.  The script prints, per file, the executable
lines that never ran, marks those in ``ALLOWED``, and exits 1 if any other
line never ran, 2 if tier-1 fails under the census, else 0.  Code that only
a child process runs (the tests that start a fresh interpreter) counts as
unrun.  Tracing makes tier-1 about ten times slower; the census is not
part of it.  It needs only the standard library and pytest.
"""

import functools
import os
import sys
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wbansim"

# (file under src/wbansim/, stripped line text) of lines tier-1 may leave
# unrun: only a run as ``python -m wbansim.cli`` reaches this one
ALLOWED = {("cli.py", "sys.exit(main())")}


@functools.cache
def _outside_package(filename: str, modulename: str) -> bool:
    """``trace``'s ignore rule, inverted: trace the package's files only."""
    return Path(filename).resolve().parent != PACKAGE


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that some instruction of its code belongs to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        # a line number of 0 or None marks an instruction of no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def census() -> tuple[int, dict[Path, set[int]]]:
    """Run tier-1 under the tracer; give pytest's exit status and the lines
    that ran, per package file.  No test starts a thread, so only this
    thread is traced."""
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = types.SimpleNamespace(names=_outside_package)
    os.chdir(ROOT)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", "tests"])
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    return status, ran


def main() -> int:
    status, ran = census()
    stray = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        unrun = sorted(executable_lines(path) - ran.get(path, set()))
        if not unrun:
            continue
        print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun")
        for line in unrun:
            allowed = (path.name, text[line - 1].strip()) in ALLOWED
            stray += not allowed
            print(f"  {line:5d}{'  (allowed)' if allowed else ''}  {text[line - 1].strip()}")
    if status != 0:
        print(f"tier-1 failed under the census: pytest exit {status}")
        return 2
    print(f"{stray} unrun lines outside the allow-list")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
