"""A pytest plugin that lists the statements of src/trustvet no test ran.

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It uses the standard library only. Tracing starts when pytest imports this
module, before the package is imported, so module bodies count; it follows
every thread the tests start (threading.settrace) and stops at the end of
the session, which then prints each file's never-run lines. A statement is
a line that starts an instruction run in the file's compiled code objects.
Code run in a child process (the adapter's child, `python -m` runs) is not
seen, so lines only such a child runs are listed too.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from pathlib import Path

_PACKAGE = Path(importlib.util.find_spec("trustvet").submodule_search_locations[0])
_PREFIX = os.path.join(_PACKAGE, "")
_hits: dict[str, set[int]] = {}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    _hits.setdefault(filename, set())
    return _line


sys.settrace(_call)
threading.settrace(_call)


def _statements(path: Path) -> set[int]:
    """The lines that start an instruction run in the code objects compiled
    from path."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    runs: list[list[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements of src/trustvet that no test ran")
    total = 0
    for path in sorted(_PACKAGE.rglob("*.py")):
        missed = sorted(_statements(path) - _hits.get(str(path), set()))
        if missed:
            total += len(missed)
            terminalreporter.write_line(f"{path.relative_to(_PACKAGE.parent)}: {_ranges(missed)}")
    terminalreporter.write_line(f"{total} statements never ran")
