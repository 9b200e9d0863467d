"""An opt-in line audit of ``src/polyslope``.  With POLYSLOPE_LINE_AUDIT set
to a file name, the run records every line of the package that executes in
this process (``sys.settrace``; CLI subprocesses are not seen) and writes
to that file the executable lines that never ran, one ``path:line`` each.
Without the variable this file does nothing.
"""

import os
import sys
import threading
from pathlib import Path

AUDIT = os.environ.get("POLYSLOPE_LINE_AUDIT")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyslope"
ran = set()


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def _lines(code):
    """The executable lines of a code object and of those it holds."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _lines(const)
    return lines


if AUDIT:
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_sessionfinish(session):
    if not AUDIT:
        return
    sys.settrace(None)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unrun += [f"{path}:{line}" for line in sorted(_lines(code)) if (str(path), line) not in ran]
    Path(AUDIT).write_text("".join(f"{line}\n" for line in unrun), encoding="utf-8")
