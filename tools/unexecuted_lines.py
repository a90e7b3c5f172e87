"""List the function and class-body lines of a package that a pytest run
never executes.

    python tools/unexecuted_lines.py src/isingpulse [pytest arguments]

The package directory comes first; the rest goes to ``pytest.main`` as
given.  Lines are traced with ``sys.settrace`` and ``threading.settrace``,
set before pytest starts and so before the package is imported, which
lets class bodies count.  A candidate line is one that the line table of
a function, class body, lambda or comprehension names: a statement that
can run, not a docstring, comment or bare ``else:``.  Module-level lines
run at import and are not candidates.  Prints ``path:line`` for each
candidate that never ran, in file and line order, and exits with pytest's
status, or 1 if it passed and some line never ran.  Code that runs in a
child process (a fresh interpreter or a process pool) is not traced.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest


def candidate_lines(path: Path) -> set[int]:
    """The lines that the function and class bodies of ``path`` can run."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = set()
    todo = [c for c in top.co_consts if isinstance(c, types.CodeType)]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineTracer:
    """A ``sys.settrace`` function that records the (file, line) pairs run
    in the files under ``root``, with each file's path resolved."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.ran: set[tuple[Path, int]] = set()
        self._files: dict[str, Path | None] = {}

    def _file(self, code) -> Path | None:
        name = code.co_filename
        if name not in self._files:
            path = Path(name).resolve()
            self._files[name] = path if path.is_relative_to(self.root) else None
        return self._files[name]

    def __call__(self, frame, event, arg):
        path = self._file(frame.f_code)
        if path is None:
            return None
        self.ran.add((path, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                self.ran.add((path, frame.f_lineno))
            return local

        return local

    def unexecuted(self) -> list[tuple[Path, int]]:
        """The candidate lines under ``root`` that never ran, in order."""
        return [
            (path, line)
            for path in sorted(self.root.rglob("*.py"))
            for line in sorted(candidate_lines(path))
            if (path, line) not in self.ran
        ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tracer = LineTracer(argv[0])
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = tracer.unexecuted()
    for path, line in missing:
        print(f"{path}:{line}")
    return int(status) or int(bool(missing))


if __name__ == "__main__":
    sys.exit(main())
