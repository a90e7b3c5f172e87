import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "unexecuted_lines", Path(__file__).resolve().parents[1] / "tools" / "unexecuted_lines.py"
)
unexecuted_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unexecuted_lines)

TOY = '''"""A toy module."""

LIMIT = 3


def pick(x):
    """One branch runs, the other never."""
    if x > LIMIT:
        return "big"
    return "small"


class Box:
    size = LIMIT

    def grow(self):
        return self.size + 1
'''

# pick(5) leaves line 10 unrun, and grow is never called: its def line ran
# in the class body, its return line never did.  Module lines and
# docstrings are not candidates.
TOY_UNEXECUTED = [10, 17]


def test_tracer_lists_the_function_and_class_lines_that_never_ran(tmp_path):
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "shapes.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("shapes", pkg / "shapes.py")
    module = importlib.util.module_from_spec(spec)
    tracer = unexecuted_lines.LineTracer(pkg)
    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        spec.loader.exec_module(module)
        assert module.pick(5) == "big"
    finally:
        sys.settrace(outer)
    path = (pkg / "shapes.py").resolve()
    assert tracer.unexecuted() == [(path, line) for line in TOY_UNEXECUTED]
