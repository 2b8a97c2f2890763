"""Statements of src/specid that no Python process of a pytest run executed.

    python tools/unreached_lines.py [PYTEST_ARGS]...

Runs `python -m pytest PYTEST_ARGS` (default: the whole suite) in a child
process. A generated sitecustomize.py comes first on the child's PYTHONPATH,
followed by this checkout's src, so the child and every Python process the
tests start trace themselves: sys.settrace and threading.settrace record the
lines each executes in frames of files under src/specid, and each process
writes them out when it exits. The tool then prints every statement of
src/specid that no process executed, as "module:line  source", and a count
per module. A statement counts as executed when any of its own lines (its
decorators and its header, not the statements it holds) was. Docstrings and
`global`/`nonlocal` declarations produce no line events and are skipped.

Standard library only. Tracing roughly doubles the suite's time, and the
generated module hides any other sitecustomize on the path. The exit status
is pytest's.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "specid")

SITECUSTOMIZE = """\
import atexit, json, os, sys, threading

_prefix = %r
_out = %r
_lines = set()


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_prefix):
        return _local
    return None


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(_out, "lines-%%d.json" %% os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sorted(_lines), fh)


sys.settrace(_global)
threading.settrace(_global)
"""


def executed_lines(out_dir: str) -> dict:
    """{file: set of line numbers} over every process's record in out_dir."""
    lines: dict = {}
    for path in glob.glob(os.path.join(out_dir, "lines-*.json")):
        with open(path, encoding="utf-8") as fh:
            for filename, line in json.load(fh):
                lines.setdefault(os.path.realpath(filename), set()).add(line)
    return lines


def statements(tree: ast.AST):
    """(statement, its own lines) for every statement a line event can mark."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue   # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own


def unreached(executed: dict) -> list:
    """(module, line, source) of each statement of src/specid never executed."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        ran = executed.get(os.path.realpath(path), set())
        for node, own in statements(ast.parse(source, path)):
            if not own & ran:
                found.append((os.path.basename(path), node.lineno,
                              text[node.lineno - 1].strip()))
    return sorted(found, key=lambda item: (item[0], item[1]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE % (PACKAGE + os.sep, tmp))
        path = [tmp, SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        status = subprocess.run([sys.executable, "-m", "pytest"] + argv, env=env).returncode
        found = unreached(executed_lines(tmp))
    for module, line, text in found:
        print("%s:%d  %s" % (module, line, text))
    for module, count in sorted(Counter(module for module, _, _ in found).items()):
        print("%s: %d" % (module, count))
    print("%d statements unreached" % len(found))
    return status


if __name__ == "__main__":
    sys.exit(main())
