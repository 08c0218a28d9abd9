"""Reach census: which functions of ``src/repro`` production runs reach.

Runs the production commands, then the tier-1 tests, each under a call
recorder, and prints per module the function lines reached by production,
by the tests only, and by neither.  Production is ``twoclock --smoke``,
every script in ``examples/`` and ``tests/test_figures_smoke.py``.

The recorder is a generated ``sitecustomize.py`` put first on
``PYTHONPATH``: every Python process started under it — twoclock's re-exec
and its per-workload subprocesses included — installs a ``sys.setprofile``
hook that notes the code object of each call into ``src/repro`` and writes
``file:first-line`` pairs to its own file at exit.  A function is every
``def`` (methods and nested ones too); its lines run from its first
decorator to its last line, less the lines of the functions nested in it,
which count on their own.

After the per-module table it lists one row per function production does
not reach.  A command that exits non-zero makes the census understate
reach: the output then starts with a ``census incomplete`` line and the
script exits 1.

Stdlib only.  Slow: the tests alone take minutes under the hook.  Usage:
``python tools/reach.py``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

PRODUCTION = (
    ["benchmarks/twoclock/run.py", "--smoke"],
    *([f"examples/{path.name}"] for path in sorted((ROOT / "examples").glob("*.py"))),
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_figures_smoke.py"],
)
TESTS = (["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/"],)

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_src = os.environ.get("REACH_SRC")
_out = os.environ.get("REACH_OUT")
if _src and _out:
    _seen = set()
    _hits = set()

    def _record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                path = os.path.abspath(code.co_filename)
                if path.startswith(_src):
                    _hits.add("%s:%d" % (path[len(_src):], code.co_firstlineno))

    def _dump():
        sys.setprofile(None)
        name = os.path.join(_out, "%d-%s.txt" % (os.getpid(), os.urandom(4).hex()))
        with open(name, "w") as f:
            f.write("\\n".join(sorted(_hits)))

    atexit.register(_dump)
    threading.setprofile(_record)
    sys.setprofile(_record)
'''


def functions(path: Path):
    """``(qualname, first line, own lines)`` of every ``def`` in a module."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                nested = [
                    n for n in ast.walk(child)
                    if n is not child and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                inner = set()
                for n in nested:
                    start = min([n.lineno] + [d.lineno for d in n.decorator_list])
                    inner.update(range(start, n.end_lineno + 1))
                own = len(set(range(first, child.end_lineno + 1)) - inner)
                found.append((prefix + child.name, first, own))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def record(commands, out: Path, site: Path, failed: list[str]) -> set[str]:
    """Run ``commands`` under the recorder; the ``file:line`` hits of all.

    Each command that exits non-zero is appended to ``failed``."""
    out.mkdir()
    path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path),
        REACH_SRC=str(SRC) + os.sep,
        REACH_OUT=str(out),
    )
    for cmd in commands:
        print("reach: running", " ".join(cmd), file=sys.stderr, flush=True)
        code = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL).returncode
        if code:
            failed.append(f"exit code {code} from {' '.join(cmd)}")
    return {hit for f in out.iterdir() for hit in f.read_text().split()}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        site = tmp / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        failed = []
        prod = record(PRODUCTION, tmp / "production", site, failed)
        tests = record(TESTS, tmp / "tests", site, failed)

    totals = [0, 0, 0]
    rows, unreached = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        counts = [0, 0, 0]
        for name, line, own in functions(path):
            key = f"{rel}:{line}"
            kind = 0 if key in prod else 1 if key in tests else 2
            counts[kind] += own
            if kind:
                unreached.append((rel, line, name, own, ("tests only", "neither")[kind - 1]))
        totals = [a + b for a, b in zip(totals, counts)]
        rows.append((rel, *counts))

    for line in failed:
        print(f"census incomplete: {line}")
    print(f"{'module':<40} {'production':>10} {'tests only':>10} {'neither':>8}")
    for rel, *counts in rows:
        print(f"{rel:<40} {counts[0]:>10} {counts[1]:>10} {counts[2]:>8}")
    print(f"{'total':<40} {totals[0]:>10} {totals[1]:>10} {totals[2]:>8}")
    print()
    print("function lines production does not reach:")
    for rel, line, name, own, kind in unreached:
        print(f"  {kind:<10} {own:>4}  {rel}:{line} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
