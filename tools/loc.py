"""Print the line count and the code-only line count of a source tree,
and its option count: the fields of ``Features`` and of ``MSSGConfig``
(a deployment's options) and of ``QuerySpec`` (one query's options).

Code-only lines carry at least one token that is not a comment, excluding
module, class and function docstrings.  Usage: ``python tools/loc.py [src]``.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
#: The dataclasses whose fields are options: a deployment's, then a query's.
OPTION_CLASSES = ("Features", "MSSGConfig", "QuerySpec")


def counts(path: Path) -> tuple[int, int]:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.add((doc.lineno, doc.col_offset))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP and tok.start not in docstrings:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def options(root: Path) -> dict[str, int]:
    """Annotated fields of each top-level class named in ``OPTION_CLASSES``."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in OPTION_CLASSES:
                found[node.name] = sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return found


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    total = [sum(c) for c in zip(*(counts(p) for p in sorted(root.rglob("*.py"))))]
    print(f"{root}/: {total[0]} lines, {total[1]} code-only")
    found = options(root)
    print("options: " + ", ".join(f"{name} {found.get(name, 0)}" for name in OPTION_CLASSES))
