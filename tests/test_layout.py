"""Layout rule: `src/` holds only code that `src/` itself uses.

Every top-level function, class and constant of the package must be named
somewhere in `src/` outside its own definition. Code that only the tests
need lives in `tests/`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "x1scan"


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _named(node: ast.AST) -> set[str]:
    """Identifiers read anywhere inside ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced() -> list[str]:
    stmts = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    reads = [_named(stmt) for _, stmt in stmts]
    unused = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue  # module protocol (__version__), read from outside
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_in_src_is_used_in_src():
    assert unreferenced() == []
