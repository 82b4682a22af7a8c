"""Layout rules: `src/` holds only code that `src/` itself uses.

Every top-level function, class and constant of the package must be named
somewhere in `src/` outside its own definition. Code that only the tests
need lives in `tests/`. Likewise every field of an options class (a name
ending in `Options` or `Params`; its fields are its `__init__` parameters)
must be set by `src/` itself: an option that only tests set is a test hook.
And every parameter with a default, of a top-level function, must be passed by
some call in `src/`: a parameter that no caller passes is a branch nothing
takes. And only `oracle._draw_clause` tests a generator profile's name: every
other rule of a profile is read off its row of `oracle.PROFILES`.
"""

import ast
from pathlib import Path

from x1scan.oracle import PROFILES

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


def _init_fields(cls: ast.ClassDef) -> list[str]:
    """The fields of a record class: the parameters of its `__init__`."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs][1:]]
    return []


def _options_classes(trees: dict[str, ast.Module]) -> dict[str, tuple[str, ast.ClassDef]]:
    """Class name -> (module, class) of each top-level class whose name ends
    in `Options` or `Params`."""
    return {
        stmt.name: (module, stmt)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef) and stmt.name.endswith(("Options", "Params"))
    }


def unset_options() -> list[str]:
    """Fields of the options classes in `src/` (the `__init__` parameters of a
    class whose name ends in `Options` or `Params`) that no call in `src/`
    outside the class passes to it by keyword."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = _options_classes(trees)
    own = {id(cls) for _, cls in classes.values()}
    passed: dict[str, set[str]] = {name: set() for name in classes}
    stack = [node for tree in trees.values() for node in tree.body]
    while stack:
        node = stack.pop()
        if id(node) in own:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in passed:
                passed[node.func.id].update(kw.arg for kw in node.keywords if kw.arg)
        stack.extend(ast.iter_child_nodes(node))
    unset = []
    for name, (module, cls) in sorted(classes.items()):
        for field in _init_fields(cls):
            if field not in passed[name]:
                unset.append(f"{module}.{name}.{field}")
    return unset


def test_options_classes_are_found():
    # an options class the rule cannot read would pass it silently
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fields = {name: _init_fields(cls) for name, (_, cls) in _options_classes(trees).items()}
    assert fields == {}
    # the rule still reads any later one
    tree = ast.parse("class ProbeParams:\n    def __init__(self, depth=1): self.depth = depth\n")
    found = _options_classes({"probe": tree})
    assert {name: _init_fields(cls) for name, (_, cls) in found.items()} == {
        "ProbeParams": ["depth"]}


def test_every_option_field_is_set_in_src():
    assert unset_options() == []


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position or None if keyword-only) of each parameter with a default."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [
        (a.arg, None)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    ]
    return out


def unpassed_defaults() -> list[str]:
    """Parameters with a default, of the top-level functions in `src/`, that no
    call in `src/` outside the function itself passes, by keyword or by
    position."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    functions = [
        (module, stmt)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
    ]
    # function name -> (call, the top-level statement it sits in); a
    # function's calls to itself pass nothing in from outside
    calls: dict[str, list[tuple[ast.Call, ast.stmt]]] = {}
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append((node, stmt))
    unpassed = []
    for module, fn in functions:
        own_calls = [call for call, stmt in calls.get(fn.name, ()) if stmt is not fn]
        for name, pos in _defaulted(fn):
            if not any(_passes(call, name, pos) for call in own_calls):
                unpassed.append(f"{module}.{fn.name}.{name}")
    return unpassed


def _passes(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at position ``pos``;
    ``*args`` and ``**kwargs`` count as passing."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return pos is not None and (
        len(call.args) > pos or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_default_parameter_is_passed_in_src():
    assert unpassed_defaults() == []


def profile_name_tests(trees: dict[str, ast.Module], exempt: str = "_draw_clause") -> list[str]:
    """`module.name`, for the top-level statement it sits in, of each
    comparison (==, !=, in, not in) against a profile name written out,
    outside the function ``exempt``."""
    names = set(PROFILES)
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            where = getattr(stmt, "name", "<module>")
            if where == exempt:
                continue
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                        for op in node.ops)):
                    continue
                operands = [node.left, *node.comparators]
                if any(isinstance(c, ast.Constant) and c.value in names
                       for operand in operands for c in ast.walk(operand)):
                    found.append(f"{module}.{where}")
    return found


def test_only_the_draw_tests_a_profile_name():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert profile_name_tests(trees) == []
    # the rule reads the draw's own tests, and any other
    assert set(profile_name_tests(trees, exempt="")) == {"oracle._draw_clause"}
    tree = ast.parse('def rule(p):\n    return 3 if p in ("uniform3", "adversarial") else 1\n')
    assert profile_name_tests({"gen": tree}) == ["gen.rule"]
