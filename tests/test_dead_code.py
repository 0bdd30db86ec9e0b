"""Every function and method defined in src/fvvem is named somewhere, and
every name a src/fvvem module imports is used there.

A definition counts as used when its name appears in src/, tests/ or
perfbench/ (this module aside, whose allowlist names functions without
calling them) as a name, an attribute, an imported name or a string (a
`getattr` or a monkeypatch target).  An imported name counts as used when
its module names it or lists it in `__all__`; `from __future__` imports are
exempt.  The sources are read with the standard library's `ast`; no linter
is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench")

# (module path under src/fvvem, function name) kept without a caller; an
# entry that gains a caller must leave the list
ALLOWED = {
    # the 1D reference waits on the stepped-bottom Riemann oracles
    ("harness/riemann.py", "reference_fv_1d"),
}


def is_hook(name: str) -> bool:
    """Dunders, which include the dataclass hook __post_init__."""
    return name.startswith("__") and name.endswith("__")


def names_and_definitions():
    used, defined = set(), []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            module = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
                elif (tree == "src" and isinstance(node, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef))):
                    rel = path.relative_to(ROOT / "src" / "fvvem").as_posix()
                    defined.append((rel, node.name, node.lineno))
    return used, defined


def test_every_function_has_a_caller():
    used, defined = names_and_definitions()
    assert defined
    dead = [f"src/fvvem/{rel}:{line} {name}" for rel, name, line in defined
            if name not in used and not is_hook(name) and (rel, name) not in ALLOWED]
    assert not dead, "functions that nothing names:\n" + "\n".join(dead)


def test_allowlist_names_real_functions():
    _, defined = names_and_definitions()
    assert ALLOWED <= {(rel, name) for rel, name, _ in defined}


def test_allowlist_names_no_function_with_a_caller():
    used, _ = names_and_definitions()
    stale = sorted(f"src/fvvem/{rel} {name}" for rel, name in ALLOWED if name in used)
    assert not stale, "allowed functions that something now names:\n" + "\n".join(stale)


def unused_imports(module: ast.Module) -> list:
    """(line, name) of each name the module imports and never uses."""
    imported, used = [], set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_every_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "fvvem").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        unused += [f"{rel}:{line} {name}" for line, name in unused_imports(module)]
    assert not unused, "imported names that nothing uses:\n" + "\n".join(unused)
