"""Every function and method defined in src/fvvem is named somewhere.

A definition counts as used when its name appears in src/, tests/ or
perfbench/ as a name, an attribute, an imported name or a string (a
`getattr` or a monkeypatch target).  The sources are read with the standard
library's `ast`; no linter is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench")

# (module path under src/fvvem, function name) kept without a caller
ALLOWED = {
    ("harness/cli.py", "main"),                    # the `fvvem` console script
    # the Riemann references and the VTK reader wait on the harness oracles
    ("harness/riemann.py", "exact_riemann_swe"),
    ("harness/riemann.py", "reference_fv_1d"),
    ("harness/output.py", "read_vtk_cell_data"),
}


def is_hook(name: str) -> bool:
    """Dunders, which include the dataclass hook __post_init__."""
    return name.startswith("__") and name.endswith("__")


def names_and_definitions():
    used, defined = set(), []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
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
