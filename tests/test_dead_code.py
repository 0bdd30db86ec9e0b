"""Every function and method defined in src/fvvem is named somewhere, and
outside the tests unless `TEST_ONLY` says why not; every defaulted parameter
of one is set by some call; every attribute a src/fvvem module stores is read
somewhere; and every name a src/fvvem module imports is used there.

A definition counts as used when its name appears in src/, tests/ or
perfbench/ (this module aside, whose allowlist names functions without
calling them) as a name, an attribute, an imported name or a string (a
`getattr` or a monkeypatch target).  It counts as reachable when it is used
outside tests/ and perfbench/tests, in the product: src/ and the
benchmark.  A call sets a defaulted parameter of
every function of its callee's name (a class call: of the class's
`__init__`) by keyword, by position or through `*`/`**`.  An attribute is
stored by an assignment to `x.attr` or as an annotated class field, and read
as a loaded attribute, a loaded name or a string.  An imported name
counts as used when its module names it or lists it in `__all__`;
`from __future__` imports are exempt.  The sources are read with the
standard library's `ast`; no linter is needed.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench")
TEST_TREES = ("tests", "perfbench/tests")

# (module path under src/fvvem, function name) kept without a caller; an
# entry that gains a caller must leave the list
ALLOWED = {
    # the 1D reference waits on the stepped-bottom Riemann oracles
    ("harness/riemann.py", "reference_fv_1d"),
}


# (module path under src/fvvem, function name) -> why it is kept with the
# tests as its only callers; an entry that gains a product caller must leave
# the list
TEST_ONLY = {
    ("fv.py", "res_q"): "the residual half of a stencil fit's stacked operator, "
                        "which the set-up golden of test_discretization fingerprints",
    ("linalg.py", "to_dense"): "the tests compare sparse operators with dense oracles",
    ("mesh.py", "validate_regularity"): "the tests check the generated meshes against "
                                        "the paper's mesh regularity assumptions",
    ("mesh.py", "write_mesh"): "the inverse the tests round-trip read_mesh against",
}


# (module path under src/fvvem, attribute) stored without a reader in the
# scanned trees; an entry that gains a reader must leave the list
ALLOWED_ATTRIBUTES = {
    # scipy reads it: the data refilled on a canonical CSR pattern stays canonical
    ("linalg.py", "has_canonical_format"),
}


def is_hook(name: str) -> bool:
    """Dunders, which include the dataclass hook __post_init__."""
    return name.startswith("__") and name.endswith("__")


def is_test(path: Path) -> bool:
    return any(path.is_relative_to(ROOT / tree) for tree in TEST_TREES)


def names_and_definitions(modules):
    """The names the modules (path -> parsed module) use, those that the
    product (every module outside the tests) uses, and the (module path
    under src/fvvem, name, line) of each function src/fvvem defines."""
    used, product, defined = set(), set(), []
    src = ROOT / "src" / "fvvem"
    for path, module in modules.items():
        names = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif (path.is_relative_to(src)
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
                defined.append((path.relative_to(src).as_posix(), node.name, node.lineno))
        used |= names
        if not is_test(path):
            product |= names
    return used, product, defined


def test_every_function_has_a_caller():
    used, _, defined = names_and_definitions(parsed(TREES))
    assert defined
    dead = [f"src/fvvem/{rel}:{line} {name}" for rel, name, line in defined
            if name not in used and not is_hook(name) and (rel, name) not in ALLOWED]
    assert not dead, "functions that nothing names:\n" + "\n".join(dead)


def test_allowlist_names_real_functions():
    _, _, defined = names_and_definitions(parsed(TREES))
    assert ALLOWED | set(TEST_ONLY) <= {(rel, name) for rel, name, _ in defined}


def test_allowlist_names_no_function_with_a_caller():
    used, _, _ = names_and_definitions(parsed(TREES))
    stale = sorted(f"src/fvvem/{rel} {name}" for rel, name in ALLOWED if name in used)
    assert not stale, "allowed functions that something now names:\n" + "\n".join(stale)


def functions_only_tests_name(modules) -> list:
    """(module path under src/fvvem, name, line) of each function that only
    the tests name."""
    used, product, defined = names_and_definitions(modules)
    return [(rel, name, line) for rel, name, line in defined
            if name in used and name not in product and not is_hook(name)]


def test_every_function_is_reachable_from_the_product():
    unreached = [f"src/fvvem/{rel}:{line} {name}"
                 for rel, name, line in functions_only_tests_name(parsed(TREES))
                 if (rel, name) not in TEST_ONLY]
    assert not unreached, "functions that only the tests name:\n" + "\n".join(unreached)


def test_test_only_allowlist_names_no_function_with_a_product_caller():
    _, product, _ = names_and_definitions(parsed(TREES))
    stale = sorted(f"src/fvvem/{rel} {name}" for rel, name in TEST_ONLY if name in product)
    assert not stale, "test-only functions that the product now names:\n" + "\n".join(stale)


def test_reachability_rule():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "perfbench" / "tests" / "t.py"
    modules = {src: ast.parse("def used(): pass\n"
                              "def tested(): pass\n"
                              "def dead(): pass\n"
                              "used()\n"),
               tests: ast.parse("tested()\nused()\n")}
    assert [name for _, name, _ in functions_only_tests_name(modules)] == ["tested"]


def callee(call: ast.Call):
    """The name a call calls: `f(...)` and `x.f(...)` both call `f`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def call_settings(modules) -> dict:
    """Callee name -> what its calls set: positional indices, keyword names,
    "*" where a call passes `*args` and "**" where it passes `**kwargs`."""
    sets = {}
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and callee(node):
                got = sets.setdefault(callee(node), set())
                for i, arg in enumerate(node.args):
                    got.add("*" if isinstance(arg, ast.Starred) else i)
                got.update(kw.arg or "**" for kw in node.keywords)
    return sets


def defaulted_parameters(module: ast.Module):
    """(callee name, function name, line, parameter, positional index or
    None) of every parameter with a default.  A method's index leaves out
    its `self`, and its `__init__` is called by its class's name."""
    out = []
    methods = {id(f): cls for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    for func in ast.walk(module):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(func))
        static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        skip = 1 if cls is not None and not static else 0
        name = cls.name if cls is not None and func.name == "__init__" else func.name
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(name, func.name, func.lineno, arg.arg, i - skip)
                for i, arg in enumerate(positional) if i >= first]
        out += [(name, func.name, func.lineno, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def unset_parameters(source_modules, calling_modules) -> list:
    """(path, line, function, parameter) of each defaulted parameter that no
    call sets; source_modules maps a path to its parsed module."""
    sets = call_settings(calling_modules)
    unset = []
    for path, module in source_modules.items():
        for name, fname, line, param, index in defaulted_parameters(module):
            got = sets.get(name, set())
            if not ({param, "**"} & got or index is not None and {index, "*"} & got):
                unset.append((path, line, fname, param))
    return unset


@functools.cache
def parsed(trees) -> dict:
    """Path -> parsed module of every scanned file; parsed once per run."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for tree in trees for path in sorted((ROOT / tree).rglob("*.py"))
            if path != Path(__file__).resolve()}


def test_every_defaulted_parameter_is_set_by_a_call():
    calling = parsed(TREES)
    source = {path: module for path, module in calling.items()
              if path.is_relative_to(ROOT / "src" / "fvvem")}
    unset = [f"{path.relative_to(ROOT).as_posix()}:{line} {fname}({param})"
             for path, line, fname, param in unset_parameters(source, calling.values())
             if (path.relative_to(ROOT / "src" / "fvvem").as_posix(), fname) not in ALLOWED]
    assert not unset, "defaulted parameters that no call sets:\n" + "\n".join(unset)


def test_unset_parameter_rule():
    module = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "def g(a, b=1): pass\n"
        "def h(a=1, b=2): pass\n"
        "class C:\n"
        "    def __init__(self, a=1): pass\n"
        "    def m(self, a=1, b=2): pass\n"
        "f(0, 1)\n"
        "x.g(*args)\n"
        "h(**kw)\n"
        "C(5)\n"
        "obj.m(b=3)\n")
    unset = [(fname, param) for _, _, fname, param in unset_parameters({"m": module}, [module])]
    assert unset == [("f", "c"), ("m", "a")]


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


def stored_attributes(module: ast.Module) -> list:
    """(line, attribute) of each `x.attr = ...` target (augmented ones
    included) and each annotated class field of a module."""
    out = [(node.lineno, node.attr) for node in ast.walk(module)
           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    out += [(node.lineno, node.target.id) for cls in ast.walk(module)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return out


def read_names(modules) -> set:
    """Every loaded attribute, loaded name and string constant of the modules."""
    read = set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_attributes() -> list:
    """(module path under src/fvvem, line, attribute) of each stored
    attribute that nothing reads."""
    modules = parsed(TREES)
    read = read_names(modules.values())
    return [(path.relative_to(ROOT / "src" / "fvvem").as_posix(), line, attr)
            for path, module in modules.items()
            if path.is_relative_to(ROOT / "src" / "fvvem")
            for line, attr in stored_attributes(module) if attr not in read]


def test_every_stored_attribute_is_read():
    unread = [f"src/fvvem/{rel}:{line} {attr}" for rel, line, attr in unread_attributes()
              if (rel, attr) not in ALLOWED_ATTRIBUTES]
    assert not unread, "attributes that nothing reads:\n" + "\n".join(unread)


def test_attribute_allowlist_names_unread_attributes():
    unread = {(rel, attr) for rel, _, attr in unread_attributes()}
    assert ALLOWED_ATTRIBUTES <= unread, "allowed attributes that are read or not stored"


def test_stored_attribute_rule():
    module = ast.parse(
        "class C:\n"
        "    a: int = 0\n"
        "    b: int = 0\n"
        "    plain = 1\n"
        "    def f(self):\n"
        "        self.c = self.d = 1\n"
        "        self.e, obj.g = 1, 2\n"
        "        self.h += 1\n"
        "        c = self.b\n"
        "        return getattr(self, 'e')\n")
    read = read_names([module])
    assert sorted(attr for _, attr in stored_attributes(module) if attr not in read) == [
        "a", "c", "d", "g", "h"]
