"""Every function and method defined in src/fvvem is named somewhere, and
outside the tests unless `TEST_ONLY` says why not; every defaulted parameter
of one is set by some call, and by a product call unless `TEST_SET` says why
not; every attribute a src/fvvem module stores is read somewhere, and by the
product unless `TEST_READ` says why not; every class src/fvvem defines is
named by the product, except the cases its registry names (`CaseBase`
subclasses that define `name`); and every name a src/fvvem module imports is
used there.

A definition counts as used when its name appears in src/, tests/ or
perfbench/ (this module aside, whose allowlist names functions without
calling them) as a name, an attribute, an imported name or a string (a
`getattr` or a monkeypatch target).  A name that an import from outside
fvvem binds (`np`, `roots_legendre`), and every attribute of a chain rooted
at one (`np.linalg.pinv`), names nothing in src/fvvem.  A definition counts
as reachable when it is used outside tests/ and perfbench/tests, in the
product: src/ and the benchmark.  A call sets a defaulted parameter of
every function of its callee's name (a class call: of the class's
`__init__`) by keyword, by position or through `*`/`**`.  An attribute is
stored by an assignment to `x.attr`, as an annotated class field or as the
receiver of an `.append` or `.extend` call, and read as any other loaded
attribute, a loaded name or a string.  An imported name
counts as used when its module names it or lists it in `__all__`, or when a
row of the benchmark's `LAYERS` (perfbench/layers.py) rebinds it on that
module, whose spans then read it there; `from __future__` imports are
exempt.  The sources are read with the standard library's `ast`; no linter
is needed.
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
    ("mesh.py", "write_mesh"): "the inverse the tests round-trip read_mesh against",
}


# (module path under src/fvvem, function name, parameter) -> why only test
# calls set that defaulted parameter; an entry that a product call sets must
# leave the list
TEST_SET = {
    ("harness/runner.py", "run_case", "max_steps"): "the tests trigger the step-limit guard",
    ("harness/cli.py", "main", "argv"): "the tests pass the command line that the console "
                                        "script reads from sys.argv",
}


# (module path under src/fvvem, attribute) stored without a reader in the
# scanned trees; an entry that gains a reader must leave the list
ALLOWED_ATTRIBUTES = {
    # scipy reads it: the data refilled on a canonical CSR pattern stays canonical
    ("linalg.py", "has_canonical_format"),
}


# (module path under src/fvvem, attribute) -> why only the tests read it; an
# entry that the product reads must leave the list
TEST_READ = {
    ("mesh.py", "writeable"): "numpy reads it: the memoized quadrature rules are read-only",
    ("vem.py", "writeable"): "numpy reads it: the memoized derivative tables are read-only",
}


def is_hook(name: str) -> bool:
    """Dunders, which include the dataclass hook __post_init__."""
    return name.startswith("__") and name.endswith("__")


def is_test(path: Path) -> bool:
    return any(path.is_relative_to(ROOT / tree) for tree in TEST_TREES)


def imports(path: Path, module: ast.Module):
    """(bound name, imported name, whether fvvem's) of each name a module's
    imports bind: `np` of `import numpy as np` is numpy's, `fm` of `from
    fvvem import mesh as fm` fvvem's `mesh`.  A relative import is fvvem's
    in src/fvvem."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                yield a.asname or top, a.name.rsplit(".", 1)[-1], top == "fvvem"
        elif isinstance(node, ast.ImportFrom):
            ours = (path.is_relative_to(ROOT / "src" / "fvvem") if node.level
                    else node.module.split(".")[0] == "fvvem")
            for a in node.names:
                yield a.asname or a.name, a.name, ours


def chain_root(node: ast.Attribute):
    """The name an attribute chain starts from (`np` of `np.linalg.pinv`),
    or None where it starts from an expression."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def names_and_definitions(modules):
    """The names the modules (path -> parsed module) use, those that the
    product (every module outside the tests) uses, and the (module path
    under src/fvvem, name, line) of each function src/fvvem defines.  What
    an import from outside fvvem binds, and the attributes of a chain rooted
    at such a name, name nothing."""
    used, product, defined = set(), set(), []
    src = ROOT / "src" / "fvvem"
    for path, module in modules.items():
        bound = list(imports(path, module))
        foreign = {name for name, _, ours in bound if not ours}
        names = {name for _, name, ours in bound if ours}
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                if node.id not in foreign:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if chain_root(node) not in foreign:
                    names.add(node.attr)
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


def defines_name(cls: ast.ClassDef) -> bool:
    """Whether a class body assigns `name`."""
    return any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "name" for t in node.targets)
               or isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "name"
               for node in cls.body)


def unnamed_classes(modules) -> list:
    """(module path under src/fvvem, name, line) of each class src/fvvem
    defines that the product does not name, less the `CaseBase` subclasses
    (direct or not) that define `name`, which the case registry names."""
    _, product, _ = names_and_definitions(modules)
    src = ROOT / "src" / "fvvem"
    classes = [(path.relative_to(src).as_posix(), node) for path, module in modules.items()
               if path.is_relative_to(src)
               for node in ast.walk(module) if isinstance(node, ast.ClassDef)]
    bases = {node.name: [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
             for _, node in classes}

    def is_case(name):
        return name == "CaseBase" or any(is_case(b) for b in bases.get(name, ()))

    return [(rel, node.name, node.lineno) for rel, node in classes
            if node.name not in product and not (is_case(node.name) and defines_name(node))]


def test_every_class_is_named_by_the_product():
    unnamed = [f"src/fvvem/{rel}:{line} {name}"
               for rel, name, line in unnamed_classes(parsed(TREES))]
    assert not unnamed, "classes that nothing in src/ or perfbench/ names:\n" + "\n".join(unnamed)


def test_class_rule():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "tests" / "t.py"
    modules = {src: ast.parse("class CaseBase: pass\n"
                              "class Family(CaseBase): pass\n"
                              "class Registered(Family):\n"
                              "    name = 'registered'\n"
                              "class Nameless(Family): pass\n"
                              "class Raised(Exception): pass\n"
                              "class Tested(Exception): pass\n"
                              "class Dead(Exception): pass\n"
                              "def f():\n"
                              "    raise Raised\n"),
               tests: ast.parse("import pytest\n"
                                "pytest.raises(Tested)\n")}
    assert [name for _, name, _ in unnamed_classes(modules)] == ["Nameless", "Tested", "Dead"]


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


def test_a_foreign_name_names_nothing():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "tests" / "t.py"
    modules = {src: ast.parse("import numpy as np\n"
                              "import scipy.sparse\n"
                              "from scipy.special import erf\n"
                              "from .mesh import ragged_rows\n"
                              "def pinv(): pass\n"
                              "def sparse(): pass\n"
                              "def erf(): pass\n"
                              "def ragged_rows(): pass\n"
                              "def solve(): pass\n"
                              "def own(): pass\n"
                              "np.linalg.pinv(erf(0.0))\n"
                              "scipy.sparse.csr_matrix(np.asarray(0).solve)\n"),
               tests: ast.parse("import fvvem.m\n"
                                "from fvvem import m as fm\n"
                                "fvvem.m.own()\n")}
    used, _, _ = names_and_definitions(modules)
    assert {"pinv", "sparse", "erf", "linalg", "csr_matrix"}.isdisjoint(used)
    assert {"ragged_rows", "solve", "own", "m"} <= used


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


def parameters_only_tests_set(modules) -> list:
    """(module path under src/fvvem, line, function, parameter) of each
    defaulted parameter that test calls set and no product call does."""
    src = ROOT / "src" / "fvvem"
    source = {path: module for path, module in modules.items() if path.is_relative_to(src)}
    unset_by_all = set(unset_parameters(source, modules.values()))
    return [(path.relative_to(src).as_posix(), line, fname, param)
            for path, line, fname, param in unset_parameters(
                source, [m for path, m in modules.items() if not is_test(path)])
            if (path, line, fname, param) not in unset_by_all]


def test_every_defaulted_parameter_is_set_by_the_product():
    test_set = [f"src/fvvem/{rel}:{line} {fname}({param})"
                for rel, line, fname, param in parameters_only_tests_set(parsed(TREES))
                if (rel, fname, param) not in TEST_SET]
    assert not test_set, "defaulted parameters that only test calls set:\n" + "\n".join(test_set)


def test_test_set_allowlist_names_parameters_only_tests_set():
    found = {(rel, fname, param) for rel, _, fname, param in parameters_only_tests_set(
        parsed(TREES))}
    stale = sorted(f"src/fvvem/{rel} {fname}({param})" for rel, fname, param in TEST_SET
                   if (rel, fname, param) not in found)
    assert not stale, ("allowed parameters that a product call sets or that no longer "
                       "exist:\n" + "\n".join(stale))


def test_test_set_parameter_rule():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "tests" / "t.py"
    modules = {src: ast.parse("def f(a, b=1, c=2, d=3): pass\n"
                              "f(0, 1)\n"),
               tests: ast.parse("f(0, c=5)\n")}
    assert [(fname, param) for _, _, fname, param in parameters_only_tests_set(modules)] == [
        ("f", "c")]


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


def unused_imports(module: ast.Module, rebound=frozenset()) -> list:
    """(line, name) of each name the module imports and never uses; a name
    in `rebound`, which the benchmark rebinds on the module, is used."""
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
    return [(line, name) for line, name in imported if name not in used | rebound]


def rebound_names(layers: ast.Module) -> dict:
    """Owner (a dotted chain such as `fvvem.harness.cases`) -> the names
    that the rows (span, owner, attribute) of a benchmark's `LAYERS` rebind
    on it."""
    out = {}
    for node in ast.walk(layers):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            for row in node.value.elts:
                _, owner, attr = row.elts
                out.setdefault(ast.unparse(owner), set()).add(attr.value)
    return out


def test_every_import_is_used():
    rebound = rebound_names(parsed(TREES)[ROOT / "perfbench" / "layers.py"])
    unused = []
    for path in sorted((ROOT / "src" / "fvvem").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        owner = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        unused += [f"{rel}:{line} {name}"
                   for line, name in unused_imports(module, rebound.get(owner, set()))]
    assert not unused, "imported names that nothing uses:\n" + "\n".join(unused)


def test_a_name_the_benchmark_rebinds_is_used():
    layers = ast.parse("import fvvem.m\n"
                       "LAYERS = (\n"
                       "    ('mesh.spanned', fvvem.m, 'spanned'),\n"
                       "    ('fv.setup', fvvem.m.C, '__init__'),\n"
                       ")\n"
                       "OTHER = (('x.y', fvvem.m, 'unused'),)\n")
    rebound = rebound_names(layers)
    assert rebound == {"fvvem.m": {"spanned"}, "fvvem.m.C": {"__init__"}}
    module = ast.parse("from .mesh import called, spanned, unused\n"
                       "called()\n")
    assert [name for _, name in unused_imports(module)] == ["spanned", "unused"]
    assert [name for _, name in unused_imports(module, rebound["fvvem.m"])] == ["unused"]


def appended_to(module: ast.Module) -> set:
    """The ids of the nodes that are the receiver `x` of an `x.append(...)`
    or `x.extend(...)` call: such a load stores into x, it does not read it."""
    return {id(node.func.value) for node in ast.walk(module)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend")}


def stored_attributes(module: ast.Module) -> list:
    """(line, attribute) of each `x.attr = ...` target (augmented ones
    included), each `x.attr` receiver of `.append` or `.extend` and each
    annotated class field of a module."""
    receivers = appended_to(module)
    out = [(node.lineno, node.attr) for node in ast.walk(module)
           if isinstance(node, ast.Attribute)
           and (isinstance(node.ctx, ast.Store) or id(node) in receivers)]
    out += [(node.lineno, node.target.id) for cls in ast.walk(module)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return out


def read_names(modules) -> set:
    """Every loaded attribute, loaded name and string constant of the
    modules, less the receivers of `.append` and `.extend`."""
    read = set()
    for module in modules:
        receivers = appended_to(module)
        for node in ast.walk(module):
            if id(node) in receivers:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def attribute_readers(modules) -> list:
    """(module path under src/fvvem, line, attribute, reader) of each stored
    attribute of the modules (path -> parsed module): reader is "product"
    where the product reads it, "tests" where only the tests do and None
    where nothing does."""
    src = ROOT / "src" / "fvvem"
    product = read_names(m for path, m in modules.items() if not is_test(path))
    tests = read_names(m for path, m in modules.items() if is_test(path))
    return [(path.relative_to(src).as_posix(), line, attr,
             "product" if attr in product else "tests" if attr in tests else None)
            for path, module in modules.items() if path.is_relative_to(src)
            for line, attr in stored_attributes(module)]


def unread_attributes() -> list:
    """(module path under src/fvvem, line, attribute) of each stored
    attribute that nothing reads."""
    return [(rel, line, attr) for rel, line, attr, reader in attribute_readers(parsed(TREES))
            if reader is None]


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


def test_every_stored_attribute_is_read_by_the_product():
    test_read = [f"src/fvvem/{rel}:{line} {attr}"
                 for rel, line, attr, reader in attribute_readers(parsed(TREES))
                 if reader == "tests" and (rel, attr) not in TEST_READ]
    assert not test_read, "attributes that only the tests read:\n" + "\n".join(test_read)


def test_test_read_allowlist_names_attributes_only_tests_read():
    found = {(rel, attr) for rel, _, attr, reader in attribute_readers(parsed(TREES))
             if reader == "tests"}
    stale = sorted(f"src/fvvem/{rel} {attr}" for rel, attr in TEST_READ
                   if (rel, attr) not in found)
    assert not stale, ("allowed attributes that the product reads or that no module "
                       "stores:\n" + "\n".join(stale))


def test_test_read_attribute_rule():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "perfbench" / "tests" / "t.py"
    modules = {src: ast.parse("class C:\n"
                              "    a: int = 0\n"
                              "    b: int = 0\n"
                              "    def f(self):\n"
                              "        self.c = self.d = 1\n"
                              "        return self.a\n"),
               tests: ast.parse("x = obj.b + obj.c + obj.a\n")}
    readers = {attr: reader for _, _, attr, reader in attribute_readers(modules)}
    assert readers == {"a": "product", "b": "tests", "c": "tests", "d": None}


def test_an_appended_attribute_is_stored_not_read():
    src, tests = ROOT / "src" / "fvvem" / "m.py", ROOT / "tests" / "t.py"
    modules = {src: ast.parse("class C:\n"
                              "    def f(self):\n"
                              "        self.log = []\n"
                              "        self.log.append(1)\n"
                              "        self.seen = []\n"
                              "        self.seen.extend([1])\n"
                              "        self.used = []\n"
                              "        self.used.append(len(self.used))\n"
                              "        self.grown = obj.append\n"),
               tests: ast.parse("x = obj.seen\n")}
    assert sorted(stored_attributes(modules[src])) == [
        (3, "log"), (4, "log"), (5, "seen"), (6, "seen"), (7, "used"), (8, "used"),
        (9, "grown")]
    readers = {attr: reader for _, _, attr, reader in attribute_readers(modules)}
    assert readers == {"log": None, "seen": "tests", "used": "product", "grown": None}
