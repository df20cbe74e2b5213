"""Unused imports, unused private names, unread public names and unread locals
in the package, calls of the stdlib's JSON writer, the names the benchmark
tracer rebinds, refusals that no test names or that two places raise, reads of
the factor runs outside ``corr``, reads of a correspondence's ends outside
``tensor_unitaries``, reads of a module's private names outside that module,
identity unitaries built as tensor factors, a shift's bases built outside
its one builder, and integer arithmetic in ``corr`` outside the derivation of
a correspondence's dims.

No linter is installed, so ``ast`` stands in.
"""

import ast
import importlib
import pathlib
from collections import Counter

import pytest

import shiftcalc

MODULES = sorted(
    path for path in pathlib.Path(shiftcalc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again; ``__future__`` imports
    are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == ["dumps", "os"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stdlib_json_writes(source: str) -> list[int]:
    """Lines that call ``json.dump`` or ``json.dumps`` (under any name the module
    gives ``json``), or import either from ``json``."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if node.func.attr in ("dump", "dumps") and isinstance(target, ast.Name) and target.id in modules:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if {alias.name for alias in node.names} & {"dump", "dumps"}:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_stdlib_json_writer():
    source = "import json\njson.loads('1')\njson.dumps(1)\nfrom json import dump as d\nd(1, f)\njson.dump(1, f)\n"
    assert stdlib_json_writes(source) == [3, 4, 6]
    assert stdlib_json_writes("import json as _j\n_j.dumps(1)\n") == [2]
    assert stdlib_json_writes("from json.encoder import encode_basestring_ascii\nx.dumps(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_dump_json_is_the_one_writer(path):
    assert stdlib_json_writes(path.read_text(encoding="utf-8")) == []


def attribute_reads(source: str, name: str) -> list[int]:
    """Lines that read an attribute called ``name``, of whatever object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
    )


def test_the_check_sees_an_attribute_read():
    source = "n = len(c.factors)\nc.factors = ()\nfactors = 2\nx.y.factors.count(1)\nc.factors_of(2)\n"
    assert attribute_reads(source, "factors") == [1, 4]


NOT_CORR = sorted(path for path in pathlib.Path(shiftcalc.__file__).parent.glob("*.py") if path.name != "corr.py")


@pytest.mark.parametrize("path", NOT_CORR, ids=[path.name for path in NOT_CORR])
def test_only_corr_reads_the_factor_runs(path):
    # How a correspondence stores its factor sequence is corr's own business.
    assert attribute_reads(path.read_text(encoding="utf-8"), "factors") == []


def ends_reads(source: str) -> dict[str, list[int]]:
    """The lines that read an attribute called ``ends`` other than to call it (a method of that
    name, such as a path's ``ends()``, is another thing), keyed by the innermost function they are
    in ("" at module level)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "ends" and isinstance(node.ctx, ast.Load):
            if id(node) not in called:
                found.setdefault(owner, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return {owner: sorted(lines) for owner, lines in found.items()}


def test_the_check_sees_an_ends_read_outside_tensor_unitaries():
    source = (
        "def tensor(x, y):\n"
        "    ends = tuple(np.concatenate([y.ends[u] for u in row]) for row in x.ends)\n"
        "    return GraphCorrespondence(x.left_index, y.right_index, ends)\n"
        "class UnitaryPath:\n"
        "    def ends(self):\n"
        "        return [(self.source, self.target)]\n"
        "    def check(self):\n"
        "        for source, target in self.path.ends():\n"
        "            def first(c):\n"
        "                return c.ends[0]\n"
        "        return len(self.x.ends)\n"
        "c.ends = ()\n"
        "FIRST = c.ends\n"
    )
    assert ends_reads(source) == {"tensor": [2, 2], "first": [10], "check": [11], "": [13]}


def test_only_tensor_unitaries_reads_a_correspondences_ends():
    # A correspondence derives its per-edge ends from its factor runs when they are first read, so
    # no constructor allocates per edge; tensor_unitaries is their one reader, and the derivation,
    # the ends property itself, reads the runs.
    readers = {path.stem: set(ends_reads(path.read_text(encoding="utf-8"))) for path in PACKAGE}
    assert {module: names for module, names in readers.items() if names} == {"corr": {"tensor_unitaries"}}


ARITHMETIC = ("mat_mul", "mat_pow", "power_equals")


def arithmetic_owners(source: str) -> dict[str, list[int]]:
    """The lines that name one of ``ARITHMETIC`` other than in an import, keyed by the dotted name of
    the classes and functions they are in ("" at module level)."""
    found = {}

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        elif isinstance(node, ast.ImportFrom):
            return
        elif isinstance(node, ast.Name) and node.id in ARITHMETIC or isinstance(node, ast.Attribute) and node.attr in ARITHMETIC:
            found.setdefault(owner, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return {owner: sorted(lines) for owner, lines in found.items()}


def arithmetic_uses(source: str) -> list[int]:
    """Lines that import one of ``exact``'s ``ARITHMETIC`` functions, or name one, bare or as
    an attribute of whatever object."""
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "exact"
        for alias in node.names
        if alias.name in ARITHMETIC
    ]
    return sorted(lines + [line for found in arithmetic_owners(source).values() for line in found])


def test_the_check_sees_a_reader_that_checks_a_power():
    source = (
        "from .exact import from_rows, power_equals\n"
        "def reader(doc):\n"
        "    a = from_rows(doc['a'])\n"
        "    return power_equals(a, doc['lag'], a)\n"
        "from . import exact as e\n"
        "e.mat_mul(a, a)\n"
        "from shiftcalc.exact import mat_pow as p\n"
        "mat_powers = e.identity(2)\n"
    )
    assert arithmetic_uses(source) == [1, 4, 6, 7]


def test_jsonio_does_no_arithmetic():
    # The readers check the schema: aligned.assemble_shift decides whether a lag fits the bundle.
    source = (pathlib.Path(shiftcalc.__file__).parent / "jsonio.py").read_text(encoding="utf-8")
    assert arithmetic_uses(source) == []


def test_the_check_sees_arithmetic_outside_the_dims_property():
    source = (
        "from .exact import IntMatrix, mat_mul\n"
        "class GraphCorrespondence:\n"
        "    def dims(self):\n"
        "        return reduce(mat_mul, self.runs)\n"
        "def tensor(x, y):\n"
        "    return GraphCorrespondence(x.left_index, y.right_index, exact.mat_mul(x.dims, y.dims))\n"
        "class OneArrow:\n"
        "    def __post_init__(self):\n"
        "        check = lambda a, m, p: power_equals(a, m, p)\n"
        "UNIT = mat_pow(IntMatrix(), 0)\n"
    )
    assert arithmetic_owners(source) == {
        "GraphCorrespondence.dims": [4], "tensor": [6], "OneArrow.__post_init__": [9], "": [10],
    }


def test_only_the_dims_property_does_arithmetic_in_corr():
    # A correspondence is its labels and factor runs: tensor products and every endpoint check compare
    # records, and the block dimensions are multiplied out only when first read.
    source = (pathlib.Path(shiftcalc.__file__).parent / "corr.py").read_text(encoding="utf-8")
    assert set(arithmetic_owners(source)) == {"GraphCorrespondence.dims"}


PACKAGE = sorted(pathlib.Path(shiftcalc.__file__).parent.glob("*.py"))


def private_reads(source: str, own: str, modules: set[str]) -> list[int]:
    """Lines that read a private name of a package module other than ``own``: an attribute of
    such a module (under any name the source gives it, or reached as ``package.module``), or an
    import from it.  ``modules`` holds the package's module names."""
    others = modules - {own}
    tree = ast.parse(source)
    names = set()
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in others:
            lines += [node.lineno for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names if alias.name.rpartition(".")[2] in others}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in names or isinstance(owner, ast.Attribute) and owner.attr in others:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_private_jsonio_read():
    source = (
        "from . import jsonio\n"
        "jsonio.dump_json(x, f)\n"
        "leaf = jsonio._complex_matrix_array\n"
        "from .jsonio import SCHEMA, _require\n"
        "import shiftcalc.jsonio as j\n"
        "j._float_block(rows)\n"
        "import shiftcalc.jsonio\n"
        "shiftcalc.jsonio._join([], 0)\n"
        "other._private(1)\n"
        "jsonio.__name__\n"
        "from .exact import _crt, mat_mul\n"
        "from . import exact as e\n"
        "e._moduli(3, 10)\n"
        "from .corr import _join\n"
    )
    modules = {"corr", "exact", "jsonio"}
    assert private_reads(source, "cli", modules) == [3, 4, 6, 8, 11, 13, 14]
    # A module's own private names are its own business.
    assert private_reads(source, "jsonio", modules) == [11, 13, 14]
    assert private_reads(source, "exact", modules) == [3, 4, 6, 8, 14]


@pytest.mark.parametrize("path", PACKAGE, ids=[path.name for path in PACKAGE])
def test_only_jsonio_reads_its_private_names(path):
    # Each module's private names are its own business, jsonio's among them: callers pass _arrays.
    modules = {other.stem for other in PACKAGE}
    assert private_reads(path.read_text(encoding="utf-8"), path.stem, modules) == []


def _calls(node, name: str) -> bool:
    """Whether ``node`` calls ``name``, bare or as an attribute of whatever object."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Name) and func.id == name or isinstance(func, ast.Attribute) and func.attr == name


def identity_factors(source: str) -> list[int]:
    """Lines of a ``tensor_unitaries`` call that passes an ``identity_unitary`` call as an
    argument, directly or through a name that the source binds to one."""
    tree = ast.parse(source)
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _calls(node.value, "identity_unitary")
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _calls(node, "tensor_unitaries")
        and any(
            _calls(arg, "identity_unitary") or isinstance(arg, ast.Name) and arg.id in bound
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        )
    )


def test_the_check_sees_an_identity_built_as_a_tensor_factor():
    source = (
        "step = tensor_unitaries(g.phi, identity_unitary(f.f))\n"
        "ident = identity_unitary(x)\n"
        "lhs = corr.tensor_unitaries(ident, psi)\n"
        "placed = tensor_unitaries(psi, x)\n"
        "h0 = identity_unitary(power.f)\n"
        "w = tensor_unitaries(u2=corr.identity_unitary(y), u1=u)\n"
        "v = tensor_unitaries(u, compose_unitaries(identity_unitary(x), u))\n"
    )
    assert identity_factors(source) == [1, 3, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=[path.name for path in PACKAGE])
def test_an_identity_factor_is_passed_as_its_correspondence(path):
    # tensor_unitaries places the other factor's blocks for a correspondence F, standing for
    # 1_F; identity_unitary(F) there would be built and multiplied by np.kron.
    assert identity_factors(path.read_text(encoding="utf-8")) == []


BASIS_BUILDERS = ("object_pair", "from_matrix")


def basis_builders(source: str) -> dict[str, list[int]]:
    """The lines that call one of ``BASIS_BUILDERS``, bare or as an attribute of whatever object,
    keyed by the module-level function or class they are in ("" for module level)."""
    found = {}
    for top in ast.parse(source).body:
        lines = [node.lineno for node in ast.walk(top) if any(_calls(node, name) for name in BASIS_BUILDERS)]
        if lines:
            found.setdefault(getattr(top, "name", ""), []).extend(sorted(lines))
    return found


def test_the_check_sees_a_basis_built_outside_its_builder():
    source = (
        "from .corr import from_matrix, object_pair\n"
        "def assemble_shift(w, make):\n"
        "    x = object_pair(w.a)\n"
        "    return from_matrix(w.r)\n"
        "def reader(doc):\n"
        "    build = lambda m: corr.from_matrix(m)\n"
        "    return object_pair(doc)\n"
        "ONE = from_matrix(identity(1))\n"
        "def other(x):\n"
        "    return object_pairs(x), from_matrix\n"
    )
    assert basis_builders(source) == {"assemble_shift": [3, 4], "reader": [6, 7], "": [8]}


def test_the_check_sees_an_arrow_read_that_builds_its_bases():
    source = (
        "def arrow_from_json(doc):\n"
        "    source = object_pair(*_object_fields(doc['source']))\n"
        "    target = object_pair(*_object_fields(doc['target']))\n"
        "    f = from_matrix(matrix_from_json(doc['f_dims']), target.algebra_index, source.algebra_index)\n"
        "    return arrow_with(source, target, f)\n"
        "def shift_from_json(doc):\n"
        "    return assemble_shift(witness(doc), make(doc))\n"
    )
    assert basis_builders(source) == {"arrow_from_json": [2, 3, 4]}


def test_the_check_sees_a_selftest_arrow_built_by_hand():
    source = (
        "def arrow_from_witness(w, np_rng=None):\n"
        "    src, tgt = object_pair(w.a), object_pair(w.b)\n"
        "    return arrow_with(src, tgt, from_matrix(w.s, tgt.algebra_index, src.algebra_index))\n"
        "def tensor_dims_oracle(size, tol):\n"
        "    return tensor(from_matrix(r), from_matrix(s))\n"
    )
    assert basis_builders(source) == {"arrow_from_witness": [2, 2, 3], "tensor_dims_oracle": [5, 5]}


def test_one_builder_makes_a_shifts_bases():
    # An arrow's object pairs and edge correspondence are built by aligned.assemble_arrow alone, and a
    # shift's by aligned.assemble_shift alone, each object once: one builder per record.  The shift and
    # arrow readers and the self-test's arrows supply only records.  The self-test's tensor oracle
    # builds the edge correspondences of rectangular factors, which no arrow describes.
    package = pathlib.Path(shiftcalc.__file__).parent
    builders = {name: set(basis_builders((package / f"{name}.py").read_text(encoding="utf-8"))) for name in
                ("aligned", "jsonio", "selftest")}
    assert builders == {
        "aligned": {"assemble_arrow", "assemble_shift"}, "jsonio": set(), "selftest": {"tensor_dims_oracle"},
    }


def definitions(source: str) -> set[str]:
    """Names of the module-level functions, classes and constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def private_definitions(source: str) -> set[str]:
    """Definitions whose names start with one underscore (dunders such as
    ``__all__`` are protocol, not private)."""
    return {name for name in definitions(source) if name.startswith("_") and not name.startswith("__")}


def used_names(source: str) -> set[str]:
    """Names a module reads, as a variable, an attribute or an import."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private definition no module reads."""
    used = set().union(*map(used_names, sources.values()))
    return sorted(
        f"{module}.{name}" for module, source in sources.items() for name in private_definitions(source) - used
    )


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": "_LIMIT = 3\n_TABLE: dict = {}\n__all__ = []\ndef _helper():\n    return _LIMIT\nclass _Box:\n    pass\n",
        "b": "from a import _TABLE\n_TABLE[1] = 2\n",
    }
    assert unused_private_names(sources) == ["a._Box", "a._helper"]


def test_every_private_name_is_used():
    package = pathlib.Path(shiftcalc.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 0
    assert unused_private_names(sources) == []


def traced_names() -> list[str]:
    """Every ``module.function`` in the benchmark tracer's ``LAYERS`` table,
    read from its source: the tracer rebinds each one by ``getattr``."""
    source = (pathlib.Path(__file__).parent.parent / "bench" / "spans.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            layers = ast.literal_eval(node.value)
            return [f"{module}.{fn}" for module, fns in layers.items() for fn in fns]
    raise AssertionError("bench/spans.py defines no LAYERS table")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"shiftcalc.{module}"), fn, None))


def public_definitions(source: str) -> set[str]:
    """Definitions whose names do not start with an underscore."""
    return {name for name in definitions(source) if not name.startswith("_")}


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each public definition of ``package`` that no source in
    ``readers`` reads; the package's own modules are among the readers."""
    used = set().union(*map(used_names, readers))
    return sorted(
        f"{module}.{name}" for module, source in package.items() for name in public_definitions(source) - used
    )


def test_the_check_sees_an_unread_public_name():
    package = {"a": "LIMIT = 3\ndef helper():\n    return LIMIT\nclass Box:\n    pass\ndef orphan():\n    pass\n"}
    assert unread_public_names(package, [*package.values(), "from a import helper\nhelper()\n"]) == [
        "a.Box", "a.orphan",
    ]


def test_every_public_name_is_read():
    root = pathlib.Path(__file__).parent.parent
    package = {path.stem: path.read_text(encoding="utf-8") for path in (root / "src" / "shiftcalc").glob("*.py")}
    # Re-exporting a name from the package's __init__ is not reading it.
    readers = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "demos", "bench", "tests")
        for path in sorted((root / folder).rglob("*.py"))
        if path != root / "src" / "shiftcalc" / "__init__.py"
    ]
    assert sum(len(public_definitions(source)) for source in package.values()) > 0
    assert unread_public_names(package, readers) == []


#: Modules that refuse inputs, in name order; each must yield a message, so none drops out of the check unnoticed.
REFUSING = ("aligned", "corr", "exact", "homotopy", "invariants", "jsonio", "witnesses")


def refusals(source: str, everywhere: bool = False) -> list[str]:
    """The message of each ``raise`` in a class's ``__init__`` or ``__post_init__``,
    or with ``everywhere`` in the whole module, in source order: a string literal
    as written, an f-string by its longest constant part."""
    tree = ast.parse(source)
    scopes = [tree] if everywhere else [
        method
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name in ("__init__", "__post_init__")
    ]
    messages = []
    for scope in scopes:
        for node in sorted(ast.walk(scope), key=lambda node: getattr(node, "lineno", 0)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                if isinstance(message, ast.JoinedStr):
                    parts = [v.value for v in message.values if isinstance(v, ast.Constant)]
                    messages.append(max(parts, key=len, default=""))
                elif isinstance(message, ast.Constant) and isinstance(message.value, str):
                    messages.append(message.value)
    return messages


def unpinned_refusals(messages: dict[str, list[str]], tests: list[str]) -> list[str]:
    """``module: message`` for each refusal message that no test source spells out."""
    return sorted(
        f"{module}: {message}"
        for module, found in messages.items()
        for message in found
        if not any(message in test for test in tests)
    )


def test_the_check_sees_an_unpinned_refusal():
    source = (
        "class Box:\n"
        "    def __post_init__(self):\n"
        "        if self.n < 0:\n"
        "            raise ValueError('n must be nonnegative')\n"
        "        raise KeyError(f'missing key {self.k} in {self.name}')\n"
        "class Pair:\n"
        "    def __init__(self, x):\n"
        "        raise TypeError('x must be a pair')\n"
        "    def swap(self):\n"
        "        raise ValueError('not a constructor')\n"
        "def build():\n"
        "    raise ValueError('not a class')\n"
    )
    assert refusals(source) == ["n must be nonnegative", "missing key ", "x must be a pair"]
    assert refusals(source, everywhere=True) == [
        "n must be nonnegative", "missing key ", "x must be a pair", "not a constructor", "not a class",
    ]
    tests = ["with pytest.raises(ValueError, match='^n must be nonnegative$'):\n", "match='missing key 3'"]
    assert unpinned_refusals({"a": refusals(source)}, tests) == ["a: x must be a pair"]


def package_refusals() -> dict[str, list[str]]:
    """The refusal messages of each package module, constructors' and operations' alike."""
    return {path.stem: refusals(path.read_text(encoding="utf-8"), everywhere=True) for path in PACKAGE}


def test_every_constructor_refusal_is_pinned():
    """Every refusal of the package, constructors' and operations' alike."""
    messages = package_refusals()
    # This module's own self-test does not count as pinning a message.
    tests = [path.read_text(encoding="utf-8") for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))
             if path.name != "test_imports.py"]
    assert [module for module, found in messages.items() if found] == list(REFUSING)
    assert unpinned_refusals(messages, tests) == []


def repeated_refusals(messages: dict[str, list[str]]) -> dict[str, int]:
    """Each refusal message raised more than once across ``messages``' modules, with its count."""
    counts = Counter(message for found in messages.values() for message in found)
    return {message: count for message, count in counts.items() if count > 1}


#: The refusals raised in two places, each with its reason.
TWICE = {
    # from_matrix refuses a row numpy cannot index; the first read of ends turns the allocator's
    # MemoryError on a row that fits into the same refusal.
    "correspondence block dimensions are too large to hold a basis": 2,
    # connect_unitaries refuses endpoints of two shapes; homotopy_to_identity refuses a phi that does not
    # start at X (x) X^(x)m, comparing records, before it builds the arrow [X^(x)m, 1] to hand on.
    "endpoints must share source and target correspondences": 2,
    # SEWitness refuses a record's lag, and search_se a lag it is asked to search.
    "lag must be a positive integer": 2,
}


def test_the_check_sees_a_refusal_raised_twice():
    messages = {
        "a": refusals("def f(x):\n    raise ValueError('x must be positive')\nraise KeyError(f'no key {k}')\n", True),
        "b": refusals("class B:\n    def __init__(self):\n        raise ValueError('x must be positive')\n", True),
        "c": refusals("raise TypeError(f'no key {k}')\nraise TypeError('x must be positive.')\n", True),
    }
    assert repeated_refusals(messages) == {"x must be positive": 2, "no key ": 2}


def test_each_refusal_is_raised_once():
    # One copy of each check: a rule refused in two places can drift apart in one of them.
    assert repeated_refusals(package_refusals()) == TWICE


def unread_locals(source: str) -> list[str]:
    """``function.name`` for each local a function assigns and never reads, counting
    reads in the functions nested in it; ``_`` is a placeholder, not a local."""
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = set(), set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name):
                (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found |= {f"{function.name}.{name}" for name in stored - read - {"_"}}
    return sorted(found)


def test_the_check_sees_an_unread_local():
    source = (
        "def f(a):\n"
        "    x = a.x\n"
        "    y, _ = a\n"
        "    for k, v in a:\n"
        "        print(v)\n"
        "    total = 0\n"
        "    total += 1\n"
        "    def g():\n"
        "        return y\n"
        "    return g\n"
        "def h():\n"
        "    global seen\n"
        "    seen = 1\n"
        "    with open('p') as fh:\n"
        "        pass\n"
    )
    assert unread_locals(source) == ["f.k", "f.total", "f.x", "h.fh"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_local_is_read(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []
