"""Rules that the package's source keeps, read with ``ast`` because no linter is installed.

The ownership rules are the rows of ``OWNERS``: in each module that a row reads, only the owners it
lists use its names, and one walker, ``uses``, finds each use.  The other rules have other shapes:
unused imports and unread locals, unused private and unread public names, calls of the stdlib's JSON
writer, the names the benchmark tracer rebinds, and refusals that no test names or that two places raise.
"""

import ast
import functools
import importlib
import pathlib
from collections import Counter
from typing import NamedTuple

import pytest

import shiftcalc

PACKAGE = sorted(pathlib.Path(shiftcalc.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]

#: Each package module's tree, parsed once for all the rules that read it; no rule changes a tree.
parse = functools.lru_cache(maxsize=len(PACKAGE))(ast.parse)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again; ``__future__`` imports
    are directives, not names."""
    tree = parse(source)
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
    tree = parse(source)
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


def _module(node: ast.ImportFrom) -> str:
    """The last part of the name of the module an import reads from."""
    return (node.module or "").rpartition(".")[2]


def _named(node, names: set[str]) -> bool:
    """Whether ``node`` is one of ``names``, bare or as an attribute of whatever object."""
    return isinstance(node, ast.Name) and node.id in names or isinstance(node, ast.Attribute) and node.attr in names


def _calls(node, names: set[str]) -> bool:
    """Whether ``node`` calls one of ``names``, bare or as an attribute of whatever object."""
    return isinstance(node, ast.Call) and _named(node.func, names)


def _read(tree, names, own):
    """An attribute read other than to call it: a method of that name, such as a path's ``ends()``, is
    another thing."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return lambda node: (
        isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    )


def _exact(tree, names, own):
    """A name, or an import of it from ``exact``."""
    return lambda node: _named(node, names) or (
        isinstance(node, ast.ImportFrom) and _module(node) == "exact" and sum(a.name in names for a in node.names)
    )


def _factor(tree, names, own):
    """A ``tensor_unitaries`` call with an argument that calls one of the names, directly or through a name
    that the source binds to such a call."""
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _calls(node.value, names)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return lambda node: _calls(node, {"tensor_unitaries"}) and any(
        _calls(arg, names) or isinstance(arg, ast.Name) and arg.id in bound
        for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
    )


def _private(tree, names, own):
    """A private name of one of the modules ``names`` other than ``own``: an import of it, or an attribute
    of such a module under any name the source gives it or reached as ``package.module``."""
    others = names - {own}
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and _module(node) not in others
        for alias in node.names
        if alias.name.rpartition(".")[2] in others
    }

    def count(node):
        if isinstance(node, ast.ImportFrom) and _module(node) in others:
            return sum(alias.name.startswith("_") for alias in node.names)
        return (
            isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
            and (isinstance(node.value, ast.Name) and node.value.id in aliases
                 or isinstance(node.value, ast.Attribute) and node.value.attr in others)
        )

    return count


#: The kinds of use that ``uses`` sees.  Each maps the parsed module, the names and the module's own name
#: to a function that counts the uses in one node.
KINDS = {
    "read": _read,
    "name": lambda tree, names, own: lambda node: _named(node, names),  # other than in an import
    "exact": _exact,
    "call": lambda tree, names, own: lambda node: _calls(node, names),
    "factor": _factor,
    "private": _private,
}


def uses(source: str, names, kind: str, own: str = "") -> dict[str, list[int]]:
    """The lines of each use of ``names`` of the given kind in ``source``, the module ``own``, keyed by the
    dotted path of the classes and functions they are in ("" at module level)."""
    tree = parse(source)
    count = KINDS[kind](tree, set(names), own)
    found = {}

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        hits = count(node)
        if hits:
            found.setdefault(owner, []).extend([node.lineno] * hits)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return {owner: sorted(lines) for owner, lines in found.items()}


class Rule(NamedTuple):
    """In each of ``modules``, only ``owners`` use ``names`` in the way ``kind`` says."""

    id: str
    modules: tuple[str, ...]
    names: tuple[str, ...]
    kind: str
    owners: dict[str, set[str]]  # every owner of each module; a module not named here has none


EVERY = tuple(path.stem for path in PACKAGE)
ARITHMETIC = ("mat_mul", "mat_pow", "power_equals")

#: The ownership rules, each with its reason.
OWNERS = (
    # How a correspondence stores its factor sequence is corr's own business.
    Rule("factors", tuple(name for name in EVERY if name != "corr"), ("factors",), "read", {}),
    # A correspondence derives its per-edge ends from its factor runs when they are first read, so no
    # constructor allocates per edge; tensor_unitaries is their one reader, and the derivation, the ends
    # property itself, reads the runs.
    Rule("ends", EVERY, ("ends",), "read", {"corr": {"tensor_unitaries"}}),
    # A correspondence is its labels and factor runs: tensor products and every endpoint check compare
    # records, and the block dimensions are multiplied out only when first read.  _dims, which the dims
    # property calls, multiplies them out, memoised by the runs' matrices and counts, so that a composite
    # formed again takes no product.
    Rule("corr-arithmetic", ("corr",), ARITHMETIC, "name", {"corr": {"_dims"}}),
    # The readers check the schema: aligned.assemble_shift decides whether a lag fits the bundle.
    Rule("jsonio-arithmetic", ("jsonio",), ARITHMETIC, "exact", {}),
    # Each module's private names are its own business, jsonio's among them: callers pass _arrays.
    Rule("private", EVERY, EVERY, "private", {}),
    # tensor_unitaries places the other factor's blocks for a correspondence F, standing for 1_F;
    # identity_unitary(F) there would be built and multiplied by np.kron.
    Rule("identity-factors", EVERY, ("identity_unitary",), "factor", {}),
    # An arrow's object pairs and edge correspondence are built by aligned.assemble_arrow alone, and a
    # shift's by aligned.assemble_shift alone, each object once: one builder per record.  The shift and
    # arrow readers and the self-test's arrows supply only records.  The self-test's tensor oracle builds
    # the edge correspondences of rectangular factors, which no arrow describes.
    Rule("bases", ("aligned", "jsonio", "selftest"), ("object_pair", "from_matrix"), "call",
         {"aligned": {"assemble_arrow", "assemble_shift"}, "selftest": {"tensor_dims_oracle"}}),
    # The residuals that verdicts print come from unitarity_defect and unitary_distance, and the logs of
    # homotopies from _schur_eig.  Printed residuals are bit-stable across BLAS thread counts only on the
    # eigvalsh path (unitary_distance's docstring); closed-form residuals would edit this row.
    Rule("eigensolvers", EVERY, ("eigvalsh", "eigh", "eig", "svd", "schur"), "call",
         {"corr": {"unitarity_defect", "unitary_distance"}, "homotopy": {"_schur_eig"}}),
)


@pytest.mark.parametrize(
    ("rule", "module"),
    [(rule, module) for rule in OWNERS for module in rule.modules],
    ids=[f"{rule.id}-{module}.py" for rule in OWNERS for module in rule.modules],
)
def test_only_the_owners_use_the_names(rule, module):
    found = uses(PACKAGE[0].with_name(f"{module}.py").read_text(encoding="utf-8"), rule.names, rule.kind, module)
    assert set(found) == rule.owners.get(module, set()), found


def test_each_row_reads_modules_that_exist():
    # A renamed module must fail the table, not pass it unscanned.
    for rule in OWNERS:
        assert rule.modules and set(rule.modules) <= set(EVERY), rule.id
        assert set(rule.owners) <= set(rule.modules), rule.id


class Case(NamedTuple):
    source: str
    names: tuple[str, ...]
    kind: str
    expected: dict[str, list[int]]
    own: str = ""


PRIVATE_SOURCE = (
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
BASES = ("object_pair", "from_matrix")

#: What ``uses`` finds in hand-written sources, by case: at least one case of each kind.
CASES = {
    "an-attribute-read": Case(
        "n = len(c.factors)\nc.factors = ()\nfactors = 2\nx.y.factors.count(1)\nc.factors_of(2)\n",
        ("factors",), "read", {"": [1, 4]},
    ),
    "an-ends-read-outside-tensor-unitaries": Case(
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
        "FIRST = c.ends\n",
        ("ends",), "read", {"tensor": [2, 2], "UnitaryPath.check.first": [10], "UnitaryPath.check": [11], "": [13]},
    ),
    "a-reader-that-checks-a-power": Case(
        "from .exact import from_rows, power_equals\n"
        "def reader(doc):\n"
        "    a = from_rows(doc['a'])\n"
        "    return power_equals(a, doc['lag'], a)\n"
        "from . import exact as e\n"
        "e.mat_mul(a, a)\n"
        "from shiftcalc.exact import mat_pow as p\n"
        "mat_powers = e.identity(2)\n",
        ARITHMETIC, "exact", {"": [1, 6, 7], "reader": [4]},
    ),
    "arithmetic-outside-the-dims-property": Case(
        "from .exact import IntMatrix, mat_mul\n"
        "class GraphCorrespondence:\n"
        "    def dims(self):\n"
        "        return reduce(mat_mul, self.runs)\n"
        "def tensor(x, y):\n"
        "    return GraphCorrespondence(x.left_index, y.right_index, exact.mat_mul(x.dims, y.dims))\n"
        "class OneArrow:\n"
        "    def __post_init__(self):\n"
        "        check = lambda a, m, p: power_equals(a, m, p)\n"
        "UNIT = mat_pow(IntMatrix(), 0)\n",
        ARITHMETIC, "name", {"GraphCorrespondence.dims": [4], "tensor": [6], "OneArrow.__post_init__": [9], "": [10]},
    ),
    "a-private-jsonio-read": Case(PRIVATE_SOURCE, ("corr", "exact", "jsonio"), "private",
                                  {"": [3, 4, 6, 8, 11, 13, 14]}, "cli"),
    # A module's own private names are its own business.
    "a-private-read-in-jsonio": Case(PRIVATE_SOURCE, ("corr", "exact", "jsonio"), "private",
                                     {"": [11, 13, 14]}, "jsonio"),
    "a-private-read-in-exact": Case(PRIVATE_SOURCE, ("corr", "exact", "jsonio"), "private",
                                    {"": [3, 4, 6, 8, 14]}, "exact"),
    "an-identity-built-as-a-tensor-factor": Case(
        "step = tensor_unitaries(g.phi, identity_unitary(f.f))\n"
        "ident = identity_unitary(x)\n"
        "lhs = corr.tensor_unitaries(ident, psi)\n"
        "placed = tensor_unitaries(psi, x)\n"
        "h0 = identity_unitary(power.f)\n"
        "w = tensor_unitaries(u2=corr.identity_unitary(y), u1=u)\n"
        "v = tensor_unitaries(u, compose_unitaries(identity_unitary(x), u))\n",
        ("identity_unitary",), "factor", {"": [1, 3, 6]},
    ),
    "a-basis-built-outside-its-builder": Case(
        "from .corr import from_matrix, object_pair\n"
        "def assemble_shift(w, make):\n"
        "    x = object_pair(w.a)\n"
        "    return from_matrix(w.r)\n"
        "def reader(doc):\n"
        "    build = lambda m: corr.from_matrix(m)\n"
        "    return object_pair(doc)\n"
        "ONE = from_matrix(identity(1))\n"
        "def other(x):\n"
        "    return object_pairs(x), from_matrix\n",
        BASES, "call", {"assemble_shift": [3, 4], "reader": [6, 7], "": [8]},
    ),
    "an-arrow-read-that-builds-its-bases": Case(
        "def arrow_from_json(doc):\n"
        "    source = object_pair(*_object_fields(doc['source']))\n"
        "    target = object_pair(*_object_fields(doc['target']))\n"
        "    f = from_matrix(matrix_from_json(doc['f_dims']), target.algebra_index, source.algebra_index)\n"
        "    return arrow_with(source, target, f)\n"
        "def shift_from_json(doc):\n"
        "    return assemble_shift(witness(doc), make(doc))\n",
        BASES, "call", {"arrow_from_json": [2, 3, 4]},
    ),
    "a-selftest-arrow-built-by-hand": Case(
        "def arrow_from_witness(w, np_rng=None):\n"
        "    src, tgt = object_pair(w.a), object_pair(w.b)\n"
        "    return arrow_with(src, tgt, from_matrix(w.s, tgt.algebra_index, src.algebra_index))\n"
        "def tensor_dims_oracle(size, tol):\n"
        "    return tensor(from_matrix(r), from_matrix(s))\n",
        BASES, "call", {"arrow_from_witness": [2, 2, 3], "tensor_dims_oracle": [5, 5]},
    ),
    "an-eigensolver-outside-the-residuals": Case(
        "def unitary_distance(u, v):\n"
        "    return np.sqrt(np.linalg.eigvalsh(gram)[-1])\n"
        "def _schur_eig(w):\n"
        "    t, z = scipy.linalg.schur(w, output='complex')\n"
        "def homotopy_failure(h):\n"
        "    worst = max(np.linalg.svd(u, compute_uv=False)[0] for u in h)\n"
        "    solve, eigs = np.linalg.eigh, eig(h.u)\n",
        ("eigvalsh", "eigh", "eig", "svd", "schur"), "call",
        {"unitary_distance": [2], "_schur_eig": [4], "homotopy_failure": [6, 7]},
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_the_check_sees(case):
    assert uses(case.source, case.names, case.kind, case.own) == case.expected


def test_each_kind_has_a_case():
    # A kind that no case shows is unchecked, whether or not a row uses it.
    seen = {case.kind for case in CASES.values()}
    assert seen == set(KINDS)
    assert {rule.kind for rule in OWNERS} <= seen


def definitions(source: str) -> set[str]:
    """Names of the module-level functions, classes and constants."""
    names = set()
    for node in parse(source).body:
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
    for node in ast.walk(parse(source)):
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
    for node in parse(source).body:
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
    tree = parse(source)
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
    for function in ast.walk(parse(source)):
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
