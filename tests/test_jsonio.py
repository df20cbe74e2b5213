import gc
import io
import json
import re
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcalc import (
    DomainError,
    ParseError,
    SEWitness,
    ShapeError,
    alignment_residuals,
    build_from_se,
    canonical_identification,
    compose_se,
    conjugate_shift,
    from_matrix,
    from_rows,
    identity,
    identity_unitary,
    identity_witness,
    random_block_unitary,
)
from shiftcalc.aligned import assemble_shift
from shiftcalc import jsonio
from shiftcalc.jsonio import (
    _complex_matrix_array,
    _complex_matrix_from_json,
    _require,
    dump_json,
)
from shiftcalc.selftest import GOLDEN_WITNESS, arrow_from_witness


def stdlib_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def dumps(doc) -> str:
    """The text ``dump_json`` writes for ``doc``."""
    fh = io.StringIO()
    dump_json(doc, fh)
    return fh.getvalue()


numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, float("nan"), float("inf"), -float("inf")]),
)
cells = st.one_of(numbers, numbers, numbers, st.booleans(), st.none())
# Lists of equal-length lists of numbers take the encoder's fast path; a
# bool, None or non-finite cell sends its row back to the general path.
number_rows = st.tuples(st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda nk: st.lists(st.lists(cells, min_size=nk[1], max_size=nk[1]), min_size=nk[0], max_size=nk[0])
)
texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00", "é", " ", "\U0001f600"]
)
documents = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, texts, number_rows),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=40,
)


class TestDumpJson:
    @given(documents)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_stdlib_rendering(self, doc):
        assert dumps(doc) == stdlib_dump(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[1.5, np.float64(0.1)], [2.0, 3.0]],
            {"t": np.float64(-0.0), "k": (1, (2.5, None))},
            [[[1.0, 2.0]], [[3.0, 4.0]]],
            [[], []],
            [[1, 2], [3]],
            [[0.0] * 3] * 2,
            {"": [[np.float64("nan")]], "\u00e9": []},
            [(), {}, [[]]],
            [[True, 1.0]],
            [[float("nan"), 1.0], [1.0, 2.0]],
        ],
    )
    def test_matches_the_stdlib_on_special_values(self, doc):
        assert dumps(doc) == stdlib_dump(doc)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [np.int64(1)], [b"bytes"], [1j]])
    def test_unencodable_documents_raise_as_the_stdlib(self, doc):
        with pytest.raises(Exception) as expected:
            stdlib_dump(doc)
        with pytest.raises(type(expected.value)) as got:
            dumps(doc)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("doc", [{1: [1], 2: "b"}, {None: 0}, {"a": 1, 2: "b"}, [{"a": {(1, 2): 0}}]])
    def test_keys_other_than_str_raise(self, doc):
        # The stdlib would write an int or None key as a string; no document of the package has one.
        with pytest.raises(TypeError, match="dump_json writes only str keys"):
            dumps(doc)

    def test_cycles_raise(self):
        doc = {"a": []}
        doc["a"].append(doc)
        with pytest.raises(RecursionError):
            dumps(doc)

    def test_an_int_too_long_to_print_is_a_domain_error(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(DomainError, match=f"^an integer has more than {limit} digits, too many to write$"):
            dumps([[10**5000]])


class _Str(str):
    def __repr__(self):
        return "spelled by the class"

    __str__ = __repr__


class _Int(int):
    __repr__ = __str__ = _Str.__repr__


class _Float(float):
    __repr__ = __str__ = _Str.__repr__


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    texts,
    st.sampled_from([10**400, -(10**400), -0.0, 5e-324, float("nan"), float("inf"), -float("inf")]),
    st.floats().map(np.float64),
    st.integers().map(_Int),
    st.floats().map(_Float),
    texts.map(_Str),
)


class TestScalars:
    @given(scalars)
    @settings(max_examples=400, deadline=None)
    def test_are_spelled_as_the_stdlib_spells_them(self, x):
        # Subclasses too: the stdlib ignores their own repr and str.
        assert dumps(x) == json.dumps(x) + "\n"
        assert dumps([x, {"k": x}]) == stdlib_dump([x, {"k": x}])


def to_lists(doc):
    """``doc`` with every numpy array replaced by its tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: to_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [to_lists(x) for x in doc]
    return doc


leaf_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1e16, 1.0, -1.0]),
)


non_finite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
# Any value but the bits of +0.0 and 1.0: one of these makes a 0/1 leaf an ordinary one.
other_values = leaf_values.filter(lambda x: repr(x) not in ("0.0", "1.0")) | non_finite


@st.composite
def array_leaves(draw):
    """A (d, d, 2) float64 array of [re, im] pairs: built by the package's
    converter from a complex block or its adjoint view (whose conj() turns
    0.0 into -0.0), or a non-contiguous view itself.  Its entries are
    arbitrary finite values, or all 0.0 and 1.0 (at times a permutation
    block), which take the pair-text path; at times one entry is set to
    another value, a non-finite one spelled as the stdlib spells it."""
    d = draw(st.integers(1, 8))
    entries = draw(st.sampled_from(["any", "0/1", "permutation"]))
    if entries == "permutation":
        pairs = np.zeros((d, d, 2))
        pairs[np.arange(d), draw(st.permutations(range(d))), 0] = 1.0
    else:
        values = leaf_values if entries == "any" else st.sampled_from([0.0, 1.0])
        pairs = np.array(draw(st.lists(values, min_size=2 * d * d, max_size=2 * d * d))).reshape(d, d, 2)
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for n in (d, d, 2))
        pairs[i, j, k] = draw(non_finite if entries == "any" else other_values)
    m = pairs.view(complex).reshape(d, d)
    kind = draw(st.sampled_from(["block", "adjoint", "transposed view"]))
    if kind == "transposed view":
        return pairs.transpose(1, 0, 2)
    return _complex_matrix_array(m.conj().T if kind == "adjoint" else m)


@st.composite
def nested_leaves(draw):
    """An array leaf nested 0-4 levels deep in lists and dicts beside plain values."""
    doc = draw(array_leaves())
    for _ in range(draw(st.integers(0, 4))):
        doc = draw(
            st.sampled_from(
                [[doc], [doc, 1.5], {"blocks": doc, "t": 0.25}, {"a": [doc, doc], "z": None}]
            )
        )
    return doc


class TestArrayLeaves:
    @given(nested_leaves())
    @settings(max_examples=300, deadline=None)
    def test_match_the_stdlib_rendering_of_their_lists(self, doc):
        assert dumps(doc) == stdlib_dump(to_lists(doc))

    def test_only_leaves_of_plus_zero_and_one_take_the_pair_texts(self):
        perm = np.eye(3, dtype=complex)[[2, 0, 1]]
        for leaf in (_complex_matrix_array(perm), _complex_matrix_array(perm * 1j)):
            assert jsonio._is_unit_leaf(leaf) and jsonio._is_unit_leaf(leaf.transpose(1, 0, 2))
        # conj() writes -0.0 into every imaginary part of the adjoint.
        for other in (perm.conj().T, perm * 0.5, -perm):
            assert not jsonio._is_unit_leaf(_complex_matrix_array(other))
        assert not jsonio._is_unit_leaf(np.zeros((3, 2))) and not jsonio._is_unit_leaf(np.ones((2, 2, 3)))

    def test_the_converter_gives_the_lists_of_the_list_converter(self):
        m = np.array([[1 + 2j, -0.0 - 1j], [5e-324, 1e16j]])
        for block in (m, m.conj().T):
            leaf = _complex_matrix_array(block)
            assert leaf.shape == (2, 2, 2) and leaf.dtype == np.float64
            assert repr(leaf.tolist()) == repr(_complex_matrix_array(block).tolist())

    def test_a_leaf_of_nan_and_both_infinities_is_spelled_as_the_stdlib_spells_it(self):
        # The generated leaves hold at most one non-finite entry.
        leaf = np.array([[[float("nan"), float("inf")], [-float("inf"), -0.0]], [[5e-324, 1e16], [1.5, 0.1]]])
        assert dumps({"leaf": leaf}) == stdlib_dump({"leaf": leaf.tolist()})

    def test_other_arrays_are_left_to_the_stdlib(self):
        # Raised with the stdlib's own message.
        for doc in ([np.arange(3)], {"a": np.zeros(2, dtype=complex)}, [np.zeros(2), np.ones(2, dtype=np.float32)]):
            with pytest.raises(TypeError, match="^Object of type ndarray is not JSON serializable$"):
                dumps(doc)


class _Writes(io.StringIO):
    """A text file that records the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def leaf_texts(doc, level=0):
    """The text of each array leaf of ``doc``, in the order it is written: its
    list's stdlib rendering, indented to the leaf's nesting level."""
    if isinstance(doc, np.ndarray):
        yield stdlib_dump(doc.tolist())[:-1].replace("\n", "\n" + " " * level)
    elif isinstance(doc, dict):
        for key in sorted(doc):
            yield from leaf_texts(doc[key], level + 1)
    elif isinstance(doc, (list, tuple)):
        for x in doc:
            yield from leaf_texts(x, level + 1)


class TestFileRefusals:
    """Each refusal of the file readers names the file and its fault."""

    def test_a_negative_entry_is_named_by_its_place(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[1, -2]]}))
        with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: entry (0, 1) is negative (-2)')}$"):
            jsonio.nonnegative_matrix_from_file(str(path))

    def test_json_nested_too_deeply_to_decode(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: JSON nested too deeply to read')}$"):
            jsonio.load_json(str(path))

    def test_a_number_too_long_to_decode(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text("[" + "1" * 5001 + "]")
        limit = sys.get_int_max_str_digits()
        message = f"{path}: a number has more than {limit} digits, too many to read"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            jsonio.load_json(str(path))

    def test_bytes_that_are_not_utf_8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rows": "\xe9"}')
        message = f"{path}: not UTF-8 text: byte 10 cannot be decoded"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            jsonio.load_json(str(path))

    def test_on_read_gets_the_bytes_that_are_decoded(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"rows": 1, "cols": 1, "entries": [[2]]}')
        seen = []
        assert jsonio.load_json(str(path), on_read=seen.append) == {"rows": 1, "cols": 1, "entries": [[2]]}
        assert seen == [path.read_bytes()]
        seen.clear()
        assert jsonio.nonnegative_matrix_from_file(str(path), on_read=seen.append) == from_rows([[2]])
        assert seen == [path.read_bytes()]


GC_CASES = {
    "a bundle": json.dumps(jsonio.block_unitary_to_json(identity_unitary(from_matrix(from_rows([[2]]))))).encode(),
    "bad JSON": b"{\n  broken\n}",
    "nested too deeply": b"[" * 100000 + b"]" * 100000,
    "a number too long": b"[" + b"1" * 5001 + b"]",
    "bad UTF-8": b'{"rows": "\xff"}',
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("case", GC_CASES)
def test_load_json_leaves_the_gc_as_it_found_it(tmp_path, enabled, case):
    path = tmp_path / "doc.json"
    path.write_bytes(GC_CASES[case])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            jsonio.load_json(str(path))
        except ParseError:
            assert case != "a bundle"
        else:
            assert case == "a bundle"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


class TestStream:
    """``dump_json(doc, fh)`` writes each array leaf as it renders it."""

    @given(doc=st.lists(nested_leaves() | documents, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_one_write_per_array_leaf_and_one_for_the_rest(self, doc):
        fh = _Writes()
        assert dump_json(doc, fh) is None
        assert fh.getvalue() == stdlib_dump(to_lists(doc))
        leaves = list(leaf_texts(doc))
        assert len(fh.writes) == len(leaves) + 1
        # Each write ends with its leaf, so none holds the text of two.
        for text, leaf in zip(fh.writes, leaves):
            assert text.endswith(leaf)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @given(doc=st.lists(nested_leaves() | documents, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_writes_the_text_of_the_string_form(self, chunk, doc):
        # A real file as the command line opens one, its buffer `chunk` bytes:
        # the bytes that reach it are the stdlib's string form of the lists.
        raw = io.BytesIO()
        fh = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=chunk), encoding="utf-8")
        assert dump_json(doc, fh) is None
        fh.flush()
        assert raw.getvalue() == stdlib_dump(to_lists(doc)).encode("utf-8")

    def test_a_chunk_is_written_once_its_leaves_pass_the_chunk_size(self):
        # The chunk now ends at every array leaf: the pieces up to and
        # including a leaf are written as soon as that leaf is rendered.
        leaf = np.full((2, 2, 2), 0.5)
        doc = {"a": [leaf, leaf], "b": leaf, "c": 1}
        fh = _Writes()
        dump_json(doc, fh)
        text = stdlib_dump(to_lists(doc))
        assert fh.getvalue() == text
        ends, start = [], 0
        for leaf_text in leaf_texts(doc):
            start = text.index(leaf_text, start) + len(leaf_text)
            ends.append(start)
        assert len(ends) == 3
        assert fh.writes == [text[i:j] for i, j in zip([0, *ends], [*ends, len(text)])]

    @given(doc=st.lists(nested_leaves() | documents, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_a_generator_is_written_as_the_list_it_yields_one_item_at_a_time(self, doc):
        fh, writes_before = _Writes(), []

        def items():
            for x in doc:
                writes_before.append(len(fh.writes))
                yield x

        dump_json({"a": items(), "b": (x for x in ())}, fh)
        assert fh.getvalue() == stdlib_dump({"a": to_lists(doc), "b": []})
        # Each item is made only once every array leaf before it is written.
        leaves = [len(list(leaf_texts(x))) for x in doc]
        assert writes_before == [sum(leaves[:k]) for k in range(len(doc))]

    def test_a_streamed_homotopy_is_written_as_the_listed_one_and_only_once(self):
        from shiftcalc import homotopy_shift_equivalence_from_se

        _, h, _ = homotopy_shift_equivalence_from_se(GOLDEN_WITNESS, steps=3)
        listed, streamed = (jsonio.homotopy_to_json(h, _arrays=s) for s in (False, True))
        assert isinstance(listed["samples"], list) and len(listed["samples"]) == 3
        once, again = io.StringIO(), io.StringIO()
        dump_json(streamed, once)
        assert once.getvalue() == stdlib_dump(to_lists(listed))
        # Its samples are a generator, spent by the first write.
        dump_json(streamed, again)
        assert again.getvalue() == stdlib_dump(to_lists({**listed, "samples": []}))

    @pytest.mark.parametrize("doc", [{1: [1]}, {"a": {1, 2}}, [np.int64(1)]])
    def test_what_is_left_to_the_stdlib_raises(self, doc):
        with pytest.raises(TypeError, match="str keys|not JSON serializable"):
            dump_json(doc, io.StringIO())


def old_complex_matrix_to_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def old_complex_matrix_from_json(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc], dtype=complex).reshape(len(doc), len(doc))


def _number_rows(o):
    """Entries, row after row, of a list of equal-length nonempty lists of non-bool ints and floats; else None."""
    if o and type(o[0]) is list and o[0] and type(o[0][0]) in (int, float):
        if {*map(type, o)} <= {list} and len({*map(len, o)}) == 1:
            values = tuple(chain.from_iterable(o))
            if {*map(type, values)} <= {int, float}:
                return values
    return None


def reference_complex_matrix_from_json(doc, d: int, where: str) -> np.ndarray:
    """The block reader as it was with two paths: a whole-block fast path, then
    an entry-by-entry walk of the whole block when anything fails."""
    _require(isinstance(doc, list) and len(doc) == d, f"{where}: block must have {d} rows")
    rows = [_number_rows(row) if isinstance(row, list) and len(row) == d else None for row in doc]
    if all(row is not None and len(row) == 2 * d for row in rows):
        try:
            out = np.array(rows, dtype=np.float64).view(complex).reshape(d, d)
            if np.isfinite(out).all():
                return out
        except OverflowError:
            pass
    # Entry by entry, so the error names the first offending entry.
    for i, row in enumerate(doc):
        _require(isinstance(row, list) and len(row) == d, f"{where}: row {i} must have {d} entries")
        for j, pair in enumerate(row):
            ok = type(pair) is list and len(pair) == 2 and {*map(type, pair)} <= {int, float}
            _require(ok, f"{where}: entry ({i}, {j}) must be an [re, im] pair of numbers")
            try:
                complex(*pair)
            except OverflowError:
                raise ParseError(f"{where}: entry ({i}, {j}) is too large") from None
    raise ParseError(f"{where}: entries must be finite")


def outcome(read, *args):
    """The bits of the block ``read(*args)`` returns, or the type and message of what it raises."""
    try:
        return np.ascontiguousarray(read(*args)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def read_one_block(load, source, d: int) -> np.ndarray:
    """The block of the one-block unitary of dimension ``d`` that ``load(source)`` gives."""
    corr = from_matrix(from_rows([[d]]))
    return jsonio.block_unitary_from_json(load(source), corr, corr).blocks[(0, 0)]


block_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**64), 2**64),
    st.sampled_from([0, -0.0, 2**53 + 1, 10**300 + 7, 5e-324, 1.7976931348623157e308, 2**1024 - 2**970 - 1]),
)
bad_values = st.sampled_from(
    [True, False, "1.0", None, [], 10**400, -(10**400), 2**1024, 1e400, -1e400, float("nan")]
)
bad_pairs = st.sampled_from([[], [1.0], [1.0, 0.0, 0.0], (1.0, 0.0), 1.0, "ab", None, {"re": 1.0}])


@st.composite
def mutated_blocks(draw):
    """(doc, d): a d x d block of [re, im] pairs of JSON numbers with up to
    three faults, applied values first, then pairs, rows and the block: a bad
    value, a bad pair, a short or long row or one that is not a list, a short
    or long block."""
    d = draw(st.integers(1, 5))
    doc = [[[draw(block_values), draw(block_values)] for _ in range(d)] for _ in range(d)]
    faults = st.sampled_from(["1 value"] * 4 + ["2 pair"] * 2 + ["3 row"] * 2 + ["4 block"])
    kinds = sorted(draw(st.lists(faults, max_size=3)))
    for kind in kinds:
        i, j, k = (draw(st.integers(0, n - 1)) for n in (d, d, 2))
        if kind == "1 value":
            doc[i][j][k] = draw(bad_values)
        elif kind == "2 pair":
            doc[i][j] = draw(bad_pairs)
        elif kind == "3 row":
            row = doc[i] if isinstance(doc[i], list) else []
            doc[i] = draw(st.sampled_from([row[1:], row + [[0.0, 0.0]], "ab", 1.0, None, [1.0] * d]))
        else:
            doc = draw(st.sampled_from([doc[1:], doc + [[[0.0, 0.0]] * d]]))
    return doc, d


class TestComplexMatrices:
    @pytest.fixture
    def unitary(self):
        # Blocks of dimension 3, 1, 2 and 2.
        return random_block_unitary(from_matrix(from_rows([[3, 1], [2, 2]])), np.random.default_rng(11))

    def test_writer_matches_the_per_entry_floats_on_adjoint_views(self, unitary):
        blocks = [*unitary.blocks.values(), np.eye(2), -np.eye(3, dtype=complex)]
        blocks += [m.conj().T for m in blocks]  # what BlockUnitary.adjoint stores
        assert any(not m.flags.c_contiguous for m in blocks)
        assert any(np.signbit(m.imag).any() and not m.imag.any() for m in blocks)
        for m in blocks:
            # repr tells -0.0 from 0.0 and prints each float exactly.
            assert repr(_complex_matrix_array(m).tolist()) == repr(old_complex_matrix_to_json(m))

    @pytest.mark.parametrize("seed", range(5))
    def test_reader_matches_the_per_entry_complex(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        pool = [0, -0.0, 1, -7, 2**53 + 1, 10**300 + 7, 1e-300, 5e-324, 0.1, -2.5, 1.7976931348623157e308]
        doc = [[[pool[k] for k in rng.integers(len(pool), size=2)] for _ in range(d)] for _ in range(d)]
        doc[0][0] = [float(x) for x in rng.standard_normal(2)]
        out = _complex_matrix_from_json(doc, d, "block")
        assert out.shape == (d, d) and out.dtype == complex
        assert np.ascontiguousarray(out).tobytes() == old_complex_matrix_from_json(doc).tobytes()

    @given(mutated_blocks())
    @settings(max_examples=600, deadline=None)
    def test_reader_matches_the_two_path_reference(self, tmp_path_factory, block):
        doc, d = block
        where = "block 'x'"
        expected = outcome(reference_complex_matrix_from_json, doc, d, where)
        assert outcome(_complex_matrix_from_json, doc, d, where) == expected
        # Through a file, the decoder's hook must give what json.loads and the reader give.
        text = json.dumps({"left_index": [0], "right_index": [0], "dims": [[d]], "blocks": {"0,0": doc}})
        path = tmp_path_factory.getbasetemp() / "block-unitary.json"
        path.write_text(text)
        assert outcome(read_one_block, jsonio.load_json, str(path), d) == outcome(read_one_block, json.loads, text, d)

    def test_reader_roundtrips_the_writer(self, unitary):
        for m in unitary.blocks.values():
            doc = json.loads(json.dumps(_complex_matrix_array(m).tolist()))
            assert np.array_equal(_complex_matrix_from_json(doc, len(m), "block"), m)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({(2, 1): ["re", 0.0]}, r"entry \(2, 1\) must be an \[re, im\] pair"),
            ({(1, 2): [0.0, 1.0, 2.0]}, r"entry \(1, 2\) must be an \[re, im\] pair"),
            ({(2, 0): [True, 0.0]}, r"entry \(2, 0\) must be an \[re, im\] pair"),
            ({(1, 1): [0, 10**400]}, r"entry \(1, 1\) is too large"),
            ({(0, 2): [float("nan"), 0.0]}, r"entries must be finite"),
            # The entry-by-entry order: a later type error outranks an
            # earlier non-finite entry, a bad row outranks later entries.
            ({(0, 0): [float("inf"), 0.0], (2, 2): [None, 0.0]}, r"entry \(2, 2\) must be"),
            ({(0, 0): [float("inf"), 0.0], (1, 0): [10**400, 0]}, r"entry \(1, 0\) is too large"),
            ({(1, 1): [0.0, 10**400], (2, 0): ["x", 0.0]}, r"entry \(1, 1\) is too large"),
        ],
    )
    def test_reader_names_the_first_offending_entry(self, bad, message):
        doc = [[[1.0, 0.0] for _ in range(3)] for _ in range(3)]
        for (i, j), pair in bad.items():
            doc[i][j] = pair
        with pytest.raises(ParseError, match=r"^block 'x': " + message):
            _complex_matrix_from_json(doc, 3, "block 'x'")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([[[1.0, 0.0]] * 2], "block must have 2 rows"),
            ([[[1.0, 0.0]] * 2, [[1.0, 0.0]]], r"row 1 must have 2 entries"),
            ([[[1.0, 0.0]] * 2, "ab"], r"row 1 must have 2 entries"),
            ([[[1.0, 0.0], (1.0, 0.0)], [[1.0, 0.0]] * 2], r"entry \(0, 1\) must be"),
        ],
    )
    def test_reader_names_bad_shapes(self, doc, message):
        with pytest.raises(ParseError, match=message):
            _complex_matrix_from_json(doc, 2, "block 'x'")


def dense_shift(lag: int):
    """The golden witness lifted to ``lag`` by identity witnesses, its shift conjugated by
    Haar-random block unitaries drawn from seed 101: a bundle with dense blocks."""
    w = GOLDEN_WITNESS
    while w.lag < lag:
        w = compose_se(w, identity_witness(w.b))
    shift, rng = build_from_se(w), np.random.default_rng(101)
    return conjugate_shift(shift, random_block_unitary(shift.m_arrow.f, rng), random_block_unitary(shift.n_arrow.f, rng))


def shift_blocks(d) -> list:
    return [m for u in (d.m_arrow.phi, d.n_arrow.phi, d.psi_x, d.psi_y) for m in u.blocks.values()]


def traced_peak(read):
    """What ``read()`` returns, and the peak of the memory it traced while it ran."""
    tracemalloc.start()
    try:
        return read(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocksDecodedAsArrays:
    def test_only_square_blocks_of_float_pairs_become_arrays(self, tmp_path):
        blocks = {
            "float": [[[1.0, 0.0], [0.5, -0.0]], [[0.0, 2.0], [1e-300, 3.0]]],
            "nan": [[[float("nan"), 0.0]]],
            "int": [[[1, 0.0]]],
            "bool": [[[True, 0.0]]],
            "ragged": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],
            "not square": [[[1.0, 0.0], [1.0, 0.0]]],
            "triple": [[[1.0, 0.0, 0.0]]],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"u": {"blocks": blocks}, "blocks": [[[1.0, 0.0]]], "other": {"0,0": [[[1.0, 0.0]]]}}))
        doc = jsonio.load_json(str(path))
        decoded = doc["u"]["blocks"]
        assert {key for key, block in decoded.items() if isinstance(block, np.ndarray)} == {"float", "nan"}
        assert decoded["float"].dtype == complex and decoded["float"].shape == (2, 2)
        assert np.signbit(decoded["float"][0, 1].imag) and decoded["float"][1, 0] == 2j
        assert {key: decoded[key] for key in blocks.keys() - {"float", "nan"}} == {
            key: blocks[key] for key in blocks.keys() - {"float", "nan"}
        }
        assert doc["blocks"] == [[[1.0, 0.0]]] and doc["other"] == {"0,0": [[[1.0, 0.0]]]}

    @pytest.mark.parametrize(
        "block, message",
        [
            ([[[1.0, 0.0]] * 3] * 3, "block must have 2 rows"),
            ([[[1.0, 0.0]]], "block must have 2 rows"),
            ([[[1.0, 0.0], [float("nan"), 0.0]], [[1.0, 0.0]] * 2], "entries must be finite"),
            ([[[1.0, 0.0], [0.0, 1e400]], [[1.0, 0.0]] * 2], "entries must be finite"),
        ],
    )
    def test_an_array_is_refused_as_its_lists_are(self, tmp_path, block, message):
        text = json.dumps({"left_index": [0], "right_index": [0], "dims": [[2]], "blocks": {"0,0": block}})
        path = tmp_path / "u.json"
        path.write_text(text)
        for doc in (json.loads(text), jsonio.load_json(str(path))):
            with pytest.raises(ParseError, match=f"^block '0,0': {message}$"):
                read_one_block(lambda doc: doc, doc, 2)

    def test_reading_a_dense_bundle_peaks_below_three_quarters_of_its_list_tree(self, tmp_path):
        path = tmp_path / "dense-shift-lag7.json"
        path.write_text(json.dumps(jsonio.shift_to_json(dense_shift(7))))
        listed, list_peak = traced_peak(lambda: jsonio.shift_from_json(json.loads(path.read_text())))
        decoded, peak = traced_peak(lambda: jsonio.shift_from_json(jsonio.load_json(str(path))))
        assert peak <= 0.75 * list_peak, (peak, list_peak)
        pairs = [*zip(shift_blocks(decoded), shift_blocks(listed), strict=True)]
        assert max(len(m) for m, _ in pairs) == 128
        assert all(m.dtype == n.dtype and m.shape == n.shape and m.tobytes() == n.tobytes() for m, n in pairs)


def json_paths(doc, prefix=()):
    """Every node of a JSON document, as its path of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from json_paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from json_paths(v, prefix + (i,))


def reader_documents():
    """One valid document per schema, as a file would give it, with its reader."""
    arrow = arrow_from_witness(GOLDEN_WITNESS, np.random.default_rng(3))
    corr = from_matrix(from_rows([[2, 1], [1, 1]]))
    unitary = random_block_unitary(corr, np.random.default_rng(4))
    docs = {
        "matrix": (jsonio.matrix_to_json(from_rows([[2, 1], [0, 3]])), jsonio.matrix_from_json),
        "witness": (jsonio.witness_to_json(GOLDEN_WITNESS), jsonio.witness_from_json),
        "block unitary": (
            jsonio.block_unitary_to_json(unitary),
            lambda doc: jsonio.block_unitary_from_json(doc, corr, corr),
        ),
        "arrow": (jsonio.arrow_to_json(arrow), jsonio.arrow_from_json),
        "shift": (jsonio.shift_to_json(build_from_se(GOLDEN_WITNESS)), jsonio.shift_from_json),
    }
    return {name: (json.dumps(doc), reader) for name, (doc, reader) in docs.items()}


READER_DOCUMENTS = reader_documents()
REPLACEMENTS = [True, None, "x", [[1]], 10**400, float("nan"), 1e308]


DELETE = object()


def mutate(doc, path, replacement):
    """``doc`` with the node at ``path`` replaced, or deleted when ``replacement``
    is ``DELETE`` and the node is a dict entry."""
    if not path:
        return doc if replacement is DELETE else json.loads(json.dumps(replacement))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        if isinstance(parent, dict):
            del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(replacement))
    return doc


class TestReadersOnMutatedDocuments:
    """A malformed document ends in a load or a typed error, never another exception."""

    @pytest.mark.parametrize("schema", sorted(READER_DOCUMENTS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_load_or_typed_error(self, schema, data):
        text, reader = READER_DOCUMENTS[schema]
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(json_paths(doc))))
            doc = mutate(doc, path, data.draw(st.sampled_from([*REPLACEMENTS, DELETE])))
        try:
            reader(doc)
        except (ParseError, ShapeError, DomainError):
            pass

    def test_shift_with_a_lag_beyond_every_machine_integer(self):
        text, reader = READER_DOCUMENTS["shift"]
        doc = json.loads(text)
        doc["lag"] = 10**400
        with pytest.raises(ShapeError, match="does not fit the bundle"):
            reader(doc)


def colliding_shift(x_labels=("0,1", "0"), y_labels=("1", "1,1")):
    """The Haar-conjugated canonical shift A ~ A, A = [[1, 1], [1, 1]], through
    R = A and S = I at lag 1, labelled by ``x_labels`` and ``y_labels``.  With
    the default labels the blocks (0, 0) and (1, 1) of X (x) M share the key
    "0,1,1"."""
    a = from_rows([[1, 1], [1, 1]])
    w = SEWitness(a, a, a, identity(2), 1)
    d = assemble_shift(w, lambda name, src, tgt: canonical_identification(src, tgt), (x_labels, y_labels))
    rng = np.random.default_rng(0)
    return conjugate_shift(d, random_block_unitary(d.m_arrow.f, rng), random_block_unitary(d.n_arrow.f, rng))


def colliding_bundle() -> dict:
    """The bundle of :func:`colliding_shift` as a writer keying blocks by label
    alone would give it: its ``phi_m`` keeps 3 keys for 4 blocks."""
    names = {"p": "0,1", "q": "0", "r": "1", "t": "1,1"}
    doc = jsonio.shift_to_json(colliding_shift(("p", "q"), ("r", "t")))
    for obj in ("x", "y"):
        doc[obj]["labels"] = [names[v] for v in doc[obj]["labels"]]
    for name in ("phi_m", "phi_n", "psi_x", "psi_y"):
        u = doc[name]
        for field in ("left_index", "right_index"):
            u[field] = [names[v] for v in u[field]]
        u["blocks"] = {",".join(names[v] for v in key.split(",")): m for key, m in u["blocks"].items()}
    return doc


class TestBlockKeys:
    """Every nonempty block of a stored map needs its own "v,w" key."""

    def test_the_colliding_shift_is_aligned_in_memory(self):
        assert max(alignment_residuals(colliding_shift())) < 1e-14
        assert len(colliding_bundle()["phi_m"]["blocks"]) == 3

    def test_writer_refuses_labels_whose_keys_collide(self):
        with pytest.raises(DomainError, match="two blocks share the key '0,1,1'"):
            jsonio.shift_to_json(colliding_shift())

    def test_reader_refuses_labels_whose_keys_collide(self):
        with pytest.raises(DomainError, match="two blocks share the key '0,1,1'"):
            jsonio.shift_from_json(colliding_bundle())

    def test_the_refusal_names_the_key_and_the_rule(self):
        message = """two blocks share the key '0,1,1': index labels must give distinct "v,w" keys"""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            jsonio.shift_to_json(colliding_shift())

    def test_duplicate_labels_collide(self):
        corr = from_matrix(from_rows([[1, 1], [1, 1]]), ["a", "a"], ["a", "a"])
        with pytest.raises(DomainError, match="two blocks share the key 'a,a'"):
            jsonio.block_unitary_to_json(identity_unitary(corr))
        doc = jsonio.block_unitary_to_json(identity_unitary(from_matrix(from_rows([[1]]), ["a"], ["a"])))
        doc.update(left_index=["a", "a"], right_index=["a", "a"], dims=[[1, 1], [1, 1]])
        with pytest.raises(DomainError, match="two blocks share the key 'a,a'"):
            jsonio.block_unitary_from_json(doc, corr, corr)
