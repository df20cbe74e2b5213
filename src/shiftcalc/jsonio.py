"""Versioned JSON schemas for every value the command line exchanges.

One schema per type, all tagged "shiftcalc/v1".  Matrices are
{"rows", "cols", "entries"} with entries in row order; block unitaries store
one complex matrix per nonempty block under the key "v,w" (index labels
joined by a comma), each entry as an [re, im] pair; labels that give two
blocks one key are refused, on writing and on reading.  Shift and arrow
bundles describe their correspondences by integer matrices; the canonical
bases are rebuilt on load, so only atomic (edge) correspondences travel
through files.  The readers check the schema and decide no rule of the calculus:
a shift's reader supplies its integer record and stored maps to
``aligned.assemble_shift``, which builds the bases each map is read against,
decides whether the lag fits and sizes the shift; an arrow's reader supplies its
record (A, B, F) and stored phi to ``aligned.assemble_arrow``, which builds the
bases phi is read against and sizes phi.  ``corr.arrow_with`` decides B F = F A.

The ``*_to_json`` functions return plain JSON values (nested lists).  With
the private switch ``_arrays``, the command line gets its large bundles in the
form ``dump_json`` writes fastest: each block is the (d, d, 2) float64 array
of its [re, im] pairs, and a homotopy's "samples" is a generator that makes
each sample as it is written.  ``dump_json`` writes either form to the same
text, and ``load_json`` reads it back with its blocks as complex arrays.  The
readers raise a ``ParseError`` naming the first fault they meet.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite
from types import GeneratorType

import numpy as np

from .aligned import AlignedShiftData, assemble_arrow, assemble_shift
from .corr import BlockUnitary, GraphCorrespondence, ObjectPair, OneArrow
from .errors import DomainError, ParseError
from .exact import IntMatrix, from_rows
from .homotopy import ArrowHomotopy
from .witnesses import SEWitness

SCHEMA = "shiftcalc/v1"


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` parse to bools, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _fields(doc, kind: str, names: tuple) -> tuple:
    """The values of the named fields of a ``kind`` document, which must be a JSON object holding them all."""
    _require(isinstance(doc, dict), f"{kind} document must be a JSON object")
    for name in names:
        _require(name in doc, f"{kind} document is missing '{name}'")
    return tuple(doc[name] for name in names)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def matrix_to_json(m: IntMatrix) -> dict:
    return {
        "schema": SCHEMA,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(r) for r in m.entries],
    }


def matrix_from_json(doc) -> IntMatrix:
    rows, cols, entries = _fields(doc, "matrix", ("rows", "cols", "entries"))
    _require(_is_int(rows) and _is_int(cols), "matrix shape must be integers")
    _require(isinstance(entries, list) and len(entries) == rows, "entry grid has the wrong number of rows")
    if (
        rows > 0
        and cols > 0
        and {*map(type, entries)} <= {list}
        and {*map(len, entries)} == {cols}
        and {*map(type, chain.from_iterable(entries))} <= {int}
    ):
        return IntMatrix(rows, cols, tuple(map(tuple, entries)))
    # Entry by entry, so the error names the first offending row.
    for i, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == cols, f"row {i} has the wrong length")
        _require(all(map(_is_int, row)), f"row {i} has a non-integer entry")
    return from_rows(entries)


def nonnegative_matrix_from_file(path: str, *, on_read=None) -> IntMatrix:
    """The matrix in the JSON file ``path``, whose entries must be nonnegative; every fault names the file.

    ``load_json`` names the line and column of bad JSON and calls ``on_read``."""
    doc = load_json(path, on_read=on_read)
    try:
        m = matrix_from_json(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for i, row in enumerate(m.entries):
        if min(row) < 0:
            j, x = next((j, x) for j, x in enumerate(row) if x < 0)
            raise DomainError(f"{path}: entry ({i}, {j}) is negative ({x})")
    return m


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


def witness_to_json(w: SEWitness) -> dict:
    return {
        "schema": SCHEMA,
        "a": matrix_to_json(w.a),
        "b": matrix_to_json(w.b),
        "r": matrix_to_json(w.r),
        "s": matrix_to_json(w.s),
        "lag": w.lag,
    }


def witness_from_json(doc) -> SEWitness:
    *matrices, lag = _fields(doc, "witness", ("a", "b", "r", "s", "lag"))
    _require(_is_int(lag), "witness lag must be an integer")
    return SEWitness(*map(matrix_from_json, matrices), lag)


# ---------------------------------------------------------------------------
# Block unitaries
# ---------------------------------------------------------------------------


def _complex_matrix_array(m: np.ndarray) -> np.ndarray:
    """The (d, d, 2) float64 array of [re, im] pairs of a complex block: an array leaf for ``dump_json``."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(*m.shape, 2)


def _float_block(rows) -> np.ndarray | None:
    """The d x d complex array of ``rows``, a list of d lists of d [re, im] pairs of floats; None for anything else."""
    if type(rows) is not list or {*map(type, rows)} != {list} or {*map(len, rows)} != {len(rows)}:
        return None
    pairs = [*chain.from_iterable(rows)]
    if {*map(type, pairs)} != {list} or {*map(len, pairs)} != {2}:
        return None
    values = [*chain.from_iterable(pairs)]
    if {*map(type, values)} != {float}:
        return None
    return np.array(values, dtype=np.float64).view(complex).reshape(len(rows), len(rows))


def _float_rows(rows: list, d: int, where: str) -> list:
    """``rows`` with each entry as an [re, im] pair of floats; names the first row or entry that cannot be one."""
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == d, f"{where}: row {i} must have {d} entries")
        out.append([])
        for j, pair in enumerate(row):
            ok = type(pair) is list and len(pair) == 2 and {*map(type, pair)} <= {int, float}
            _require(ok, f"{where}: entry ({i}, {j}) must be an [re, im] pair of numbers")
            try:
                out[-1].append([*map(float, pair)])
            except OverflowError:
                raise ParseError(f"{where}: entry ({i}, {j}) is too large") from None
    return out


def _complex_matrix_from_json(doc, d: int, where: str) -> np.ndarray:
    """The d x d complex block of d rows of d [re, im] pairs, or the array ``load_json`` made of them.

    An array's size and finiteness are checked.  A list goes through the same whole-block
    conversion, and only a list that fails it (an int, a bool, a ragged row) is walked entry
    by entry, so that the ``ParseError`` names its first offending row or entry."""
    if isinstance(doc, list) and len(doc) == d:
        block = _float_block(doc)
        doc = _float_block(_float_rows(doc, d, where)) if block is None else block
    ok = type(doc) is np.ndarray and doc.dtype == complex and doc.shape == (d, d)
    _require(ok, f"{where}: block must have {d} rows")
    _require(np.isfinite(doc).all(), f"{where}: entries must be finite")
    return doc


def _block_keys(c: GraphCorrespondence) -> dict:
    """(i, j) -> the "v,w" key of each nonempty block of ``c``, row-major; two blocks
    whose labels give one key could not both be stored, so that is a ``DomainError``."""
    keys = {(i, j): f"{c.left_index[i]},{c.right_index[j]}" for i, j in c.blocks()}
    if len(set(keys.values())) < len(keys):
        key = Counter(keys.values()).most_common(1)[0][0]
        raise DomainError(f"two blocks share the key '{key}': index labels must give distinct \"v,w\" keys")
    return keys


def block_unitary_to_json(u: BlockUnitary, *, _arrays=False) -> dict:
    """The block unitary document: each block as nested lists, or with ``_arrays`` as its array leaf."""
    src = u.source
    blocks = {key: _complex_matrix_array(u.blocks[ij]) for ij, key in _block_keys(src).items()}
    return {
        "schema": SCHEMA,
        "left_index": list(src.left_index),
        "right_index": list(src.right_index),
        "dims": [list(r) for r in src.dims.entries],
        "blocks": blocks if _arrays else {key: leaf.tolist() for key, leaf in blocks.items()},
    }


def block_unitary_from_json(
    doc, source: GraphCorrespondence, target: GraphCorrespondence
) -> BlockUnitary:
    """Attach stored blocks to the given source/target correspondences.

    The document's declared shape must match the source's; which structured
    correspondences the blocks act between is the caller's decision.
    """
    fields = ("left_index", "right_index", "dims", "blocks")
    left_index, right_index, dims, stored = _fields(doc, "block unitary", fields)
    for field, labels in (("left_index", left_index), ("right_index", right_index)):
        _require(isinstance(labels, list), f"block unitary '{field}' must be a list")
    _require(
        isinstance(dims, list) and all(isinstance(row, list) for row in dims),
        "block unitary 'dims' must be a list of lists",
    )
    _require(isinstance(stored, dict), "block unitary 'blocks' must be a JSON object")
    # from_rows would read true and false as 1 and 0.
    _require(bool not in {*map(type, chain.from_iterable(dims))}, "block unitary 'dims' has a boolean entry")
    dims = from_rows(dims)
    _require(
        [str(x) for x in left_index] == [str(x) for x in source.left_index]
        and [str(x) for x in right_index] == [str(x) for x in source.right_index]
        and dims == source.dims,
        "block unitary shape does not match the expected correspondence",
    )
    blocks = {}
    for (i, j), key in _block_keys(source).items():
        _require(key in stored, f"missing block '{key}'")
        blocks[(i, j)] = _complex_matrix_from_json(stored[key], source.block_dim(i, j), f"block '{key}'")
    return BlockUnitary(source, target, blocks)


# ---------------------------------------------------------------------------
# Object pairs, arrows, shift bundles
# ---------------------------------------------------------------------------


def object_to_json(obj: ObjectPair) -> dict:
    return {
        "labels": list(obj.algebra_index),
        "matrix": matrix_to_json(obj.x.dims),
    }


def _object_fields(doc) -> tuple:
    """The vertex matrix of an object document and its labels, None when absent."""
    _require(isinstance(doc, dict) and "matrix" in doc, "object document needs a 'matrix'")
    labels = doc.get("labels")
    _require(labels is None or isinstance(labels, list), "object 'labels' must be a list")
    return matrix_from_json(doc["matrix"]), labels


def arrow_to_json(arrow: OneArrow) -> dict:
    """Serialize an arrow whose correspondence is atomic (edge basis)."""
    return {
        "schema": SCHEMA,
        "source": object_to_json(arrow.source),
        "target": object_to_json(arrow.target),
        "f_dims": matrix_to_json(arrow.f.dims),
        "phi": block_unitary_to_json(arrow.phi),
    }


def arrow_from_json(doc) -> OneArrow:
    source, target, f_dims, phi = _fields(doc, "arrow", ("source", "target", "f_dims", "phi"))
    (a, a_labels), (b, b_labels), f = _object_fields(source), _object_fields(target), matrix_from_json(f_dims)
    return assemble_arrow(a, b, f, lambda src, tgt: block_unitary_from_json(phi, src, tgt), (a_labels, b_labels))


def shift_to_json(d: AlignedShiftData, *, _arrays=False) -> dict:
    """Serialize a shift whose M and N are atomic correspondences; ``_arrays`` as in :func:`block_unitary_to_json`."""
    return {
        "schema": SCHEMA,
        "x": object_to_json(d.x_obj),
        "y": object_to_json(d.y_obj),
        "lag": d.lag,
        "m_dims": matrix_to_json(d.m_arrow.f.dims),
        "n_dims": matrix_to_json(d.n_arrow.f.dims),
        "phi_m": block_unitary_to_json(d.m_arrow.phi, _arrays=_arrays),
        "phi_n": block_unitary_to_json(d.n_arrow.phi, _arrays=_arrays),
        "psi_x": block_unitary_to_json(d.psi_x, _arrays=_arrays),
        "psi_y": block_unitary_to_json(d.psi_y, _arrays=_arrays),
    }


def shift_from_json(doc) -> AlignedShiftData:
    fields = ("x", "y", "lag", "m_dims", "n_dims", "phi_m", "phi_n", "psi_x", "psi_y")
    x, y, lag, m_dims, n_dims, *_ = _fields(doc, "shift", fields)
    _require(_is_int(lag) and lag >= 1, "lag must be a positive integer")
    (a, x_labels), (b, y_labels) = _object_fields(x), _object_fields(y)
    w = SEWitness(a, b, matrix_from_json(m_dims), matrix_from_json(n_dims), lag)
    return assemble_shift(w, lambda name, src, tgt: block_unitary_from_json(doc[name], src, tgt), (x_labels, y_labels))


def homotopy_to_json(h: ArrowHomotopy, *, _arrays=False) -> dict:
    """The homotopy document; ``_arrays`` as in :func:`block_unitary_to_json`.

    With ``_arrays``, "samples" is also a generator that ``dump_json`` streams: each sample is
    made, written and dropped in turn, so the document never holds the path's samples, and it
    can be written only once (a second ``dump_json`` writes its "samples" as ``[]``)."""
    samples = ({"t": t, "unitary": block_unitary_to_json(u, _arrays=_arrays)} for t, u in h.path)
    return {
        "schema": SCHEMA,
        "fiber_dims": matrix_to_json(h.fiber.dims),
        "samples": samples if _arrays else list(samples),
        "h0": block_unitary_to_json(h.h0, _arrays=_arrays),
        "h1": block_unitary_to_json(h.h1, _arrays=_arrays),
    }


def _blocks_as_arrays(obj: dict) -> dict:
    """The decoder's object hook: each square block of [re, im] float pairs under ``obj``'s "blocks", as its array."""
    stored = obj.get("blocks")
    if type(stored) is dict:
        for key, rows in stored.items():
            block = _float_block(rows)
            if block is not None:
                stored[key] = block
    return obj


def load_json(path: str, *, on_read=None):
    """The JSON document in the file ``path``, each square block of [re, im] float pairs as its complex array.

    The file is read once; ``on_read``, if given, is called with its bytes before they are
    decoded.  As each object holding "blocks" closes, its blocks are converted, so a bundle
    holds the list tree of at most one map while it is decoded; any other block is left as
    decoded.  The cyclic GC is paused meanwhile (a decoded document holds no reference cycles),
    and its state is restored on every exit.  Every fault of the decoder (bytes that are not
    UTF-8, bad syntax, nesting too deep, a number too long) is a ``ParseError`` naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if on_read is not None:
        on_read(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from None
    del data
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, object_hook=_blocks_as_arrays)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read") from None
    except ValueError:  # the decoder's only other fault: an int literal past the digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: a number has more than {limit} digits, too many to read") from None
    finally:
        if enabled:
            gc.enable()


def _join(items: list, level: int) -> str:
    """A list of rendered items, laid out as json.dumps(indent=1) does at ``level``."""
    if not items:
        return "[]"
    sep = "\n" + " " * (level + 1)
    return "[" + sep + ("," + sep).join(items) + "\n" + " " * level + "]"


@lru_cache(maxsize=64)
def _nested_format(shape: tuple, level: int) -> str:
    """%-format of numbers nested by ``shape``, laid out as json.dumps(indent=1) does at ``level``."""
    return _join([_nested_format(shape[1:], level + 1)] * shape[0], level) if shape else "%r"


_ONE_BITS = np.float64(1.0).view(np.uint64)


@lru_cache(maxsize=64)
def _unit_pair_texts(level: int) -> np.ndarray:
    """The [re, im] pair texts at ``level`` with re, im in {0.0, 1.0}, indexed by 2 re + im."""
    pairs = [(re, im) for re in (0.0, 1.0) for im in (0.0, 1.0)]
    return np.array([_nested_format((2,), level) % pair for pair in pairs], dtype=object)


def _is_unit_leaf(o: np.ndarray) -> bool:
    """A (d, d, 2) leaf whose entries all have the bits of +0.0 or 1.0 (so -0.0 does not count)."""
    if o.ndim != 3 or o.shape[2] != 2:
        return False
    bits = o.view(np.uint64)
    return bool(((bits == 0) | (bits == _ONE_BITS)).all())


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(o, level: int, out: list, fh):
    # Scalars get the stdlib's exact text, subclasses too (bool before int).
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
        return
    if o is None or o is True or o is False:
        out.append(_CONSTANTS[o])
        return
    if isinstance(o, int):
        try:
            out.append(int.__repr__(o))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise DomainError(f"an integer has more than {limit} digits, too many to write") from None
        return
    if isinstance(o, float):
        out.append(float.__repr__(o) if isfinite(o) else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
        return
    if type(o) is np.ndarray and o.dtype == np.float64:
        # An array leaf is rendered as its tolist() would be, without building that
        # list, and written out with the pieces before it; lists and tuples take the
        # general branch below.
        if _is_unit_leaf(o):
            # A 0/1 block (a permutation, say) needs no float formatting: each pair is a cached text.
            pairs = _unit_pair_texts(level + 2)[(2 * o[..., 0] + o[..., 1]).astype(np.intp)]
            out.append(_join([_join(row, level + 1) for row in pairs.tolist()], level))
        else:
            text = _nested_format(o.shape, level) % tuple(o.ravel().tolist())
            # Only nan and inf print an "n"; json spells them NaN and Infinity.
            out.append(text.replace("nan", "NaN").replace("inf", "Infinity"))
        fh.write("".join(out))
        out.clear()
        return
    if isinstance(o, dict):
        if not all(type(key) is str for key in o):
            raise TypeError("dump_json writes only str keys")
        items, brackets = [(encode_basestring_ascii(k) + ": ", o[k]) for k in sorted(o)], "{}"
    elif isinstance(o, (list, tuple, GeneratorType)):
        items, brackets = (("", x) for x in o), "[]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    first = sep = brackets[0] + "\n" + " " * (level + 1)
    for prefix, x in items:
        out.append(sep + prefix)
        _encode(x, level + 1, out, fh)
        sep = "," + sep[1:]
    out.append(brackets if sep is first else "\n" + " " * level + brackets[1])


def dump_json(doc, fh) -> None:
    """Write ``doc`` to the text file ``fh`` in canonical form: sorted keys, fixed separators,
    trailing newline.

    Byte-identical to ``json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"``,
    which Python < 3.13 runs in pure Python when ``indent`` is set: too slow for bundles of
    [re, im] pairs.  A float64 numpy array in ``doc`` is rendered as its ``tolist()`` would be,
    in one %-format, and written out with the pieces before it as soon as it is rendered, so
    the text is never held whole; every list is rendered value by value, and every scalar as
    the stdlib spells it.  The rest and the final newline go in one last write.

    A generator is written as the list it yields, item by item, so the samples of
    ``homotopy_to_json(h, _arrays=True)`` are made as they are written.  A dict key other than
    str and a value of any other type raise ``TypeError``, a cycle ``RecursionError``, and an
    int with more digits than ``sys.get_int_max_str_digits()`` ``DomainError``; the text up to
    the last array leaf rendered is then already written.
    """
    out = []
    _encode(doc, 0, out, fh)
    out.append("\n")
    fh.write("".join(out))
