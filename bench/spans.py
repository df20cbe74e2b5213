"""Span tracing from outside the package, by rebinding its public functions.

``Tracer.install`` replaces each listed function with a wrapper in every
``shiftcalc.*`` module namespace that binds it, so calls made through a
by-name import (``aligned`` and ``homotopy`` import ``tensor`` directly) are
traced as well.  Each call records one span (name, start, end, parent span,
operation id) in flat in-memory arrays; nothing is written until the run
ends.  ``self_times`` turns the spans into per-span self time: the span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

#: The public functions the traced run times, by module.
LAYERS = {
    "exact": ("char_poly", "rank", "smith_normal_form", "mat_mul", "mat_pow"),
    "invariants": ("compute_invariants", "compare"),
    "witnesses": ("search_se", "verify_se"),
    "corr": (
        "tensor",
        "tensor_unitaries",
        "compose_unitaries",
        "unitarity_defect",
        "unitary_distance",
        "two_arrow_residual",
        "canonical_identification",
    ),
    "aligned": (
        "build_from_se",
        "verify_concrete_shift",
        "verify_aligned",
        "alignment_residuals",
        "two_arrow_residuals",
    ),
    "homotopy": ("homotopy_shift_equivalence_from_se", "connect_unitaries", "verify_homotopy"),
    "jsonio": (
        "load_json",
        "dump_json",
        "shift_to_json",
        "shift_from_json",
        "homotopy_to_json",
        "witness_from_json",
        "nonnegative_matrix_from_file",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Collects spans for calls into the wrapped functions.

    ``op`` is the id stamped on every span; the caller sets it before each
    operation.  Spans live in parallel arrays indexed by span id.
    """

    def __init__(self):
        self.op = -1
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []

    def __len__(self):
        return len(self.name)

    def wrap(self, name_id: int, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Rebind every function in ``LAYERS``; restore the originals on exit."""
        rebound = []
        for name_id, qualname in enumerate(SPAN_NAMES):
            modname, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"shiftcalc.{modname}"), fn_name)
            wrapper = self.wrap(name_id, original)
            for modkey, module in list(sys.modules.items()):
                if modkey != "shiftcalc" and not modkey.startswith("shiftcalc."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in rebound:
                setattr(module, attr, original)

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        {
                            "name": SPAN_NAMES[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op_id[i],
                        }
                    )
                    + "\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its children.

    Children are clipped to their parent's interval and merged where they
    overlap, so the result never goes negative.
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children[i]):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out
