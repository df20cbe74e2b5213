"""The four benchmark workloads.

Each workload writes its fixtures from a seed and returns one *cycle*: the
list of CLI calls that the closed loop repeats, with the expectation each
output must meet and the problem size each call handles.  Entries repeat
inside a cycle to weight cheap calls against expensive ones, so that a run
of a few whole cycles still yields enough samples for a tail percentile.

Why these four (each exercises layers that another one bypasses):

* ``aligned-perm``: every unitary is a permutation; time goes to
  correspondence bookkeeping (``tensor``, ``tensor_unitaries``), SVD
  verification and JSON.  The exact layer does almost nothing.
* ``dense-homotopy``: every interior unitary is dense; time goes to the
  Schur logarithm, path sampling, per-sample ``unitarity_defect`` and a
  float-heavy JSON bundle.  Permutation shortcuts are bypassed.
* ``invariants``: ``char_poly``, ``rank(A^n)`` and Smith normal form do all
  of the work and numpy none; the bypass for every numerical change.
* ``search``: bounded witness search (``_bounded_intertwiners`` and small
  ``mat_mul`` calls); the bypass for ``invariants`` and vice versa.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from shiftcalc import jsonio
from shiftcalc.aligned import build_from_se, conjugate_shift
from shiftcalc.corr import random_block_unitary
from shiftcalc.exact import from_rows, mat_mul
from shiftcalc.witnesses import SEWitness, compose_se, fold_chain, identity_witness, random_sse_chain

#: Problem sizes per workload; "tiny" is for the benchmark's own smoke test.
SIZES = {
    "full": {
        # (lag, repeats per cycle) of the from-se + verify pair
        "aligned-perm": {"lags": ((6, 6), (7, 2), (8, 1))},
        "dense-homotopy": {
            "homotopy_lags": ((4, 4), (5, 1), (6, 1)),
            "verify_lags": ((6, 8), (7, 6)),
            "steps": 16,
        },
        "invariants": {
            "invariants_n": ((20, 2), (30, 2), (40, 1)),
            "chain_base_n": 10,
            "chain_steps": 10,
            "chain_pairs": 2,
            "distinct_n": 20,
            "distinct_pairs": 6,
        },
        # (base n, lag, entry cap, cases): recovery strata; each recovery
        # case has one refutation twin
        "search": {"strata": ((2, 3, 2, 80), (2, 2, 3, 40))},
    },
    "tiny": {
        "aligned-perm": {"lags": ((1, 1), (2, 1))},
        "dense-homotopy": {"homotopy_lags": ((1, 1), (2, 1)), "verify_lags": ((2, 1),), "steps": 4},
        "invariants": {
            "invariants_n": ((3, 1), (4, 1)),
            "chain_base_n": 3,
            "chain_steps": 2,
            "chain_pairs": 1,
            "distinct_n": 3,
            "distinct_pairs": 1,
        },
        "search": {"strata": ((2, 2, 2, 2),)},
    },
}

#: Percentile reported as op_tail_s.  Fixed per workload so that commits are
#: compared at the same point of the same mix; each is chosen so that a run
#: of whole cycles at the seed's speed has at least ten samples beyond it.
#: The repeat counts in SIZES put this percentile and the median near the
#: middle of one call kind's band of sorted times, away from the edges where
#: neighbouring kinds overlap.
TAIL_PERCENTILE = {"aligned-perm": 72, "dense-homotopy": 75, "invariants": 85, "search": 90}


@dataclass
class Op:
    """One CLI call of the cycle.

    ``want_rc`` is the expected exit code and ``command`` the report's
    command name; ``expect(verdict)`` returns the problems with one report's
    verdict.  ``post()`` checks what the call left behind (a written bundle)
    and runs once per distinct argv.  ``sizes`` is the problem size, taken
    from the fixture.
    """

    argv: tuple
    kind: str
    command: str
    want_rc: int
    expect: Callable[[dict], list]
    sizes: dict = field(default_factory=dict)
    post: Callable[[], list] | None = None


@dataclass
class Workload:
    cycle: list
    tail_percentile: int


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _golden(lag: int) -> SEWitness:
    """The witness [[2]] ~ [[1,1],[1,1]] lifted to ``lag`` by identity witnesses."""
    w = SEWitness(from_rows([[2]]), from_rows([[1, 1], [1, 1]]), from_rows([[1, 1]]), from_rows([[1], [1]]), 1)
    while w.lag < lag:
        w = compose_se(w, identity_witness(w.b))
    return w


def _shift_sizes(w: SEWitness) -> dict:
    """Total dimension and largest block over the four structure maps,
    whose block dimensions are AR, BS, A^m = RS and B^m = SR."""
    dims = [mat_mul(w.a, w.r), mat_mul(w.b, w.s), mat_mul(w.r, w.s), mat_mul(w.s, w.r)]
    return {
        "lag": w.lag,
        "total_dim": max(sum(map(sum, d.entries)) for d in dims),
        "max_block_dim": max(max(map(max, d.entries)) for d in dims),
    }


def _random_essential(rng: random.Random, n: int, max_entry: int):
    rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            rows[rng.randrange(n)][j] = 1
    return from_rows(rows)


def _trace(a) -> int:
    return sum(a[i, i] for i in range(a.rows))


def aligned_perm(fixtures: str, seed: int, sizes: dict) -> list:
    """``aligned from-se --out`` then ``aligned verify`` on the bundle just written.

    The input is deterministic (the golden witness); the seed only picks the
    order of the lags inside a cycle.
    """
    lags = list(sizes["lags"])
    random.Random(seed).shuffle(lags)
    cycle = []
    for lag, repeats in lags:
        w = _golden(lag)
        witness = _write(os.path.join(fixtures, f"witness-lag{lag}.json"), jsonio.witness_to_json(w))
        bundle = os.path.join(fixtures, f"shift-lag{lag}.json")
        size = _shift_sizes(w)
        build = Op(
            ("aligned", "from-se", "--witness", witness, "--out", bundle),
            f"aligned from-se lag={lag}",
            "aligned from-se",
            0,
            lambda v, out=bundle: checks.aligned_from_se_problems(v, out),
            size,
        )
        verify = Op(
            ("aligned", "verify", "--data", bundle),
            f"aligned verify lag={lag}",
            "aligned verify",
            0,
            checks.aligned_verify_problems,
            size,
        )
        cycle += [build, verify] * repeats
    return cycle


def dense_homotopy(fixtures: str, seed: int, sizes: dict) -> list:
    """``homotopy from-se`` on golden lags, and ``aligned verify`` on golden
    shifts conjugated by seeded Haar-random block unitaries (still aligned,
    as conjugation cancels out of both coherence equations)."""
    steps = sizes["steps"]
    cycle = []
    for lag, repeats in sizes["homotopy_lags"]:
        w = _golden(lag)
        witness = _write(os.path.join(fixtures, f"witness-lag{lag}.json"), jsonio.witness_to_json(w))
        bundle = os.path.join(fixtures, f"homotopy-lag{lag}.json")
        op = Op(
            ("homotopy", "from-se", "--witness", witness, "--steps", str(steps), "--out", bundle),
            f"homotopy from-se lag={lag}",
            "homotopy from-se",
            0,
            lambda v, out=bundle: checks.homotopy_problems(v, steps, out),
            _shift_sizes(w),
            lambda out=bundle: checks.homotopy_bundle_problems(out, steps),
        )
        cycle += [op] * repeats
    rng = np.random.default_rng(seed)
    for lag, repeats in sizes["verify_lags"]:
        w = _golden(lag)
        shift = build_from_se(w)
        dense = conjugate_shift(
            shift, random_block_unitary(shift.m_arrow.f, rng), random_block_unitary(shift.n_arrow.f, rng)
        )
        data = _write(os.path.join(fixtures, f"dense-shift-lag{lag}.json"), jsonio.shift_to_json(dense))
        op = Op(
            ("aligned", "verify", "--data", data),
            f"aligned verify dense lag={lag}",
            "aligned verify",
            0,
            checks.aligned_verify_problems,
            _shift_sizes(w),
        )
        cycle += [op] * repeats
    random.Random(seed).shuffle(cycle)
    return cycle


def invariants(fixtures: str, seed: int, sizes: dict) -> list:
    """``invariants`` on random essential matrices (entries 0..3), and
    ``compare`` on shift-equivalent chain endpoints (exit 0, inconclusive)
    and on random pairs with different traces (exit 2)."""
    rng = random.Random(seed)
    cycle = []

    def matrix_file(name: str, m) -> str:
        return _write(os.path.join(fixtures, name), jsonio.matrix_to_json(m))

    for n, count in sizes["invariants_n"]:
        for k in range(count):
            a = _random_essential(rng, n, 3)
            path = matrix_file(f"inv-n{n}-{k}.json", a)
            rows = a.to_lists()
            cycle.append(
                Op(
                    ("invariants", "--a", path),
                    f"invariants n={n}",
                    "invariants",
                    0,
                    lambda v, rows=rows: checks.invariants_problems(v, checks.invariants_oracle(rows)),
                    {"matrix_n": n},
                )
            )
    n0, steps = sizes["chain_base_n"], sizes["chain_steps"]
    for k in range(sizes["chain_pairs"]):
        chain = random_sse_chain(_random_essential(rng, n0, 3), steps, rng.randrange(1 << 30))
        a, b = chain.steps[0].a, chain.steps[-1].b
        cycle.append(
            Op(
                ("compare", "--a", matrix_file(f"chain-{k}-a.json", a), "--b", matrix_file(f"chain-{k}-b.json", b)),
                f"compare chain n={a.rows}~{b.rows}",
                "compare",
                0,
                lambda v: checks.compare_problems(v, distinguished=False),
                {"matrix_n": b.rows},
            )
        )
    n = sizes["distinct_n"]
    for k in range(sizes["distinct_pairs"]):
        a = _random_essential(rng, n, 3)
        b = _random_essential(rng, n, 3)
        while _trace(b) == _trace(a):
            b = _random_essential(rng, n, 3)
        cycle.append(
            Op(
                ("compare", "--a", matrix_file(f"pair-{k}-a.json", a), "--b", matrix_file(f"pair-{k}-b.json", b)),
                f"compare distinct n={n}",
                "compare",
                2,
                lambda v: checks.compare_problems(v, distinguished=True),
                {"matrix_n": n},
            )
        )
    random.Random(seed).shuffle(cycle)
    return cycle


def _recovery_case(rng: random.Random, n: int, lag: int, cap: int) -> SEWitness:
    """A folded lag-``lag`` chain from a random n-by-n base (entries <= 2)
    whose witness has no entry above ``cap``; chains above the cap are
    redrawn, which keeps every search bounded."""
    while True:
        base = _random_essential(rng, n, 2)
        if not any(sum(row) >= 2 for row in base.entries):
            continue
        w = fold_chain(random_sse_chain(base, lag, rng.randrange(1 << 30)))
        if max(max(row) for m in (w.r, w.s) for row in m.entries) <= cap:
            return w


def search(fixtures: str, seed: int, sizes: dict) -> list:
    """``search-se`` on recovery cases (exit 0, a witness within the bound
    exists) and on their refutation twins: the same pair with one diagonal
    entry of B raised, so the traces differ, ``compare`` distinguishes the
    pair and no witness exists at any bound (exit 1)."""
    rng = random.Random(seed)
    cycle = []
    k = 0
    for n, lag, cap, count in sizes["strata"]:
        for _ in range(count):
            w = _recovery_case(rng, n, lag, cap)
            bound = max(max(row) for m in (w.r, w.s) for row in m.entries)
            rows = w.b.to_lists()
            i = rng.randrange(len(rows))
            rows[i][i] += 1
            b_twin = from_rows(rows)
            a_path = _write(os.path.join(fixtures, f"search-{k}-a.json"), jsonio.matrix_to_json(w.a))
            for b, found, tag in ((w.b, True, "recovery"), (b_twin, False, "refutation")):
                b_path = _write(os.path.join(fixtures, f"search-{k}-{tag}-b.json"), jsonio.matrix_to_json(b))
                cycle.append(
                    Op(
                        ("search-se", "--a", a_path, "--b", b_path, "--lag", str(lag), "--bound", str(bound)),
                        f"search-se {tag} n={n} lag={lag}",
                        "search-se",
                        0 if found else 1,
                        lambda v, a=w.a, b=b, lag=lag, bound=bound, found=found: checks.search_problems(
                            v, a, b, lag, bound, found
                        ),
                        {"lag": lag, "matrix_n": b.rows, "search_bound": bound},
                    )
                )
            k += 1
    random.Random(seed).shuffle(cycle)
    return cycle


BUILDERS = {
    "aligned-perm": aligned_perm,
    "dense-homotopy": dense_homotopy,
    "invariants": invariants,
    "search": search,
}


def build(name: str, fixtures: str, seed: int, scale: str = "full") -> Workload:
    os.makedirs(fixtures, exist_ok=True)
    cycle = BUILDERS[name](fixtures, seed, SIZES[scale][name])
    return Workload(cycle, TAIL_PERCENTILE[name])
