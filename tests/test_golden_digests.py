"""Byte identity of CLI reports and bundles, pinned by sha256 digests.

Each call runs in-process from a temporary directory with relative paths,
because reports name their input files.  Every homotopy here has zero
generators (checked below), so no LAPACK rounding enters a digest: a
changed digest means a changed report, not a different BLAS.
"""

import hashlib
import json

import numpy as np

from shiftcalc import build_from_se, from_matrix, from_rows, homotopy_shift_equivalence_from_se, identity_unitary
from shiftcalc.cli import main
from shiftcalc.jsonio import block_unitary_to_json, matrix_to_json, shift_to_json, witness_to_json
from tests.test_aligned import golden_lag

HOMOTOPY_LAGS = (1, 2, 3)
HOMOTOPY_STEPS = 8
INVARIANT_MATRICES = {
    "torsion": [[3, 1], [1, 3]],  # D = 3, h = 1: the last factor is |D| = 3
    "cycle": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # D = 0, h = 3: Smith form modulo 3
    "identity": [[1, 0], [0, 1]],  # D = 0 and adj(I - A) = 0: Smith form over Z
}

#: argv -> (exit code, sha256 of stdout, sha256 of the --out file or None),
#: recorded before the aligned, homotopy, invariants and cli rewrites that
#: these digests guard.
GOLDEN = {
    "aligned from-se --witness witness-1.json --out shift-1.json": (
        0, "1b699a00f25c39420ac8638436b88dabeaa9ea848d8a532d8433b2f956fd267e",
        "1b30a30e02c35d520b8ee4dafe95261a4a7186434488a13a5269742b9bb00a7a",
    ),
    "aligned from-se --witness witness-2.json --out shift-2.json": (
        0, "79ab230849c54552994ed7752cf46d015063a08e4a9a9ca6c992deb7ca1bd95c",
        "2acad835b1fa528d655a95f076f1560b9129e4a46b753b21c9c66a0152e4ee5a",
    ),
    "aligned from-se --witness witness-3.json --out shift-3.json": (
        0, "ba50c97c0690804bc934b79867b360f27fabe5b7ca37ad943a7f16ca6a9bd3cc",
        "ab3abc3014ee784e822ca671cfc022b8042bf4796e05ea1a2d8b2453d209e727",
    ),
    "aligned from-se --witness witness-4.json --out shift-4.json": (
        0, "1fdff821d41509b066e2730387541d0010604e759ddee19bd6e729787c9e7d7a",
        "0a8d5bcd0ac8ec82f4a4256dcd1ada8ba975c53450a9de0e95f8413fbcfc99c2",
    ),
    "aligned verify --data shift-1.json": (
        0, "b8f65b29c413baee70a27b4d222680892cd01c1b31e19033bb6be954fe6820b0",
        None,
    ),
    "aligned verify --data shift-2.json": (
        0, "882b0f3168f31359fd53a49c35b17c121bca4631b1f57c16c61d12f705031ab5",
        None,
    ),
    "aligned verify --data shift-3.json": (
        0, "a663486f9da685dce01343de9522077ee8c0e358173e5bd05a6dad5053250fb4",
        None,
    ),
    "aligned verify --data shift-4.json": (
        0, "481e4d749780ea459cf6fd6c73d00a6eb96d111891766d86d50fded5c19881a1",
        None,
    ),
    "corr tensor --r r.json --s s.json": (
        0, "36ec9162141764ecde12b7dbda39fb5af8536f7c7857fb9b7cf57740b72c60cb",
        None,
    ),
    "homotopy from-se --witness witness-1.json --steps 8 --out homotopy-1.json": (
        0, "dd35dcd0da2c65bcbf764a178dc48225d5e69d9c85bbb6a3cb164d4e040da93b",
        "849635174f3ab815a9611f2d529b3378ec7f92a0b2d2d6de8c4b3e83c86db0e8",
    ),
    "homotopy from-se --witness witness-2.json --steps 8 --out homotopy-2.json": (
        0, "8e10fe33e845bbeda83354314731f7ac0259c26af6f5552aeb9ffa20fc4edf68",
        "f738003e26c94d1c792ac0afbecc1d98a30231ec286d959c75f1d6862be316fc",
    ),
    "homotopy from-se --witness witness-3.json --steps 8 --out homotopy-3.json": (
        0, "b61d3f699aaa580cd911fe5528cea19ba96f24711156c25c385a668fca4f48f3",
        "6e7e22826b7877e6c61c3348645daee32873772721c1c1417e06c035fa9192b5",
    ),
    "invariants --a cycle.json": (
        0, "d4087cec009ff965c36c9c16f97f0e021b86b911232e8aad6d2b280a2e3945eb",
        None,
    ),
    "invariants --a identity.json": (
        0, "882e7bff5b50beb01d3e982679ffadbed2d1e9714d29882a568eff3264ab6a59",
        None,
    ),
    "invariants --a torsion.json": (
        0, "f325c23a0064ebc6219b2fc88582ca38718eabe0cc68340bac7b8e782bbb6394",
        None,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return path.name


def run_calls(tmp_path, capsys) -> dict:
    """Write the fixtures into ``tmp_path`` (the working directory), run every
    call and digest what it printed and wrote."""
    calls = []
    for lag in range(1, 5):
        witness = _write(tmp_path / f"witness-{lag}.json", witness_to_json(golden_lag(lag)))
        calls.append(("aligned", "from-se", "--witness", witness, "--out", f"shift-{lag}.json"))
        calls.append(("aligned", "verify", "--data", f"shift-{lag}.json"))
        if lag in HOMOTOPY_LAGS:
            calls.append(
                ("homotopy", "from-se", "--witness", witness, "--steps", str(HOMOTOPY_STEPS),
                 "--out", f"homotopy-{lag}.json")
            )
    for name, rows in INVARIANT_MATRICES.items():
        calls.append(("invariants", "--a", _write(tmp_path / f"{name}.json", matrix_to_json(from_rows(rows)))))
    r = _write(tmp_path / "r.json", matrix_to_json(from_rows([[1, 1]])))
    s = _write(tmp_path / "s.json", matrix_to_json(from_rows([[1], [1]])))
    calls.append(("corr", "tensor", "--r", r, "--s", s))
    return digest_calls(calls, tmp_path, capsys)


def digest_calls(calls, tmp_path, capsys, stderr: bool = False) -> dict:
    """argv -> (exit code, sha256 of stdout, sha256 of the --out file or None),
    with the stderr text appended when ``stderr`` is set."""
    digests = {}
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        file_digest = _sha((tmp_path / written).read_bytes()) if written else None
        digest = (code, _sha(captured.out.encode()), file_digest)
        digests[" ".join(argv)] = digest + (captured.err,) if stderr else digest
    return digests


def test_homotopy_generators_are_exactly_zero():
    for lag in HOMOTOPY_LAGS:
        _, hom_x, hom_y = homotopy_shift_equivalence_from_se(golden_lag(lag), steps=HOMOTOPY_STEPS)
        for hom in (hom_x, hom_y):
            assert all(not np.any(block) for block in hom.path.generator.values())


def test_reports_and_bundles_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTCALC_TOL", raising=False)
    assert run_calls(tmp_path, capsys) == GOLDEN


#: name -> (A, B, lag, bound) of each ``search-se`` recovery case: the golden
#: [[2]] ~ [[1,1],[1,1]], and the four lag-2 cases that
#: ``bench/workloads.py::_recovery_case(rng, 3, 2, 3)`` draws first from
#: ``random.Random(5)``, each searched at its witness's largest entry.  Every
#: case has a refutation twin, B with its first diagonal entry raised: the
#: traces differ, so no witness exists at any bound.
SEARCH_CASES = {
    "golden": ([[2]], [[1, 1], [1, 1]], 1, 1),
    "probe-0": (
        [[2, 1, 2], [1, 2, 2], [2, 2, 0]],
        [[2, 1, 0, 2, 0], [1, 2, 2, 0, 2], [2, 1, 0, 0, 0], [2, 2, 0, 0, 0], [0, 1, 0, 0, 0]],
        2, 2,
    ),
    "probe-1": (
        [[0, 2, 0], [0, 0, 1], [1, 0, 1]],
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, 1, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
        2, 1,
    ),
    "probe-2": (
        [[0, 2, 2], [1, 0, 0], [1, 0, 0]],
        [[0, 0, 1, 0, 0], [1, 0, 0, 1, 1], [1, 0, 0, 1, 1], [0, 1, 1, 0, 0], [0, 1, 0, 0, 0]],
        2, 2,
    ),
    "probe-3": (
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
        [[0, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 1], [1, 0, 0, 0, 1]],
        2, 1,
    ),
}

#: argv -> (exit code, sha256 of stdout, None), recorded before the bounded
#: search kept running sums.
SEARCH_GOLDEN = {
    "search-se --a search-golden-a.json --b search-golden-recovery-b.json --lag 1 --bound 1": (
        0, "cd4d5b7997966f35f5de86a867a89b9b5fc76ed9eee88373255708aed756c958", None,
    ),
    "search-se --a search-golden-a.json --b search-golden-refutation-b.json --lag 1 --bound 1": (
        1, "e587048a22ba67a22321c875052d202472d66a8e8d1ed6c21820df5bfe6cc593", None,
    ),
    "search-se --a search-probe-0-a.json --b search-probe-0-recovery-b.json --lag 2 --bound 2": (
        0, "c3c1be87b900479d500dcc00894900e12d4644c52b2dfea05f65c9c98664f0a3", None,
    ),
    "search-se --a search-probe-0-a.json --b search-probe-0-refutation-b.json --lag 2 --bound 2": (
        1, "ce570d1d50cb880adbd793f79166578990cac8863a55428d5572451704ccabcc", None,
    ),
    "search-se --a search-probe-1-a.json --b search-probe-1-recovery-b.json --lag 2 --bound 1": (
        0, "49c53342ce8d3acbfd77061800423f929d2a11e1d9ddf5e40cd224abe4d4a489", None,
    ),
    "search-se --a search-probe-1-a.json --b search-probe-1-refutation-b.json --lag 2 --bound 1": (
        1, "cccda33186f8bf365b2d1081c69104e5ba2215d50925b26a7b67fd6d1175cd7c", None,
    ),
    "search-se --a search-probe-2-a.json --b search-probe-2-recovery-b.json --lag 2 --bound 2": (
        0, "a7cdc9b5616a4dcd8fdb4e480a1de12b4cbb30bc5578adb9b64c7607e0cfc007", None,
    ),
    "search-se --a search-probe-2-a.json --b search-probe-2-refutation-b.json --lag 2 --bound 2": (
        1, "82838bdeb0fa143f546a6693a77eea6b3004f7f73cb411661124b963342472f2", None,
    ),
    "search-se --a search-probe-3-a.json --b search-probe-3-recovery-b.json --lag 2 --bound 1": (
        0, "b5524b19cc1a5790e1e17a5ee038ae2e30d031d98bc42dcee00b5528393363ae", None,
    ),
    "search-se --a search-probe-3-a.json --b search-probe-3-refutation-b.json --lag 2 --bound 1": (
        1, "18903766a52d2f8f23754db76bef631910b5c8a8a72b9143729a21918369f2d3", None,
    ),
}


def search_calls(tmp_path) -> list:
    """Write every ``SEARCH_CASES`` pair and its twin; the ``search-se`` argv of each."""
    calls = []
    for name, (a, b, lag, bound) in SEARCH_CASES.items():
        twin = [list(row) for row in b]
        twin[0][0] += 1
        a_path = _write(tmp_path / f"search-{name}-a.json", matrix_to_json(from_rows(a)))
        for tag, rows in (("recovery", b), ("refutation", twin)):
            b_path = _write(tmp_path / f"search-{name}-{tag}-b.json", matrix_to_json(from_rows(rows)))
            calls.append(("search-se", "--a", a_path, "--b", b_path, "--lag", str(lag), "--bound", str(bound)))
    return calls


def test_search_reports_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digest_calls(search_calls(tmp_path), tmp_path, capsys) == SEARCH_GOLDEN


DELETE = object()
BLOCK = ("psi_x", "blocks", "0,0")  # the one 2x2 block of the golden lag-1 Psi_X

#: name -> faults, each a path into the golden lag-1 shift bundle and the value
#: put there (``DELETE`` removes a key).  One bundle per message the shift,
#: object, matrix, block unitary and block readers give, and two with two
#: faults in one block, where the first in row order is named.
MALFORMED = {
    "not-an-object": [((), [])],
    "missing-field": [(("psi_y",), DELETE)],
    "lag-zero": [(("lag",), 0)],
    "lag-unfit": [(("lag",), 2)],
    "object-no-matrix": [(("x",), 5)],
    "object-labels": [(("x", "labels"), 5)],
    "matrix-not-an-object": [(("m_dims",), [])],
    "matrix-missing-field": [(("m_dims", "cols"), DELETE)],
    "matrix-shape": [(("m_dims", "rows"), 1.5)],
    "matrix-grid-rows": [(("m_dims", "entries"), [[1, 1], [1, 1]])],
    "matrix-row-length": [(("m_dims", "entries", 0), [1])],
    "matrix-entry": [(("m_dims", "entries", 0, 0), "1")],
    "unitary-not-an-object": [(("psi_x",), [])],
    "unitary-missing-field": [(("psi_x", "blocks"), DELETE)],
    "unitary-left-index": [(("psi_x", "left_index"), 5)],
    "unitary-right-index": [(("psi_x", "right_index"), 5)],
    "unitary-dims-lists": [(("psi_x", "dims"), [2])],
    "unitary-dims-entry": [(("psi_x", "dims", 0, 0), "2")],
    "unitary-dims-bool": [(("psi_y", "dims", 0, 0), True)],
    "unitary-blocks": [(("psi_x", "blocks"), 5)],
    "unitary-shape": [(("psi_x", "dims"), [[3]])],
    "unitary-missing-block": [(BLOCK, DELETE)],
    "block-rows": [(BLOCK, [])],
    "block-row-length": [((*BLOCK, 1), [[1.0, 0.0]])],
    "block-pair": [((*BLOCK, 1, 0), [1.0])],
    "block-bool": [((*BLOCK, 1, 0), [True, 0.0])],
    "block-too-large": [((*BLOCK, 1, 1), [0, 10**400])],
    "block-not-finite": [((*BLOCK, 0, 1), [float("nan"), 0.0])],
    "block-not-finite-then-pair": [((*BLOCK, 0, 0), [float("inf"), 0.0]), ((*BLOCK, 1, 1), [None, 0.0])],
    "block-too-large-then-pair": [((*BLOCK, 0, 1), [10**400, 0]), ((*BLOCK, 1, 0), ["x", 0.0])],
}

#: name -> (exit code, stderr) of ``aligned verify --data <name>.json``, recorded
#: before the block reader lost its second path.  Only "unitary-dims-bool"
#: changed since: it was read as dims 1 and verified (0, "").
MALFORMED_STDERR = {
    "invalid-json": (65, "shiftcalc: invalid-json.json: invalid JSON at line 1, column 1254\n"),
    "not-an-object": (65, "shiftcalc: shift document must be a JSON object\n"),
    "missing-field": (65, "shiftcalc: shift document is missing 'psi_y'\n"),
    "lag-zero": (65, "shiftcalc: lag must be a positive integer\n"),
    "lag-unfit": (65, "shiftcalc: lag 2 does not fit the bundle: A^lag = R S fails\n"),
    "object-no-matrix": (65, "shiftcalc: object document needs a 'matrix'\n"),
    "object-labels": (65, "shiftcalc: object 'labels' must be a list\n"),
    "matrix-not-an-object": (65, "shiftcalc: matrix document must be a JSON object\n"),
    "matrix-missing-field": (65, "shiftcalc: matrix document is missing 'cols'\n"),
    "matrix-shape": (65, "shiftcalc: matrix shape must be integers\n"),
    "matrix-grid-rows": (65, "shiftcalc: entry grid has the wrong number of rows\n"),
    "matrix-row-length": (65, "shiftcalc: row 0 has the wrong length\n"),
    "matrix-entry": (65, "shiftcalc: row 0 has a non-integer entry\n"),
    "unitary-not-an-object": (65, "shiftcalc: block unitary document must be a JSON object\n"),
    "unitary-missing-field": (65, "shiftcalc: block unitary document is missing 'blocks'\n"),
    "unitary-left-index": (65, "shiftcalc: block unitary 'left_index' must be a list\n"),
    "unitary-right-index": (65, "shiftcalc: block unitary 'right_index' must be a list\n"),
    "unitary-dims-lists": (65, "shiftcalc: block unitary 'dims' must be a list of lists\n"),
    "unitary-dims-entry": (65, "shiftcalc: expected an integer entry, got '2'\n"),
    "unitary-dims-bool": (65, "shiftcalc: block unitary 'dims' has a boolean entry\n"),
    "unitary-blocks": (65, "shiftcalc: block unitary 'blocks' must be a JSON object\n"),
    "unitary-shape": (65, "shiftcalc: block unitary shape does not match the expected correspondence\n"),
    "unitary-missing-block": (65, "shiftcalc: missing block '0,0'\n"),
    "block-rows": (65, "shiftcalc: block '0,0': block must have 2 rows\n"),
    "block-row-length": (65, "shiftcalc: block '0,0': row 1 must have 2 entries\n"),
    "block-pair": (65, "shiftcalc: block '0,0': entry (1, 0) must be an [re, im] pair of numbers\n"),
    "block-bool": (65, "shiftcalc: block '0,0': entry (1, 0) must be an [re, im] pair of numbers\n"),
    "block-too-large": (65, "shiftcalc: block '0,0': entry (1, 1) is too large\n"),
    "block-not-finite": (65, "shiftcalc: block '0,0': entries must be finite\n"),
    "block-not-finite-then-pair": (
        65, "shiftcalc: block '0,0': entry (1, 1) must be an [re, im] pair of numbers\n",
    ),
    "block-too-large-then-pair": (65, "shiftcalc: block '0,0': entry (0, 1) is too large\n"),
}


def malformed_bundles() -> dict[str, str]:
    """name -> text of each ``MALFORMED`` bundle, and of one truncated bundle."""
    golden = json.dumps(shift_to_json(build_from_se(golden_lag(1))))
    texts = {"invalid-json": golden[:-1]}
    for name, faults in MALFORMED.items():
        doc = json.loads(golden)
        for path, value in faults:
            if not path:
                doc = value
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        texts[name] = json.dumps(doc)
    return texts


def test_malformed_bundles_give_the_recorded_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, text in malformed_bundles().items():
        (tmp_path / f"{name}.json").write_text(text)
        code = main(["aligned", "verify", "--data", f"{name}.json"])
        got[name] = (code, capsys.readouterr().err)
    assert got == MALFORMED_STDERR


#: argv -> (exit code, sha256 of stdout, sha256 of the --out file or None, stderr)
#: of ``aligned from-se`` with override files, and ``aligned verify`` on what it
#: wrote, recorded before each shift's endpoints were decided in one place.
#: The files hold the canonical Phi_M and Psi_Y of each golden lag, so every
#: residual is exactly 0; the Psi_X file has the wrong dims.
OVERRIDE_GOLDEN = {
    "aligned from-se --witness witness-1.json --phi-m phi-m-1.json --psi-y psi-y-1.json --out override-1.json": (
        0, "7c3a00cd0858caf34fbe8edac7d715637451ef23f32b6da85fd4a357c91605b7",
        "1b30a30e02c35d520b8ee4dafe95261a4a7186434488a13a5269742b9bb00a7a",
        "",
    ),
    "aligned verify --data override-1.json": (
        0, "f1827b53666bb464ef77fd4edcd094bfd05a8f97caf80d74091a0a935c2229a0",
        None,
        "",
    ),
    "aligned from-se --witness witness-1.json --psi-x psi-x-wrong.json": (
        65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
        "shiftcalc: block unitary shape does not match the expected correspondence\n",
    ),
    "aligned from-se --witness witness-2.json --phi-m phi-m-2.json --psi-y psi-y-2.json --out override-2.json": (
        0, "3a728cea26fabb2b7413305a757b169b1da1f1e7a29f730a756b19af53241e1d",
        "2acad835b1fa528d655a95f076f1560b9129e4a46b753b21c9c66a0152e4ee5a",
        "",
    ),
    "aligned verify --data override-2.json": (
        0, "e8503d9f592482bd190ae57ae25df65e54db5e12cb835ccb73c43ab5ebad5939",
        None,
        "",
    ),
    "aligned from-se --witness witness-2.json --psi-x psi-x-wrong.json": (
        65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
        "shiftcalc: block unitary shape does not match the expected correspondence\n",
    ),
    "aligned from-se --witness witness-3.json --phi-m phi-m-3.json --psi-y psi-y-3.json --out override-3.json": (
        0, "3eadb5e0a9229f9939851d697e5e0345e4291921a72f7b6324d5d50a01d07c25",
        "ab3abc3014ee784e822ca671cfc022b8042bf4796e05ea1a2d8b2453d209e727",
        "",
    ),
    "aligned verify --data override-3.json": (
        0, "0144fc3c655d133c017784202327a5d17cdcd9b7c56f9f5a0a26ed47986c3d32",
        None,
        "",
    ),
    "aligned from-se --witness witness-3.json --psi-x psi-x-wrong.json": (
        65, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
        "shiftcalc: block unitary shape does not match the expected correspondence\n",
    ),
}


def override_calls(tmp_path) -> list:
    """Write the witness and override files of each lag; the argv of each call."""
    wrong = identity_unitary(from_matrix(from_rows([[3]])))
    wrong_path = _write(tmp_path / "psi-x-wrong.json", block_unitary_to_json(wrong))
    calls = []
    for lag in HOMOTOPY_LAGS:
        shift = build_from_se(golden_lag(lag))
        witness = _write(tmp_path / f"witness-{lag}.json", witness_to_json(golden_lag(lag)))
        phi_m = _write(tmp_path / f"phi-m-{lag}.json", block_unitary_to_json(shift.m_arrow.phi))
        psi_y = _write(tmp_path / f"psi-y-{lag}.json", block_unitary_to_json(shift.psi_y))
        out = f"override-{lag}.json"
        calls.append(
            ("aligned", "from-se", "--witness", witness, "--phi-m", phi_m, "--psi-y", psi_y, "--out", out)
        )
        calls.append(("aligned", "verify", "--data", out))
        calls.append(("aligned", "from-se", "--witness", witness, "--psi-x", wrong_path))
    return calls


def test_override_runs_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTCALC_TOL", raising=False)
    assert digest_calls(override_calls(tmp_path), tmp_path, capsys, stderr=True) == OVERRIDE_GOLDEN


#: argv -> (exit code, sha256 of stdout, None) of the runs whose report embeds the
#: bundle (no ``--out``), recorded before reports and bundles were streamed.
EMBEDDED_GOLDEN = {
    "aligned from-se --witness witness-1.json": (
        0, "e312e99e3c3b487534a503c0416a7ed5413b02798aaaaab9e1dd251d7be80378", None,
    ),
    "homotopy from-se --witness witness-1.json --steps 8": (
        0, "56283d54bb6e107684c4553ffb9e9821af177668ee80957a45eab5af8b07f91c", None,
    ),
    "aligned from-se --witness witness-2.json": (
        0, "50f8ddd7d3dd24ff9c0f18ec1e3d48c416ecb11d27b942d6c347b0ecff58169c", None,
    ),
    "homotopy from-se --witness witness-2.json --steps 8": (
        0, "10b4caca923cd1f76b1de5055e8cdd8b817c4902a1e0b3eeb71e1a5e50337be6", None,
    ),
    "aligned from-se --witness witness-3.json": (
        0, "70285de2e812dd4b878df09d5fadcbb628821845b4124018896eb382e0e878eb", None,
    ),
    "homotopy from-se --witness witness-3.json --steps 8": (
        0, "4e0f6fb3dd0b6c777fdcb571fe39fb8eeb757e1dc8c542eef85a4c000327a945", None,
    ),
    "aligned from-se --witness witness-4.json": (
        0, "01939aae6a77ca89e1b1bc693b0b6aa1356ac8de3522481f0f6f27729257cb26", None,
    ),
}


def embedded_calls(tmp_path) -> list:
    """The ``aligned from-se`` and ``homotopy from-se`` calls without ``--out``, whose
    reports embed the bundle: written by the same stream as a bundle file."""
    calls = []
    for lag in range(1, 5):
        witness = _write(tmp_path / f"witness-{lag}.json", witness_to_json(golden_lag(lag)))
        calls.append(("aligned", "from-se", "--witness", witness))
        if lag in HOMOTOPY_LAGS:
            calls.append(("homotopy", "from-se", "--witness", witness, "--steps", str(HOMOTOPY_STEPS)))
    return calls


def test_embedded_reports_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTCALC_TOL", raising=False)
    assert digest_calls(embedded_calls(tmp_path), tmp_path, capsys) == EMBEDDED_GOLDEN
