"""End-to-end command-line behavior: documents, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

from braids import pd_text, torus_2
from cochains import coboundary_of, indicator
from coloring_oracle import counts_are_cycles, weights
from quandlekit import cli, invariants
from quandlekit.cli import main
from quandlekit.diagrams import CORPUS_NAMES, named_diagram
from quandlekit.homology import cocycle_basis
from quandlekit.quandles import (
    QuandleTable,
    class_representatives,
    dihedral_quandle,
    enumerate_quandles,
    isomorphic_tables,
)
from test_quandles import canonical_form

D3_ROWS = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
T2_ROWS = [[0, 0], [1, 1]]
T3_ROWS = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "d3": write("d3.json", {"n": 3, "table": D3_ROWS}),
        "t2": write("t2.json", {"n": 2, "table": T2_ROWS}),
        "t3": write("t3.json", {"n": 3, "table": T3_ROWS}),
        "bad": write("bad.json", {"n": 3, "table": [[0, 0, 0], [1, 1, 1], [2, 2, 0]]}),
        "ind01": write("ind01.json", {"coeff": "Z", "values": [[0, 1], [0, 0]]}),
        "dir": tmp_path,
    }


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return rc, doc, captured.err


def test_quandle_check_valid(capsys, files):
    rc, doc, err = run(capsys, ["quandle", "check", "-f", files["d3"]])
    assert rc == 0
    assert doc == {"n": 3, "valid": True, "violations": []}
    assert "connected" in err


def test_quandle_check_invalid_exits_1_with_witness(capsys, files):
    rc, doc, err = run(capsys, ["quandle", "check", "-f", files["bad"]])
    assert rc == 1
    assert doc["valid"] is False
    assert doc["violations"][0] == {"axiom": 1, "witness": [2]}
    assert "axiom 1" in err


def test_missing_file_exits_2(capsys, files):
    rc, doc, err = run(capsys, ["quandle", "check", "-f", str(files["dir"] / "no.json")])
    assert rc == 2 and doc is None
    assert "error" in err


@pytest.mark.parametrize("n, rows", [
    (True, [[0]]),  # JSON true is an int to Python, and equals 1
    (2.0, T2_ROWS),
    ("2", T2_ROWS),
    (3, T2_ROWS),
])
def test_quandle_check_rejects_a_declared_n_that_is_not_the_integer_size(capsys, tmp_path, n, rows):
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"n": n, "table": rows}))
    rc, doc, err = run(capsys, ["quandle", "check", "-f", str(p)])
    assert rc == 2 and doc is None
    assert "declared n=%r" % (n,) in err


def test_quandle_info(capsys, files):
    rc, doc, _ = run(capsys, ["quandle", "info", "-f", files["t3"]])
    assert rc == 0
    assert doc["orbit_count"] == 3
    assert doc["connected"] is False
    assert doc["orbits"] == [[0], [1], [2]]
    rc, doc, _ = run(capsys, ["quandle", "info", "-f", files["d3"]])
    assert doc["connected"] is True and doc["orbit_count"] == 1


def test_quandle_gen_writes_iso_classes(capsys, files, monkeypatch):
    monkeypatch.chdir(files["dir"])
    rc, doc, _ = run(capsys, ["quandle", "gen", "--order", "3", "--dedupe"])
    assert rc == 0
    assert doc["count"] == 3
    assert len(doc["files"]) == 3
    for path in doc["files"]:
        loaded = json.loads(open(path).read())
        assert len(loaded["table"]) == 3
    rc, doc, _ = run(capsys, ["quandle", "gen", "--order", "7"])
    assert rc == 2


def test_cohomology_rank_examples(capsys, files):
    rc, doc, _ = run(
        capsys, ["cohomology", "-f", files["d3"], "-n", "2", "--sign", "neg", "--coeff", "Q"]
    )
    assert rc == 0
    assert doc["group"] == {"free_rank": 0, "torsion": []}
    rc, doc, _ = run(
        capsys,
        ["cohomology", "-f", files["d3"], "-n", "2", "--sign", "neg", "--coeff", "Q",
         "--flavor", "rack"],
    )
    assert rc == 0
    assert doc["group"] == {"free_rank": 1, "torsion": []}
    assert doc["pretty"] == "Z"


def test_cohomology_rejects_degree_4(capsys, files):
    rc, _, err = run(
        capsys, ["cohomology", "-f", files["d3"], "-n", "4", "--sign", "neg"]
    )
    assert rc == 2 and "degree" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--max-order", "0"], "max order must be between 1 and 6"),
    (["verify", "--max-order", "7"], "max order must be between 1 and 6"),
    (["quandle", "gen", "--order", "0"], "order must be between 1 and 6"),
    (["cohomology", "-f", "d3", "-n", "0", "--sign", "neg"], "degree must be between 1 and 3"),
    (["cohomology", "-f", "d3", "-n", "4", "--sign", "neg"], "degree must be between 1 and 3"),
    (["quandle", "gen", "--order", "7"], "order must be between 1 and 6"),
])
def test_out_of_range_bounds_exit_2_before_any_work(capsys, files, monkeypatch, argv, message):
    monkeypatch.chdir(files["dir"])
    before = sorted(os.listdir(files["dir"]))
    rc, doc, err = run(capsys, [files["d3"] if a == "d3" else a for a in argv])
    assert rc == 2 and doc is None
    assert err == "error: %s\n" % message
    assert sorted(os.listdir(files["dir"])) == before


def test_cocycles_inline_and_files(capsys, files):
    rc, doc, _ = run(capsys, ["cocycles", "-f", files["t2"], "--sign", "neg", "--coeff", "Z"])
    assert rc == 0
    assert doc["count"] == 2
    assert all(d["coeff"] == "Z" for d in doc["basis"])
    outdir = str(files["dir"] / "cx")
    rc, doc, _ = run(
        capsys,
        ["cocycles", "-f", files["t2"], "--sign", "neg", "--coeff", "Z", "--out", outdir],
    )
    assert rc == 0 and len(doc["files"]) == 2
    assert all(os.path.exists(p) for p in doc["files"])
    rc, _, _ = run(capsys, ["cocycles", "-f", files["t2"], "--sign", "neg", "--coeff", "Q"])
    assert rc == 2


def test_invariant_document_shape(capsys, files, tmp_path):
    outdir = str(tmp_path / "d3neg")
    run(capsys, ["cocycles", "-f", files["d3"], "--sign", "neg", "--out", outdir])
    rc, doc, _ = run(
        capsys,
        ["invariant", "-q", files["d3"], "-k", "trefoil", "--mode", "neg",
         "--coeff", "Z", "--cocycle", os.path.join(outdir, "cocycle_000.json")],
    )
    assert rc == 0
    assert doc == {
        "quandle": D3_ROWS,
        "diagram": "trefoil",
        "mode": "neg",
        "coeff": "Z",
        "colorings": 9,
        "invariant": [["0", 9]],
        "trivial": True,
    }


def test_invariant_hopf_distinguishes_unlink(capsys, files):
    rc, hopf, _ = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", "neg",
         "--cocycle", files["ind01"]],
    )
    rc2, unlink, _ = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "unlink2", "--mode", "neg",
         "--cocycle", files["ind01"]],
    )
    assert rc == rc2 == 0
    assert hopf["invariant"] == [["-1", 2], ["0", 2]] and not hopf["trivial"]
    assert unlink["invariant"] == [["0", 4]] and unlink["trivial"]


def test_invariant_accepts_pd_file_and_outer_face(capsys, files, tmp_path):
    pd = tmp_path / "tref.txt"
    pd.write_text("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]\n")
    rc, doc, _ = run(
        capsys,
        ["invariant", "-q", files["d3"], "-k", str(pd), "--mode", "neg",
         "--cocycle", files["ind01"]],
    )
    assert rc == 2  # order-2 cocycle against an order-3 quandle
    rc, base, _ = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", "pos",
         "--cocycle", files["ind01"]],
    )
    # face 2 lies in the class opposite the default outer face, so declaring
    # it outer swaps the shading and negates every plus-mode weight
    rc2, flipped, _ = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", "pos",
         "--cocycle", files["ind01"], "--outer-face", "2"],
    )
    assert rc == rc2 == 0
    assert base["invariant"] == [["0", 2], ["1", 2]]
    assert flipped["invariant"] == [["-1", 2], ["0", 2]]


def test_invariant_on_a_many_component_unlink(capsys, tmp_path):
    # one free arc per component: a search that recursed per arc would
    # overflow the interpreter stack here
    pd = tmp_path / "unlink1200.txt"
    pd.write_text(" ".join("O[%d]" % k for k in range(1, 1201)))
    q = tmp_path / "t1.json"
    q.write_text(json.dumps({"n": 1, "table": [[0]]}))
    phi = tmp_path / "zero.json"
    phi.write_text(json.dumps({"coeff": "Z", "values": [[0]]}))
    rc, doc, err = run(
        capsys,
        ["invariant", "-q", str(q), "-k", str(pd), "--mode", "neg", "--cocycle", str(phi)],
    )
    assert rc == 0
    assert doc["colorings"] == 1 and doc["invariant"] == [["0", 1]]
    assert "1200 branch arcs, 1200 nodes" in err


def test_invariant_rejects_a_bad_outer_face_before_the_search(capsys, files, monkeypatch):
    def search(engine, X):
        raise AssertionError("the coloring search ran")

    monkeypatch.setattr("quandlekit.cli.coloring_table", search)
    for mode in ("neg", "pos"):
        rc, doc, err = run(
            capsys,
            ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", mode,
             "--cocycle", files["ind01"], "--outer-face", "99"],
        )
        assert rc == 2 and doc is None
        assert err == "error: outer face 99 out of range\n"


def test_invariant_warns_on_a_cochain_that_is_not_a_cocycle(capsys, files, tmp_path, monkeypatch):
    # the warning goes to stderr only: the document is the one printed when
    # the check is skipped, and a basis cocycle draws no warning
    bad = tmp_path / "ind01_3.json"
    bad.write_text(json.dumps(indicator(3, 0, 1).to_doc()))
    for mode, sign in (("neg", "minus"), ("pos", "plus")):
        good = tmp_path / ("basis_%s.json" % mode)
        good.write_text(json.dumps(cocycle_basis(QuandleTable(D3_ROWS), sign)[0].to_doc()))
        argv = ["invariant", "-q", files["d3"], "-k", "trefoil", "--mode", mode, "--cocycle"]
        assert main(argv + [str(bad)]) == 0
        out, err = capsys.readouterr()
        warning = "warning: the cochain is not a %s-cocycle; the sum is not an invariant\n" % mode
        assert err.startswith(warning)
        with monkeypatch.context() as m:
            m.setattr(cli.Cochain2, "is_cocycle", lambda phi, X, sign: True)
            assert main(argv + [str(bad)]) == 0
            assert capsys.readouterr() == (out, err[len(warning):])
        assert main(argv + [str(good)]) == 0
        assert "warning" not in capsys.readouterr().err


def test_invariant_never_lists_the_colorings(capsys, files, tmp_path, monkeypatch):
    # the state sum runs over the searched colorings' orbits; the sorted
    # list of every coloring, which only ColoringTable.colorings builds, is
    # built only where something reads it
    def listed(table):
        raise AssertionError("the sorted colorings were built")

    phi = tmp_path / "ind01_3.json"
    phi.write_text(json.dumps(indicator(3, 0, 1).to_doc()))
    for mode in ("neg", "pos"):
        argv = ["invariant", "-q", files["d3"], "-k", "trefoil", "--mode", mode,
                "--cocycle", str(phi)]
        want = run(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(invariants.ColoringTable, "colorings", property(listed))
            assert run(capsys, argv) == want
        assert want[0] == 0 and want[1]["colorings"] == 9
        assert want[1]["invariant"] != [["0", 9]]


@pytest.mark.parametrize("p,colorings", [(3, 3), (7, 49)])
def test_invariant_on_torus_knot_1001(capsys, tmp_path, p, colorings):
    # the determinant of T(2, 1001) is 1001 = 7 * 11 * 13
    pd = tmp_path / "t2_1001.txt"
    pd.write_text(pd_text(torus_2(1001)))
    q = tmp_path / "r.json"
    q.write_text(json.dumps({"n": p, "table": [[(2 * b - a) % p for b in range(p)] for a in range(p)]}))
    phi = tmp_path / "zero.json"
    phi.write_text(json.dumps({"coeff": "Z", "values": [[0] * p for _ in range(p)]}))
    rc, doc, err = run(
        capsys,
        ["invariant", "-q", str(q), "-k", str(pd), "--mode", "neg", "--cocycle", str(phi)],
    )
    assert rc == 0
    assert doc["colorings"] == colorings and doc["invariant"] == [["0", colorings]]
    # R_p is connected: one first-arc color, then p on the second branch arc
    assert err.endswith("; search: 2 branch arcs, %d nodes, 1 of %d first-arc colors\n" % (1 + p, p))


def test_invariant_on_a_non_connected_quandle(capsys, tmp_path):
    # R3 with two trivially acting fixed points: orbits {0, 1, 2}, {3}, {4}
    q = tmp_path / "r3t2.json"
    rows = [[0, 2, 1, 0, 0], [2, 1, 0, 1, 1], [1, 0, 2, 2, 2], [3] * 5, [4] * 5]
    q.write_text(json.dumps({"n": 5, "table": rows}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"coeff": "Z", "values": [[0] * 5 for _ in range(5)]}))
    rc, doc, err = run(
        capsys,
        ["invariant", "-q", str(q), "-k", "hopf", "--mode", "neg", "--cocycle", str(phi)],
    )
    assert rc == 0 and doc["colorings"] == 19
    # three representatives on the first branch arc, then all five on the second
    assert err.endswith("; search: 2 branch arcs, 18 nodes, 3 of 5 first-arc colors\n")


def test_invariant_coeff_mismatch(capsys, files):
    rc, _, err = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", "neg",
         "--coeff", "Z2", "--cocycle", files["ind01"]],
    )
    assert rc == 2 and "match" in err


def test_invariant_rejects_whitespace_inside_an_edge_id(capsys, files, tmp_path):
    pd = tmp_path / "tref_loop.txt"
    pd.write_text("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1 2]\n")
    argv = ["invariant", "-q", files["t2"], "-k", str(pd), "--mode", "neg"]
    rc, doc, err = run(capsys, argv + ["--cocycle", files["ind01"]])
    assert rc == 2 and doc is None and "O[1 2]" in err


def test_invariant_rejects_boolean_cochain_values(capsys, files, tmp_path):
    # JSON booleans are ints to Python; a cochain file must not pass them off
    phi = tmp_path / "bool.json"
    rows = [[False, True, True], [True, False, True], [True, True, False]]
    phi.write_text(json.dumps({"coeff": "Z", "values": rows}))
    rc, doc, err = run(
        capsys,
        ["invariant", "-q", files["d3"], "-k", "trefoil", "--mode", "neg",
         "--cocycle", str(phi)],
    )
    assert rc == 2 and doc is None
    assert "integer rows" in err


@pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 0], [0, 0]]])
def test_invariant_rejects_a_cochain_table_that_is_not_square(capsys, files, tmp_path, rows):
    phi = tmp_path / "ragged.json"
    phi.write_text(json.dumps({"coeff": "Z", "values": rows}))
    rc, doc, err = run(
        capsys,
        ["invariant", "-q", files["t2"], "-k", "hopf", "--mode", "neg", "--cocycle", str(phi)],
    )
    assert rc == 2 and doc is None
    assert err == "error: cochain values must form a square table\n"


@pytest.mark.parametrize("argv", [
    ["quandle", "check", "-f", "d3"],
    ["quandle", "info", "-f", "d3"],
    ["cohomology", "-f", "d3", "-n", "2", "--sign", "neg"],
    ["cocycles", "-f", "d3", "--sign", "pos"],
    ["invariant", "-q", "t2", "-k", "hopf", "--mode", "neg", "--cocycle", "ind01"],
])
def test_each_command_scans_the_axioms_once_per_load(capsys, files, monkeypatch, argv):
    from quandlekit import quandles

    scans = []
    validate = quandles.validate_quandle

    def counted(rows):
        scans.append(rows)
        return validate(rows)

    monkeypatch.setattr(quandles, "validate_quandle", counted)
    monkeypatch.setattr(cli, "validate_quandle", counted)
    rc, _, _ = run(capsys, [files.get(a, a) for a in argv])
    assert rc == 0 and len(scans) == 1


@pytest.mark.parametrize("argv", [
    ["quandle", "info", "-f", "bad"],
    ["cohomology", "-f", "bad", "-n", "2", "--sign", "neg"],
    ["cocycles", "-f", "bad", "--sign", "pos"],
    ["invariant", "-q", "bad", "-k", "trefoil", "--mode", "neg", "--cocycle", "ind01"],
])
def test_each_loader_rejects_a_table_that_is_not_a_quandle(capsys, files, argv):
    rc, doc, err = run(capsys, [files.get(a, a) for a in argv])
    assert rc == 2 and doc is None
    assert err == "error: table in %s violates axiom 1 at (2,)\n" % files["bad"]


def test_verify_small_sweep_passes(capsys):
    rc, doc, _ = run(capsys, ["verify", "--max-order", "2", "--coeff", "Z", "--mode", "both"])
    assert rc == 0
    assert doc["ok"] is True
    assert doc["lemma_failures"] == [] and doc["eps_failures"] == []
    assert [m["mode"] for m in doc["modes"]] == ["neg", "pos"]
    assert all(m["nontrivial"] == 0 and m["triviality_required"] for m in doc["modes"])


def test_verify_expect_nontrivial_fails_over_z(capsys):
    rc, doc, _ = run(
        capsys,
        ["verify", "--max-order", "2", "--coeff", "Z", "--mode", "neg",
         "--expect-nontrivial", "trefoil"],
    )
    assert rc == 1
    assert doc["ok"] is False and doc["witnesses"] == []


def test_verify_expect_nontrivial_z2(capsys):
    rc, doc, _ = run(
        capsys,
        ["verify", "--max-order", "4", "--coeff", "Z2", "--mode", "neg",
         "--expect-nontrivial", "trefoil"],
    )
    assert rc == 0
    assert doc["witnesses"]
    w = doc["witnesses"][0]
    assert w["diagram"] == "trefoil" and w["trivial"] is False


def test_a_verify_witness_is_what_invariant_prints_for_its_cell(capsys, tmp_path):
    _, doc, _ = run(
        capsys,
        ["verify", "--max-order", "4", "--coeff", "Z2", "--mode", "neg",
         "--expect-nontrivial", "trefoil"],
    )
    witness = doc["witnesses"][0]
    quandle, cocycle = tmp_path / "quandle.json", tmp_path / "cocycle.json"
    quandle.write_text(json.dumps({"n": len(witness["quandle"]), "table": witness["quandle"]}))
    cocycle.write_text(json.dumps({"coeff": "Z2", "values": witness.pop("cocycle")}))
    rc, cell, _ = run(
        capsys,
        ["invariant", "-q", str(quandle), "-k", "trefoil", "--mode", "neg", "--cocycle", str(cocycle)],
    )
    assert rc == 0 and cell == witness


@pytest.mark.parametrize(
    "argv,note",
    [
        (["--max-order", "4", "--coeff", "Z", "--mode", "both"], "12 classes certified, 0 fallbacks"),
        (["--max-order", "1", "--coeff", "Z3", "--mode", "pos"], "1 class certified, 0 fallbacks"),
        (
            ["--max-order", "4", "--coeff", "Z2", "--mode", "neg", "--expect-nontrivial", "trefoil"],
            "11 classes certified, 1 fallback",
        ),
    ],
)
def test_verify_reports_classes_on_stderr(capsys, argv, note):
    _, _, err = run(capsys, ["verify"] + argv)
    assert err.splitlines()[0] == note


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-order", "4", "--coeff", "Z", "--mode", "both"],
        ["--max-order", "4", "--coeff", "Z3", "--mode", "pos"],
        ["--max-order", "3", "--coeff", "Z4", "--mode", "both"],
        ["--max-order", "4", "--coeff", "Z2", "--mode", "neg", "--expect-nontrivial", "trefoil"],
        ["--max-order", "3", "--coeff", "Z2", "--mode", "pos", "--expect-nontrivial", "hopf"],
    ],
    ids=["Z-both", "Z3-pos", "Z4-both", "Z2-neg-trefoil", "Z2-pos-hopf"],
)
def test_certified_verify_matches_the_labelled_sweep(capsys, monkeypatch, argv):
    # oracle: with every certificate failing, and counting each class's
    # cocycles by its basis, verify runs the labelled sweep for witnesses;
    # the document must not change
    certified = run(capsys, ["verify"] + argv)
    monkeypatch.setattr(
        "quandlekit.cli.triviality_certificate",
        lambda X, engines, mode, coeff: (False, len(cocycle_basis(X, mode, coeff))),
    )
    labelled = run(capsys, ["verify"] + argv)
    assert labelled[:2] == certified[:2]
    assert "0 classes certified" in labelled[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-order", "4", "--coeff", "Z", "--mode", "both"],
        ["--max-order", "4", "--coeff", "Z2", "--mode", "neg", "--expect-nontrivial", "trefoil"],
    ],
    ids=["Z-both", "Z2-neg-trefoil"],
)
def test_verify_with_a_seeded_half_of_the_classes_failing(capsys, monkeypatch, argv):
    # a seeded half of the (class, mode) certificates fail; the labelled
    # orbits of those classes interleave, and swept in (order, table) order,
    # in the failing modes only, they must give the unforced run's document;
    # the classes are drawn as verify certifies them
    classes = [X.table for n in range(1, 5) for X, _ in class_representatives(n)]
    pairs = [(t, mode) for t in classes for mode in ("minus", "plus")]
    forced = set(random.Random(9).sample(pairs, len(classes)))
    unforced = run(capsys, ["verify"] + argv)
    certify, basis = cli.triviality_certificate, cli.cocycle_basis
    failed, swept = set(), []

    def half(X, engines, mode, coeff):
        ok, cocycles = certify(X, engines, mode, coeff)
        if not ok or (X.table, mode) in forced:
            failed.add((X, mode))
            return False, cocycles
        return True, cocycles

    def record(X, mode, coeff):
        swept.append((X.table, mode))
        return basis(X, mode, coeff)

    monkeypatch.setattr("quandlekit.cli.triviality_certificate", half)
    monkeypatch.setattr("quandlekit.cli.cocycle_basis", record)
    mixed = run(capsys, ["verify"] + argv)
    assert mixed[:2] == unforced[:2]
    certified = len(classes) - len({X for X, _ in failed})
    assert mixed[2].startswith("%d classes certified" % certified)
    expected = {(Y.table, mode) for X, mode in failed for Y in isomorphic_tables(X)}
    assert len({len(t) for t, _ in expected}) > 1
    assert swept == sorted(expected, key=lambda item: (len(item[0]),) + item)


def test_verify_rejects_rational_sweep(capsys):
    rc, _, err = run(capsys, ["verify", "--coeff", "Q"])
    assert rc == 2 and "Z" in err


def test_verify_rejects_a_modulus_in_non_ascii_digits(capsys):
    rc, doc, err = run(capsys, ["verify", "--max-order", "2", "--coeff", "Z\u00b2"])
    assert rc == 2 and doc is None
    assert err == "error: cannot parse coefficient group 'Z\u00b2'\n"


def test_verify_output_deterministic(capsys):
    argv = ["verify", "--max-order", "3", "--coeff", "Z", "--mode", "neg"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv,digest,note",
    [
        (
            ["verify", "--max-order", "4", "--coeff", "Z", "--mode", "both"],
            "1f1d2beddca48e2569ac9051a2f04dadef10455dac840e2e36ff21bccb0edf7e",
            "12 classes certified, 0 fallbacks",
        ),
        (
            ["verify", "--max-order", "4", "--coeff", "Z2", "--mode", "neg",
             "--expect-nontrivial", "trefoil"],
            "2b56a2bd6c4e6bf8a74f36034d72dd37555c070ef8dec806f6c445208e019b10",
            "11 classes certified, 1 fallback",
        ),
        (
            ["verify", "--max-order", "5", "--coeff", "Z", "--mode", "both"],
            "9ea25094408926c6320d2fcf62748aae7e1065ec218c25e295237722014f6979",
            "34 classes certified, 0 fallbacks",
        ),
        (
            ["verify", "--max-order", "5", "--coeff", "Z3", "--mode", "pos"],
            "6bd1c5a4a4a3c09362618b749b4cf8a1f43193f84478133750574902a3ee0d93",
            "34 classes certified, 0 fallbacks",
        ),
        (
            ["verify", "--max-order", "6", "--coeff", "Z", "--mode", "both"],
            "8c283ba0cbafd303f401f7ab721874ec972772fefbc58f91f49e10085e9c3ca9",
            "107 classes certified, 0 fallbacks",
        ),
        (
            ["verify", "--max-order", "5", "--coeff", "Z2", "--mode", "neg",
             "--expect-nontrivial", "trefoil"],
            "6f75b617bc8e3820d194a8de94e9f409c479ac94ca173f01658b9b2dc5755adb",
            "32 classes certified, 2 fallbacks",
        ),
        (
            ["verify", "--max-order", "6", "--coeff", "Z2", "--mode", "neg",
             "--expect-nontrivial", "trefoil"],
            "16b1ed9791c8906377e3619605ad3e50a98ff6a5a82d2e293f249d0e94c55a5c",
            "102 classes certified, 5 fallbacks",
        ),
        # both modes fall back; at Z/6 the plus cells (1392) differ from the minus (1386)
        (
            ["verify", "--max-order", "4", "--coeff", "Z2", "--mode", "both"],
            "088d8c8d190ef8a17537b3db572a93936fc62a0f48b72f419b7995d6a4374f83",
            "11 classes certified, 1 fallback",
        ),
        (
            ["verify", "--max-order", "4", "--coeff", "Z6", "--mode", "both"],
            "54086fa1f354497f4ae42947dc02dff20e7e3c8bb107785c0cbe742bb2eddd83",
            "11 classes certified, 1 fallback",
        ),
        # a link in minus mode: no theorem applies, every class eliminates
        (
            ["verify", "--max-order", "5", "--coeff", "Z", "--mode", "neg",
             "--expect-nontrivial", "hopf"],
            "1543e261da6a4918bdebf4db67edb42d11b9f5c5f2be4c0c89e1e3fca6a7f5a2",
            "15 classes certified, 19 fallbacks",
        ),
        # gated plus, ungated plus (orbit sizes divisible by 3) and minus over Z/m
        (
            ["verify", "--max-order", "5", "--coeff", "Z3", "--mode", "both"],
            "2a10b84200e3fa08b751e3f31221ec9c5b3f969208d1aa7a7071542621ad60c6",
            "34 classes certified, 0 fallbacks",
        ),
    ],
    ids=["Z-both", "Z2-neg-trefoil", "Z-both-5", "Z3-pos-5", "Z-both-6", "Z2-neg-trefoil-5",
         "Z2-neg-trefoil-6", "Z2-both-4", "Z6-both-4", "Z-neg-hopf-5", "Z3-both-5"],
)
def test_verify_output_pinned(capsys, argv, digest, note):
    # sha256 of the whole stdout document; any change to a cell, witness,
    # failure or their order shows here
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err.splitlines()[0] == note


def test_verify_checks_the_eps_identities_on_each_corpus_diagram_once(capsys, monkeypatch):
    seen = []

    def record(engines):
        seen.extend(engines)
        return []

    monkeypatch.setattr("quandlekit.cli._eps_identity_report", record)
    assert main(["verify", "--max-order", "4", "--coeff", "Z", "--mode", "neg"]) == 0
    # the ten corpus engines, links included, once each and in corpus order
    assert [name for name, _ in seen] == list(CORPUS_NAMES)
    assert [engine.diagram for _, engine in seen] == [named_diagram(name) for name in CORPUS_NAMES]
    assert len({id(engine) for _, engine in seen}) == 10


def test_verify_certifies_one_table_per_class(capsys, monkeypatch):
    certify = cli.triviality_certificate
    seen = {"minus": [], "plus": []}

    def record(X, engines, mode, coeff):
        seen[mode].append(X.table)
        return certify(X, engines, mode, coeff)

    monkeypatch.setattr("quandlekit.cli.triviality_certificate", record)
    rc, _, _ = run(capsys, ["verify", "--max-order", "5", "--coeff", "Z", "--mode", "both"])
    assert rc == 0
    classes = [X.table for n in range(1, 6) for X in enumerate_quandles(n, dedupe_iso=True)]
    for tables in seen.values():
        assert sorted(map(canonical_form, tables), key=lambda t: (len(t), t)) == classes


def test_verify_searches_colorings_only_where_a_certificate_eliminates(capsys, monkeypatch):
    # searches are counted wherever they run, in cli and in invariants:
    # only an eliminating certificate searches, so none run over Z, one per
    # knot on the four classes of order 2 and 3 in minus mode over Z/3, and
    # one per knot on the three connected order-5 classes outside the plus
    # gate over Z/5.  The eps report searches nothing and builds no boundary
    from quandlekit import homology, invariants

    calls = {"coloring_table": 0, "boundary_columns": 0}
    reporting = []

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args):
            # the certificates build their own columns; count the report's
            if name != "boundary_columns" or reporting:
                calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, call)

    def report(engines, fn=cli._eps_identity_report):
        reporting.append(engines)
        return fn(engines)

    counted(cli, "coloring_table")
    counted(invariants, "coloring_table")
    counted(invariants, "boundary_columns")
    counted(homology, "boundary_columns")
    monkeypatch.setattr(cli, "_eps_identity_report", report)
    for argv, searches in (
        (["--max-order", "3"], 0),
        (["--max-order", "3", "--coeff", "Z3", "--mode", "neg"], 24),
        (["--max-order", "5", "--coeff", "Z5", "--mode", "pos"], 18),
    ):
        calls.update(dict.fromkeys(calls, 0))
        reporting.clear()
        rc, doc, _ = run(capsys, ["verify"] + argv)
        assert rc == 0 and doc["eps_failures"] == [] and len(reporting) == 1
        assert calls == {"coloring_table": searches, "boundary_columns": 0}, argv


def test_default_verify_reads_and_compiles_each_corpus_code_once(capsys, monkeypatch):
    from quandlekit import diagrams, invariants

    parsed, compiled = [], []
    parse_pd, init = diagrams.parse_pd, invariants.DiagramEngine.__init__

    def counted_parse(text):
        parsed.append(text)
        return parse_pd(text)

    def counted_init(self, d, outer_face=None):
        compiled.append(d)
        init(self, d, outer_face)

    monkeypatch.setattr(diagrams, "parse_pd", counted_parse)
    monkeypatch.setattr(invariants.DiagramEngine, "__init__", counted_init)
    rc, doc, _ = run(capsys, ["verify", "--max-order", "2"])
    assert rc == 0
    assert len(parsed) == len(compiled) == len(CORPUS_NAMES) == 10
    assert doc["diagrams"] == ["trefoil", "figure8", "5_1", "5_2", "trefoil_kinked", "figure8_kinked"]


def test_verify_fails_when_a_required_state_sum_is_nontrivial(capsys, monkeypatch):
    # no class is certified, and the swept "basis" is an indicator, which is
    # no cocycle: its sums on R3 are not trivial.  The lemmas are checked
    # in the tests, on homology classes, so the document lists no failure
    monkeypatch.setattr("quandlekit.cli.triviality_certificate", lambda X, engines, mode, coeff: (False, 0))
    monkeypatch.setattr(
        "quandlekit.cli.cocycle_basis",
        lambda X, mode, coeff: [indicator(X.n, 0, 1)] if X.n > 1 else [],
    )
    rc, doc, err = run(capsys, ["verify", "--max-order", "3", "--mode", "pos"])
    assert rc == 1 and doc["ok"] is False
    (mode_doc,) = doc["modes"]
    assert mode_doc["triviality_required"] and mode_doc["nontrivial"] > 0
    assert doc["witnesses"] and not any(w["trivial"] for w in doc["witnesses"])
    assert doc["lemma_failures"] == [] and doc["eps_failures"] == []
    assert "verify failed" in err


def test_verify_reports_each_shading_identity_a_flipped_sign_breaks(capsys, monkeypatch):
    # flipping eps at one crossing of trefoil leaves its single-crossing runs
    # alternating but not constant, and flipping crossing 1 of trefoil_kinked
    # breaks the kinked arc's run; both break the unit-psi sums
    from quandlekit import invariants

    flips = {named_diagram("trefoil").crossings: 0, named_diagram("trefoil_kinked").crossings: 1}
    shading_signs = invariants.shading_signs

    def flipped(d, outer_face=None):
        eps = shading_signs(d, outer_face)
        if d.crossings not in flips:
            return eps
        i = flips[d.crossings]
        return eps[:i] + (-eps[i],) + eps[i + 1:]

    monkeypatch.setattr(invariants, "shading_signs", flipped)
    rc, doc, _ = run(capsys, ["verify", "--max-order", "3", "--mode", "neg"])
    assert rc == 1 and doc["ok"] is False
    assert doc["witnesses"] == [] and doc["lemma_failures"] == []
    assert doc["eps_failures"] == [
        {"diagram": "trefoil", "check": "constant-on-alternating"},
        {"diagram": "trefoil", "check": "psi-zero-sum"},
        {"diagram": "trefoil_kinked", "check": "alternation"},
        {"diagram": "trefoil_kinked", "check": "psi-zero-sum"},
    ]


def _eps_flip_mutants():
    """(name, flipped crossings, engine) for every corpus diagram with eps
    flipped at one crossing, and at crossings 0 and 1 where it has two or
    more."""
    from quandlekit.diagrams import shading_signs
    from quandlekit.invariants import DiagramEngine

    mutants = []
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        eps = shading_signs(d)
        for flip in [(i,) for i in range(d.n_crossings)] + [(0, 1)] * (d.n_crossings > 1):
            engine = DiagramEngine(d)
            engine.eps = tuple(-e if i in flip else e for i, e in enumerate(eps))
            mutants.append((name, flip, engine))
    return mutants


def _psi_flagged(name, engine):
    return {"diagram": name, "check": "psi-zero-sum"} in cli._eps_identity_report([(name, engine)])


def test_the_psi_check_flags_every_eps_flip_but_the_other_hopf_shading():
    # flipping both crossings of hopf negates every eps: the other shading,
    # which is as valid as the first
    mutants = _eps_flip_mutants()
    assert len(mutants) == 42
    spared = [(name, flip) for name, flip, engine in mutants if not _psi_flagged(name, engine)]
    assert spared == [("hopf", (0, 1))]


def test_the_psi_arc_check_against_the_coloring_oracle_under_flipped_signs():
    # the oracle checks the searched colorings' W+ of every class of order
    # <= 5 and of R7 against the degree-2 plus columns; where it finds a
    # non-cycle, the arc check must fail too
    from quandlekit.invariants import coloring_table

    classes = [X for n in range(1, 6) for X, _ in class_representatives(n)] + [dihedral_quandle(7)]
    differ = []
    for name, flip, engine in _eps_flip_mutants():
        flagged = _psi_flagged(name, engine)
        tables = [coloring_table(engine, X) for X in classes]
        if not all(counts_are_cycles(table, "plus") for table in tables):
            assert flagged, (name, flip)
        elif flagged:
            differ.append((name, flip))
        else:
            # where the arc check passes, no unit coboundary weighs anything
            for table in tables:
                X = table.X
                if X.n <= 3:
                    for a in range(X.n):
                        delta = coboundary_of(X, [int(b == a) for b in range(X.n)], "plus")
                        assert not any(weights(table, delta, "plus")), (name, flip, X, a)
    # both are R1 kinks (over = target): every coloring gives their two
    # under-arcs one color, so no coloring sees the flip
    assert differ == [("trefoil_kinked", (3,)), ("figure8_kinked", (4,))]
    for name, i in (("trefoil_kinked", 3), ("figure8_kinked", 4)):
        src, over, tgt, _ = named_diagram(name).roles[i]
        assert over == tgt != src


@pytest.mark.parametrize("exc", [RecursionError, ZeroDivisionError, OverflowError])
def test_internal_arithmetic_and_depth_errors_exit_2(capsys, files, monkeypatch, exc):
    # exit 1 is reserved for a failed property
    def boom(args):
        raise exc("too deep or too big")

    monkeypatch.setattr("quandlekit.cli.cmd_quandle_info", boom)
    rc, doc, err = run(capsys, ["quandle", "info", "-f", files["d3"]])
    assert rc == 2 and doc is None
    assert err.startswith("error: too deep or too big")


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def parse_exit(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["frobnicate"], ["frobnicate", "-h"], ["-h", "verify"],
    ["quandle"], ["quandle", "-h"], ["quandle", "frobnicate"], ["quandle", "check", "--bogus"],
    ["quandle", "check", "-h"], ["quandle", "check"],
    ["quandle", "info", "-h"], ["quandle", "info"],
    ["quandle", "gen", "-h"], ["quandle", "gen"], ["quandle", "gen", "--order", "x"],
    ["cohomology", "-h"], ["cohomology"], ["cohomology", "-f", "q.json", "-n", "2"],
    ["cocycles", "-h"], ["cocycles"], ["cocycles", "-f", "q.json", "--sign", "zero"],
    ["invariant", "-h"], ["invariant"], ["invariant", "-q", "q.json", "-k", "trefoil", "--mode", "neg"],
    ["verify", "-h"], ["verify", "--mode", "sideways"], ["verify", "--max-order"],
    ["verify", "--bogus"], ["verify", "extra"],
])
def test_main_parses_as_the_full_parser_does(capsys, argv):
    # main configures only the named subcommand; its help, its errors and
    # the top level's "unrecognized arguments" error stay the full parser's
    want = parse_exit(cli.build_parser().parse_args, argv, capsys)
    assert parse_exit(main, argv, capsys) == want
    assert want[0] in (0, 2)


@pytest.mark.parametrize("argv", [
    ["quandle", "check", "-f", "q.json"],
    ["quandle", "gen", "--order", "5", "--dedupe"],
    ["cohomology", "-f", "q.json", "-n", "3", "--sign", "pos", "--coeff", "Z7", "--flavor", "rack"],
    ["cocycles", "-f", "q.json", "--sign", "neg", "--out", "d"],
    ["invariant", "-q", "q.json", "-k", "hopf", "--mode", "pos", "--cocycle", "c.json", "--outer-face", "1"],
    ["verify", "--max-order", "6", "--coeff", "Z3", "--expect-nontrivial", "hopf"],
    ["verify"],
])
def test_the_one_command_parser_reads_what_the_full_parser_reads(argv):
    full = cli.build_parser().parse_args(argv)
    assert cli.build_parser(argv[0]).parse_args(argv) == full
    assert full.func is getattr(cli, "cmd_" + "_".join(argv[:2] if argv[0] == "quandle" else argv[:1]))
    # each of these is in the plain form, which main reads without argparse
    assert vars(cli._plain_args(argv)) == vars(full)


def test_the_one_command_parser_configures_one_subcommand():
    parser = cli.build_parser("cocycles")
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert list(sub.choices) == ["cocycles"]
    (full,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert list(full.choices) == ["quandle", "cohomology", "cocycles", "invariant", "verify"]


# values the plain reader and argparse might read differently
INT_VALUES = ("0", "-1", "x", "4.0", " 2", "+2", "\u0663", "1_0", "")
STR_VALUES = ("-q.json", "Z3", "", "a b", "-", "--")
STRAYS = ("-h", "--help", "--", "extra", "-x", "--bogus")
RUNNABLE = [words for words, (_, func, _) in cli.COMMANDS.items() if func]


def _good(kw):
    """A value the option takes, as its tokens."""
    if kw.get("action") == "store_true":
        return []
    return [kw["choices"][-1] if "choices" in kw else "3" if "type" in kw else "q.json"]


def _odd(rng, kw):
    if "choices" in kw:
        return rng.choice(kw["choices"] + ("sideways", "-" + kw["choices"][0]))
    return rng.choice(INT_VALUES if "type" in kw else STR_VALUES)


def _command_line(rng, words):
    """A line in the plain form (every required option and a random subset
    of the others, in random order, with good values), then up to two
    departures from it: an abbreviation, --opt=value, a repeat, an odd value
    (a bad int, a choice outside the list, one starting with "-"), a dropped
    option or a stray token."""
    groups = [
        [kw, rng.choice(flags)] + _good(kw)
        for flags, kw in cli.COMMANDS[words][2]
        if kw.get("required") or rng.random() < 0.5
    ]
    strays = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        departure = rng.randrange(6)
        if departure == 0 or not groups:
            strays.append(rng.choice(STRAYS))
            continue
        group = rng.choice(groups)
        long_flag = group[1].startswith("--") and len(group[1]) > 2
        if departure == 1 and long_flag:
            group[1] = group[1][: rng.randint(2, len(group[1]) - 1)]
        elif departure == 2 and long_flag and len(group) == 3:
            group[1:] = ["%s=%s" % tuple(group[1:])]
        elif departure == 3:
            groups.append(group[:2] + [_odd(rng, group[0])] * (len(group) - 2))
        elif departure == 4 and len(group) == 3:
            group[2] = _odd(rng, group[0])
        else:
            groups.remove(group)
    rng.shuffle(groups)
    argv = list(words) + [token for group in groups for token in group[1:]]
    for token in strays:
        argv.insert(rng.randint(len(words), len(argv)), token)
    return argv


def _outcome(parse, argv):
    """The namespace parse makes of argv, or the exit code, stdout and stderr
    of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.fixture
def echoing_commands(monkeypatch):
    # each command's function hands back what it was given, so main returns
    # the namespace; a full parser built after this holds the same functions
    for words in RUNNABLE:
        monkeypatch.setattr(cli, cli.COMMANDS[words][1], lambda args: args)


def _check_reads_as_the_full_parser(argv):
    """main's outcome is the full parser's; True when the plain reader read
    argv itself."""
    want = _outcome(cli.build_parser().parse_args, argv)
    assert _outcome(main, argv) == want, argv
    read = cli._plain_args(argv)
    if read is not None:
        assert vars(read) == want, argv
    return read is not None


@pytest.mark.parametrize("seed", range(6))
def test_main_reads_generated_command_lines_as_the_full_parser_does(echoing_commands, seed):
    rng = random.Random(seed)
    lines = [_command_line(rng, rng.choice(RUNNABLE)) for _ in range(80)]
    # and a few without their first or second word
    lines += [line[1:] for line in lines[:3]] + [line[:1] + line[2:] for line in lines[3:6]]
    plain = sum(_check_reads_as_the_full_parser(argv) for argv in lines)
    assert 20 <= plain <= 70


@pytest.mark.parametrize("words", RUNNABLE, ids=" ".join)
def test_main_reads_each_abbreviation_and_joined_value_as_the_full_parser_does(echoing_commands, words):
    # every prefix of every long option, ambiguous or not, and every
    # --opt=value, in a line that gives each option of the command once
    options = cli.COMMANDS[words][2]
    groups = [[flags[-1]] + _good(kw) for flags, kw in options]
    assert _check_reads_as_the_full_parser(list(words) + sum(groups, []))
    for i, group in enumerate(groups):
        spellings = [[group[0][:end]] + group[1:] for end in range(2, len(group[0]))]
        if len(group) == 2:
            spellings.append(["=".join(group)])
        for spelling in spellings:
            argv = list(words) + sum(groups[:i] + [spelling] + groups[i + 1:], [])
            assert not _check_reads_as_the_full_parser(argv)


def test_the_cli_imports_neither_dataclasses_nor_importlib_resources():
    # every command pays its imports in a fresh interpreter; -S keeps site's
    # own imports out, the corpus must load without importlib.resources, and
    # the records are plain collections.namedtuple classes, so no typing
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys; sys.path.insert(0, %r); import quandlekit.cli; "
        "quandlekit.cli.load_diagram('trefoil'); "
        "print(sorted({'dataclasses', 'importlib.resources', 'typing'} & set(sys.modules)))" % src
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_a_plain_command_line_never_imports_argparse(files, tmp_path):
    # argparse (and its gettext and locale) is loaded only when a command
    # line needs help, an error or a spelling the plain reader leaves to it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cocycle = tmp_path / "zero.json"
    cocycle.write_text(json.dumps({"coeff": "Z", "values": [[0] * 3] * 3}))
    argv = ["invariant", "-q", files["d3"], "-k", "trefoil", "--mode", "neg", "--cocycle", str(cocycle)]
    code = (
        "import sys; sys.path.insert(0, %r); import quandlekit.cli\n"
        "loaded = lambda: sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
        "rc = quandlekit.cli.main(%r)\n"
        "print('plain', rc, loaded())\n"
        "try:\n"
        "    quandlekit.cli.main(['verify', '--mode', 'sideways'])\n"
        "except SystemExit as exc:\n"
        "    print('fallback', exc.code, 'argparse' in loaded())\n" % (src, argv)
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    lines = out.stdout.splitlines()
    assert json.loads("\n".join(lines[:-2]))["colorings"] == 9
    assert lines[-2:] == ["plain 0 []", "fallback 2 True"]
    assert "quandlekit verify: error: argument --mode: invalid choice: 'sideways'" in out.stderr
