"""Checks of the benchmark's input generators against quandlekit itself.

    python3 -m pytest bench
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from quandlekit import QuandleTable, enumerate_colorings, parse_pd, validate_quandle  # noqa: E402
from quandlekit.cli import main  # noqa: E402
from quandlekit.homology import CoefficientGroup, Cochain2  # noqa: E402


def _table(rows):
    return QuandleTable(tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10])
@pytest.mark.parametrize("traversal", [False, True])
def test_dihedral_colorings_of_torus_links(p, n, traversal):
    text, _ = inputs.braid_pd([1] * n, 2, traversal=traversal, rotation=n // 2)
    count = len(enumerate_colorings(parse_pd(text), _table(inputs.dihedral(p))))
    assert count == (p * p if n % p == 0 else p)


@pytest.mark.parametrize("strands,word,components", [
    (2, [1] * 7, 1),
    (2, [-1] * 6, 2),
    (3, [1, -2, 1, -2], 1),
    (3, [1, 2, -2, -1], 3),
    (4, [1, 1, 1, 2, 3], 1),
    (4, [1, 3, 2, 2], 2),
])
@pytest.mark.parametrize("traversal", [False, True])
def test_generated_codes_parse_with_their_component_count(strands, word, components, traversal):
    text, count = inputs.braid_pd(word, strands, traversal=traversal, rotation=3)
    assert count == components
    assert len(parse_pd(text).components) == components


def test_conjugated_closures_keep_the_core_knot():
    rng = inputs.random.Random(5)
    for strands, _, core, q, _, _ in inputs.LARGE:
        text, count = inputs.braid_pd(inputs.conjugated(rng, strands, 40, core), strands)
        small, _ = inputs.braid_pd(core, strands)
        X = _table(inputs.QUANDLES[q])
        assert count == 1
        assert len(enumerate_colorings(parse_pd(text), X)) == len(
            enumerate_colorings(parse_pd(small), X)
        )


def test_tables_and_cocycles_survive_relabeling():
    rng = inputs.random.Random(3)
    for name, rows in inputs.QUANDLES.items():
        perm = inputs.random_perm(rng, len(rows))
        assert validate_quandle(inputs.relabel(rows, perm)).valid, name
    for (q, sign, coeff), values in inputs.COCYCLES.items():
        perm = inputs.random_perm(rng, len(values))
        X = _table(inputs.relabel(inputs.QUANDLES[q], perm))
        phi = Cochain2(CoefficientGroup.parse(coeff), inputs.relabel_cochain(values, perm))
        assert phi.is_cocycle(X, {"neg": "minus", "pos": "plus"}[sign])


@pytest.mark.parametrize("q,sign,coeff", [("R5", "neg", "Z5"), ("R3+T2", "pos", "Z"), ("Q4", "neg", "Z2")])
def test_relabeled_quandle_gives_identical_cohomology_output(tmp_path, capsys, q, sign, coeff):
    outputs = []
    for seed in range(3):
        perm = inputs.random_perm(inputs.random.Random(seed), len(inputs.QUANDLES[q]))
        path = tmp_path / ("%d.json" % seed)
        path.write_text(inputs._table_text(inputs.relabel(inputs.QUANDLES[q], perm)))
        assert main(["cohomology", "-f", str(path), "-n", "2", "--sign", sign, "--coeff", coeff]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_invariant_digest_is_the_same_for_every_labelling(tmp_path, capsys):
    digests = set()
    for seed in range(3):
        rng = inputs.random.Random(seed)
        text, _ = inputs.braid_pd([1] * 9, 2, traversal=True, rotation=rng.randrange(18))
        perm = inputs.random_perm(rng, 3)
        job = inputs._invariant_job("T2-9", str(tmp_path), text, "R3", "neg", "Z", perm)
        inputs.write_inputs([job], str(tmp_path))
        assert main(job.argv) == 0
        digests.add(run.normalized_digest(job, capsys.readouterr().out.encode()))
    assert len(digests) == 1


def test_same_seed_same_jobs():
    for workload in inputs.WORKLOADS:
        a = inputs.build_jobs(workload, 4, "w")
        b = inputs.build_jobs(workload, 4, "w")
        assert [(j.name, j.argv, j.files) for j in a] == [(j.name, j.argv, j.files) for j in b]
