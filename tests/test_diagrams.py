"""Diagram parsing, arcs, faces, shading, and crossing signs.

The corpus table below was computed once from the bundled codes and then
frozen; structural counts (components, arcs, Euler-consistent face counts)
were checked against the standard diagrams by hand.
"""

import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braids import braid_words, closure_crossings, pd_text
from quandlekit.diagrams import (
    CORPUS_NAMES,
    PDStructureError,
    PDSyntaxError,
    _tokenize,
    arcs,
    checkerboard,
    faces,
    load_diagram,
    named_diagram,
    parse_pd,
    signs,
)

# name: (crossings, components, arcs, faces, writhe, w, eps, alternating)
CORPUS_FACTS = {
    "trefoil": (3, 1, 3, 5, 3, (1, 1, 1), (-1, -1, -1), True),
    "figure8": (4, 1, 4, 6, 0, (1, 1, -1, -1), (1, 1, 1, 1), True),
    "hopf": (2, 2, 2, 4, -2, (-1, -1), (1, 1), True),
    "borromean": (6, 3, 6, 8, 0, (-1, 1, -1, 1, -1, 1), (1,) * 6, True),
    "unlink2": (0, 2, 2, 1, 0, (), (), True),
    "unlink3": (0, 3, 3, 1, 0, (), (), True),
    "5_1": (5, 1, 5, 7, -5, (-1,) * 5, (-1,) * 5, True),
    "5_2": (5, 1, 5, 7, -5, (-1,) * 5, (-1,) * 5, True),
    "trefoil_kinked": (4, 1, 4, 6, 4, (1, 1, 1, 1), (-1, -1, -1, 1), False),
    "figure8_kinked": (5, 1, 5, 7, 1, (1, 1, -1, -1, 1), (1,) * 5, True),
}


def corpus_signs(d):
    return signs(d, checkerboard(d))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_structure(name):
    nx, ncomp, narcs, nfaces, writhe, w, eps, alt = CORPUS_FACTS[name]
    d = named_diagram(name)
    assert d.n_crossings == nx
    assert len(d.components) == ncomp
    assert len(arcs(d)) == narcs
    assert len(faces(d)) == nfaces
    assert d.alternating == alt
    sg = corpus_signs(d)
    assert sg.w == w
    assert sg.eps == eps
    assert sum(sg.w) == writhe


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        named_diagram("granny")


def test_load_diagram_accepts_path(tmp_path):
    p = tmp_path / "tref.txt"
    p.write_text("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]\n")
    d = load_diagram(str(p))
    assert d.n_crossings == 3
    assert load_diagram("trefoil").crossings == d.crossings


def test_unknot_loop():
    d = parse_pd("O[1]")
    assert d.n_crossings == 0
    assert len(d.components) == 1
    assert len(arcs(d)) == 1
    assert len(faces(d)) == 1


# --- syntax and structure rejection ----------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "X[1,2,3]",
        "X[1,2,3,4,5]",
        "X[1,2,3,4] junk",
        "Y[1,2,3,4]",
        "X[0,1,2,3]",
        "X[1,2,3,-4]",
        "O[]",
        "O[1,2]",
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1 2]",  # whitespace inside an id
    ],
)
def test_syntax_errors(text):
    with pytest.raises(PDSyntaxError):
        parse_pd(text)


def _terms_after_stripping(text):
    # reference reading for codes with no whitespace inside an id: strip all
    # whitespace, then scan the terms
    found = re.findall(r"([XO])\[([0-9,]*)\]", re.sub(r"\s+", "", text))
    return [(kind, tuple(int(x) for x in ids.split(","))) for kind, ids in found]


def test_whitespace_may_separate_anything_but_the_digits_of_an_id():
    spaced = " X [ 1 , 5,2 ,4 ]X[3,1,4,6]\tX[5,3,6,2]\n"
    assert parse_pd(spaced) == parse_pd("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]")
    for name in CORPUS_NAMES:
        text = (resources.files("quandlekit") / "diagrams" / (name + ".txt")).read_text()
        assert _tokenize(text) == _terms_after_stripping(text)
        if name == "5_1":  # "1 0" is two tokens, not edge 10
            with pytest.raises(PDSyntaxError):
                parse_pd(text.replace("10", "1 0"))


@pytest.mark.parametrize(
    "text",
    [
        "X[1,1,1,1]",  # an edge id used four times
        "X[1,2,3,4]",  # dangling edge ends
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1]",  # loop id collides
        "X[1,5,2,4] X[3,1,4,6]",  # open strands
        "X[3,1,1,2] X[3,2,4,4]",  # no consistent orientation
        "X[1,5,2,4] X[3,1,4,6] X[3,5,6,2]",  # edge 3 enters both its crossings
    ],
)
def test_structure_errors(text):
    with pytest.raises(PDStructureError):
        parse_pd(text)


def test_a_repeated_loop_id_is_rejected():
    with pytest.raises(PDStructureError, match="repeated O-component edge id"):
        parse_pd("O[1] O[1]")


def test_text_between_terms_is_rejected():
    with pytest.raises(PDSyntaxError, match="unexpected text 'junk'"):
        parse_pd("X[1,4,2,5] junk X[3,6,4,1] X[5,2,6,3]")


def test_two_circles_crossing_once_rejected_at_faces():
    # orientable as a code, but two closed curves cannot cross exactly once
    # in the plane; the Euler count catches it
    d = parse_pd("X[1,2,1,2]")
    assert len(d.components) == 2
    with pytest.raises(PDStructureError):
        faces(d)


def test_disconnected_crossing_diagram_has_no_faces():
    # two far-apart trefoils in one code: oriented fine, but not drawn in
    # one connected piece, so the face builder refuses
    two = (
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] "
        "X[7,11,8,10] X[9,7,10,12] X[11,9,12,8]"
    )
    d = parse_pd(two)
    assert len(d.components) == 2
    with pytest.raises(PDStructureError):
        faces(d)


# --- faces and shading ------------------------------------------------------


def test_face_sizes_trefoil():
    d = named_diagram("trefoil")
    fs = faces(d)
    sizes = sorted(len(f) for f in fs.faces)
    # the standard trefoil diagram: three bigons and two triangles
    assert sizes == [2, 2, 2, 3, 3]
    assert sum(sizes) == 4 * d.n_crossings


def test_checkerboard_is_proper_two_coloring():
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        fs = faces(d)
        sh = checkerboard(d)
        assert 0 <= sh.outer < len(fs.faces)
        assert not sh.is_shaded(sh.outer)
        # quadrants diagonal at a crossing share shading, adjacent differ
        for i in range(d.n_crossings):
            corner = [sh.is_shaded(sh.faceset.face_of[(i, p)]) for p in range(4)]
            assert corner[0] == corner[2]
            assert corner[1] == corner[3]
            assert corner[0] != corner[1]


def test_outer_face_override():
    d = named_diagram("trefoil")
    fs = faces(d)
    base = checkerboard(d)
    base_sg = signs(d, base)
    for f in range(len(fs.faces)):
        sh = checkerboard(d, outer_face=f)
        assert sh.outer == f
        flipped = base.is_shaded(f)
        for face in range(len(fs.faces)):
            assert sh.is_shaded(face) == (base.is_shaded(face) != flipped)
        sg = signs(d, sh)
        expect = tuple(-e for e in base_sg.eps) if flipped else base_sg.eps
        assert sg.eps == expect
        assert sg.w == base_sg.w
    with pytest.raises(ValueError):
        checkerboard(d, outer_face=len(fs.faces))


def test_shading_flip_negates_every_eps():
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        if d.n_crossings == 0:
            continue
        base = checkerboard(d)
        base_eps = signs(d, base).eps
        sh = checkerboard(d, outer_face=min(base.shaded))
        assert signs(d, sh).eps == tuple(-e for e in base_eps)


def test_writhe_sign_convention_on_hopf():
    # both crossings of the bundled hopf link have the over-strand running
    # b -> d, which is the negative convention
    d = named_diagram("hopf")
    assert all(not d.incoming[i][3] for i in range(2))
    assert corpus_signs(d).w == (-1, -1)


def test_arc_merging_matches_over_strand_passes():
    d = named_diagram("trefoil")
    ar = arcs(d)
    # over-pairs (5,4), (1,6), (3,2) glue the six edges into three arcs
    assert ar.arcs == ((1, 6), (2, 3), (4, 5))
    for e in range(1, 7):
        assert e in ar.arcs[ar.arc_of[e]]


def assert_strands_follow_the_code(d):
    """Each edge runs out of one end and into the other, and the strand
    leaves every crossing by the end opposite the one it arrived at."""
    for i, flags in enumerate(d.incoming):
        assert flags[0] and not flags[2] and flags[1] != flags[3]
    for e, slots in d.ends.items():
        assert sorted(d.incoming[i][p] for i, p in slots) == [False, True]
    for comp in d.components:
        for j, e in enumerate(comp):
            if e in d.loops:
                assert comp == (e,)
                continue
            i, p = d.heads[e]
            assert d.crossings[i][(p + 2) % 4] == comp[(j + 1) % len(comp)]


def test_components_and_orientation():
    d = named_diagram("borromean")
    assert sorted(len(c) for c in d.components) == [4, 4, 4]
    assert_strands_follow_the_code(d)


def test_over_only_component_points_in_at_its_lowest_free_end():
    # the closure of s1 s1^-1: strand (2, 4) passes over both crossings, so
    # no under-end fixes its direction; position 1 of crossing 0 points in
    d = parse_pd("X[1,2,3,4] X[3,2,1,4]")
    assert d.incoming == ((True, True, False, False), (True, False, False, True))
    assert d.components == ((1, 3), (2, 4))
    ar = arcs(d)
    assert ar.arcs == ((1,), (2, 4), (3,))
    assert ar.traversals[1] == (None, (0, 1), None, True)


def permutation_cycles(word, strands):
    """The number of cycles of a braid's permutation of its strands."""
    at = list(range(strands))
    for g in word:
        i = abs(g) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    seen, cycles = set(), 0
    for k in range(strands):
        if k not in seen:
            cycles += 1
            while k not in seen:
                seen.add(k)
                k = at[k]
    return cycles


@given(braid_words(max_strands=5, max_extra=10), st.randoms(use_true_random=False))
def test_closures_walk_to_their_strands(braid, rng):
    strands, word = braid
    crossings = closure_crossings(word, strands)
    ids = sorted({e for t in crossings for e in t})
    renumber = dict(zip(ids, rng.sample(range(1, 3 * len(ids)), len(ids))))
    crossings = [tuple(renumber[e] for e in t) for t in crossings]
    rng.shuffle(crossings)
    text = pd_text(crossings)
    assert _tokenize(text) == _terms_after_stripping(text)
    d = parse_pd(text)
    assert len(d.components) == permutation_cycles(word, strands)
    assert sorted(e for comp in d.components for e in comp) == sorted(renumber.values())
    assert_strands_follow_the_code(d)
    ar = arcs(d)
    assert sorted(e for block in ar.arcs for e in block) == sorted(renumber.values())
    assert all(ar.arcs[ar.arc_of[e]].count(e) == 1 for e in renumber.values())
    assert sorted(i for t in ar.traversals for i in t.overs) == list(range(d.n_crossings))
