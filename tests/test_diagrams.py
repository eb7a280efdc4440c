"""Diagram parsing, arcs, faces, shading, and crossing signs.

The corpus table below was computed once from the bundled codes and then
frozen; structural counts (components, arcs, Euler-consistent face counts)
were checked against the standard diagrams by hand.
"""

import random
import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import diagram_oracle as oracle
from braids import braid_words, closure_crossings, pd_text, traversal_labelled
from quandlekit.diagrams import (
    CORPUS_NAMES,
    PDStructureError,
    PDSyntaxError,
    _tokenize,
    faces,
    load_diagram,
    named_diagram,
    parse_pd,
    shading_signs,
)

EULER = "face count %d fails the Euler check (disconnected or nonplanar code)"

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


def writhe_signs(d):
    return tuple(role[3] for role in d.roles)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_structure(name):
    nx, ncomp, narcs, nfaces, writhe, w, eps, alt = CORPUS_FACTS[name]
    d = named_diagram(name)
    assert d.n_crossings == nx
    assert len(d.components) == ncomp
    assert d.arc_count == narcs
    assert len(faces(d)) == nfaces
    assert d.alternating == alt
    assert writhe_signs(d) == w
    assert shading_signs(d) == eps
    assert sum(writhe_signs(d)) == writhe


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
    assert d.arc_count == 1
    assert len(faces(d)) == 1


# --- syntax and structure rejection ----------------------------------------


def exactly(message):
    return "^%s$" % re.escape(message)


def by_text(cases):
    """Parametrize over (text, ...) cases, each named by its text."""
    return pytest.mark.parametrize("text, message", cases, ids=[case[0] for case in cases])


@by_text(
    [
        ("", "empty code (a crossingless unknot is written O[1])"),
        ("   ", "unexpected text '   '"),
        ("X[1,2,3]", "X term needs 4 edge ids, got (1, 2, 3)"),
        ("X[1,2,3,4,5]", "X term needs 4 edge ids, got (1, 2, 3, 4, 5)"),
        ("X[1,2,3,4] junk", "unexpected text 'junk'"),
        ("Y[1,2,3,4]", "unexpected text 'Y[1,2,3,4]'"),
        ("X[0,1,2,3]", "edge ids are 1-based positive integers"),
        ("X[1,2,3,-4]", "unexpected text 'X[1,2,3,-4]'"),
        ("O[]", "O term needs 1 edge ids, got ()"),
        ("O[ ]", "O term needs 1 edge ids, got ()"),
        ("O[1,2]", "O term needs 1 edge ids, got (1, 2)"),
        ("X[1,,2,3]", "bad edge list in 'X[1,,2,3]'"),
        ("X[,]", "bad edge list in 'X[,]'"),
        ("X [1,,2]", "bad edge list in 'X [1,,2]'"),
        # whitespace inside an id
        ("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1 2]", "bad edge list in 'O[1 2]'"),
    ]
)
def test_syntax_errors(text, message):
    with pytest.raises(PDSyntaxError, match=exactly(message)):
        parse_pd(text)


def _terms_after_stripping(text):
    # reference reading for codes with no whitespace inside an id: strip all
    # whitespace, then scan the terms; the X terms, then the O terms
    found = re.findall(r"([XO])\[([0-9,]*)\]", re.sub(r"\s+", "", text))
    terms = [(kind, tuple(int(x) for x in ids.split(","))) for kind, ids in found]
    return [ids for kind, ids in terms if kind == "X"], [ids for kind, ids in terms if kind == "O"]


def test_whitespace_may_separate_anything_but_the_digits_of_an_id():
    spaced = " X [ 1 , 5,2 ,4 ]X[3,1,4,6]\tX[5,3,6,2]\n"
    assert parse_pd(spaced) == parse_pd("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]")
    for name in CORPUS_NAMES:
        text = (resources.files("quandlekit") / "diagrams" / (name + ".txt")).read_text()
        assert _tokenize(text) == _terms_after_stripping(text)
        if name == "5_1":  # "1 0" is two tokens, not edge 10
            with pytest.raises(PDSyntaxError):
                parse_pd(text.replace("10", "1 0"))


# --- bulk reading against the term-by-term oracle ----------------------------

CORRUPTING = "XO[],0123456789 \n"


def tokenized(tokenize, text):
    """What a tokenizer makes of text: its terms, or its error's class and message."""
    try:
        return tokenize(text)
    except Exception as exc:
        return type(exc), str(exc)


def respaced(text, rng):
    """text with whitespace around every character but the digits of an id."""
    spaces = ("", "", " ", "\n", " \t ")
    return "".join(
        piece if piece.isdigit() else "".join(rng.choice(spaces) + c for c in piece + " ")
        for piece in re.split(r"(\d+)", text)
    )


def with_loops(crossings, rng):
    """The code of crossings with one to three O terms on fresh ids, each
    placed at a random term."""
    fresh = max(e for t in crossings for e in t) + 1
    terms = ["X[%d,%d,%d,%d]" % t for t in crossings]
    for k in range(rng.randint(1, 3)):
        terms.insert(rng.randint(0, len(terms)), "O[%d]" % (fresh + k))
    return " ".join(terms)


def valid_codes(rng):
    for name in CORPUS_NAMES:
        yield (resources.files("quandlekit") / "diagrams" / (name + ".txt")).read_text()
    for strands, word in _seeded_words(31, 12):
        crossings = closure_crossings(word, strands)
        yield pd_text(crossings)
        yield with_loops(crossings, rng)
        yield respaced(with_loops(crossings, rng), rng)
    yield "O[1]"
    yield " O [ 3 ]\nO[1]\t"


def corrupted(text, rng):
    """text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    c = rng.choice(CORRUPTING)
    edit = rng.choice(("insert", "delete", "replace")) if i < len(text) else "insert"
    if edit == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + ("" if edit == "delete" else c) + text[i + 1:]


def test_bulk_reading_matches_the_term_by_term_oracle():
    rng = random.Random(32)
    outcomes = set()
    for text in valid_codes(rng):
        assert _tokenize(text) == oracle.tokenize(text)
        for _ in range(40):
            bad = corrupted(text, rng)
            got = tokenized(_tokenize, bad)
            assert got == tokenized(oracle.tokenize, bad), bad
            outcomes.add(got[1].split(" ")[0] if got[0] is PDSyntaxError else "read")
    # the corruptions reach every kind of message, and some still read
    assert outcomes >= {"read", "unexpected", "bad", "X", "O", "edge"}
    # an O term with an X term's three commas is no X term
    for bad in ("O[1,2,3,4]", "X[1,5,2,4] O[6,7,8,9] X[3,1,4,6]"):
        assert tokenized(_tokenize, bad) == tokenized(oracle.tokenize, bad)
        assert tokenized(_tokenize, bad)[0] is PDSyntaxError


@by_text(
    [
        ("X[1,1,1,1]", "edge 1 occurs 4 times, expected 2"),
        ("X[1,2,3,4]", "edge 1 occurs 1 times, expected 2"),  # dangling edge ends
        ("X[1,2,1,1] X[2,3,4,3]", "edge 1 occurs 3 times, expected 2"),
        ("X[1,5,2,4] X[3,1,4,6]", "edge 5 occurs 1 times, expected 2"),  # open strands
        # the message names an edge that enters (or leaves) both its
        # crossings: here edge 3, though the walk notices the conflict at
        # edge 4
        ("X[3,1,1,2] X[3,2,4,4]", "no consistent orientation (conflict at edge 3)"),
        ("X[1,5,2,4] X[3,1,4,6] X[3,5,6,2]", "no consistent orientation (conflict at edge 3)"),
        ("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1]", "edge 1 used both as a loop and at a crossing"),
    ]
)
def test_structure_errors(text, message):
    with pytest.raises(PDStructureError, match=exactly(message)):
        parse_pd(text)


@pytest.mark.parametrize(
    "text, error, message",
    [
        # the first faulty term wins, whatever its fault
        ("X[1,2,3] X[0,1,2,3]", PDSyntaxError, "X term needs 4 edge ids, got (1, 2, 3)"),
        ("X[1,2,3,4] junk X[0,1,2,3]", PDSyntaxError, "unexpected text 'junk'"),
        ("X[0,1,2,3] junk", PDSyntaxError, "edge ids are 1-based positive integers"),
        # syntax before structure; then edge counts, orientation, and the loops
        ("X[1,2,3,4] O[1] X[5]", PDSyntaxError, "X term needs 4 edge ids, got (5,)"),
        ("X[1,2,3,4] O[1] O[1]", PDStructureError, "edge 1 occurs 1 times, expected 2"),
        ("X[3,1,1,2] X[3,2,4,4] O[1] O[1]", PDStructureError, "no consistent orientation (conflict at edge 3)"),
        ("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[1] O[1]", PDStructureError, "repeated O-component edge id"),
    ],
)
def test_the_first_fault_decides_the_message(text, error, message):
    with pytest.raises(error, match=exactly(message)):
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
    with pytest.raises(PDStructureError, match=exactly(EULER % 1)):
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
    with pytest.raises(PDStructureError, match=exactly(EULER % 10)):
        faces(d)


@pytest.mark.parametrize(
    "text, message",
    [
        ("X[1,2,1,2]", EULER % 1),
        ("X[1,2,3,4] X[3,4,1,2]", EULER % 2),  # a torus diagram: orientable, not planar
        # each passes the Euler count, a torus piece making up for a split one
        ("X[3,4,4,3] X[2,1,2,1]", "face adjacency is not 2-colorable"),
        ("X[3,1,1,3] X[4,2,4,2]", "face adjacency is not connected"),
    ],
)
def test_shading_errors(text, message):
    d = parse_pd(text)
    with pytest.raises(PDStructureError, match=exactly(message)):
        shading_signs(d)
    assert oracle_raises(oracle.checkerboard, d) == (PDStructureError, message)


def test_an_outer_face_out_of_range_is_rejected():
    d = named_diagram("trefoil")
    for face in (-1, 5):
        with pytest.raises(ValueError, match=exactly("outer face %d out of range" % face)):
            shading_signs(d, outer_face=face)


# --- faces and shading ------------------------------------------------------


def test_face_sizes_trefoil():
    d = named_diagram("trefoil")
    fs = faces(d)
    sizes = sorted(len(f) for f in fs.faces)
    # the standard trefoil diagram: three bigons and two triangles
    assert sizes == [2, 2, 2, 3, 3]
    assert sum(sizes) == 4 * d.n_crossings


def negated(eps):
    return tuple(-e for e in eps)


def test_checkerboard_is_proper_two_coloring():
    # the shading, read back from eps: declaring a face outer keeps every
    # eps where that face is white and negates every eps where it is shaded
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        fs = faces(d)
        eps = shading_signs(d)
        assert 0 <= fs.outer_default < len(fs.faces)
        if not d.crossings:
            assert eps == () and len(fs.faces) == 1
            continue
        shaded = set()
        for f in range(len(fs.faces)):
            other = shading_signs(d, outer_face=f)
            assert other in (eps, negated(eps))
            if other != eps:
                shaded.add(f)
        assert fs.outer_default not in shaded
        # eps is +1 where the quadrant between a and b is shaded
        assert eps == tuple(1 if fs.face_of[4 * i] in shaded else -1 for i in range(d.n_crossings))
        # quadrants diagonal at a crossing share shading, adjacent differ
        for i in range(d.n_crossings):
            corner = [fs.face_of[4 * i + p] in shaded for p in range(4)]
            assert corner[0] == corner[2]
            assert corner[1] == corner[3]
            assert corner[0] != corner[1]


def test_faces_are_cycles_of_end_numbers():
    # faces list end numbers 4 * crossing + position, each face from its
    # least end and in sorted order, and face_of has one entry per end
    corpus = resources.files("quandlekit") / "diagrams"
    texts = [(corpus / (name + ".txt")).read_text() for name in CORPUS_NAMES]
    texts += [pd_text(closure_crossings(word, strands)) for strands, word in _seeded_words(25, 20)]
    for text in texts:
        d = parse_pd(text)
        fs = faces(d)
        if not d.crossings:
            assert fs.faces == ((),) and fs.face_of == ()
            continue
        assert len(fs.face_of) == 4 * d.n_crossings
        assert all(s in fs.faces[fs.face_of[s]] for s in range(4 * d.n_crossings))
        assert sorted(s for face in fs.faces for s in face) == list(range(4 * d.n_crossings))
        assert all(face[0] == min(face) for face in fs.faces)
        assert list(fs.faces) == sorted(fs.faces)
        again = faces(parse_pd(text))
        assert again == fs and hash(again) == hash(fs)
    assert faces(parse_pd("O[1]")) == (((),), 0, ())


def test_outer_face_override():
    # the oracle's shading with the default outer face white: declaring
    # face f outer makes f white, so eps negates exactly where f was shaded
    d = named_diagram("trefoil")
    fs = faces(d)
    base = oracle.checkerboard(d)
    eps = shading_signs(d)
    assert base.outer not in base.shaded and eps == oracle.signs(d, base).eps
    for f in range(len(fs.faces)):
        flipped = f in base.shaded
        other = shading_signs(d, outer_face=f)
        assert other == (negated(eps) if flipped else eps)
        # the new outer face is white: every crossing's quadrant in it is -1
        assert all(other[s >> 2] == -1 for s in fs.faces[f] if s & 3 == 0)
    assert writhe_signs(d) == oracle.signs(d, base).w
    with pytest.raises(ValueError):
        shading_signs(d, outer_face=len(fs.faces))


def test_shading_flip_negates_every_eps():
    for name in CORPUS_NAMES:
        d = named_diagram(name)
        if d.n_crossings == 0:
            continue
        base = oracle.checkerboard(d)
        eps = shading_signs(d)
        assert base.shaded
        for f in range(len(base.faceset)):
            assert shading_signs(d, outer_face=f) == (negated(eps) if f in base.shaded else eps)


def test_writhe_sign_convention_on_hopf():
    # both crossings of the bundled hopf link have the over-strand running
    # b -> d, which is the negative convention
    d = named_diagram("hopf")
    assert all(not d.incoming[i][3] for i in range(2))
    assert writhe_signs(d) == (-1, -1)


def test_arc_merging_matches_over_strand_passes():
    d = named_diagram("trefoil")
    ar = oracle.arcs(d)
    # over-pairs (5,4), (1,6), (3,2) glue the six edges into three arcs,
    # indexed by least edge; the roles name them by those indices
    assert ar.arcs == ((1, 6), (2, 3), (4, 5))
    for e in range(1, 7):
        assert e in ar.arcs[ar.arc_of[e]]
    assert d.arc_count == 3
    assert d.roles == ((0, 2, 1, 1), (1, 0, 2, 1), (2, 1, 0, 1))


def assert_strands_follow_the_code(d):
    """Each edge runs out of one end and into the other, and the strand
    leaves every crossing by the end opposite the one it arrived at."""
    for i, flags in enumerate(d.incoming):
        assert flags[0] and not flags[2] and flags[1] != flags[3]
    for e, slots in oracle.ends(d).items():
        assert sorted(d.incoming[i][p] for i, p in slots) == [False, True]
    heads = oracle.heads(d)
    for comp in d.components:
        for j, e in enumerate(comp):
            if e in d.loops:
                assert comp == (e,)
                continue
            i, p = heads[e]
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
    # arcs (1,), (2, 4), (3,): the over-strand is arc 1, and the rule
    # decides each crossing's w and so which under-arc is the source
    assert d.arc_count == 3
    assert d.roles == ((2, 1, 0, -1), (2, 1, 0, 1))


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
    ar = oracle.arcs(d)
    assert sorted(e for block in ar.arcs for e in block) == sorted(renumber.values())
    assert all(ar.arcs[ar.arc_of[e]].count(e) == 1 for e in renumber.values())
    assert sorted(i for t in ar.traversals for i in t.overs) == list(range(d.n_crossings))
    assert d.arc_count == len(ar.arcs)
    assert d.roles == tuple(oracle.crossing_roles(d, ar))


# --- the one-pass reading against the two-pass oracle ------------------------


def oracle_raises(f, *args):
    """The error type and message that f raises on args."""
    try:
        f(*args)
    except ValueError as e:
        return type(e), str(e)
    raise AssertionError("%s did not raise" % f.__name__)


def assert_reads_like_the_oracle(d):
    """The walk's arc count and roles equal the oracle's; so do the faces
    and the shading signs at every outer face, or the error each raises."""
    ar = oracle.arcs(d)
    assert d.arc_count == len(ar.arcs)
    assert d.roles == tuple(oracle.crossing_roles(d, ar))
    assert d.alternating == oracle.alternating(d)
    try:
        fs = oracle.faces(d)
    except PDStructureError:
        assert oracle_raises(faces, d) == oracle_raises(oracle.faces, d)
        assert oracle_raises(shading_signs, d) == oracle_raises(oracle.checkerboard, d)
        return
    assert faces(d) == fs
    for outer in [None] + list(range(len(fs))):
        try:
            want = oracle.checkerboard(d, outer)
        except PDStructureError:
            assert oracle_raises(shading_signs, d, outer) == oracle_raises(oracle.checkerboard, d, outer)
            continue
        assert shading_signs(d, outer) == oracle.signs(d, want).eps


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_reads_like_the_oracle(name):
    assert_reads_like_the_oracle(named_diagram(name))


def _seeded_words(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(2, 5)
        gens = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
        rng.shuffle(gens)
        yield strands, [g * rng.choice((1, -1)) for g in gens]


def test_braid_closures_read_like_the_oracle():
    # braid-order labelling, then traversal labelling from four rotations
    links = 0
    for strands, word in _seeded_words(23, 40):
        d = parse_pd(pd_text(closure_crossings(word, strands)))
        assert_reads_like_the_oracle(d)
        links += not d.is_knot()
        for rotation in (0, 1, 2, 5):
            assert_reads_like_the_oracle(parse_pd(pd_text(traversal_labelled(word, strands, rotation))))
    assert links


@pytest.mark.parametrize(
    "text",
    [
        "O[3] O[1]",
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[9] O[7]",
        "O[1] " + pd_text([tuple(e + 1 for e in t) for t in traversal_labelled([1, 1, -2, 1, 2], 3, 2)]),
        # components that only pass over: the closures of s1 s1^-1 and of
        # (s1 s1^-1)^2, a closed circle lying over another, and one with a loop
        "X[1,2,3,4] X[3,2,1,4]",
        pd_text(closure_crossings([1, -1, 1, -1], 2)),
        pd_text(traversal_labelled([1, -1, 1, -1], 2, 3)),
        "X[3,1,4,2] X[4,1,3,2]",
        "X[1,2,3,4] X[3,2,1,4] O[5]",
    ],
)
def test_loops_and_over_only_components_read_like_the_oracle(text):
    d = parse_pd(text)
    assert_reads_like_the_oracle(d)


@pytest.mark.parametrize(
    "text",
    [
        # two trefoils side by side, and a trefoil beside a torus piece
        "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] X[7,11,8,10] X[9,7,10,12] X[11,9,12,8]",
        "X[1,2,3,4] X[3,4,1,2] X[5,9,6,8] X[7,5,8,10] X[9,7,10,6]",
        "X[1,2,1,2]",
    ],
)
def test_split_and_nonplanar_codes_read_like_the_oracle(text):
    # their arcs and roles are read; faces or shading raise the oracle's error
    d = parse_pd(text)
    assert_reads_like_the_oracle(d)
    assert oracle_raises(shading_signs, d)[0] is PDStructureError
