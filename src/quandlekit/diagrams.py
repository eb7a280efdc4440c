"""Oriented link diagrams from planar-diagram codes.

A code is a whitespace-separated list of terms.  ``X[a,b,c,d]`` is a
crossing whose edge ids are read counterclockwise starting at the incoming
under-edge ``a`` (so the under-strand runs a -> c and the over-strand joins
b and d).  ``O[k]`` is a crossingless closed component with the single edge
id ``k``.  Every X-edge id must occur exactly twice.

Parsing walks each strand once.  A walk leaves a crossing by its outgoing
under-end ``c`` and follows the strand through every crossing it meets,
leaving each by the end opposite the one it arrived at, until it closes; a
component that only passes over starts at its lowest free end.  That one
walk orients every edge end and lists the component cycles.  Cutting each
cycle where it passes under a crossing gives the arcs (maximal
over-passages between undercrossings) and each arc's traversal.  From the
embedding we then derive the faces of the sphere via the counterclockwise
rotation at each crossing, a checkerboard shading with a white outer face,
and the two signs at each crossing: the writhe sign w and the shading sign
eps.
"""

from __future__ import annotations

import os
import re
from functools import cached_property
from collections import namedtuple
from itertools import chain

from .quandles import Frozen

_TERM = re.compile(r"\s*([XO])\s*\[([0-9,\s]*)\]\s*")

CORPUS_NAMES = (
    "trefoil",
    "figure8",
    "hopf",
    "borromean",
    "unlink2",
    "unlink3",
    "5_1",
    "5_2",
    "trefoil_kinked",
    "figure8_kinked",
)


class PDSyntaxError(ValueError):
    """The text is not a well-formed PD code."""


class PDStructureError(ValueError):
    """Well-formed text that does not describe a consistent diagram."""


def _tokenize(text):
    """The terms of a code in one pass; whitespace may stand anywhere except
    inside an edge id."""
    consumed = 0
    terms = []
    for m in _TERM.finditer(text):
        if m.start() != consumed:
            raise PDSyntaxError("unexpected text %r" % text[consumed:m.start()])
        consumed = m.end()
        kind, body = m.groups()
        try:
            ids = tuple(int(x) for x in body.split(",")) if body.strip() else ()
        except ValueError:
            raise PDSyntaxError("bad edge list in %r" % m.group(0).strip())
        want = 4 if kind == "X" else 1
        if len(ids) != want:
            raise PDSyntaxError("%s term needs %d edge ids, got %r" % (kind, want, ids))
        if any(e < 1 for e in ids):
            raise PDSyntaxError("edge ids are 1-based positive integers")
        terms.append((kind, ids))
    if consumed != len(text):
        raise PDSyntaxError("unexpected text %r" % text[consumed:])
    if not terms:
        raise PDSyntaxError("empty code (a crossingless unknot is written O[1])")
    return terms


class PDDiagram(Frozen):
    """A validated, oriented planar-diagram code."""

    __match_args__ = ("crossings", "loops", "incoming", "components")

    def __init__(self, crossings, loops, incoming, components):
        vars(self).update(
            crossings=crossings,  # of (a, b, c, d)
            loops=loops,  # O-term edge ids
            incoming=incoming,  # per crossing, 4 booleans: does that end point in?
            components=components,  # edge-id cycles, one per link component
        )

    @property
    def n_crossings(self):
        return len(self.crossings)

    @cached_property
    def ends(self):
        """edge id -> the one or two (crossing, position) slots it fills."""
        out = {}
        for i, t in enumerate(self.crossings):
            for p, e in enumerate(t):
                out.setdefault(e, []).append((i, p))
        return {e: tuple(v) for e, v in out.items()}

    @cached_property
    def heads(self):
        """edge id -> the (crossing, position) slot where it arrives."""
        return {
            t[p]: (i, p)
            for i, (t, flags) in enumerate(zip(self.crossings, self.incoming))
            for p in range(4)
            if flags[p]
        }

    def writhe_sign(self, i):
        """+1 when the over-strand runs d -> b, else -1."""
        return 1 if self.incoming[i][3] else -1

    def is_knot(self):
        return len(self.components) == 1

    @cached_property
    def alternating(self):
        """Does every component alternate over/under along its travel?"""
        for cyc in self.components:
            roles = [self.heads[e][1] == 0 for e in cyc if e in self.heads]
            for k in range(len(roles)):
                if len(roles) > 1 and roles[k] == roles[(k + 1) % len(roles)]:
                    return False
        return True


def _walk(crossings):
    """Orient every crossing end and list the component cycles, in one walk.

    Ends are numbered 4 * crossing + position.  Every walk follows one
    strand: it leaves by an end, arrives at the other end of that edge and
    leaves again by the opposite end, (2, 3, 0, 1)[position].  Walks start
    at each crossing's outgoing under-end (position 2); a component that
    only passes over starts with its lowest free end pointing in.

    Leaving an end is a permutation of the ends, so every walk closes and
    no two walks leave by the same end.  The ends a walk arrives at are the
    ends its reverse leaves by, so an end reached both ways makes the
    reverse of a walk from a position 2 another walk; that one leaves by a
    position 0, so it arrived at a position 2.  Arriving at a position 2 is
    therefore the one conflict to check.  A component that only passes over
    alternates edges and over-passages around an even cycle, so it always
    orients.  Returns the per-end incoming flags and the edge cycles, each
    rotated to start at its lowest edge.
    """
    flat = [e for t in crossings for e in t]
    ends = {}
    for s, e in enumerate(flat):
        ends.setdefault(e, []).append(s)
    for e, slots in ends.items():
        if len(slots) != 2:
            raise PDStructureError("edge %d occurs %d times, expected 2" % (e, len(slots)))
    other = [0] * len(flat)
    for s, t in ends.values():
        other[s], other[t] = t, s

    incoming = [None] * len(flat)
    cycles = []
    for seed in chain(range(2, len(flat), 4), range(len(flat))):
        if incoming[seed] is not None:
            continue
        if seed % 4 != 2:  # every under-strand is walked; this one passes over only
            incoming[seed] = True
            seed ^= 2
        cycle = []
        s = seed
        while True:
            t = other[s]
            if t % 4 == 2:
                raise PDStructureError(
                    "no consistent orientation (conflict at edge %r)" % (flat[s],)
                )
            incoming[s], incoming[t] = False, True
            cycle.append(flat[s])
            s = t ^ 2
            if s == seed:
                break
        k = cycle.index(min(cycle))
        cycles.append(tuple(cycle[k:] + cycle[:k]))
    return incoming, cycles


def parse_pd(text):
    terms = _tokenize(text)
    crossings = tuple(ids for kind, ids in terms if kind == "X")
    loops = tuple(sorted(ids[0] for kind, ids in terms if kind == "O"))
    flags, cycles = _walk(crossings)
    if len(set(loops)) != len(loops):
        raise PDStructureError("repeated O-component edge id")
    shared = set(loops).intersection(e for t in crossings for e in t)
    if shared:
        raise PDStructureError("edge %d used both as a loop and at a crossing" % min(shared))
    return PDDiagram(
        crossings=crossings,
        loops=loops,
        incoming=tuple(tuple(flags[4 * i:4 * i + 4]) for i in range(len(crossings))),
        components=tuple(sorted(cycles + [(k,) for k in loops])),
    )


class ArcTraversal(namedtuple("ArcTraversal", "start overs end closed")):
    """One arc's travel: the undercrossing it starts from, the crossings it
    passes over in order, and the undercrossing it ends at.  A closed arc
    (a crossingless loop, or a component that passes over everything it
    meets) has no start or end: both are None."""

    __slots__ = ()


class ArcSet(namedtuple("ArcSet", "arcs arc_of traversals")):
    """Partition of the edges into arcs (cut only at under-passages): the
    arcs as sorted tuples of edge ids, the dict edge id -> arc index, and
    each arc's ArcTraversal."""

    __slots__ = ()

    def __len__(self):
        return len(self.arcs)


def arcs(d):
    """Cut each component's edge cycle where it passes under a crossing."""
    heads = d.heads
    found = []  # (sorted edge block, traversal)
    for cycle in d.components:
        cuts = [j for j, e in enumerate(cycle) if e in heads and heads[e][1] == 0]
        if not cuts:
            overs = tuple(heads[e][0] for e in cycle if e in heads)
            found.append((tuple(sorted(cycle)), ArcTraversal(None, overs, None, True)))
            continue
        j = cuts[-1]  # start just after an undercrossing, so the cycle ends on one
        start = heads[cycle[j]][0]
        block, overs = [], []
        for e in cycle[j + 1:] + cycle[:j + 1]:
            block.append(e)
            i, p = heads[e]
            if p == 0:
                found.append((tuple(sorted(block)), ArcTraversal(start, tuple(overs), i, False)))
                start, block, overs = i, [], []
            else:
                overs.append(i)
    found.sort(key=lambda f: f[0])
    blocks = tuple(block for block, _ in found)
    arc_of = {e: i for i, block in enumerate(blocks) for e in block}
    return ArcSet(arcs=blocks, arc_of=arc_of, traversals=tuple(t for _, t in found))


class FaceSet(namedtuple("FaceSet", "faces outer_default face_of")):
    """Faces of the sphere embedding, as cycles of arrival darts (i, p), the
    default outer face, and the dict dart -> face index.  face_of follows
    from faces, so it is left out of the hash."""

    __slots__ = ()

    def __len__(self):
        return len(self.faces)

    def __hash__(self):
        return hash((self.faces, self.outer_default))


def _next_dart(d, dart):
    i, p = dart
    q = (p + 1) % 4
    e = d.crossings[i][q]
    slots = d.ends[e]
    return slots[1] if slots[0] == (i, q) else slots[0]


def faces(d):
    """Faces via counterclockwise rotation; checks the Euler count."""
    if not d.crossings:
        return FaceSet(faces=((),), outer_default=0, face_of={})
    darts = [(i, p) for i in range(d.n_crossings) for p in range(4)]
    seen = set()
    out = []
    for start in darts:
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = _next_dart(d, cur)
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    out.sort()
    v = d.n_crossings
    e = 2 * v
    if v - e + len(out) != 2:
        raise PDStructureError(
            "face count %d fails the Euler check (disconnected or nonplanar code)"
            % len(out)
        )
    face_of = {dart: i for i, cyc in enumerate(out) for dart in cyc}
    first = min(e2 for t in d.crossings for e2 in t)
    return FaceSet(faces=tuple(out), outer_default=face_of[d.heads[first]], face_of=face_of)


class Shading(namedtuple("Shading", "faceset outer shaded")):
    """Checkerboard 2-coloring of the faces: the FaceSet, the outer face,
    which is white, and the frozenset of shaded faces."""

    __slots__ = ()

    def is_shaded(self, face):
        return face in self.shaded


def checkerboard(d, outer_face=None):
    fs = faces(d)
    outer = fs.outer_default if outer_face is None else outer_face
    if not 0 <= outer < len(fs.faces):
        raise ValueError("outer face %r out of range" % (outer_face,))
    if not d.crossings:
        return Shading(faceset=fs, outer=outer, shaded=frozenset())
    color = {outer: False}
    stack = [outer]
    while stack:
        f = stack.pop()
        for dart in fs.faces[f]:
            e = d.crossings[dart[0]][dart[1]]
            s1, s2 = d.ends[e]
            other = fs.face_of[s2 if s1 == dart else s1]
            if other in color:
                if color[other] == color[f]:
                    raise PDStructureError("face adjacency is not 2-colorable")
            else:
                color[other] = not color[f]
                stack.append(other)
    if len(color) != len(fs.faces):
        raise PDStructureError("face adjacency is not connected")
    return Shading(
        faceset=fs,
        outer=outer,
        shaded=frozenset(f for f, dark in color.items() if dark),
    )


class CrossingSigns(namedtuple("CrossingSigns", "w eps")):
    """w: writhe signs; eps: +1 where the quadrant between a and b is shaded."""

    __slots__ = ()

    @property
    def writhe(self):
        return sum(self.w)


def signs(d, shading):
    w = tuple(d.writhe_sign(i) for i in range(d.n_crossings))
    face_of = shading.faceset.face_of
    eps = tuple(
        1 if shading.is_shaded(face_of[(i, 0)]) else -1
        for i in range(d.n_crossings)
    )
    return CrossingSigns(w=w, eps=eps)


def named_diagram(name):
    """Load a bundled corpus diagram by name."""
    if name not in CORPUS_NAMES:
        raise KeyError("unknown diagram %r (corpus: %s)" % (name, ", ".join(CORPUS_NAMES)))
    path = os.path.join(os.path.dirname(__file__), "diagrams", name + ".txt")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pd(fh.read())


def load_diagram(source):
    """A corpus name or a path to a PD text file."""
    if source in CORPUS_NAMES:
        return named_diagram(source)
    with open(source, "r", encoding="utf-8") as fh:
        return parse_pd(fh.read())
