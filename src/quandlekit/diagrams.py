"""Oriented link diagrams from planar-diagram codes.

A code is a whitespace-separated list of terms.  ``X[a,b,c,d]`` is a
crossing whose edge ids are read counterclockwise starting at the incoming
under-edge ``a`` (so the under-strand runs a -> c and the over-strand joins
b and d).  ``O[k]`` is a crossingless closed component with the single edge
id ``k``.  Every X-edge id must occur exactly twice.

Parsing reads a code in one walk over the crossing ends, numbered
4 * crossing + position.  A walk leaves a crossing by its outgoing
under-end ``c`` and follows the strand through every crossing it meets,
leaving each by the end opposite the one it arrived at, until it closes; a
component that only passes over starts at its lowest free end.  That one
walk orients every edge end, lists the component cycles, numbers the arcs
(maximal over-passages between undercrossings), cutting one where it
arrives under a crossing, and records each crossing's roles: its
under-arcs, its over-arc and its writhe sign w.  No record of the arcs'
edges is kept; what follows a strand (``PDDiagram.alternating``, the
shading-sign alternation) reads ``partner``.  On the same end numbers
we then derive the faces of the sphere, by turning counterclockwise at each
crossing: each face is a cycle of end numbers, and the FaceSet keeps the
face of every end.  ``shading_signs`` reads that one record for the
checkerboard shading (white outer face) and the shading sign eps at each
crossing.
"""

from __future__ import annotations

import os
import re
from functools import cached_property
from collections import Counter, namedtuple
from itertools import chain, repeat

from .quandles import Frozen

_TERM = re.compile(r"\s*(([XO])\s*\[([0-9,\s]*)\])\s*")

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
    """The X terms and the O terms of a code, each as tuples of edge ids, in
    one pass; whitespace may stand anywhere except inside an edge id.

    A code of X terms only, with no text between them and three commas in
    every body, is first read in bulk: one ``int`` map over the joined
    bodies.  Any other code, or one whose ids fail that read, is read term
    by term, so that an error names its first bad term.
    """
    parts = _TERM.split(text)  # text before each term, the term, its kind and body; then the rest
    bodies = parts[3::4]
    commas = set(map(str.count, bodies, repeat(",")))
    if "O" not in parts[2::4] and not any(parts[0::4]) and commas == {3}:
        try:
            ids = list(map(int, ",".join(bodies).split(",")))
        except ValueError:
            ids = [0]  # read term by term below, for the message
        if 0 not in ids:
            return list(zip(*[iter(ids)] * 4)), []
    terms = {"X": [], "O": []}
    for gap, term, kind, body in zip(parts[0::4], parts[1::4], parts[2::4], parts[3::4]):
        if gap:
            raise PDSyntaxError("unexpected text %r" % gap)
        try:
            ids = tuple(map(int, body.split(",")))
        except ValueError:
            if body.strip():
                raise PDSyntaxError("bad edge list in %r" % term)
            ids = ()
        want = 4 if kind == "X" else 1
        if len(ids) != want:
            raise PDSyntaxError("%s term needs %d edge ids, got %r" % (kind, want, ids))
        if 0 in ids:  # the pattern admits only digits, so no id is negative
            raise PDSyntaxError("edge ids are 1-based positive integers")
        terms[kind].append(ids)
    if parts[-1]:
        raise PDSyntaxError("unexpected text %r" % parts[-1])
    if len(parts) == 1:
        raise PDSyntaxError("empty code (a crossingless unknot is written O[1])")
    return terms["X"], terms["O"]


class PDDiagram(Frozen):
    """A validated, oriented planar-diagram code.

    Besides its fields, a diagram keeps what reading it found: ``roles``
    (per crossing: source arc, over arc, target arc and writhe sign w; the
    source is the incoming under-arc when w is +1 and the outgoing one when
    it is -1), ``arc_count``, and ``partner`` (per end, numbered
    4 * crossing + position, the other end of its edge).  Arcs are indexed
    in order of their least edge; which edges make up an arc is not kept,
    and what follows a strand (``alternating``, the shading-sign
    alternation) reads ``partner``.  All of these follow from the
    fields, so equality and hashing leave them out.
    """

    __match_args__ = ("crossings", "loops", "incoming", "components")

    def __init__(self, crossings, loops, incoming, components, roles, arc_count, partner):
        vars(self).update(
            crossings=crossings,  # of (a, b, c, d)
            loops=loops,  # O-term edge ids
            incoming=incoming,  # per crossing, 4 booleans: does that end point in?
            components=components,  # edge-id cycles, one per link component
            roles=roles,
            arc_count=arc_count,
            partner=partner,
        )

    @property
    def n_crossings(self):
        return len(self.crossings)

    def is_knot(self):
        return len(self.components) == 1

    @cached_property
    def alternating(self):
        """Does every component alternate over/under along its travel?

        A strand that arrives at end t leaves by t ^ 2 and next arrives at
        that end's partner; arrivals at position 0 pass under.  A component
        that arrives only once alternates.
        """
        partner = self.partner
        for t in range(len(partner)):
            if self.incoming[t >> 2][t & 3]:
                u = partner[t ^ 2]
                if u != t and (u & 3 == 0) == (t & 3 == 0):
                    return False
        return True


# A crossing's incoming flags by its writhe sign: the under-strand runs
# a -> c, the over-strand d -> b when w is +1 and b -> d when it is -1.
_INCOMING = {1: (True, False, False, True), -1: (True, True, False, False)}


def _partner(crossings):
    """The edge id at each end, and each end's partner: the other end of
    its edge.  Every edge id must occur exactly twice."""
    flat = list(chain.from_iterable(crossings))
    partner = [-1] * len(flat)
    first = {}
    for s, e in enumerate(flat):
        t = first.setdefault(e, s)
        if t != s:
            partner[s], partner[t] = t, s
    # with half as many ids as ends, an id seen more than twice means
    # another seen once, whose end stays unpaired
    if 2 * len(first) != len(flat) or -1 in partner:
        e, k = next((e, k) for e, k in Counter(flat).items() if k != 2)
        raise PDStructureError("edge %d occurs %d times, expected 2" % (e, k))
    return flat, partner


def _conflict_edge(flat, partner, t):
    """The edge to name when a walk arrives at the position 2 end t: the
    first edge by end number whose two ends both enter (position 0) or
    both leave (position 2) their crossings, which no orientation mends,
    else t's own edge."""
    same = (flat[u] for u in range(0, len(flat), 2) if partner[u] & 3 == u & 3)
    return next(same, flat[t])


def _walk(crossings):
    """Orient every crossing end, list the component cycles, number the
    arcs and record the crossing roles, in one walk over the ends.

    Ends are numbered 4 * crossing + position.  Every walk follows one
    strand: it leaves by an end, arrives at that end's partner and leaves
    again by the opposite end, (2, 3, 0, 1)[position].  Walks start at each
    crossing's outgoing under-end (position 2); a component that only
    passes over starts with its lowest free end pointing in.

    Leaving an end is a permutation of the ends, so every walk closes and
    no two walks leave by the same end.  The ends a walk arrives at are the
    ends its reverse leaves by, so an end reached both ways makes the
    reverse of a walk from a position 2 another walk; that one leaves by a
    position 0, so it arrived at a position 2.  Arriving at a position 2 is
    therefore the one conflict to check.  A component that only passes over
    alternates edges and over-passages around an even cycle, so it always
    orients.

    Arriving at a position 0 passes under that crossing and cuts an arc
    there; a walk from a position 2 ends on such a cut, where it started.
    Arriving at a position 1 or 3 passes over that crossing and fixes its
    writhe sign: +1 when the over-strand arrives at d.  A component that
    only passes over is one closed arc.  Returns the writhe signs; the edge
    cycles, each rotated to start at its lowest edge; each arc's least
    edge, in walk order; each crossing's (under-in, over, under-out) arc
    indices in that order; and the partner ends.
    """
    flat, partner = _partner(crossings)
    n = len(crossings)
    w = [0] * n
    under_in, over, under_out = [0] * n, [0] * n, [None] * n
    cycles, least = [], []  # least: each arc's least edge
    for seed in range(2, 4 * n, 4):
        if under_out[seed >> 2] is not None:
            continue
        a = under_out[seed >> 2] = len(least)  # the arc being walked
        path, cuts = [], [0]  # the ends arrived at; where each arc ends in them
        s = seed
        while True:  # one arc: its over-passages, then the under-passage that ends it
            t = partner[s]
            while t & 1:
                over[t >> 2], w[t >> 2] = a, (t & 3) - 2
                path.append(t)
                t = partner[t ^ 2]
            if t & 2:
                edge = _conflict_edge(flat, partner, t)
                raise PDStructureError("no consistent orientation (conflict at edge %r)" % (edge,))
            path.append(t)
            cuts.append(len(path))
            under_in[t >> 2] = a
            s = t + 2
            if s == seed:
                break
            a += 1
            under_out[t >> 2] = a
        cycle = list(map(flat.__getitem__, path))
        least += map(min, map(cycle.__getitem__, map(slice, cuts, cuts[1:])))
        k = cycle.index(min(cycle))
        cycles.append(tuple(cycle[k:] + cycle[:k]))
    for i in range(n):
        if w[i]:
            continue
        a = len(least)
        seed = 4 * i + 3  # its lowest free end, 4 * i + 1, points in
        path = []
        s = seed
        while True:
            t = partner[s]
            path.append(t)
            over[t >> 2], w[t >> 2] = a, (t & 3) - 2
            s = t ^ 2
            if s == seed:
                break
        cycle = list(map(flat.__getitem__, path))
        least.append(min(cycle))
        k = cycle.index(least[-1])
        cycles.append(tuple(cycle[k:] + cycle[:k]))
    return w, cycles, least, (under_in, over, under_out), partner


def parse_pd(text):
    crossings, loops = _tokenize(text)
    crossings = tuple(crossings)
    loops = tuple(sorted(k for k, in loops))
    w, cycles, least, ends, partner = _walk(crossings)
    if len(set(loops)) != len(loops):
        raise PDStructureError("repeated O-component edge id")
    if loops:
        shared = set(loops).intersection(chain.from_iterable(crossings))
        if shared:
            raise PDStructureError("edge %d used both as a loop and at a crossing" % min(shared))
    least += loops  # arcs are indexed in order of their least edge
    order = sorted(range(len(least)), key=least.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)
    under_in, over, under_out = (map(rank.__getitem__, arcs) for arcs in ends)
    return PDDiagram(
        crossings=crossings,
        loops=loops,
        incoming=tuple(map(_INCOMING.__getitem__, w)),
        components=tuple(sorted(cycles + [(k,) for k in loops])),
        roles=tuple(
            (u, o, v, 1) if x == 1 else (v, o, u, -1)
            for u, o, v, x in zip(under_in, over, under_out, w)
        ),
        arc_count=len(least),
        partner=partner,
    )


class FaceSet(namedtuple("FaceSet", "faces outer_default face_of")):
    """Faces of the sphere embedding, as cycles of the ends they arrive at
    (numbered 4 * crossing + position, as in ``PDDiagram.partner``), the
    default outer face, and per end the index of its face."""

    __slots__ = ()

    def __len__(self):
        return len(self.faces)


def faces(d):
    """The FaceSet; checks the Euler count.

    Turning counterclockwise at a crossing takes end s to the end
    (s & ~3) | ((s + 1) & 3), whose partner is the face's next end.  Each
    face is walked from its least end, in the order of that end, so the
    faces come out sorted.
    """
    if not d.crossings:
        return FaceSet(faces=((),), outer_default=0, face_of=())
    partner = d.partner
    face = [None] * len(partner)
    cycles = []
    for start in range(len(partner)):
        if face[start] is not None:
            continue
        f = len(cycles)
        cyc = []
        s = start
        while True:
            face[s] = f
            cyc.append(s)
            s = partner[(s & ~3) | ((s + 1) & 3)]
            if s == start:
                break
        cycles.append(tuple(cyc))
    if len(cycles) != d.n_crossings + 2:  # V - E + F = 2, with E = 2V
        raise PDStructureError(
            "face count %d fails the Euler check (disconnected or nonplanar code)"
            % len(cycles)
        )
    flat = list(chain.from_iterable(d.crossings))
    first = flat.index(min(flat))  # an end of the least edge; the face at its head
    head = first if d.incoming[first >> 2][first & 3] else partner[first]
    return FaceSet(faces=tuple(cycles), outer_default=face[head], face_of=tuple(face))


def shading_signs(d, outer_face=None):
    """The shading sign eps per crossing: +1 where the quadrant between a
    and b, the face at end 4 * i, is shaded in the checkerboard shading
    whose outer face (by default ``faces(d).outer_default``) is white.

    The shading spreads from the outer face: faces across an edge differ,
    and the end s and its partner see both.  Raises the Euler error of
    ``faces``, then an out-of-range outer face, then a face adjacency that
    is not 2-colorable or not connected.
    """
    fs = faces(d)
    outer = fs.outer_default if outer_face is None else outer_face
    if not 0 <= outer < len(fs.faces):
        raise ValueError("outer face %r out of range" % (outer_face,))
    partner, face_of = d.partner, fs.face_of
    dark = [None] * len(fs.faces)
    dark[outer] = False
    stack = [outer]
    while stack:
        f = stack.pop()
        other = not dark[f]
        for s in fs.faces[f]:
            g = face_of[partner[s]]
            if dark[g] is None:
                dark[g] = other
                stack.append(g)
            elif dark[g] != other:
                raise PDStructureError("face adjacency is not 2-colorable")
    if None in dark:
        raise PDStructureError("face adjacency is not connected")
    return tuple(1 if dark[f] else -1 for f in face_of[::4])


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
