"""The two-pass reading of a parsed diagram, kept as the tests' oracle.

``quandlekit.diagrams`` reads a code in one walk over its ends, numbers
the arcs, records the crossing roles and walks the faces on integer end
numbers.  The code here reads the same records the slow way, from the
edge ids: the arcs (an ArcSet, which the library does not keep) by
cutting each component's edge cycle through every edge's head, the roles
by looking each crossing's edges up in ``arc_of``, and the faces dart by
dart through the ends of each edge.  ``eps_alternates`` checks the
shading signs along each arc's traversal, as the library's end-walk
``check_eps_alternation`` must.  Only the parsed fields of a PDDiagram
(crossings, loops, incoming, components) are read.  A dart (i, p) is
written as the end number 4 * i + p only where a FaceSet is built, and
read back from it the same way.  ``checkerboard`` and ``signs`` shade
the faces and read the crossing signs into records of their own, which
the library does not keep: it gives eps alone (``shading_signs``).
``tokenize`` reads a code's text term by term, where the library reads a
code of X terms only in bulk.
"""

import re
from collections import namedtuple

from quandlekit.diagrams import FaceSet, PDStructureError, PDSyntaxError

_TERM = re.compile(r"\s*(([XO])\s*\[([0-9,\s]*)\])\s*")


def tokenize(text):
    """The X terms and the O terms of a code, each as tuples of edge ids,
    read one term at a time; the first bad term, then trailing text, then
    an empty code raises."""
    parts = _TERM.split(text)  # text before each term, the term, its kind and body; then the rest
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
        if 0 in ids:
            raise PDSyntaxError("edge ids are 1-based positive integers")
        terms[kind].append(ids)
    if parts[-1]:
        raise PDSyntaxError("unexpected text %r" % parts[-1])
    if len(parts) == 1:
        raise PDSyntaxError("empty code (a crossingless unknot is written O[1])")
    return terms["X"], terms["O"]

# The partition of the edges into arcs (cut only at under-passages): the
# arcs as sorted tuples of edge ids, the dict edge id -> arc index, and
# each arc's ArcTraversal.  A plain namedtuple, so its len is 3: count the
# arcs with len(arcset.arcs).
ArcSet = namedtuple("ArcSet", "arcs arc_of traversals")

# One arc's travel: the undercrossing it starts from, the crossings it
# passes over in order, and the undercrossing it ends at.  A closed arc (a
# crossingless loop, or a component that passes over everything it meets)
# has no start or end: both are None.
ArcTraversal = namedtuple("ArcTraversal", "start overs end closed")

# A checkerboard shading: the FaceSet, the outer face, which is white, and
# the frozenset of shaded faces.
Shading = namedtuple("Shading", "faceset outer shaded")

# Per crossing, the writhe sign w and the shading sign eps: +1 where the
# quadrant between a and b is shaded.
CrossingSigns = namedtuple("CrossingSigns", "w eps")


def ends(d):
    """edge id -> the one or two (crossing, position) slots it fills."""
    out = {}
    for i, t in enumerate(d.crossings):
        for p, e in enumerate(t):
            out.setdefault(e, []).append((i, p))
    return {e: tuple(v) for e, v in out.items()}


def heads(d):
    """edge id -> the (crossing, position) slot where it arrives."""
    return {
        t[p]: (i, p)
        for i, (t, flags) in enumerate(zip(d.crossings, d.incoming))
        for p in range(4)
        if flags[p]
    }


def arcs(d):
    """Cut each component's edge cycle where it passes under a crossing."""
    head = heads(d)
    found = []  # (sorted edge block, traversal)
    for cycle in d.components:
        cuts = [j for j, e in enumerate(cycle) if e in head and head[e][1] == 0]
        if not cuts:
            overs = tuple(head[e][0] for e in cycle if e in head)
            found.append((tuple(sorted(cycle)), ArcTraversal(None, overs, None, True)))
            continue
        j = cuts[-1]  # start just after an undercrossing, so the cycle ends on one
        start = head[cycle[j]][0]
        block, overs = [], []
        for e in cycle[j + 1:] + cycle[:j + 1]:
            block.append(e)
            i, p = head[e]
            if p == 0:
                found.append((tuple(sorted(block)), ArcTraversal(start, tuple(overs), i, False)))
                start, block, overs = i, [], []
            else:
                overs.append(i)
    found.sort(key=lambda f: f[0])
    blocks = tuple(block for block, _ in found)
    arc_of = {e: i for i, block in enumerate(blocks) for e in block}
    return ArcSet(arcs=blocks, arc_of=arc_of, traversals=tuple(t for _, t in found))


def eps_alternates(d, eps):
    """Do the signs eps alternate along the crossings each arc passes over?
    A closed all-over run is read from its lowest edge, with no pair across
    its ends."""
    for t in arcs(d).traversals:
        run = [eps[i] for i in t.overs]
        if any(u == v for u, v in zip(run, run[1:])):
            return False
    return True


def crossing_roles(d, arcset):
    """Per crossing: (source arc, over arc, target arc, w)."""
    out = []
    for i, (a, b, c, _) in enumerate(d.crossings):
        w = 1 if d.incoming[i][3] else -1
        under_in = arcset.arc_of[a]
        under_out = arcset.arc_of[c]
        over = arcset.arc_of[b]
        src, tgt = (under_in, under_out) if w == 1 else (under_out, under_in)
        out.append((src, over, tgt, w))
    return out


def alternating(d):
    """Does every component alternate over/under along its travel?"""
    head = heads(d)
    for cyc in d.components:
        roles = [head[e][1] == 0 for e in cyc if e in head]
        for k in range(len(roles)):
            if len(roles) > 1 and roles[k] == roles[(k + 1) % len(roles)]:
                return False
    return True


def _next_dart(d, slots, dart):
    i, p = dart
    q = (p + 1) % 4
    pair = slots[d.crossings[i][q]]
    return pair[1] if pair[0] == (i, q) else pair[0]


def faces(d):
    """Faces via counterclockwise rotation; checks the Euler count."""
    if not d.crossings:
        return FaceSet(faces=((),), outer_default=0, face_of=())
    slots = ends(d)
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
            cur = _next_dart(d, slots, cur)
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    out.sort()
    v = d.n_crossings
    if v - 2 * v + len(out) != 2:
        raise PDStructureError(
            "face count %d fails the Euler check (disconnected or nonplanar code)" % len(out)
        )
    face_of = {dart: i for i, cyc in enumerate(out) for dart in cyc}
    first = min(e for t in d.crossings for e in t)
    return FaceSet(
        faces=tuple(tuple(4 * i + p for i, p in cyc) for cyc in out),
        outer_default=face_of[heads(d)[first]],
        face_of=tuple(face_of[dart] for dart in darts),
    )


def checkerboard(d, outer_face=None):
    fs = faces(d)
    outer = fs.outer_default if outer_face is None else outer_face
    if not 0 <= outer < len(fs.faces):
        raise ValueError("outer face %r out of range" % (outer_face,))
    if not d.crossings:
        return Shading(faceset=fs, outer=outer, shaded=frozenset())
    slots = ends(d)
    color = {outer: False}
    stack = [outer]
    while stack:
        f = stack.pop()
        for end in fs.faces[f]:
            i, p = divmod(end, 4)
            s1, s2 = slots[d.crossings[i][p]]
            j, q = s2 if s1 == (i, p) else s1
            other = fs.face_of[4 * j + q]
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


def signs(d, shading):
    w = tuple(1 if flags[3] else -1 for flags in d.incoming)
    face_of = shading.faceset.face_of
    eps = tuple(
        1 if face_of[4 * i] in shading.shaded else -1
        for i in range(d.n_crossings)
    )
    return CrossingSigns(w=w, eps=eps)
