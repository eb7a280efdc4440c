"""Oriented link diagrams from planar-diagram codes.

A code is a whitespace-separated list of terms.  ``X[a,b,c,d]`` is a
crossing whose edge ids are read counterclockwise starting at the incoming
under-edge ``a`` (so the under-strand runs a -> c and the over-strand joins
b and d).  ``O[k]`` is a crossingless closed component with the single edge
id ``k``.  Every X-edge id must occur exactly twice.

From a parsed diagram we derive the orientation of every edge end, the
component cycles, the arcs (maximal over-passages between undercrossings),
the faces of the sphere embedding via the counterclockwise rotation at each
crossing, a checkerboard shading with a white outer face, and the two signs
at each crossing: the writhe sign w and the shading sign eps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

_TERM = re.compile(r"([XO])\[([0-9,\s]*)\]")

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
    stripped = re.sub(r"\s+", "", text)
    consumed = 0
    terms = []
    for m in _TERM.finditer(stripped):
        if m.start() != consumed:
            raise PDSyntaxError("unexpected text %r" % stripped[consumed:m.start()])
        consumed = m.end()
        kind = m.group(1)
        body = m.group(2)
        try:
            ids = tuple(int(x) for x in body.split(",")) if body else ()
        except ValueError:
            raise PDSyntaxError("bad edge list in %r" % m.group(0))
        want = 4 if kind == "X" else 1
        if len(ids) != want:
            raise PDSyntaxError("%s term needs %d edge ids, got %r" % (kind, want, ids))
        if any(e < 1 for e in ids):
            raise PDSyntaxError("edge ids are 1-based positive integers")
        terms.append((kind, ids))
    if consumed != len(stripped):
        raise PDSyntaxError("unexpected text %r" % stripped[consumed:])
    if not terms:
        raise PDSyntaxError("empty code (a crossingless unknot is written O[1])")
    return terms


@dataclass(frozen=True)
class PDDiagram:
    """A validated, oriented planar-diagram code."""

    crossings: tuple  # of (a, b, c, d)
    loops: tuple  # O-term edge ids
    incoming: tuple  # per crossing, 4 booleans: does that end point in?
    components: tuple  # edge-id cycles, one per link component

    @property
    def n_crossings(self):
        return len(self.crossings)

    @cached_property
    def edges(self):
        out = {e for t in self.crossings for e in t}
        out.update(self.loops)
        return tuple(sorted(out))

    @cached_property
    def ends(self):
        """edge id -> the one or two (crossing, position) slots it fills."""
        out = {}
        for i, t in enumerate(self.crossings):
            for p, e in enumerate(t):
                out.setdefault(e, []).append((i, p))
        return {e: tuple(v) for e, v in out.items()}

    def head(self, e):
        """The end where the directed edge arrives."""
        for i, p in self.ends[e]:
            if self.incoming[i][p]:
                return (i, p)
        raise KeyError("edge %r has no incoming end" % (e,))

    def successor(self, e):
        """The next edge of the same component."""
        i, p = self.head(e)
        if p == 0:
            return self.crossings[i][2]
        q = 3 if p == 1 else 1
        return self.crossings[i][q]

    def writhe_sign(self, i):
        """+1 when the over-strand runs d -> b, else -1."""
        return 1 if self.incoming[i][3] else -1

    def is_knot(self):
        return len(self.components) == 1

    @cached_property
    def alternating(self):
        """Does every component alternate over/under along its travel?"""
        for cyc in self.components:
            roles = []
            for e in cyc:
                if e in self.loops:
                    continue
                i, p = self.head(e)
                roles.append(p == 0)
            for k in range(len(roles)):
                if len(roles) > 1 and roles[k] == roles[(k + 1) % len(roles)]:
                    return False
        return True


def _orient(crossings):
    """Assign in/out to every end: under-ends are fixed, over-ends propagate."""
    status = {}
    for i in range(len(crossings)):
        status[(i, 0)] = True
        status[(i, 2)] = False

    ends = {}
    for i, t in enumerate(crossings):
        for p, e in enumerate(t):
            ends.setdefault(e, []).append((i, p))

    def neighbors(node):
        i, p = node
        if p in (1, 3):
            yield (i, 4 - p)  # the over-strand's other end at this crossing
        e = crossings[i][p]
        for other in ends[e]:
            if other != node:
                yield other

    # opposite-status constraints; 2-color by BFS, seeding unforced pieces
    all_nodes = [(i, p) for i in range(len(crossings)) for p in range(4)]
    pending = [n for n in all_nodes if n in status] + [n for n in all_nodes]
    for seed in pending:
        if seed not in status:
            status[seed] = True  # lexicographically first free end points in
        stack = [seed]
        while stack:
            node = stack.pop()
            for other in neighbors(node):
                want = not status[node]
                if other in status:
                    if status[other] != want:
                        raise PDStructureError(
                            "no consistent orientation (conflict at edge %r)"
                            % (crossings[other[0]][other[1]],)
                        )
                else:
                    status[other] = want
                    stack.append(other)
    return status


def _components(crossings, loops, status):
    succ = {}
    for i, t in enumerate(crossings):
        for p, e in enumerate(t):
            if status[(i, p)]:
                nxt = t[2] if p == 0 else t[3 if p == 1 else 1]
                succ[e] = nxt
    seen = set()
    cycles = []
    for e in sorted(succ):
        if e in seen:
            continue
        cyc = [e]
        seen.add(e)
        cur = succ[e]
        while cur != e:
            if cur in seen:
                raise PDStructureError("component walk does not close at edge %r" % cur)
            cyc.append(cur)
            seen.add(cur)
            cur = succ[cur]
        cycles.append(tuple(cyc))
    cycles.extend((k,) for k in loops)
    return tuple(sorted(cycles))


def parse_pd(text):
    terms = _tokenize(text)
    crossings = tuple(ids for kind, ids in terms if kind == "X")
    loops = tuple(sorted(ids[0] for kind, ids in terms if kind == "O"))

    count = {}
    for t in crossings:
        for e in t:
            count[e] = count.get(e, 0) + 1
    for e, c in count.items():
        if c != 2:
            raise PDStructureError("edge %d occurs %d times, expected 2" % (e, c))
    if len(set(loops)) != len(loops):
        raise PDStructureError("repeated O-component edge id")
    for k in loops:
        if k in count:
            raise PDStructureError("edge %d used both as a loop and at a crossing" % k)

    status = _orient(crossings)
    incoming = tuple(
        tuple(status[(i, p)] for p in range(4)) for i in range(len(crossings))
    )
    for i, t in enumerate(crossings):
        if incoming[i][1] == incoming[i][3]:
            raise PDStructureError("over-strand at crossing %d has no direction" % i)
    d = PDDiagram(
        crossings=crossings, loops=loops, incoming=incoming,
        components=_components(crossings, loops, status),
    )
    for e in d.edges:
        if e in loops:
            continue
        flags = sorted(status[end] for end in d.ends[e])
        if flags != [False, True]:
            raise PDStructureError("edge %d does not run end to end" % e)
    return d


@dataclass(frozen=True)
class ArcSet:
    """Partition of the edges into arcs (cut only at under-passages)."""

    arcs: tuple  # sorted tuples of edge ids
    arc_of: dict  # edge id -> arc index

    def __len__(self):
        return len(self.arcs)


def arcs(d):
    parent = {e: e for e in d.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, dd in d.crossings:
        parent[find(b)] = find(dd)
    groups = {}
    for e in d.edges:
        groups.setdefault(find(e), []).append(e)
    blocks = sorted(tuple(sorted(g)) for g in groups.values())
    arc_of = {e: i for i, block in enumerate(blocks) for e in block}
    return ArcSet(arcs=tuple(blocks), arc_of=arc_of)


@dataclass(frozen=True)
class FaceSet:
    """Faces of the sphere embedding, as cycles of arrival darts (i, p)."""

    faces: tuple
    outer_default: int

    def __len__(self):
        return len(self.faces)

    @cached_property
    def face_of(self):
        return {dart: i for i, cyc in enumerate(self.faces) for dart in cyc}


def _next_dart(d, dart):
    i, p = dart
    q = (p + 1) % 4
    e = d.crossings[i][q]
    slots = d.ends[e]
    return slots[1] if slots[0] == (i, q) else slots[0]


def faces(d):
    """Faces via counterclockwise rotation; checks the Euler count."""
    if not d.crossings:
        return FaceSet(faces=((),), outer_default=0)
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
    fs = FaceSet(faces=tuple(out), outer_default=0)
    first = min(e2 for t in d.crossings for e2 in t)
    outer = fs.face_of[d.head(first)]
    return FaceSet(faces=fs.faces, outer_default=outer)


@dataclass(frozen=True)
class Shading:
    """Checkerboard 2-coloring of the faces; the outer face is white."""

    faceset: FaceSet
    outer: int
    shaded: frozenset

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


@dataclass(frozen=True)
class CrossingSigns:
    """w: writhe signs; eps: +1 where the quadrant between a and b is shaded."""

    w: tuple
    eps: tuple

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
    text = resources.files(__package__).joinpath("diagrams/%s.txt" % name).read_text()
    return parse_pd(text)


def load_diagram(source):
    """A corpus name or a path to a PD text file."""
    if source in CORPUS_NAMES:
        return named_diagram(source)
    with open(source, "r", encoding="utf-8") as fh:
        return parse_pd(fh.read())
