"""Braid closures as PD codes, for generated test diagrams.

A braid on s strands is read bottom to top with every strand pointing up.
Generator +i (1 <= i < s) crosses positions i and i+1 with the strand from
the lower left on top, a positive crossing; -i is its mirror.  X terms list
edge ids counterclockwise from the incoming under-edge, as quandlekit reads
them.
"""

from __future__ import annotations

from hypothesis import strategies as st


def closure_crossings(word, strands):
    """The X terms of the closure of a braid word, as 4-tuples of edge ids.

    Every generator 1..strands-1 must occur, so that the diagram is
    connected.  Edge ids are numbered 1, 2, ... in order of first use.
    """
    if any(not 1 <= abs(g) < strands for g in word):
        raise ValueError("generator out of range for %d strands" % strands)
    if {abs(g) for g in word} != set(range(1, strands)):
        raise ValueError("every generator must occur, or the closure splits")
    # provisional ids: the bottom edge at position k is k, later edges count up
    at = list(range(strands))
    fresh = strands
    terms = []
    for g in word:
        i = abs(g) - 1
        left_in, right_in = at[i], at[i + 1]
        left_out, right_out = fresh, fresh + 1
        fresh += 2
        if g > 0:  # over-strand: lower left to upper right
            terms.append((right_in, right_out, left_out, left_in))
        else:  # over-strand: lower right to upper left
            terms.append((left_in, right_in, right_out, left_out))
        at[i], at[i + 1] = left_out, right_out
    # closing the braid makes each top edge the bottom edge below it
    closed = {top: k for k, top in enumerate(at)}
    label = {}
    return [tuple(label.setdefault(closed.get(e, e), len(label) + 1) for e in t) for t in terms]


def traversal_labelled(word, strands, rotation=0):
    """The closure's X terms with edges renumbered consecutively along each
    component, components in order of their least braid-order edge, each
    starting ``rotation`` edges after that edge."""
    crossings = closure_crossings(word, strands)
    succ = {}
    for g, (a, b, c, d) in zip(word, crossings):
        succ[a] = c  # the under-strand runs a -> c
        if g > 0:
            succ[d] = b
        else:
            succ[b] = d
    order, seen = [], set()
    for start in sorted(succ):
        if start in seen:
            continue
        cycle = [start]
        while succ[cycle[-1]] != start:
            cycle.append(succ[cycle[-1]])
        seen.update(cycle)
        r = rotation % len(cycle)
        order += cycle[r:] + cycle[:r]
    label = {e: k + 1 for k, e in enumerate(order)}
    return [tuple(label[e] for e in t) for t in crossings]


def conjugated_word(rng, strands, length, core):
    """w . core . w^-1 for a random word w of the given length: conjugation
    keeps the closure's link type, so a long closure is the core's link."""
    w = [rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(length)]
    return w + list(core) + [-g for g in reversed(w)]


def pd_text(crossings):
    return " ".join("X[%d,%d,%d,%d]" % tuple(t) for t in crossings)


def torus_2(n):
    """T(2, n): the closure of the 2-strand braid sigma_1^n."""
    return closure_crossings([1] * n, 2)


@st.composite
def braid_words(draw, max_strands=4, max_extra=4):
    """A strand count and a word using every generator at least once."""
    strands = draw(st.integers(2, max_strands))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=max_extra))
    gens = draw(st.permutations(list(range(1, strands)) + extra))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(gens), max_size=len(gens)))
    return strands, [g * s for g, s in zip(gens, signs)]
