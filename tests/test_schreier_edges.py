"""The Schreier edges of a Cayley walk: counted, spelled and checked.

A walk over k generators has ``|G|·k`` edges, of which the spanning tree
holds ``|G| - 1``; the other ``|G|·(k-1) + 1`` are the Schreier edges
(``perm._off_tree_edges``).  ``induce._schreier_relators`` spells one
relator per Schreier edge, and the walk rule (``perm._tree_values`` with a
violation message) reads every edge once, in walk order, sets each key on
its tree edge and checks it on each Schreier edge.
"""

import pytest

from test_xmod import ROW6
from xmodlab.errors import RelationViolated
from xmodlab.induce import _schreier_relators
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _gather,
    _off_tree_edges,
    _tree_values,
    cyclic,
    parse_generator_list,
    parse_permutation,
    symmetric,
)
from xmodlab.xmod import xmod_from_json

GROUPS = {
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "repeat and identity": lambda: PermGroup(4, parse_generator_list(
        "(1,2,3,4),(1,2),(),(1,2,3,4)", 4)),
    "trivial": lambda: cyclic(1),
    "trivial on the identity": lambda: PermGroup(3, parse_generator_list(
        "()", 3)),
}


def check_edges(G):
    successors = G._cayley_walk()[1]
    found = G.elements()
    n = len(found)
    tree = set(G._spanning_tree())
    k = len(G.generators)
    edges = _off_tree_edges(G)
    assert len(edges) == G.order() * (k - 1) + 1
    assert all(successors[a][s] == c and (a, s) not in tree
               for a, s, c in edges)

    # one relator per edge, spelled on words that multiply out to the
    # elements of the walk
    letters, spell = _schreier_relators(G)
    words, relators = spell()
    for word, x in zip(words, found):
        y = Permutation.identity(G.degree)
        for s in word:
            y = y * G.generators[s]
        assert y == x
    assert relators == [
        [(x, 1) for x in words[a]] + [(s, 1)]
        + [(x, -1) for x in reversed(words[c])] for a, s, c in edges]
    assert letters == sum(map(len, relators))

    # the fill along the tree alone, on the walk's own indices
    assert _tree_values(G, 0, range(k),
                        lambda a, s: successors[a][s]) == list(range(n))

    # the walk rule on the walk's own indices: the key of x*g repeats the
    # index the walk found for it, read off g's successor column; every
    # edge is read once per point of the key, in walk order, by one tuple
    # per image for a key of one point and by one itemgetter per tail for
    # a key of two, and those off the tree, the ones checked, are the
    # Schreier edges in walk order
    walk = [(a, s) for a in G._fill for s in range(k)]
    assert [e for e in walk if e not in tree] == [(a, s) for a, s, _ in edges]
    for width in (1, 2):
        reads = []
        columns = [Column(successors, s, reads) for s in range(k)]
        values = _tree_values(G, (0,) * width, columns, violation="walk")
        assert values == [(i,) * width for i in range(n)]
        assert reads == [e for e in walk for _ in range(width)]
    # a key of no point reads nothing and agrees on every edge
    assert _tree_values(G, (), columns, violation="walk") == [()] * n
    assert len(reads) == 2 * len(walk)


class Column:
    """Generator s's successor column, recording each read as the edge
    (tail, s)."""

    def __init__(self, successors, s, reads):
        self.successors, self.s, self.reads = successors, s, reads

    def __getitem__(self, a):
        self.reads.append((a, self.s))
        return self.successors[a][self.s]


@pytest.mark.parametrize("name", list(GROUPS))
def test_schreier_edges(name):
    check_edges(GROUPS[name]())


def test_schreier_edges_of_the_table_modules(table_results):
    assert len(table_results) == 7
    for X, _ in table_results:
        check_edges(X.M)


# ---------------------------------------------------------------------------
# the proving pass against the loop it replaced: one gather per edge


def per_edge_walk_rule(G, start, images, violation):
    """The walk rule as first written: every edge of G's walk read by its
    own ``_gather`` call, in walk order."""
    keys, successors = G._cayley_walk()
    values = [None] * len(keys)
    values[0] = start
    for a in G._fill:
        value = values[a]
        for c, im in zip(successors[a], images):
            v = _gather(value, im)
            if values[c] is None:
                values[c] = v
            elif v != values[c]:
                witness = G._element(keys[c])
                raise RelationViolated(
                    f"{violation} (conflict at {witness})", witness=witness
                )
    return values


def outcome(run):
    """The keys a proof returns, or the message and witness it raises."""
    try:
        return "keys", run()
    except RelationViolated as exc:
        return "refused", str(exc), exc.witness


def row6_m():
    return xmod_from_json(ROW6.read_text()).M


def proof_case(name):
    """(source, target, images, refused) of one map.  The target's base
    has no point (the trivial group), one point (row 6's M, regular on 72
    points) or three (S4)."""
    S4, M = symmetric(4), row6_m()
    transposition = S4.generators[0]
    return {
        "trivial target": (S4, cyclic(1), [cyclic(1).identity] * 2, False),
        "trivial map into M": (S4, M, [M.identity] * 2, False),
        "identity of M": (M, M, M.generators, False),
        "broken map of M": (M, M, M.generators[1:2] + M.generators[1:],
                            True),
        "identity of S4": (S4, S4, S4.generators, False),
        "sign of S4": (S4, S4, [transposition] * 2, False),
        "broken map of S4": (S4, S4, [transposition,
                                      parse_permutation("(1,2,3)", 4)], True),
    }[name]


@pytest.mark.parametrize("name, width", [
    ("trivial target", 0), ("trivial map into M", 1), ("identity of M", 1),
    ("broken map of M", 1), ("identity of S4", 3), ("sign of S4", 3),
    ("broken map of S4", 3)])
def test_proof_matches_the_per_edge_loop(name, width):
    # keys of no point, one point or several: GroupHom's keys, or its
    # RelationViolated message and witness, equal the per-edge loop's
    S, T, images, refused = proof_case(name)
    assert len(T._base()) == width
    got = outcome(lambda: GroupHom(S, T, images)._keys)
    want = outcome(lambda: per_edge_walk_rule(
        S, T._base(), [(0,) + im.images for im in images],
        "generator images do not respect the relations of the source"))
    assert got == want
    assert got[0] == ("refused" if refused else "keys")
