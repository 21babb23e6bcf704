"""The Schreier edges of a Cayley walk: counted, spelled and checked.

A walk over k generators has ``|G|·k`` edges, of which the spanning tree
holds ``|G| - 1``; the other ``|G|·(k-1) + 1`` are the Schreier edges
(``perm._off_tree_edges``).  ``induce._schreier_relators`` spells one
relator per Schreier edge, and the walk rule (``perm._tree_values`` with a
violation message) steps along every edge once, in walk order, sets each
value on its tree edge and checks it on each Schreier edge.
"""

import pytest

from xmodlab.induce import _schreier_relators
from xmodlab.perm import (
    PermGroup,
    Permutation,
    _off_tree_edges,
    _tree_values,
    cyclic,
    parse_generator_list,
    symmetric,
)

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

    # the walk rule on the walk's own indices: the value of x*g is the
    # index the walk found for it; every edge is stepped along in walk
    # order, and those off the tree, the ones checked, are the Schreier
    # edges in walk order
    stepped = []

    def step(a, s):
        stepped.append((a, s))
        return successors[a][s]

    values = _tree_values(G, 0, range(k), step, "walk")
    assert values == list(range(len(found)))
    assert stepped == [(a, s) for a in G._fill for s in range(k)]
    assert [e for e in stepped if e not in tree] == [(a, s)
                                                     for a, s, _ in edges]


@pytest.mark.parametrize("name", list(GROUPS))
def test_schreier_edges(name):
    check_edges(GROUPS[name]())


def test_schreier_edges_of_the_table_modules(table_results):
    assert len(table_results) == 7
    for X, _ in table_results:
        check_edges(X.M)
