"""The isomorphism search steps along Cayley edges, with no product table.

``perm._extensions`` grows each partial map along the edges ``x -> x·s``
of the seeds assigned so far and along the action edges.  The table
backtrack it replaced, ``support.table_extensions``, closed each partial
map under the product of every pair of assigned elements.  Both reach the
subgroup that the seeds generate (invariant under the action) and accept a
partial map exactly when it is an injective homomorphism there that passes
the pair check, so they prune the same branches and yield the same maps in
the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import table_extensions
from xmodlab import identity_xmod, induce, perm, xmod
from xmodlab.perm import (
    PermGroup,
    Permutation,
    _context,
    _extensions,
    _generating_sequence,
    _iter_isomorphisms,
    hom,
    normal_closure,
    parse_permutation,
    symmetric,
)
from xmodlab.xmod import XModMorphism, normal_inclusion_xmod, xmod_isomorphic


@st.composite
def relabelled_groups(draw, max_degree=5):
    """A group G on 1-3 random generators, a copy of G with its points
    relabelled and its generators reordered (with a product of two of them
    added), and an unrelated group K of the same degree."""
    degree = draw(st.integers(1, max_degree))
    points = list(range(1, degree + 1))
    perms = st.permutations(points).map(lambda t: Permutation(tuple(t)))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    c = draw(perms)
    moved = [g.conj(c) for g in gens]
    moved.reverse()
    if len(moved) > 1:
        moved.append(moved[0] * moved[1])
    other = draw(st.lists(perms, min_size=1, max_size=3))
    return (PermGroup(degree, gens), PermGroup(degree, moved),
            PermGroup(degree, other), c)


def with_table_search(search):
    """``search()`` run with the table backtrack in place of the Cayley-edge
    one, in both modules that call it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perm, "_extensions", table_extensions)
        mp.setattr(xmod, "_extensions", table_extensions)
        return search()


def images(f):
    return None if f is None else [p.images for p in f.images]


def morphism_images(m):
    return None if m is None else (images(m.f), images(m.g))


@settings(max_examples=40, deadline=None)
@given(relabelled_groups())
def test_isomorphism_lists_match_table_oracle(groups):
    G, H, K, _ = groups
    for target in (H, K):
        def listing():
            return [images(f) for f in _iter_isomorphisms(G, target)]

        assert listing() == with_table_search(listing)


@settings(max_examples=30, deadline=None)
@given(relabelled_groups(), st.data())
def test_xmod_isomorphic_matches_table_oracle(groups, data):
    # normal inclusions N -> G against the relabelled copy and against the
    # inclusion of another normal closure in G
    G, H, _, c = groups
    elems = G.elements()
    N = normal_closure(G, [data.draw(st.sampled_from(elems))])
    N2 = normal_closure(G, [data.draw(st.sampled_from(elems))])
    X = normal_inclusion_xmod(N, G)
    Ns = PermGroup(G.degree, [n.conj(c) for n in N.generators])
    for Y in (normal_inclusion_xmod(Ns, H), normal_inclusion_xmod(N2, G),
              identity_xmod(G)):
        def search():
            return morphism_images(xmod_isomorphic(X, Y))

        assert search() == with_table_search(search)
    # conjugation by c carries X onto the first
    assert xmod_isomorphic(X, normal_inclusion_xmod(Ns, H)) is not None


@pytest.fixture(scope="module")
def s5_c5_pair():
    # the modules induced from C5 and from its conjugate by (1,3,5,4) in
    # S5: |M| = 3000 each, above the search bound, so the search is run
    # through its parts
    S5 = symmetric(5)
    c5 = parse_permutation("(1,2,3,4,5)", 5)
    g = parse_permutation("(1,3,5,4)", 5)
    pair = []
    for gen in (c5, c5.conj(g)):
        P = PermGroup(5, [gen])
        pair.append(induce(identity_xmod(P), hom(P, S5, P.generators))[0])
    return pair


def test_s5_c5_search_is_linear_in_m(s5_c5_pair, monkeypatch):
    # the view of M forms no product; the M search (the generating
    # sequence, then the extension over the first isomorphism g of the
    # bases) reads at most 4·|M|·(k + |action|) products for k seeds
    X, Y = s5_c5_pair
    assert X.M.order() == Y.M.order() == 3000
    calls = [0]
    rule = perm._product_rule

    def counting_rule(G):
        mul = rule(G)

        def counted(i, j):
            calls[0] += 1
            return mul(i, j)

        return counted

    monkeypatch.setattr(perm, "_product_rule", counting_rule)
    ctx1, ctx2 = _context(X.M), _context(Y.M)
    assert calls[0] == 0
    g = next(_iter_isomorphisms(X.Q, Y.Q))
    gmap = g._index_array()
    act1 = [X.act_array(q) for q in X.Q.generators]
    act2 = [Y.act_array(im) for im in g.images]
    d1, d2 = X.boundary._index_array(), Y.boundary._index_array()
    fibers2 = {}
    for j, q in enumerate(d2):
        fibers2.setdefault(q, []).append(j)

    def candidates(i, map21):
        return [j for j in fibers2.get(gmap[d1[i]], [])
                if ctx2.orders[j] == ctx1.orders[i] and map21[j] == -1]

    calls[0] = 0  # the search over the bases is not M's
    seq = _generating_sequence(ctx1, act1)
    map12 = next(_extensions(ctx1, ctx2, seq, candidates,
                             lambda i, j: gmap[d1[i]] == d2[j],
                             list(zip(act1, act2))))
    bound = 4 * X.M.order() * (len(seq) + len(act1))
    assert calls[0] <= bound
    f = hom(X.M, Y.M, [ctx2.elements[map12[ctx1.index[m]]]
                       for m in X.M.generators])
    assert XModMorphism(f, g).verify(X, Y) and f.is_bijective()
