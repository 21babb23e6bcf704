"""The isomorphism search steps along Cayley edges, with no product table.

``perm._extensions`` grows each partial map along the edges ``x -> x·s``
of the seeds assigned so far and along the action edges.  The table
backtrack it replaced, ``support.table_extensions``, closed each partial
map under the product of every pair of assigned elements.  Both reach the
subgroup that the seeds generate (invariant under the action) and accept a
complete map exactly when it is an isomorphism that passes the pair check,
so they yield the same maps in the same order; the Cayley-edge search,
whose new seeds push only their own pair, may find a conflict later.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import table_extensions
from xmodlab import identity_xmod, induce, perm, squares, xmod
from xmodlab.perm import (
    PermGroup,
    Permutation,
    _extensions,
    _generating_sequence,
    _iter_isomorphisms,
    hom,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    symmetric,
)
from xmodlab.xmod import XModMorphism, normal_inclusion_xmod, xmod_isomorphic

ROW6 = Path(__file__).parent.parent / "perfbench" / "fixtures" / "row6.json"


@st.composite
def relabelled_groups(draw, max_degree=5, min_degree=1):
    """A group G on 1-3 random generators, a copy of G with its points
    relabelled and its generators reordered (with a product of two of them
    added), and an unrelated group K of the same degree."""
    degree = draw(st.integers(min_degree, max_degree))
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


def assert_lists_match(groups):
    G, H, K, _ = groups
    for target in (H, K):
        def listing():
            return [images(f) for f in _iter_isomorphisms(G, target)]

        assert listing() == with_table_search(listing)


@settings(max_examples=40, deadline=None)
@given(relabelled_groups(max_degree=4))
def test_isomorphism_lists_match_table_oracle(groups):
    assert_lists_match(groups)


def s5_relabelled():
    """S5, its copy relabelled by (1,3,5,4) as ``relabelled_groups`` builds
    it, and C5: the 120 automorphisms of S5 are listed."""
    S5 = PermGroup(5, [parse_permutation("(1,2,3,4,5)", 5),
                       parse_permutation("(1,2)", 5)])
    c = parse_permutation("(1,3,5,4)", 5)
    moved = [g.conj(c) for g in reversed(S5.generators)]
    moved.append(moved[0] * moved[1])
    C5 = PermGroup(5, [parse_permutation("(1,2,3,4,5)", 5)])
    return S5, PermGroup(5, moved), C5, c


@settings(max_examples=8, deadline=None)
@given(relabelled_groups(min_degree=5))
@example(s5_relabelled())
def test_degree_5_isomorphism_lists_match_table_oracle(groups):
    # degree 5 on its own, with a fixed number of examples (about as many
    # degree-5 draws as the test above made when it drew degrees 1-5): a
    # draw of S5 lists all 120 automorphisms through the table oracle,
    # about 0.5 s
    assert_lists_match(groups)


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
    # M's orders and product rule read no product; the M search (the
    # generating sequence, then the extension over the first isomorphism g
    # of the bases) reads at most 4·|M|·(k + |action|) products for k seeds
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
    orders1, orders2 = X.M._element_orders(), Y.M._element_orders()
    for M in (X.M, Y.M):
        perm._product_rule(M)
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
                if orders2[j] == orders1[i] and map21[j] == -1]

    calls[0] = 0  # the search over the bases is not M's
    seq = _generating_sequence(X.M, act1)
    map12 = next(_extensions(X.M, Y.M, seq, candidates,
                             lambda i, j: gmap[d1[i]] == d2[j],
                             list(zip(act1, act2))))
    bound = 4 * X.M.order() * (len(seq) + len(act1))
    assert calls[0] <= bound
    f = hom(X.M, Y.M, [Y.M.elements()[map12[X.M.element_index()[m]]]
                       for m in X.M.generators])
    assert XModMorphism(f, g).verify(X, Y) and f.is_bijective()


@pytest.mark.parametrize("n, fixing", [(3, 2), (4, 4)])
def test_pair_check_refusals_match_table_oracle(n, fixing):
    # every automorphism of S3 and S4 is inner and their centres are
    # trivial, so those that fix t = (1,2) are the conjugations by the
    # centralizer of t, of order 2 and 4; pair_check refuses every other
    # image of t as the propagation reaches it, and the table backtrack
    # yields the same maps
    G = symmetric(n)
    t = G.element_index()[parse_permutation("(1,2)", n)]
    orders = G._element_orders()
    refused = []

    def pair_check(i, j):
        if i == t and j != t:
            refused.append(j)
            return False
        return True

    def candidates(i, map21):
        return [j for j in range(G.order())
                if orders[j] == orders[i] and map21[j] == -1]

    seq = _generating_sequence(G)
    maps = [list(m) for m in _extensions(G, G, seq, candidates, pair_check)]
    assert refused and len(maps) == fixing
    assert all(m[t] == t for m in maps)
    assert maps == [list(m) for m in table_extensions(
        G, G, seq, candidates, pair_check)]


@pytest.mark.parametrize("name, degree, gens", [
    ("S3", 3, "(1,2),(1,2,3)"),
    ("S4", 4, "(1,2),(1,2,3,4)"),
    ("D8", 4, "(1,2,3,4),(1,3)"),
    ("A4", 4, "(1,2,3),(2,3,4)"),
    ("Q8", 8, "(1,2,4,7)(3,6,8,5),(1,3,4,8)(2,5,7,6)"),
    ("C2xC4", 6, "(1,2),(3,4,5,6)"),
    ("D12", 6, "(1,2,3,4,5,6),(2,6)(3,5)"),
])
def test_each_seed_reaches_the_group_the_seeds_generate(name, degree, gens):
    # a new seed pushes only its own pair, so the leaf test asks that the
    # propagation from it reach every element the seeds generate that the
    # old domain lacks; the identity map is grown from every sequence of
    # one or two seeds (three for order <= 12) that generates G, with and
    # without the conjugation by G's first generator as an action edge
    G = PermGroup(degree, parse_generator_list(gens, degree))
    n, index, elements = G.order(), G.element_index(), G.elements()
    conj = [index[x.conj(G.generators[0])] for x in elements]
    checked = 0
    for acts in ([], [conj]):
        for k in (1, 2, 3) if n <= 12 else (1, 2):
            for seq in itertools.product(range(1, n), repeat=k):
                if len(perm._closure(G, seq, acts)) < n:
                    continue
                maps = list(_extensions(G, G, list(seq), lambda i, _: [i],
                                        None, [(a, a) for a in acts]))
                assert maps == [list(range(n))], seq
                checked += 1
    assert checked


def test_tables_built_once_per_group(monkeypatch):
    # the fingerprint, the isomorphism search and the square kernel all
    # read a group's element orders and product rule; each is built once
    # and kept on the group, so every read of one group returns the same
    # object
    reads = []  # (table, group, result); keeps each alive, so ids differ
    orders, rule = PermGroup._element_orders, perm._product_rule

    def kept_orders(G):
        reads.append(("orders", G, orders(G)))
        return reads[-1][2]

    def kept_rule(G):
        reads.append(("rule", G, rule(G)))
        return reads[-1][2]

    monkeypatch.setattr(PermGroup, "_element_orders", kept_orders)
    monkeypatch.setattr(perm, "_product_rule", kept_rule)
    monkeypatch.setattr(squares, "_product_rule", kept_rule)
    X, Y = (xmod.xmod_from_json(ROW6.read_text()) for _ in range(2))
    perm.fingerprint(X.M)
    assert xmod_isomorphic(X, Y) is not None
    squares._kernel(X)
    built = {}
    for table, G, result in reads:
        built.setdefault((table, id(G)), set()).add(id(result))
    assert all(len(results) == 1 for results in built.values())
    # each table of X.M and of X.Q is read more than once
    for G in (X.M, X.Q):
        for table in ("orders", "rule"):
            assert sum(r[0] == table and r[1] is G for r in reads) > 1
