"""The readers of the Cayley walk's keys, against the product oracles.

``PermGroup._cayley_walk`` forms no product: it keeps each element's base
images and its images on S, the points up to the last base point that the
group moves.  It numbers the elements by those images, in ``elements()``
order, and the key index is read off its keys; a kernel is picked on keys; the centre compares a
left-multiplication table, filled along the spanning tree, with the
successor columns; right cosets and quotients are labelled along the
columns; element orders are read off the chain, and abelian invariants off
their histogram.  Each is held here to the products of ``support`` on
random groups of degree at most 7, with identity and repeated generators,
on the trivial group and on groups built by ``_sifted`` whose base is not
ascending.  After ``induce`` on S5/C5, M has multiplied out no element.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    abelian_order_census,
    product_abelian_invariants,
    product_center,
    product_kernel,
    product_right_cosets,
    product_walk,
    sorted_walk,
    tcompose,
    tidentity,
    torder,
)
from xmodlab.errors import EnumerationBoundExceeded
from xmodlab.induce import induce
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _central,
    _quotient_group,
    _right_cosets,
    _sifted,
    abelian_invariants,
    center,
    cyclic,
    fingerprint,
    hom,
    kernel,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    quotient,
    right_coset_representatives,
    symmetric,
)
from xmodlab.xmod import identity_xmod


def images(perms):
    return [p.images for p in perms]


@st.composite
def groups(draw):
    """A group of degree at most 7 on 0-3 generators, the identity and
    repeats among them; or one sifted from a first candidate that fixes
    the points below a drawn one, so that it opens the chain there and
    later candidates open levels below it."""
    degree = draw(st.integers(1, 7))
    points = list(range(1, degree + 1))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["random", "random", "identity",
                                     "repeat"]))
        if kind == "identity":
            gens.append(tidentity(degree))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(tuple(draw(st.permutations(points))))
    perms = [Permutation(g) for g in gens]
    if draw(st.booleans()):
        low = draw(st.integers(1, degree))
        first = Permutation(tuple(points[:low - 1])
                            + tuple(draw(st.permutations(points[low - 1:]))))
        return _sifted(degree, [first] + perms)
    return PermGroup(degree, perms)


@st.composite
def abelian_groups(draw):
    """A group generated by 0-3 products of powers of disjoint cycles that
    cover at most 7 points."""
    degree = draw(st.integers(1, 7))
    cycles, start = [], 1
    while start <= degree:
        n = draw(st.integers(1, degree - start + 1))
        images = list(range(1, degree + 1))
        for i in range(n):
            images[start - 1 + i] = start + (i + 1) % n
        cycles.append(Permutation(images))
        start += n
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        g = Permutation.identity(degree)
        for c in cycles:
            g = g * c ** draw(st.integers(0, 5))
        gens.append(g)
    return PermGroup(degree, gens)


# ---------------------------------------------------------------------------
# the checks, each against products


def sorted_elements(G):
    return sorted(product_walk(G.degree, images(G.generators))[0])


def check_order_and_keys(G):
    """The walk's numbering, the key index and each element built from its
    key, before anything is multiplied out; then ``elements()`` itself."""
    want, successors, fill = sorted_walk(G.degree, images(G.generators))
    base = G._base()
    keys = tuple(tuple(x[b - 1] for b in base) for x in want)
    assert G._cayley_walk() == (keys, successors)
    assert G._fill == fill
    assert list(G._key_index().items()) == list(zip(keys, range(len(want))))
    assert G._element_orders() == [torder(x) for x in want]
    assert G._elements is None
    assert tuple(G._element(key).images for key in G._key_index()) == want
    assert tuple(images(G.elements())) == want


def orbit_hom(G, point):
    """G acting on the orbit of ``point``, relabelled 1..|orbit|."""
    orbit = sorted({x[point - 1] for x in sorted_elements(G)})
    at = {x: i + 1 for i, x in enumerate(orbit)}
    imgs = [Permutation(tuple(at[g.images[x - 1]] for x in orbit))
            for g in G.generators]
    return GroupHom(G, PermGroup(len(orbit), imgs), imgs)


def check_kernel(h):
    want = product_kernel(h.source.degree, images(h.source.generators),
                          h.target.degree, images(h.images))
    K = kernel(h)
    assert images(K.generators) == images(
        _sifted(h.source.degree, [Permutation(x) for x in want]).generators)
    assert images(K.elements()) == want


def check_center(G):
    want = sorted(product_center(sorted_elements(G), images(G.generators)))
    assert len(_central(G)) == len(want)
    assert fingerprint(G).center_order == len(want)
    Z = center(G)
    assert images(Z.generators) == images(
        _sifted(G.degree, [Permutation(z) for z in want]).generators)
    assert images(Z.elements()) == want
    check_invariants(Z)


def check_cosets(G, H, normal=False):
    """``_right_cosets``, and with ``normal`` the quotient's generators,
    numbered as the products number them."""
    elements = sorted_elements(G)
    want_reps, want_of = product_right_cosets(elements, sorted_elements(H))
    reps, coset_of = _right_cosets(G, H)
    assert images(reps) == want_reps
    base = G._base()
    assert coset_of == {tuple(x[b - 1] for b in base): want_of[x]
                        for x in elements}
    if normal:
        assert images(_quotient_group(G, H).generators) == [
            tuple(want_of[tcompose(r, g.images)] + 1 for r in want_reps)
            for g in G.generators]


def check_invariants(A):
    elements = sorted_elements(A)
    invariants = abelian_invariants(A)
    assert invariants == product_abelian_invariants(elements)
    assert abelian_order_census(invariants) == Counter(map(torder, elements))


# ---------------------------------------------------------------------------
# random groups


class TestAgainstProducts:
    @settings(max_examples=80, deadline=None)
    @given(groups())
    def test_order_ranks_keys_and_orders(self, G):
        check_order_and_keys(G)

    @settings(max_examples=60, deadline=None)
    @given(groups(), st.data())
    def test_kernel(self, G, data):
        check_kernel(orbit_hom(G, data.draw(st.integers(1, G.degree))))
        flip = cyclic(2).generators[0]
        sign = [flip if sum(len(c) - 1 for c in g.cycles()) % 2
                else cyclic(2).identity for g in G.generators]
        check_kernel(GroupHom(G, cyclic(2), sign))

    @settings(max_examples=60, deadline=None)
    @given(groups())
    def test_center(self, G):
        check_center(G)

    @settings(max_examples=60, deadline=None)
    @given(groups(), st.data())
    def test_cosets_and_quotients(self, G, data):
        elements = G.elements()
        H = G.subgroup([data.draw(st.sampled_from(elements))
                        for _ in range(data.draw(st.integers(1, 2)))])
        check_cosets(G, H)
        N = normal_closure(G, [data.draw(st.sampled_from(elements))])
        check_cosets(G, N, normal=True)

    @settings(max_examples=80, deadline=None)
    @given(abelian_groups())
    def test_abelian_invariants(self, A):
        check_invariants(A)


# ---------------------------------------------------------------------------
# fixed groups: the trivial ones, a base that does not ascend, S5


def perms(text, degree):
    return parse_generator_list(text, degree)


FIXED = {
    "trivial": lambda: PermGroup(1, []),
    "trivial on the identity": lambda: PermGroup(3, perms("()", 3)),
    # the chain opens at 3, then at 1: S = (1, 2, 3), and sorting by the
    # base images (3's, then 1's) would put (1,2) before (3,4)
    "base (3, 1)": lambda: _sifted(4, perms("(3,4),(1,2)", 4)),
    "base (3, 2, 1)": lambda: _sifted(5, perms("(3,4,5),(1,2,3)", 5)),
    "S4, repeats and the identity": lambda: PermGroup(4, perms(
        "(1,2,3,4),(1,2),(),(1,2,3,4)", 4)),
    "S5": lambda: symmetric(5),
}


@pytest.mark.parametrize("name", list(FIXED))
def test_fixed_groups(name):
    G = FIXED[name]()
    check_order_and_keys(FIXED[name]())
    check_center(G)
    check_kernel(orbit_hom(G, G.degree))
    subgroup = G.subgroup(G.generators[:1])
    check_cosets(G, subgroup)
    check_cosets(G, normal_closure(G, G.generators[-1:]), normal=True)


def test_non_ascending_bases():
    assert FIXED["base (3, 1)"]()._base() == (3, 1)
    assert FIXED["base (3, 2, 1)"]()._base() == (3, 2, 1)


def test_cosets_of_a_subgroup_past_the_bound_name_the_group_walked():
    # the subgroup is closed up in G's keys, never walked itself, so the
    # refusal names G's order, 8! = 40320, not that of A8
    S8 = symmetric(8)
    A8 = normal_closure(S8, [parse_permutation("(1,2,3)", 8)])
    for cosets in (right_coset_representatives, quotient):
        with pytest.raises(EnumerationBoundExceeded) as e:
            cosets(S8, A8)
        assert str(e.value) == "order 40320 exceeds 10000"
    assert A8._walk is None


# ---------------------------------------------------------------------------
# tripwire: induce on S5/C5 multiplies out no element of M


def test_s5_c5_induce_multiplies_out_no_element_of_m(monkeypatch):
    Q = symmetric(5)
    P = Q.subgroup([parse_permutation("(1,2,3,4,5)", 5)])
    X, _ = induce(identity_xmod(P), hom(P, Q, P.generators))
    M = X.M
    assert (M.order(), M.degree) == (3000, 600)
    assert M._walk is not None
    assert M._elements is None and M._index is None

    # the walk and the key readers form no product: counted on a group
    # over M's chain, walked afresh
    calls = []
    mul = Permutation.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    fresh = PermGroup._on_chain(M.degree, M.generators, M._levels)
    fresh._cayley_walk()
    fresh._key_index()
    assert len(_central(fresh)) == 50
    assert calls == []
