"""Subgroups of a walked group read off its walk and keys, with no second
unbounded Schreier-Sims.

``kernel``, ``image`` and ``center`` sift against the order their keys
give, and ``_sifted_at`` multiplies out a member only when it is sifted;
each is held to an unbounded ``_sifted`` of the same candidates, whose
generators and chain levels it must equal.  Right cosets, of a subgroup
and of G', are the classes of one right congruence on the successor
columns (``perm._right_congruence``); they are held to the cosets that
``support.product_right_cosets`` fills in by products.  The fingerprint
reads G' and G/G' off that congruence over a generating subset of G's
generators (``perm._generating_subset``); it is held to
``derived_subgroup`` and ``_quotient_group``, the normal closure of the
generator commutators and the coset action it replaced.
"""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import chain_levels, parity, product_right_cosets, random_groups
from xmodlab import perm
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
    derived_subgroup,
    direct_product,
    fingerprint,
    hom,
    image,
    kernel,
    normal_closure,
    parse_generator_list,
    quotient,
    symmetric,
)
from xmodlab.squares import DoubleGroupoidView, gamma
from xmodlab.xmod import identity_xmod, xmod_from_json

ROW6 = Path(__file__).parent.parent / "perfbench" / "fixtures" / "row6.json"


def row6():
    """The row 6 fixture, read afresh: its M has 16 generators."""
    return xmod_from_json(ROW6.read_text())


@pytest.fixture(scope="module")
def c5_xmod():
    """S5 induced over ``<(1,2,3,4,5)>``: M of order 3000 on 600 points."""
    S5 = symmetric(5)
    P = S5.subgroup(parse_generator_list("(1,2,3,4,5)", 5))
    X, _ = induce(identity_xmod(P), hom(P, S5, P.generators))
    assert (X.M.order(), X.M.degree) == (3000, 600)
    return X


def with_extras(spec, identity, repeat):
    """The drawn group, with an identity generator first and the first
    generator repeated last, as drawn."""
    degree, gens = spec
    if repeat and gens:
        gens = gens + [gens[0]]
    if identity:
        gens = [Permutation.identity(degree)] + gens
    return PermGroup(degree, gens)


def product_classes(G, H):
    """The right cosets of H in G filled in by products
    (``support.product_right_cosets``), as ``_right_congruence`` gives
    them: the index of each coset's least element, ascending, and each
    element's coset number, in ``elements()`` order."""
    elements = [g.images for g in G.elements()]
    reps, coset_of = product_right_cosets(elements,
                                          [h.images for h in H.elements()])
    index = {x: i for i, x in enumerate(elements)}
    return [index[r] for r in reps], [coset_of[x] for x in elements]


# ---------------------------------------------------------------------------
# right cosets of a subgroup on the walk, against products


def check_right_cosets(G, H):
    reps, coset_of = _right_cosets(G, H)
    want_reps, want_label = product_classes(G, H)
    assert reps == [G.elements()[i] for i in want_reps]
    assert coset_of == dict(zip(G._cayley_walk()[0], want_label))


class TestRightCosets:
    @settings(max_examples=60, deadline=None)
    @given(random_groups(max_gens=4), st.booleans(), st.booleans(),
           st.data())
    def test_random_subgroups(self, spec, identity, repeat, data):
        G = with_extras(spec, identity, repeat)
        one = G.identity
        check_right_cosets(G, PermGroup(G.degree, []))
        check_right_cosets(G, G)
        # the identity and a repeated generator merge nothing new
        x = data.draw(st.sampled_from(G.elements()))
        check_right_cosets(G, PermGroup(G.degree, [one, x, one, x]))

    def test_c5_m_over_ker_d(self, c5_xmod):
        K = kernel(c5_xmod.boundary)
        assert K.order() == 50
        check_right_cosets(c5_xmod.M, K)


# ---------------------------------------------------------------------------
# G' and G/G' on the walk, against the chain they replaced


def check_derived(G):
    D = derived_subgroup(G)
    T = perm._generating_subset(G)
    congruence, found = perm._right_congruence, []

    def spy(*args):
        found.append(congruence(*args))
        return found[-1]

    with mock.patch.object(perm, "_right_congruence", spy):
        fp = perm._compute_fingerprint(G)
    assert fp.derived_order == D.order()
    assert list(fp.abelianization) == abelian_invariants(_quotient_group(G, D))
    # the fingerprint's one congruence has the right cosets of G' for its
    # classes, numbered as the products number them
    assert found == [product_classes(G, D)]
    # T generates G, and each kept generator enlarges the kept ones
    gens = G.generators
    assert PermGroup(G.degree, [gens[t] for t in T]).order() == G.order()
    for j, t in enumerate(T):
        assert gens[t] not in PermGroup(G.degree, [gens[u] for u in T[:j]])


class TestDerivedOnTheWalk:
    @settings(max_examples=80, deadline=None)
    @given(random_groups(max_gens=4), st.booleans(), st.booleans())
    def test_random_groups(self, spec, identity, repeat):
        check_derived(with_extras(spec, identity, repeat))

    @pytest.mark.parametrize("row", range(1, 8))
    def test_table_modules(self, table_results, row):
        check_derived(table_results[row - 1][0].M)

    def test_row_7_keeps_its_six_generators(self, table_results):
        # none of row 7's six generators lies in the group of the ones
        # before it, so its congruence merges along all 15 pairs
        M = table_results[6][0].M
        assert perm._generating_subset(M) == list(range(6))

    def test_row6_fixture_and_gamma(self):
        X = row6()
        assert (X.M.order(), len(X.M.generators)) == (72, 16)
        assert len(perm._generating_subset(X.M)) == 2
        check_derived(X.M)
        check_derived(gamma(DoubleGroupoidView(X)).M)

    def test_c5_m(self, c5_xmod):
        check_derived(c5_xmod.M)

    @pytest.mark.parametrize("G", [
        cyclic(6),
        direct_product(cyclic(2), cyclic(4)),
        PermGroup(1, []),
        PermGroup(3, [Permutation.identity(3)] * 2),
    ], ids=["cyclic", "abelian", "trivial", "trivial on the identity"])
    def test_fixed_groups(self, G):
        check_derived(G)

    def test_row6_calls_no_commutator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("G' built as a group")

        monkeypatch.setattr(perm, "derived_subgroup", refuse)
        monkeypatch.setattr(Permutation, "commutator", refuse)
        fp = fingerprint(row6().M)
        assert (fp.derived_order, fp.abelianization) == (8, (3, 3))

    def test_abelian_group_is_its_own_abelianization(self, monkeypatch):
        # G' = 1, so the fingerprint reads G/G' off G's own histogram and
        # builds no regular group of degree |G|
        G = PermGroup(30, parse_generator_list(
            "(1,2,3,4,5,6,7,8,9,10),(11,12,13,14,15,16,17,18,19,20),"
            "(21,22,23,24,25,26,27,28,29,30)", 30))

        def refuse(*args):
            raise AssertionError("a group built by PermGroup._bounded")

        monkeypatch.setattr(PermGroup, "_bounded", refuse)
        fp = fingerprint(G)
        assert (fp.order, fp.abelianization, fp.derived_order,
                fp.center_order) == (1000, (10, 10, 10), 1, 1000)


# ---------------------------------------------------------------------------
# the bounded sifts, against unbounded ones of the same candidates


def members(G, indices):
    keys = G._cayley_walk()[0]
    return [G._element(keys[i]) for i in indices]


def assert_same_sift(bounded, unbounded):
    assert bounded.generators == unbounded.generators
    assert chain_levels(bounded._levels) == chain_levels(unbounded._levels)
    assert bounded.order() == unbounded.order()


def check_bounded_sifts(h):
    one = h.target._base()
    picked = [i for i, key in enumerate(h._keys) if key == one]
    assert_same_sift(kernel(h),
                     _sifted(h.source.degree, members(h.source, picked)))
    assert_same_sift(image(h), _sifted(h.target.degree, h.images))
    G = h.source
    assert_same_sift(center(G), _sifted(G.degree,
                                        members(G, _central(G))))


class TestBoundedSifts:
    @settings(max_examples=60, deadline=None)
    @given(random_groups(max_gens=4), st.booleans(), st.booleans(),
           st.data())
    def test_random_homs(self, spec, identity, repeat, data):
        G = with_extras(spec, identity, repeat)
        C2 = cyclic(2)
        sign = [C2.generators[0] if parity(g.images) == -1 else C2.identity
                for g in G.generators]
        check_bounded_sifts(GroupHom(G, C2, sign))
        N = normal_closure(G, [data.draw(st.sampled_from(G.elements()))])
        check_bounded_sifts(quotient(G, N)[1])

    def test_c5_boundary(self, c5_xmod):
        check_bounded_sifts(c5_xmod.boundary)

    def test_c5_kernel_multiplies_out_few_members(self, c5_xmod,
                                                  monkeypatch):
        # |ker d| = 50, and the sift reaches that order after 4 members
        # (the identity among them); the rest are never multiplied out
        M = c5_xmod.M
        keys = []
        element = PermGroup._element
        monkeypatch.setattr(PermGroup, "_element",
                            lambda G, key: keys.append(key) or element(G, key))
        K = kernel(c5_xmod.boundary)
        assert K.order() == 50
        assert len(keys) == 4
        assert all(M.contains(g) for g in K.generators)
