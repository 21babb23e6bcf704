"""Walks, homomorphisms and multiplication tables keyed by base images.

A complete stabilizer chain fixes each element of its group by the images
of the base points, so the library looks elements up by those images rather
than by whole products.  These checks hold it to the product oracles of
``support``: the same walk, the same element maps and the same first
conflict, and the same multiplication table.  A tripwire counts products on
a degree-128 regular representation, so that a return to one product per
edge or per table entry fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    product_mult_table,
    product_replay,
    product_walk,
    tidentity,
)
from xmodlab.errors import RelationViolated
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _context,
    cyclic,
    normal_closure,
    quotient,
    symmetric,
)


@st.composite
def generator_lists(draw, max_degree=6):
    """A degree and 0-3 image tuples, the identity and repeats allowed."""
    degree = draw(st.integers(1, max_degree))
    points = list(range(1, degree + 1))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["new", "identity", "repeat"]))
        if kind == "identity":
            gens.append(tidentity(degree))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(tuple(draw(st.permutations(points))))
    return degree, gens


def group(degree, gens):
    return PermGroup(degree, [Permutation(g) for g in gens])


def check_walk(G):
    found, successors = G._cayley_walk()
    expected = product_walk(G.degree, [g.images for g in G.generators])
    assert (tuple(p.images for p in found), successors) == expected


def check_mult(G):
    expected = product_mult_table([p.images for p in G.elements()])
    assert _context(G).mult == expected


def check_hom(source, target, images):
    """GroupHom agrees with the product replay: the same element map, or
    ``RelationViolated`` with the same witness."""
    expected, conflict = product_replay(
        source.degree, [g.images for g in source.generators],
        target.degree, [im.images for im in images],
    )
    try:
        h = GroupHom(source, target, images)
    except RelationViolated as exc:
        assert conflict is not None
        assert exc.witness.images == conflict
        return None
    assert conflict is None
    assert {p.images: v.images for p, v in h.element_map.items()} == expected
    return h


class TestAgainstProductOracle:
    @settings(max_examples=80, deadline=None)
    @given(generator_lists())
    def test_walk(self, spec):
        check_walk(group(*spec))

    @settings(max_examples=60, deadline=None)
    @given(generator_lists())
    def test_mult(self, spec):
        check_mult(group(*spec))

    @settings(max_examples=60, deadline=None)
    @given(generator_lists(), st.data())
    def test_conjugation_hom(self, spec, data):
        degree, gens = spec
        G = group(degree, gens)
        c = Permutation(data.draw(st.permutations(range(1, degree + 1))))
        images = [g.conj(c) for g in G.generators]
        target = data.draw(st.sampled_from(
            [PermGroup(degree, images), symmetric(degree)]))
        assert check_hom(G, target, images) is not None

    @settings(max_examples=60, deadline=None)
    @given(generator_lists(), st.data())
    def test_quotient_map(self, spec, data):
        G = group(*spec)
        N = normal_closure(G, [data.draw(st.sampled_from(G.elements()))])
        Q, proj = quotient(G, N)
        assert check_hom(G, Q, proj.images).element_map == proj.element_map

    @settings(max_examples=100, deadline=None)
    @given(generator_lists(), generator_lists(max_degree=5), st.data())
    def test_arbitrary_images(self, spec, target_spec, data):
        # images drawn from the target, so most assignments are not homs
        G = group(*spec)
        T = data.draw(st.sampled_from(
            [group(*target_spec), symmetric(target_spec[0])]))
        images = [data.draw(st.sampled_from(T.elements()))
                  for _ in G.generators]
        check_hom(G, T, images)

    def test_known_violation(self):
        C3 = cyclic(3)
        assert check_hom(cyclic(2), C3, C3.generators) is None


class TestTrivialGroup:
    def test_empty_base(self):
        T = PermGroup(3, [])
        assert T._base() == ()
        check_walk(T)
        check_mult(T)
        assert _context(T).mult == [[0]]

    def test_homs_into_and_out_of(self):
        T, S3 = PermGroup(3, []), symmetric(3)
        assert check_hom(T, S3, []).element_map == {T.identity: S3.identity}
        h = check_hom(S3, T, [T.identity, T.identity])
        assert set(h.element_map.values()) == {T.identity}
        check_hom(cyclic(2), PermGroup(2, []), [Permutation((1, 2))])


class TestTableModules:
    @pytest.mark.parametrize("row", range(1, 8))
    def test_walks_tables_and_homs(self, table_results, row):
        X = table_results[row - 1][0]
        for G in (X.M, X.Q):
            check_walk(G)
            check_mult(G)
        assert check_hom(X.M, X.Q, X.boundary.images).element_map == (
            X.boundary.element_map)
        for a in X.action:
            assert check_hom(X.M, X.M, a.images).element_map == a.element_map
        # the boundary images turned by one place: mostly not a hom
        turned = X.boundary.images[1:] + X.boundary.images[:1]
        check_hom(X.M, X.Q, turned)

    def test_regular_m_has_a_one_point_base(self, table_results):
        # M acts regularly on its cosets, so one point fixes each element
        for X, _ in table_results:
            base = X.M._base()
            assert len(base) == 1
            keys = {tuple(p.images[b - 1] for b in base)
                    for p in X.M.elements()}
            assert len(keys) == X.M.order() == X.M.degree


def test_product_tripwire(table_results, monkeypatch):
    # row 7: |M| = 128 on 128 points; the walk, one action hom and the
    # multiplication table each multiply out at most one product per element
    X = table_results[6][0]
    assert X.M.order() == X.M.degree == 128
    M = PermGroup(X.M.degree, X.M.generators)
    calls = []
    mul = Permutation.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    for step in (M._cayley_walk,
                 lambda: GroupHom(M, M, X.action[0].images),
                 lambda: _context(M)):
        calls.clear()
        step()
        assert len(calls) <= M.order()
