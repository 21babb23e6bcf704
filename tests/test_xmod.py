"""Crossed modules: construction, axiom checking, invariants, morphisms."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from support import (
    _module_tables,
    closure,
    crossed_module_witnesses,
    tcompose,
    tinverse,
)
from xmodlab import xmod
from xmodlab.errors import (
    EnumerationBoundExceeded,
    NonNormal,
    NotInGroup,
    ParseError,
    RelationViolated,
    SearchBoundExceeded,
)
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    fingerprint,
    hom,
    image,
    kernel,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    symmetric,
)
from xmodlab.induce import induce, run_table_full
from xmodlab.squares import DoubleGroupoidView, gamma
from xmodlab.xmod import (
    CrossedModule,
    XModMorphism,
    identity_xmod,
    normal_inclusion_xmod,
    pi1,
    pi2,
    validate,
    xmod_from_json,
    xmod_isomorphic,
    xmod_to_json,
)


def P(text, degree):
    return parse_permutation(text, degree)


def v_in_s4():
    S4 = symmetric(4)
    V = normal_closure(S4, [P("(1,2)(3,4)", 4)])
    return normal_inclusion_xmod(V, S4)


def a4_in_s4():
    S4 = symmetric(4)
    A4 = S4.subgroup(parse_generator_list("(1,2,3),(2,3,4)", 4))
    return normal_inclusion_xmod(A4, S4)


def broken_cm2():
    # conjugation in S3 is invisible to the trivial group, so CM2 fails
    S3 = symmetric(3)
    triv = cyclic(1)
    return CrossedModule(
        S3, triv, hom(S3, triv, [triv.identity, triv.identity]), []
    )


class TestConstruction:
    def test_identity_xmod_validates(self):
        for G in [cyclic(1), cyclic(4), symmetric(3), symmetric(4)]:
            assert validate(identity_xmod(G)).ok

    def test_normal_inclusions_validate(self):
        assert validate(v_in_s4()).ok
        assert validate(a4_in_s4()).ok
        S3 = symmetric(3)
        C3 = S3.subgroup([P("(1,2,3)", 3)])
        assert validate(normal_inclusion_xmod(C3, S3)).ok

    def test_normal_inclusion_rejects_nonnormal(self):
        S4 = symmetric(4)
        H = S4.subgroup([P("(1,2)", 4)])
        with pytest.raises(NonNormal):
            normal_inclusion_xmod(H, S4)

    def test_inconsistent_action_rejected(self):
        # an order-3 automorphism assigned to an involution cannot extend
        M = PermGroup(4, parse_generator_list("(1,2),(3,4)", 4))
        C2 = cyclic(2)
        bnd = hom(M, C2, [C2.identity, C2.identity])
        rot = hom(M, M, [P("(3,4)", 4), P("(1,2)(3,4)", 4)])
        with pytest.raises(RelationViolated):
            CrossedModule(M, C2, bnd, [rot])

    def test_relation_violation_witness_lies_in_q(self):
        # s -> 1, r -> order-3 automorphism breaks s r s = r^-1 in S3
        M = PermGroup(4, parse_generator_list("(1,2),(3,4)", 4))
        S3 = PermGroup(3, parse_generator_list("(1,2),(1,2,3)", 3))
        bnd = hom(M, S3, [S3.identity, S3.identity])
        rot = hom(M, M, [P("(3,4)", 4), P("(1,2)(3,4)", 4)])
        with pytest.raises(RelationViolated) as e:
            CrossedModule(M, S3, bnd, [hom(M, M, M.generators), rot])
        assert e.value.witness in S3
        assert e.value.witness == P("(1,3,2)", 3)

    def test_action_arity_checked(self):
        S3 = symmetric(3)
        with pytest.raises(ValueError):
            CrossedModule(S3, S3, hom(S3, S3, S3.generators), [])

    def test_groups_beyond_enumeration_bound_refused(self):
        # construction enumerates M and Q, so no module outgrows validate
        S8 = symmetric(8)
        with pytest.raises(EnumerationBoundExceeded) as e:
            identity_xmod(S8)
        assert "order 40320" in str(e.value)
        triv = cyclic(1)
        with pytest.raises(EnumerationBoundExceeded) as e:
            CrossedModule(triv, S8, hom(triv, S8, []),
                          [GroupHom(triv, triv, []) for _ in S8.generators])
        assert str(e.value) == "order 40320 exceeds 10000"


class TestValidation:
    def test_cm1_failure_with_witness(self):
        # constant boundary plus trivial action breaks equivariance
        M = cyclic(2)
        S3 = symmetric(3)
        bnd = hom(M, S3, [P("(1,2)", 3)])
        ident = hom(M, M, list(M.generators))
        X = CrossedModule(M, S3, bnd, [ident, ident])
        report = validate(X)
        assert not report.cm1_ok
        m, q = report.cm1_witness
        # the witness really breaks CM1, checked with raw tuples
        left = bnd.apply(X.act(m, q)).images
        right = tcompose(
            tcompose(tinverse(q.images), bnd.apply(m).images), q.images
        )
        assert left != right
        assert "CM1 fails" in report.describe()

    def test_cm2_failure_with_witness(self):
        X = broken_cm2()
        report = validate(X)
        assert report.cm1_ok and not report.cm2_ok
        m, mp = report.cm2_witness
        left = X.act(m, X.boundary.apply(mp)).images
        right = tcompose(tcompose(tinverse(mp.images), m.images), mp.images)
        assert left != right

    def test_describe_ok(self):
        assert validate(v_in_s4()).describe() == "CM1 ok, CM2 ok"

    def test_action_composes_along_q(self):
        X = v_in_s4()
        rng = random.Random(6)
        qelems = X.Q.elements()
        melems = X.M.elements()
        for _ in range(100):
            m = rng.choice(melems)
            q1, q2 = rng.choice(qelems), rng.choice(qelems)
            assert X.act(m, q1 * q2) == X.act(X.act(m, q1), q2)

    def test_conjugation_action_against_closure_oracle(self):
        # act and the action homs replay walks; the oracle walks raw tuples
        X = v_in_s4()
        qs = closure(4, [q.images for q in X.Q.generators])
        ms = closure(4, [m.images for m in X.M.generators])
        assert (len(qs), len(ms)) == (24, 4)
        for q in qs:
            for m in ms:
                m_q = tcompose(tcompose(tinverse(q), m), q)
                assert X.act(Permutation(m), Permutation(q)).images == m_q
        for a, q in zip(X.action, X.Q.generators):
            assert {p.images: v.images for p, v in a.element_map.items()} == {
                m: tcompose(tcompose(tinverse(q.images), m), q.images)
                for m in ms
            }
        assert {p.images: v.images for p, v in X.boundary.element_map.items()} == {
            m: m for m in ms
        }


class TestActionArrays:
    """``act_array`` composes each array on first read from its tree
    parent's; every array must equal the raw-tuple tables of
    ``support._module_tables``, read in any order."""

    @staticmethod
    def assert_matches_raw_tables(X):
        _, act = _module_tables(
            X.M.degree, [m.images for m in X.M.generators],
            X.Q.degree, [q.images for q in X.Q.generators],
            [b.images for b in X.boundary.images],
            [[im.images for im in a.images] for a in X.action],
        )
        melems = [m.images for m in X.M.elements()]
        qelems = list(X.Q.elements())
        random.Random(len(melems)).shuffle(qelems)
        for q in qelems:
            arr = X.act_array(q)
            assert [melems[j] for j in arr] == [act[q.images][m]
                                                for m in melems]

    @pytest.mark.parametrize("row", range(1, 8))
    def test_table_rows(self, table_results, row):
        self.assert_matches_raw_tables(table_results[row - 1][0])

    def test_a4_in_s4_and_row6(self):
        self.assert_matches_raw_tables(a4_in_s4())
        self.assert_matches_raw_tables(xmod_from_json(ROW6.read_text()))

    def test_s5_c5_induce_composes_few_arrays(self):
        # induce and validate read the arrays of Q's generators and of the
        # boundary images of M's generators, not all 120 arrays of 3000
        S5 = symmetric(5)
        C5 = S5.subgroup([P("(1,2,3,4,5)", 5)])
        X, _ = induce(identity_xmod(C5), hom(C5, S5, C5.generators))
        assert validate(X).ok
        assert X.M.order() == 3000 and len(X._arrays) == 120
        assert sum(arr is not None for arr in X._arrays) < 20

    def test_act_on_element_outside_m(self):
        X = v_in_s4()
        with pytest.raises(NotInGroup, match=r"\(1,2\) is not in M"):
            X.act(P("(1,2)", 4), X.Q.identity)

    def test_act_array_on_element_outside_q(self):
        X = v_in_s4()
        with pytest.raises(NotInGroup, match=r"\(1,5\) is not in Q"):
            X.act_array(P("(1,5)", 5))
        with pytest.raises(ValueError, match="is not in Q"):
            X.act(X.M.identity, P("(1,5)", 5))

    def test_act_array_on_a_non_permutation(self):
        # a list is unhashable: refused as outside Q, not a bare TypeError
        X = identity_xmod(symmetric(3))
        with pytest.raises(NotInGroup, match=r"\[1, 2, 3\] is not in Q"):
            X.act_array([1, 2, 3])

    def test_act_on_a_non_permutation(self):
        X = identity_xmod(symmetric(3))
        with pytest.raises(NotInGroup, match=r"\[1, 2, 3\] is not in M"):
            X.act([1, 2, 3], X.Q.identity)
        with pytest.raises(NotInGroup, match=r"\[1, 2, 3\] is not in Q"):
            X.act(X.M.identity, [1, 2, 3])


class TestInvariants:
    def test_identity_xmod(self):
        X = identity_xmod(symmetric(4))
        assert pi1(X).order() == 1
        K, inv = pi2(X)
        assert K.order() == 1 and inv == []

    def test_normal_inclusion(self):
        X = v_in_s4()
        assert pi1(X).order() == 6
        K, inv = pi2(X)
        assert K.order() == 1 and inv == []

    def test_central_extension_shape(self):
        # trivial boundary with trivial action: pi2 is all of M
        M = cyclic(2)
        C3 = cyclic(3)
        ident = hom(M, M, list(M.generators))
        X = CrossedModule(
            M, C3, hom(M, C3, [C3.identity]), [ident]
        )
        assert validate(X).ok
        assert pi1(X).order() == 3
        K, inv = pi2(X)
        assert K.order() == 2 and inv == [2]

    def test_kernel_is_central(self):
        for X in [v_in_s4(), a4_in_s4()]:
            K, _ = pi2(X)
            for k in K.elements():
                for m in X.M.elements():
                    assert tcompose(k.images, m.images) == tcompose(
                        m.images, k.images
                    )

    def test_image_is_normal(self):
        from xmodlab.perm import image

        for X in [v_in_s4(), a4_in_s4()]:
            im = image(X.boundary)
            im_set = {g.images for g in im.elements()}
            for g in im.elements():
                for q in X.Q.elements():
                    conj = tcompose(
                        tcompose(tinverse(q.images), g.images), q.images
                    )
                    assert conj in im_set


class TestTableInvariants:
    # sha256 of the repr of pi2's generators as image tuples, re-recorded
    # when M came to be read off the cosets of the copy of P at the
    # identity coset, for rows 2 and 4 when each copy of M came to be
    # generated by M's own generators, and for rows 6 and 7 when the
    # Peiffer relators each cycle of copies implies were left out (M comes
    # back as a point-conjugate of the old M), and for all seven rows, for
    # the same reason, when G came to be presented on the generators of the
    # copies T0 alone (each row's M has an xmod_isomorphic witness from the
    # M before)
    PI2 = (
        "08b582ea42d464a5c35b35ab258ca5206b6dc5a217888155b376bb8855b17492",
        "078719a6e308c8ed9df06b2327219a16a2e63403922884ea7512b3f5409380c1",
        "352a3f841391807d77d4ee854165b58cdde0f49b51391dffcd1b71ba886c0ca3",
        "bb66837e08a37530703614f6fe2ca4020ae70a884a516956a6e6f79ee08d6c4c",
        "a6335a0794c471c0fbc6cac81e99432e88e58601d08246816905366bebf8161c",
        "a697741791dece4e44196f74e1799b12914db8ade78098ed3cc50a8298ab5129",
        "205c5381a71ef191df6dc432b100d123634bf90f1b807995f63630155d9cec58",
    )
    PI1 = 5 * [["()", "()"]] + [
        ["(1,2)", "(1,2)"], ["(1,2)(3,5)(4,6)", "(1,6)(2,5)(3,4)"],
    ]

    @pytest.mark.parametrize("row", range(1, 8))
    def test_pi_generators_pinned(self, table_results, row):
        X = table_results[row - 1][0]
        K, _ = pi2(X)
        digest = hashlib.sha256(
            repr([g.images for g in K.generators]).encode()
        ).hexdigest()
        assert digest == self.PI2[row - 1]
        assert [str(q) for q in pi1(X).generators] == self.PI1[row - 1]

    @pytest.mark.parametrize("row", range(1, 8))
    def test_derived_subgroups_sifted(self, table_results, row, monkeypatch):
        # each kept generator at least doubles the group, so a sifted list
        # has at most log2 of its order; the commutators come from at most
        # that many sifted generators of M
        X = table_results[row - 1][0]
        made = []
        commutator = Permutation.commutator

        def counting(a, b):
            made.append((a, b))
            return commutator(a, b)

        monkeypatch.setattr(Permutation, "commutator", counting)
        for G in (derived_subgroup(X.M), center(X.M), image(X.boundary)):
            assert 2 ** len(G.generators) <= G.order()
        log2_order = X.M.order().bit_length() - 1
        assert len(made) <= math.comb(log2_order, 2)


class TestMorphisms:
    def test_identity_morphism_verifies(self):
        X = v_in_s4()
        mor = XModMorphism(
            hom(X.M, X.M, list(X.M.generators)),
            hom(X.Q, X.Q, list(X.Q.generators)),
        )
        assert mor.verify(X, X)
        assert mor.is_isomorphism()

    def test_mismatched_pair_fails(self):
        X = v_in_s4()
        # swap the two Klein generators but fix Q: boundary square breaks
        f = hom(X.M, X.M, [X.M.generators[1], X.M.generators[0]])
        g = hom(X.Q, X.Q, list(X.Q.generators))
        assert not XModMorphism(f, g).verify(X, X)

    def test_verify_reads_index_arrays(self):
        # fresh rows, so no earlier test has read a map's values
        (X, _), (Y, _) = run_table_full(rows=[1, 2])
        mor = xmod_isomorphic(X, Y)
        assert mor is not None
        for h in (mor.f, mor.g, X.boundary, Y.boundary):
            assert "element_map" not in vars(h)
        # f followed by conjugation by y, whose boundary is a transposition:
        # d(M) is all of S4, whose centre is trivial, so the boundary square
        # fails at some generator, as the values multiplied out confirm
        y = Y.M.generators[0]
        f = hom(X.M, Y.M, [im.conj(y) for im in mor.f.images])
        assert not XModMorphism(f, mor.g).verify(X, Y)
        assert any(Y.boundary.apply(f.apply(m))
                   != mor.g.apply(X.boundary.apply(m))
                   for m in X.M.generators)

    def test_conjugation_pair_verifies(self):
        # f = g = conjugation by c on identity_xmod(S3): the action law
        # compares f(m^q) with f(m)^(g q), and g moves q
        X = identity_xmod(symmetric(3))
        c = P("(1,2)", 3)
        conj = hom(X.M, X.M, [m.conj(c) for m in X.M.generators])
        assert [q.conj(c) for q in X.Q.generators] != list(X.Q.generators)
        assert XModMorphism(conj, conj).verify(X, X)

    def test_each_law_rejects_on_its_own(self):
        C2, C3 = cyclic(2), cyclic(3)
        ident2 = hom(C2, C2, list(C2.generators))
        # identity maps from C2 -> C2 (identity boundary) to C2 -> C2
        # (trivial boundary), both with trivial action: only the boundary
        # square fails
        X = identity_xmod(C2)
        Y = CrossedModule(C2, C2, hom(C2, C2, [C2.identity]), [ident2])
        assert validate(Y).ok
        assert not XModMorphism(ident2, ident2).verify(X, Y)
        # identity maps between two trivial-boundary C3 -> C2, acted on by
        # inversion and trivially: only equivariance fails
        trivial = hom(C3, C2, [C2.identity])
        ident3 = hom(C3, C3, list(C3.generators))
        X = CrossedModule(C3, C2, trivial,
                          [hom(C3, C3, [C3.generators[0].inverse()])])
        Y = CrossedModule(C3, C2, trivial, [ident3])
        assert not XModMorphism(ident3, ident2).verify(X, Y)
        assert XModMorphism(ident3, ident2).verify(Y, Y)


class TestIsomorphism:
    def test_self(self):
        X = v_in_s4()
        mor = xmod_isomorphic(X, X)
        assert mor is not None and mor.verify(X, X)

    def test_different_kernels(self):
        assert xmod_isomorphic(v_in_s4(), a4_in_s4()) is None

    @staticmethod
    def abelian_xmod(M, Q, boundary_images):
        # M and Q abelian and the action trivial: CM1 and CM2 hold for any
        # boundary
        return CrossedModule(M, Q, hom(M, Q, boundary_images),
                             [hom(M, M, M.generators)] * len(Q.generators))

    @pytest.fixture
    def no_search(self, monkeypatch):
        # a None below comes from a fingerprint, before any search
        def refused(G, H):
            raise AssertionError("searched the bases")

        monkeypatch.setattr(xmod, "_iter_isomorphisms", refused)

    def test_q_fingerprints_differ(self, no_search):
        # M = C2 over C4 and over V4, both boundaries trivial
        M, C4, V4 = cyclic(2), cyclic(4), dihedral(4)
        X = self.abelian_xmod(M, C4, [C4.identity])
        Y = self.abelian_xmod(M, V4, [V4.identity])
        assert fingerprint(X.M) == fingerprint(Y.M)
        assert fingerprint(X.Q) != fingerprint(Y.Q)
        assert xmod_isomorphic(X, Y) is None

    def test_kernel_fingerprints_differ(self, no_search):
        # C2 -> C2, the identity against the trivial boundary
        C2 = cyclic(2)
        X = self.abelian_xmod(C2, C2, C2.generators)
        Y = self.abelian_xmod(C2, C2, [C2.identity])
        assert kernel(X.boundary).order() == 1
        assert kernel(Y.boundary).order() == 2
        assert xmod_isomorphic(X, Y) is None

    def test_image_fingerprints_differ(self, no_search):
        # C2 x C4 = <a> x <b> into itself: a -> 1, b -> b has kernel <a>
        # and image C4; a -> a, b -> b^2 has kernel <b^2> and image V4
        G = direct_product(cyclic(2), cyclic(4))
        a, b = G.generators
        X = self.abelian_xmod(G, G, [G.identity, b])
        Y = self.abelian_xmod(G, G, [a, b * b])
        kx, ky = kernel(X.boundary), kernel(Y.boundary)
        assert kx.order() == ky.order() == 2
        assert fingerprint(kx) == fingerprint(ky)
        assert fingerprint(image(X.boundary)) != fingerprint(image(Y.boundary))
        assert xmod_isomorphic(X, Y) is None

    def test_search_bound(self):
        # the trivial module over S6: construction enumerates S6, the
        # search refuses it (720 > 512)
        S6 = symmetric(6)
        M = PermGroup(6, [])
        X = CrossedModule(M, S6, hom(M, S6, []), [hom(M, M, [])] * 2)
        with pytest.raises(SearchBoundExceeded, match="720 exceeds"):
            xmod_isomorphic(X, X)

    def test_action_matters(self):
        # same groups and boundary, different actions: not isomorphic
        M = cyclic(3)
        C2 = cyclic(2)
        triv_b = hom(M, C2, [C2.identity])
        ident = hom(M, M, list(M.generators))
        invert = hom(M, M, [M.generators[0].inverse()])
        X = CrossedModule(M, C2, triv_b, [ident])
        Y = CrossedModule(M, C2, triv_b, [invert])
        assert validate(X).ok and validate(Y).ok
        assert xmod_isomorphic(X, X) is not None
        assert xmod_isomorphic(Y, Y) is not None
        assert xmod_isomorphic(X, Y) is None

    def test_relabelled_points(self):
        S4 = symmetric(4)
        V1 = normal_closure(S4, [P("(1,2)(3,4)", 4)])
        X = normal_inclusion_xmod(V1, S4)
        c = P("(1,4,2)", 4)
        V2 = S4.subgroup([g.conj(c) for g in V1.generators])
        Y = normal_inclusion_xmod(V2, S4)
        mor = xmod_isomorphic(X, Y)
        assert mor is not None and mor.verify(X, Y)

    # sha256 of the repr of (f images, g images) as image tuples, re-recorded
    # when M came to be read off the cosets of the copy of P at the
    # identity coset, for (1, 2) and (3, 4) when each copy of M came to be
    # generated by M's own generators, and for all four when M came to keep
    # only the coset permutations that enlarge the group: f is listed on
    # M's generators, and PINNED_MAPS below held across that change; (6, 6)
    # and (7, 7) again when the Peiffer relators each cycle of copies
    # implies were left out, which relabels the points of M, and all four,
    # with PINNED_MAPS, when G came to be presented on the generators of
    # the copies T0 alone, which relabels them again; (1, 2) and (3, 4),
    # with PINNED_MAPS unchanged, when M came to be sifted from the
    # presentation's own generators, which keeps other generators of rows
    # 1, 2 and 3 (after a witness from each row's module as dumped before)
    PINNED = {
        (1, 2): "67e1e880e5df87015fd401cad78fea0a6f4339fe4922c9aac8099faed549086f",
        (3, 4): "174313b577c956c2b715d6e034a7d7e22c026bbd67afc223e65a8b16d0b9ca08",
        (6, 6): "13a159f61400bafdcd211814985dc934452256166834924da25211f0e9830210",
        (7, 7): "6cce1ddab233f78a32a7fb631fa5b41bff549de5631624be67eec2cc7110931e",
    }
    # the same for row 6 as first written (perfbench/fixtures/row6.json),
    # recorded before the backtrack was shared with the group search
    FIXTURE_ROW6 = (
        "b59bbaf9216fff5cda304f2dd33dd79402e78f5dca1631f18e3f25a70a4603a1")

    @staticmethod
    def digest(mor):
        return hashlib.sha256(repr((
            [p.images for p in mor.f.images],
            [p.images for p in mor.g.images],
        )).encode()).hexdigest()

    @pytest.mark.parametrize("rows", sorted(PINNED), ids=str)
    def test_table_witnesses_pinned(self, table_results, rows):
        a, b = rows
        X, Y = table_results[a - 1][0], table_results[b - 1][0]
        mor = xmod_isomorphic(X, Y)
        assert mor.verify(X, Y) and mor.is_isomorphism()
        assert self.digest(mor) == self.PINNED[rows]
        assert [str(q) for q in mor.g.images] == ["(1,2)", "(1,2,3,4)"]

    # sha256 of the repr of (f, g) as sorted (element, image) pairs: the
    # same witnesses as PINNED, read as maps on elements, so they do not
    # depend on the generators M is listed with; (1, 2), (6, 6) and (7, 7)
    # re-recorded when the Peiffer relators each cycle of copies implies
    # were left out, which relabels the points of rows 1, 6 and 7, and all
    # four with PINNED
    PINNED_MAPS = {
        (1, 2): "8e2b74fecf69de9c017039d6ab3207eafa9cfdfa3dc38a293d8be96499944614",
        (3, 4): "a056e9b12406cf8f43f5c9674d51202432a69bbe81bd0a4165fa9eb4f9619659",
        (6, 6): "ace146d037ded8b6f2658c3702a4ea856416c0a9906bfcf4cc25600991475471",
        (7, 7): "2267ef0d234393066b5aa7a2b5e6b0d91e98c97daa725dfc35f03986a103341f",
    }

    @pytest.mark.parametrize("rows", sorted(PINNED_MAPS), ids=str)
    def test_table_witness_maps_pinned(self, table_results, rows):
        a, b = rows
        X, Y = table_results[a - 1][0], table_results[b - 1][0]
        mor = xmod_isomorphic(X, Y)
        maps = repr(tuple(
            sorted((p.images, v.images) for p, v in h.element_map.items())
            for h in (mor.f, mor.g)))
        assert hashlib.sha256(maps.encode()).hexdigest() == (
            self.PINNED_MAPS[rows])

    def test_gamma_witness_pinned(self):
        X = xmod_from_json(ROW6.read_text())
        mor = xmod_isomorphic(gamma(DoubleGroupoidView(X)), X)
        # the same pair as the fixture's row 6 against itself: gamma lists
        # M in the fixture's element order
        assert self.digest(mor) == self.FIXTURE_ROW6


class TestJson:
    def test_round_trip(self):
        X = v_in_s4()
        text = xmod_to_json(X)
        Y = xmod_from_json(text)
        assert validate(Y).ok
        assert xmod_isomorphic(X, Y) is not None
        # serialization is stable
        assert xmod_to_json(Y) == text

    def test_schema_keys(self):
        payload = json.loads(xmod_to_json(identity_xmod(cyclic(2))))
        assert set(payload) == {"M", "Q", "boundary", "action"}
        assert set(payload["M"]) == {"degree", "generators"}

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            xmod_from_json("not json")
        with pytest.raises(ParseError):
            xmod_from_json("{}")
        good = json.loads(xmod_to_json(v_in_s4()))
        del good["boundary"]
        with pytest.raises(ParseError):
            xmod_from_json(json.dumps(good))

    def test_non_bijection_rejected(self):
        bad = json.loads(xmod_to_json(v_in_s4()))
        bad["Q"]["generators"][0] = "(1,2)(2,3)"
        with pytest.raises(ParseError):
            xmod_from_json(json.dumps(bad))


ROW6 = Path(__file__).parent.parent / "perfbench" / "fixtures" / "row6.json"


def cm1_only():
    # C3 -> S3 by inclusion with the trivial action: d is not equivariant,
    # but C3 is abelian so CM2 holds
    M = PermGroup(3, [P("(1,2,3)", 3)])
    S3 = symmetric(3)
    ident = hom(M, M, list(M.generators))
    return CrossedModule(M, S3, hom(M, S3, list(M.generators)),
                         [ident, ident])


def cm1_and_cm2():
    S3 = symmetric(3)
    ident = hom(S3, S3, list(S3.generators))
    return CrossedModule(S3, S3, ident, [ident, ident])


class TestGeneratorProof:
    """``validate`` checks generator pairs first; it must agree with the
    raw-tuple element scan of ``support.crossed_module_witnesses``."""

    @staticmethod
    def oracle(X):
        return crossed_module_witnesses(
            X.M.degree, [m.images for m in X.M.generators],
            X.Q.degree, [q.images for q in X.Q.generators],
            [b.images for b in X.boundary.images],
            [[im.images for im in a.images] for a in X.action],
        )

    def assert_agrees(self, X):
        report = validate(X)
        cm1, cm2 = self.oracle(X)
        assert report.cm1_ok == (cm1 is None)
        assert report.cm2_ok == (cm2 is None)
        for witness, expected in ((report.cm1_witness, cm1),
                                  (report.cm2_witness, cm2)):
            got = None if witness is None else tuple(p.images for p in witness)
            assert got == expected
        return report

    def valid_modules(self):
        return [v_in_s4(), a4_in_s4(), identity_xmod(dihedral(8)),
                xmod_from_json(ROW6.read_text())]

    def test_valid_modules(self):
        for X in self.valid_modules():
            assert self.assert_agrees(X).ok

    def test_valid_modules_skip_element_scan(self, monkeypatch):
        def refuse(X):
            raise AssertionError("element scan run on a valid module")

        monkeypatch.setattr(xmod, "_element_scan", refuse)
        for X in self.valid_modules():
            assert validate(X) == xmod.ValidationReport(True, True)

    def test_cm1_only(self):
        report = self.assert_agrees(cm1_only())
        assert not report.cm1_ok and report.cm2_ok

    def test_cm2_only(self):
        report = self.assert_agrees(broken_cm2())
        assert report.cm1_ok and not report.cm2_ok

    def test_cm1_and_cm2(self):
        report = self.assert_agrees(cm1_and_cm2())
        assert not report.cm1_ok and not report.cm2_ok
