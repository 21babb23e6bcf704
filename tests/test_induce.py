"""Induction along subgroup inclusions and the bundled reference table."""

import dataclasses
import random

import pytest

from support import conjugation_closure
from xmodlab import perm
from xmodlab.errors import (
    BudgetExceeded,
    CosetLimitExceeded,
    NonInjective,
    NotInGroup,
    TableMismatch,
)
from xmodlab.fp import abelianization, todd_coxeter
from xmodlab.induce import (
    TABLE_ISO_PAIRS,
    TABLE_SUBGROUPS,
    _NAMED_GROUPS,
    coset_transversal,
    free_crossed_module_presentation,
    induce,
    induced_presentation,
    match_catalogue,
    run_table,
    run_table_full,
    small_group_name,
    table_subgroup,
    verify_table,
)
from xmodlab.perm import (
    PermGroup,
    cyclic,
    dihedral,
    direct_product,
    gl23,
    hom,
    image,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    symmetric,
)
from xmodlab.xmod import (
    identity_xmod,
    normal_inclusion_xmod,
    pi2,
    validate,
    xmod_isomorphic,
)


def P(text, degree):
    return parse_permutation(text, degree)


def include(sub_texts, degree=4):
    Q = symmetric(degree)
    H = Q.subgroup([P(t, degree) for t in sub_texts])
    return identity_xmod(H), hom(H, Q, H.generators)


class TestTransversal:
    def test_sizes(self):
        S4 = symmetric(4)
        assert len(coset_transversal(S4, S4.subgroup([P("(1,2)", 4)]))) == 12
        D8 = S4.subgroup([P("(1,2,3,4)", 4), P("(1,3)", 4)])
        assert len(coset_transversal(S4, D8)) == 3
        assert len(coset_transversal(S4, S4)) == 1

    def test_identity_comes_first(self):
        S4 = symmetric(4)
        T = coset_transversal(S4, S4.subgroup([P("(1,2,3)", 4)]))
        assert T[0].is_identity()


class TestPresentation:
    def test_generator_count(self):
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        # |M| * [Q : P] pairs
        assert ip.presentation.ngens == 2 * 12
        assert len(ip.gen_pairs) == 24
        assert ip.boundary_kills_relators()

    def test_boundary_images_formula(self):
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        for k, (m, t) in enumerate(ip.gen_pairs):
            expected = t.inverse() * iota.apply(X.boundary.apply(m)) * t
            assert ip.boundary_images[k] == expected

    def test_action_permutes_generators(self):
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        n = ip.presentation.ngens
        for q in iota.target.generators:
            images = [ip.act_gen(k, q) for k in range(n)]
            assert sorted(images) == list(range(n))

    def test_requires_injective(self):
        S3 = symmetric(3)
        C2 = cyclic(2)
        collapse = hom(S3, C2, [C2.generators[0], C2.identity])
        with pytest.raises(NonInjective):
            induced_presentation(identity_xmod(S3), collapse)

    def test_budget(self):
        S7 = symmetric(7)
        H = S7.subgroup([P("(1,2)", 7)])
        with pytest.raises(BudgetExceeded):
            induced_presentation(identity_xmod(H), hom(H, S7, H.generators))

    def test_bad_transversal_rejected(self):
        X, iota = include(["(1,2)"])
        T = coset_transversal(iota.target, iota.target.subgroup([P("(1,2)", 4)]))
        with pytest.raises(ValueError):
            induced_presentation(X, iota, transversal=T[:-1])
        with pytest.raises(ValueError):
            induced_presentation(X, iota, transversal=T[:-1] + [T[0]])

    def test_transversal_element_outside_base_rejected(self):
        # (1,2) is odd, so outside A4, but its coset of <(1,2)(3,4)> in S4
        # neither overlaps another supplied coset nor leaves the count short
        A4 = PermGroup(4, parse_generator_list("(1,2,3),(2,3,4)", 4))
        H = A4.subgroup([P("(1,2)(3,4)", 4)])
        iota = hom(H, A4, H.generators)
        T = coset_transversal(A4, image(iota))
        T[1] = P("(1,2)", 4)
        with pytest.raises(NotInGroup, match=r"\(1,2\) is not in Q"):
            induced_presentation(identity_xmod(H), iota, transversal=T)

    def test_explicit_transversal_labels_its_own_cosets(self):
        # a reversed transversal lists the same cosets in another order
        X, iota = include(["(1,2,3)"])
        T = coset_transversal(iota.target, image(iota))
        ip = induced_presentation(X, iota, transversal=T[::-1])
        assert [t for _, t in ip.gen_pairs[:len(T)]] == T[::-1]
        assert ip.boundary_kills_relators()
        X1, _ = induce(X, iota)
        X2, _ = induce(X, iota, transversal=T[::-1])
        assert xmod_isomorphic(X1, X2) is not None


class TestFreeCrossedModule:
    def test_trivial_relation_gives_free_abelian_kernel(self):
        C2 = cyclic(2)
        ip = free_crossed_module_presentation(C2, [("r", C2.identity)])
        assert ip.presentation.ngens == 2
        assert abelianization(ip.presentation) == [0, 0]
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(ip.presentation, (), 500)

    def test_generator_relation_collapses(self):
        C2 = cyclic(2)
        g = C2.generators[0]
        ip = free_crossed_module_presentation(C2, [("r", g)])
        assert abelianization(ip.presentation) == [0]
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(ip.presentation, (), 500)

    def test_boundary_images(self):
        S3 = symmetric(3)
        w = P("(1,2,3)", 3)
        ip = free_crossed_module_presentation(S3, [("r", w)])
        assert ip.presentation.ngens == 6
        for k, (label, p) in enumerate(ip.gen_pairs):
            assert ip.boundary_images[k] == p.inverse() * w * p


class TestInduce:
    def test_identity_inclusion_reproduces_input(self):
        S3 = symmetric(3)
        X = identity_xmod(S3)
        Xi, report = induce(X, hom(S3, S3, S3.generators))
        assert report.induced_order == 6
        assert xmod_isomorphic(Xi, X) is not None

    def test_identity_inclusion_of_normal_module(self):
        S4 = symmetric(4)
        V = normal_closure(S4, [P("(1,2)(3,4)", 4)])
        X = normal_inclusion_xmod(V, S4)
        Xi, _ = induce(X, hom(S4, S4, S4.generators))
        assert Xi.M.order() == 4
        assert xmod_isomorphic(Xi, X) is not None

    def test_output_is_validated(self, table_results):
        for X, _ in table_results:
            assert validate(X).ok

    def test_row_values(self, table_results):
        orders = [rep.induced_order for _, rep in table_results]
        assert orders == [48, 48, 48, 48, 96, 72, 128]
        pi2s = [list(rep.pi2_invariants) for _, rep in table_results]
        assert pi2s == [[2], [2], [2], [2], [4], [6], [2, 2, 2, 4]]
        pi1s = [rep.pi1_order for _, rep in table_results]
        assert pi1s == [1, 1, 1, 1, 1, 2, 6]

    def test_row_names(self, table_results):
        names = [rep.induced_name for _, rep in table_results]
        assert names[0] == names[1] == "GL(2,3)"
        assert names[2] == names[3] == "S4xC2"
        assert names[5] == "C3xSL(2,3)"
        assert [rep.pi1_name for _, rep in table_results] == [
            "1", "1", "1", "1", "1", "C2", "S3",
        ]

    def test_order_law_on_rows(self, table_results):
        s4 = symmetric(4)
        group = {g.images for g in s4.elements()}
        for X, rep in table_results:
            assert rep.order_law_ok
            seeds = [
                X.boundary.apply(m).images
                for m in X.M.generators
            ]
            nc = conjugation_closure(4, group, seeds)
            K, _ = pi2(X)
            assert X.M.order() == K.order() * len(nc)

    def test_transversal_choice_is_immaterial(self):
        X, iota = include(["(1,2,3)"])
        T = coset_transversal(iota.target, image(iota))
        rng = random.Random(17)
        helems = list(iota.source.elements())
        T2 = [iota.apply(rng.choice(helems)) * t for t in T]
        X1, _ = induce(X, iota)
        X2, _ = induce(X, iota, transversal=T2)
        assert xmod_isomorphic(X1, X2) is not None

    def test_report_json_fields(self, table_results):
        _, rep = table_results[0]
        d = rep.to_json_dict()
        assert list(d) == [
            "row", "subgroup", "subgroup_generators", "induced_order",
            "pi2_invariants", "pi2_order", "pi1_order", "pi1_name",
            "pi1_fingerprint", "induced_name", "induced_fingerprint",
            "boundary_image_order", "order_law_ok",
        ]
        assert d["row"] == 1
        assert d["induced_order"] == 48

    def test_report_phases(self, table_results):
        # stage timings ride on the report but stay out of its JSON, which
        # tests/test_goldens.py holds to perfbench/golden/table_verify.json
        for _, rep in table_results:
            assert list(rep.phases) == [
                "presentation", "todd_coxeter", "chain", "homs", "validate",
                "pi1_pi2", "naming",
            ]
            assert all(s >= 0 for s in rep.phases.values())
            assert sum(rep.phases.values()) == pytest.approx(rep.seconds)
            assert "phases" not in rep.to_json_dict()

    def test_coset_limit_propagates(self):
        X, iota = include(["(1,2)"])
        with pytest.raises(CosetLimitExceeded):
            induce(X, iota, max_cosets=10)


class TestTable:
    def test_subgroup_catalogue(self):
        assert len(TABLE_SUBGROUPS) == 7
        labels = [label for label, _ in TABLE_SUBGROUPS]
        assert labels[1] == "S3" and labels[5] == "C3"
        H = table_subgroup(4)
        assert H.order() == 8

    def test_single_row(self):
        results = run_table_full(rows=[6])
        assert len(results) == 1
        X, rep = results[0]
        assert rep.row == 6
        assert rep.induced_order == 72
        assert rep.induced_name == "C3xSL(2,3)"

    def test_verify_table_passes(self, table_results):
        verify_table(table_results)

    def test_verify_table_catches_tampering(self, table_results):
        doctored = list(table_results)
        X, rep = doctored[4]
        doctored[4] = (X, dataclasses.replace(rep, pi1_order=7))
        with pytest.raises(TableMismatch):
            verify_table(doctored)

    def test_iso_pairs_constant(self):
        assert TABLE_ISO_PAIRS == ((1, 2), (3, 4))

    def test_run_table_wrapper(self):
        reports = run_table(rows=[1], verify=False)
        assert reports[0].induced_name == "GL(2,3)"


class TestNaming:
    def test_small_group_names(self):
        assert small_group_name(cyclic(1)) == "1"
        assert small_group_name(cyclic(12)) == "C12"
        assert small_group_name(symmetric(3)) == "S3"
        assert small_group_name(symmetric(4)) == "S4"
        assert small_group_name(dihedral(8)) == "D8"
        assert small_group_name(direct_product(cyclic(2), cyclic(4))) == "C2xC4"
        # unrecognized nonabelian groups stay anonymous
        assert small_group_name(gl23()) is None

    def test_each_named_group_has_exactly_one_namer(self, table_results):
        for name, order, build, in_catalogue in _NAMED_GROUPS:
            G = build()
            assert G.order() == order
            expected = (None, name) if in_catalogue else (name, None)
            assert (small_group_name(G), match_catalogue(G)) == expected
        # the answers the set-up probes of the benchmark expect
        S4 = symmetric(4)
        assert (small_group_name(S4), match_catalogue(S4)) == ("S4", None)
        M6 = table_results[5][0].M
        assert (small_group_name(M6), match_catalogue(M6)) == (None, "C3xSL(2,3)")

    def test_induced_group_fingerprinted_once(self, monkeypatch):
        # naming, the report and any later isomorphism test share one
        # fingerprint per group
        computed = []
        compute = perm._compute_fingerprint

        def counting(G):
            computed.append(G)
            return compute(G)

        monkeypatch.setattr(perm, "_compute_fingerprint", counting)
        results = run_table_full(rows=[1, 6, 7])
        for Xi, report in results:
            assert sum(1 for G in computed if G is Xi.M) == 1
            assert perm.fingerprint(Xi.M) is report.induced_fingerprint
