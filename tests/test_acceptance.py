"""Acceptance suite: one test per shipped guarantee, run with pytest -v."""

import json
import os
import random
import subprocess
import sys
import time

from support import (
    conjugation_closure,
    minors_gcd_invariants,
    order_law_inclusions,
    tcompose,
    tinverse,
)
from xmodlab.fp import Presentation, parse_word, smith_normal_form, todd_coxeter
from xmodlab.induce import coset_transversal, induce, table_subgroup
from xmodlab.perm import (
    PermGroup,
    Permutation,
    cyclic,
    dihedral,
    hom,
    image,
    isomorphic,
    normal_closure,
    parse_generator_list,
    symmetric,
)
from xmodlab.squares import (
    DoubleGroupoidView,
    compose_h,
    compose_v,
    gamma,
    interchange_exhaustive,
    interchange_sampled,
)
from xmodlab.xmod import (
    CrossedModule,
    identity_xmod,
    normal_inclusion_xmod,
    validate,
    xmod_isomorphic,
)

EXPECTED_ORDERS = (48, 48, 48, 48, 96, 72, 128)
EXPECTED_PI2 = ([2], [2], [2], [2], [4], [6], [2, 2, 2, 4])
EXPECTED_PI1 = ("1", "1", "1", "1", "1", "C2", "S3")


def cli(*argv):
    env = {k: v for k, v in os.environ.items() if k != "XMODLAB_LIMIT"}
    return subprocess.run(
        [sys.executable, "-m", "xmodlab.cli", *argv],
        capture_output=True,
        env=env,
    )


# independent models of the named groups, built from 2x2 matrices over the
# field with three elements acting on the eight nonzero row vectors

_VECS = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
_VIDX = {v: i + 1 for i, v in enumerate(_VECS)}


def mat_perm(m):
    return Permutation(tuple(
        _VIDX[((a * m[0][0] + b * m[1][0]) % 3,
               (a * m[0][1] + b * m[1][1]) % 3)]
        for (a, b) in _VECS
    ))


def gl23_model():
    # shear (determinant 1) and swap (determinant 2)
    return PermGroup(8, [mat_perm(((1, 1), (0, 1))),
                         mat_perm(((0, 1), (1, 0)))])


def sl23_model():
    return PermGroup(8, [mat_perm(((1, 1), (0, 1))),
                         mat_perm(((1, 0), (1, 1)))])


def s4xc2_model():
    return PermGroup(6, parse_generator_list("(1,2),(1,2,3,4),(5,6)", 6))


def c3xsl23_model():
    ext = [Permutation(g.images + (9, 10, 11)) for g in sl23_model().generators]
    rot = Permutation(tuple(range(1, 9)) + (10, 11, 9))
    return PermGroup(11, ext + [rot])


def assert_group_iso_witness(w, A, B):
    """Re-check a claimed isomorphism on raw image tuples only."""
    emap = {p.images: w.apply(p).images for p in A.elements()}
    assert len(emap) == A.order() == B.order()
    assert set(emap.values()) == {p.images for p in B.elements()}
    elems = list(emap)
    for x in elems:
        for y in elems:
            assert emap[tcompose(x, y)] == tcompose(emap[x], emap[y])


def assert_xmod_iso_witness(mor, X, Y):
    assert_group_iso_witness(mor.f, X.M, Y.M)
    assert_group_iso_witness(mor.g, X.Q, Y.Q)
    for m in X.M.elements():
        assert mor.g.apply(X.boundary.apply(m)) == Y.boundary.apply(mor.f.apply(m))
    for q in X.Q.elements():
        gq = mor.g.apply(q)
        for m in X.M.elements():
            assert mor.f.apply(X.act(m, q)) == Y.act(mor.f.apply(m), gq)


def kernel_elements(X):
    return [m for m in X.M.elements() if X.boundary.apply(m).is_identity()]


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    proc = cli("table", "--json", "--verify")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    assert elapsed < 60.0
    rows = json.loads(proc.stdout)
    assert len(rows) == 7
    for i, row in enumerate(rows):
        assert row["row"] == i + 1
        assert row["induced_order"] == EXPECTED_ORDERS[i]
        assert row["pi2_invariants"] == EXPECTED_PI2[i]
        assert row["pi1_name"] == EXPECTED_PI1[i]


def test_criterion_02_named_group_identification(table_results):
    gl23 = gl23_model()
    s4xc2 = s4xc2_model()
    for idx in (0, 1):
        w = isomorphic(table_results[idx][0].M, gl23)
        assert w is not None
        assert_group_iso_witness(w, table_results[idx][0].M, gl23)
    for idx in (2, 3):
        w = isomorphic(table_results[idx][0].M, s4xc2)
        assert w is not None
        assert_group_iso_witness(w, table_results[idx][0].M, s4xc2)
    X6, rep6 = table_results[5]
    assert rep6.induced_order == 72
    assert rep6.induced_name == "C3xSL(2,3)"
    model = c3xsl23_model()
    w = isomorphic(X6.M, model)
    assert w is not None
    assert_group_iso_witness(w, X6.M, model)


def test_criterion_03_isomorphism_pairs(table_results):
    for a, b in ((0, 1), (2, 3)):
        Xa, Xb = table_results[a][0], table_results[b][0]
        mor = xmod_isomorphic(Xa, Xb)
        assert mor is not None
        assert_xmod_iso_witness(mor, Xa, Xb)


def test_criterion_04_axiom_suite(table_results):
    S4, S3 = symmetric(4), symmetric(3)
    V = normal_closure(S4, parse_generator_list("(1,2)(3,4)", 4))
    A4 = S4.subgroup(parse_generator_list("(1,2,3),(2,3,4)", 4))
    C3 = S3.subgroup(parse_generator_list("(1,2,3)", 3))
    modules = [
        identity_xmod(cyclic(4)),
        identity_xmod(S3),
        identity_xmod(dihedral(8)),
        identity_xmod(S4),
        normal_inclusion_xmod(V, S4),
        normal_inclusion_xmod(A4, S4),
        normal_inclusion_xmod(C3, S3),
        gamma(DoubleGroupoidView(identity_xmod(S3))),
    ] + [Xi for Xi, _ in table_results]
    for X in modules:
        assert validate(X).ok
        melems = [m.images for m in X.M.elements()]
        for k in kernel_elements(X):
            for m in melems:
                assert tcompose(k.images, m) == tcompose(m, k.images)
        dimage = {X.boundary.apply(m).images for m in X.M.elements()}
        for d in dimage:
            for q in X.Q.elements():
                qi = tinverse(q.images)
                assert tcompose(tcompose(qi, d), q.images) in dimage


def test_criterion_05_order_law(table_results):
    S4, S3 = symmetric(4), symmetric(3)
    s4_tuples = [g.images for g in S4.elements()]
    s3_tuples = [g.images for g in S3.elements()]

    def check(Q, qtuples, P, Xi, report=None):
        seeds = [p.images for p in P.generators]
        nc = (conjugation_closure(Q.degree, qtuples, seeds)
              if seeds else {tuple(range(1, Q.degree + 1))})
        pi2_order = len(kernel_elements(Xi))
        assert Xi.M.order() == pi2_order * len(nc)
        if report is not None:
            assert report.order_law_ok

    for i, (Xi, report) in enumerate(table_results):
        check(S4, s4_tuples, table_subgroup(i + 1), Xi, report)

    for Q, P in order_law_inclusions():
        qtuples = s4_tuples if Q.degree == 4 else s3_tuples
        iota = hom(P, Q, P.generators)
        Xi, _ = induce(identity_xmod(P), iota)
        check(Q, qtuples, P, Xi)


def test_criterion_06_conjugacy_and_transversal_independence(table_results):
    Q = symmetric(4)
    conjugators = {1: "(2,3)", 6: "(3,4)", 7: "(2,3)"}
    for rownum, conj_text in conjugators.items():
        X_ref = table_results[rownum - 1][0]
        g = parse_generator_list(conj_text, 4)[0]
        P = table_subgroup(rownum)
        P_conj = Q.subgroup([g.inverse() * p * g for p in P.generators])
        assert set(P_conj.elements()) != set(P.elements())
        iota = hom(P_conj, Q, P_conj.generators)
        X_conj, _ = induce(identity_xmod(P_conj), iota)
        assert xmod_isomorphic(X_ref, X_conj) is not None

    rng = random.Random(41)
    for rownum in (1, 6, 7):
        X_ref = table_results[rownum - 1][0]
        P = table_subgroup(rownum)
        iota = hom(P, Q, P.generators)
        T = coset_transversal(Q, image(iota))
        helems = list(P.elements())
        T2 = [iota.apply(rng.choice(helems)) * t for t in T]
        X_alt, _ = induce(identity_xmod(P), iota, transversal=T2)
        assert xmod_isomorphic(X_ref, X_alt) is not None


def test_criterion_07_enumeration_oracles():
    labels3 = ("a", "b", "c")
    labels2 = ("a", "b")
    cases = [
        (Presentation(3, tuple(parse_word(t, labels3) for t in (
            "a^2", "b^2", "c^2",
            "a b a b a b", "b c b c b c", "a c a c")), labels3), 24),
        (Presentation(2, tuple(parse_word(t, labels2) for t in (
            "a^2", "b^3", "a b a b a b")), labels2), 12),
        (Presentation(2, tuple(parse_word(t, labels2) for t in (
            "a^4", "a^2 b^-2", "b^-1 a b a")), labels2), 8),
    ]
    for pres, expected in cases:
        t0 = time.perf_counter()
        ct = todd_coxeter(pres)
        elapsed = time.perf_counter() - t0
        assert ct.ncosets == expected
        assert elapsed < 1.0


def test_criterion_08_snf_oracle():
    rng = random.Random(88)
    for _ in range(100):
        A = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert smith_normal_form(A) == minors_gcd_invariants(A)


def test_criterion_09_interchange_and_round_trip(table_results):
    S4, S3 = symmetric(4), symmetric(3)
    V = normal_closure(S4, parse_generator_list("(1,2)(3,4)", 4))
    A4 = S4.subgroup(parse_generator_list("(1,2,3),(2,3,4)", 4))
    C3 = S3.subgroup(parse_generator_list("(1,2,3)", 3))
    small = [
        normal_inclusion_xmod(C3, S3),
        identity_xmod(S3),
        identity_xmod(dihedral(8)),
        normal_inclusion_xmod(V, S4),
        normal_inclusion_xmod(A4, S4),
        identity_xmod(S4),
    ]
    for X in small:
        assert X.Q.order() * X.M.order() <= 576
        assert interchange_exhaustive(X) is None

    X7 = table_results[6][0]
    assert interchange_sampled(X7, 10_000, random.Random(99)) is None

    for X in (identity_xmod(S3), normal_inclusion_xmod(V, S4), X7):
        R = gamma(DoubleGroupoidView(X))
        assert xmod_isomorphic(R, X) is not None

    triv = cyclic(1)
    broken = CrossedModule(
        S3, triv, hom(S3, triv, [triv.identity, triv.identity]), []
    )
    block = interchange_exhaustive(broken)
    assert block is not None
    a, b, c, d = block
    assert (compose_v(compose_h(a, b), compose_h(c, d))
            != compose_h(compose_v(a, c), compose_v(b, d)))


def test_criterion_10_determinism():
    first = cli("table", "--json")
    second = cli("table", "--json")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
