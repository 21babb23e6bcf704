"""The one enumeration rule of ``induce`` against the module first presented:
M is read off the cosets of K, the copy of a subgroup L of M on which the
boundary is injective, with Q's points adjoined when the cosets of K fall
short.  ``Report.stats["subgroup_order"]`` is ``|L|``: ``|M|`` for an
injective boundary (K is H, the copy of M at the identity coset), 1 for a
trivial one (G acts regularly), and in between for the second steps of
two-step induction.

``support.reference_induced_module`` builds the induced module the way it
was first built: every element of M in every copy, enumerated over the
trivial subgroup, on a full Schreier-Sims chain.  Where ``|M| <= 512``
(the isomorphism search bound) the module ``induce`` returns must be
isomorphic to it as a crossed module.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    conjugation_closure,
    order_law_inclusions,
    reference_induced_module,
    tcompose,
)
from xmodlab.errors import ValidationFailed
from xmodlab.fp import _coset_action, todd_coxeter
from xmodlab.induce import (
    TABLE_SUBGROUPS,
    _injective_generators,
    _word_image,
    coset_transversal,
    induce,
    induced_presentation,
    small_group_name,
    table_subgroup,
)
from xmodlab.perm import (
    ISO_SEARCH_BOUND,
    PermGroup,
    _sifted,
    abelian_invariants,
    cyclic,
    hom,
    image,
    parse_generator_list,
    symmetric,
)
from xmodlab.xmod import (
    CrossedModule,
    identity_xmod,
    pi1,
    pi2,
    validate,
    xmod_isomorphic,
)

S5 = "(1,2,3,4,5),(1,2)"


def assert_matches_oracle(P, Q, transversal=None):
    """Induce ``identity_xmod(P)`` along P <= Q; where |M| fits the search
    bound, the result is isomorphic to the reference module.  Returns the
    report."""
    X, iota = identity_xmod(P), hom(P, Q, P.generators)
    Xi, report = induce(X, iota, transversal=transversal)
    assert validate(Xi).ok
    if Xi.M.order() <= ISO_SEARCH_BOUND:
        reference = reference_induced_module(X, iota, transversal)
        assert reference.M.order() == Xi.M.order()
        assert xmod_isomorphic(Xi, reference) is not None
    return report


class TestAgainstOracle:
    @pytest.mark.parametrize("row", range(1, 8))
    def test_table_rows(self, table_results, row):
        Xi, report = table_results[row - 1]
        P = table_subgroup(row)
        assert report.stats["subgroup_order"] == P.order()
        X, iota = identity_xmod(P), hom(P, symmetric(4), P.generators)
        assert xmod_isomorphic(Xi, reference_induced_module(X, iota))

    @pytest.mark.parametrize("case", range(20))
    def test_order_law_instances(self, case):
        Q, P = order_law_inclusions()[case]
        assert_matches_oracle(P, Q)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_subgroups_and_transversals(self, data):
        # S4, with P generated by one or two random elements
        Q = symmetric(4)
        P = Q.subgroup([data.draw(st.sampled_from(Q.elements()))
                        for _ in range(data.draw(st.integers(1, 2)))])
        assert_matches_oracle(P, Q, random_transversal(data, Q, P))

    @settings(max_examples=5, deadline=None)
    @given(st.data())
    def test_random_s5_transpositions(self, data):
        # S5 only for the subgroups generated by a transposition, whose
        # reference enumeration finishes in about a second: a fixed number
        # of examples, so the test takes the same time from run to run
        Q = PermGroup(5, parse_generator_list(S5, 5))
        transpositions = [g for g in Q.elements()
                          if len(g.moved_points()) == 2]
        P = Q.subgroup([data.draw(st.sampled_from(transpositions))])
        assert_matches_oracle(P, Q, random_transversal(data, Q, P))


def random_transversal(data, Q, P):
    """Right coset representatives of P in Q, each moved within its coset
    by an element of P, in a drawn order."""
    T = [data.draw(st.sampled_from(P.elements())) * t
         for t in coset_transversal(Q, P)]
    return data.draw(st.permutations(T))


class TestFallback:
    def test_p_equal_to_q_gives_back_m(self):
        # H is all of G: one coset, so the chain over the cosets stops
        # short of |M| and M acts on S4's 4 points as well
        S4 = symmetric(4)
        X = identity_xmod(S4)
        Xi, report = induce(X, hom(S4, S4, S4.generators))
        assert report.stats["subgroup_order"] == 24
        assert report.stats["degree"] == Xi.M.degree == 5
        assert Xi.M.order() == 24
        assert xmod_isomorphic(Xi, X) is not None

    @pytest.mark.parametrize("m", ["C3", "C2xC2"])
    def test_trivial_boundary_gives_a_direct_sum(self, m):
        # Closed form: with d trivial the Peiffer relators read
        # x^-1 y x = y, so G is abelian, and each copy of M is a quotient
        # of M; so G is a quotient of the direct sum of the [Q:P] copies.
        # That direct sum, with trivial boundary and Q permuting the copies
        # as it permutes the cosets, is itself a crossed module receiving
        # M at the identity coset, so the universal property of the
        # induced module gives the map back: G is the direct sum (the
        # induced module of a Q-module, Brown-Higgins-Sivera, *Nonabelian
        # Algebraic Topology*).  The boundary is injective on no nontrivial
        # subgroup, so L = 1 and G acts regularly on its cosets.
        X, iota = trivial_boundary_module(m)
        M = X.M
        Xi, report = induce(X, iota)
        assert report.stats["subgroup_order"] == 1
        assert report.stats["degree"] == M.order() ** 3
        assert Xi.M.order() == M.order() ** 3
        assert abelian_invariants(Xi.M) == sorted(abelian_invariants(M) * 3)
        assert image(Xi.boundary).order() == 1

    @pytest.mark.parametrize("m, reached, bound",
                             [("C3", 9, 27), ("C2xC2", 16, 64)])
    def test_bound_not_reached_is_refused(self, monkeypatch, m, reached,
                                          bound):
        # a mutant L that keeps every generator although d is trivial: its
        # copy K is normal, as G is abelian, so it fixes every coset, and
        # d_G is trivial, so it fixes Q's points: the joint chain stops at
        # [G:K], short of the bound [G:K]·|M|
        module = importlib.import_module("xmodlab.induce")
        monkeypatch.setattr(module, "_injective_generators",
                            lambda X: (list(range(len(X.M.generators))),
                                       X.M.order()))
        X, iota = trivial_boundary_module(m)
        with pytest.raises(ValidationFailed,
                           match=f"M reaches {reached} < bound {bound}$"):
            induce(X, iota)


def trivial_boundary_module(m):
    """M = C3, inverted by the generator of P = <(1,2)> <= S3, or
    M = C2 x C2, its factors swapped by it, with the trivial boundary; and
    the inclusion of P in S3, with [S3:P] = 3 copies."""
    S3 = symmetric(3)
    P = S3.subgroup(parse_generator_list("(1,2)", 3))
    if m == "C3":
        M = cyclic(3)
        auto = [M.generators[0].inverse()]
    else:
        M = PermGroup(4, parse_generator_list("(1,2),(3,4)", 4))
        auto = [M.generators[1], M.generators[0]]
    X = CrossedModule(M, P, hom(M, P, [P.identity] * len(M.generators)),
                      [hom(M, M, auto)])
    assert validate(X).ok
    return X, hom(P, S3, P.generators)


def test_s5_c5_pinned():
    # the job refused at 65536 cosets by the enumeration over the trivial
    # subgroup, now |M| = 3000 on the 600 cosets of H
    Q = PermGroup(5, parse_generator_list(S5, 5))
    P = Q.subgroup(parse_generator_list("(1,2,3,4,5)", 5))
    Xi, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert report.stats["subgroup_order"] == 5
    assert (report.induced_order, list(report.pi2_invariants),
            report.pi1_name) == (3000, [5, 10], "C2")
    assert Xi.M.degree == 600
    # independent checks: the axioms, the order law on raw tuples, and
    # pi2 central
    assert validate(Xi).ok
    K, _ = pi2(Xi)
    closure = conjugation_closure(
        5, [q.images for q in Q.elements()], [p.images for p in P.generators])
    assert Xi.M.order() == K.order() * len(closure) == 50 * 60
    for k in K.generators:
        for m in Xi.M.generators:
            assert tcompose(k.images, m.images) == tcompose(m.images, k.images)


def test_s5_in_s6_finishes():
    # refused by the enumeration over the trivial subgroup (720 generators,
    # 603 366 relators); over H there are 6 cosets
    S6 = symmetric(6)
    P = S6.subgroup(parse_generator_list(S5, 6))
    Xi, report = induce(identity_xmod(P), hom(P, S6, P.generators))
    assert report.stats["subgroup_order"] == 120
    assert Xi.M.order() == 720 and Xi.M.degree == 6
    assert report.order_law_ok
    assert report.pi2_invariants == () and report.pi1_order == 1


# (P <= S5, |M|, pi2 invariants, |pi1|, |L|) for the classes whose
# presentation changed when each copy of M came to be generated by M's own
# generators rather than by the elements P's action reaches from them;
# measured before that change.  A5 and S5 (one coset of H each) went from
# the enumeration over the trivial subgroup to the one over H when M came
# to be read off the joint action on S5's points and the cosets of H,
# after a witness to the regular module.  |L| is |P|: the boundary of the
# identity module is injective, so M is read over H
S5_CLASSES = (
    ("(1,2,3,4),(1,2)", 120, [], 1, 24),
    ("(1,2,3),(1,2)", 240, [2], 1, 6),
    ("(1,2,3,4),(1,3)", 240, [2], 1, 8),
    ("(1,2,3),(1,2),(4,5)", 240, [2], 1, 12),
    ("(1,2,3),(1,2)(4,5)", 480, [2, 4], 2, 6),
    ("(1,2,3,4,5),(2,5)(3,4)", 480, [2, 4], 2, 10),
    ("(1,2,3,4,5),(2,3,5,4)", 480, [4], 1, 20),
    ("(1,2,3),(2,3,4)", 540, [3, 3], 2, 12),
    ("(1,2,3),(3,4,5)", 60, [], 2, 60),
    ("(1,2,3,4,5),(1,2)", 120, [], 1, 120),
)


@pytest.mark.parametrize("sub, order, invariants, pi1_order, subgroup_order",
                         S5_CLASSES, ids=[row[0] for row in S5_CLASSES])
def test_s5_classes_pinned(sub, order, invariants, pi1_order,
                           subgroup_order):
    Q = PermGroup(5, parse_generator_list(S5, 5))
    P = Q.subgroup(parse_generator_list(sub, 5))
    assert P.order() == subgroup_order
    Xi, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert (report.induced_order, list(report.pi2_invariants),
            report.pi1_order, report.stats["subgroup_order"]) == (
        order, invariants, pi1_order, subgroup_order)
    assert validate(Xi).ok
    # the order law on raw tuples: |M| = |pi2| * |the normal closure of P|
    K, _ = pi2(Xi)
    closure = conjugation_closure(
        5, [q.images for q in Q.elements()], [p.images for p in P.generators])
    assert report.order_law_ok and order == K.order() * len(closure)


@pytest.mark.parametrize("sub", ["(1,2),(1,2,3)", "(1,2,3,4),(1,3)"])
def test_action_that_ignores_p_is_refused(monkeypatch, sub):
    # a mutant of the action words: (g, t)^q spelled as g in copy t', as if
    # p acted trivially on M.  S3 and D8 are not abelian, so some Peiffer
    # relator then fails in the base group
    Q = symmetric(4)
    P = Q.subgroup(parse_generator_list(sub, 4))
    X = identity_xmod(P)
    unmoved = tuple(range(P.order()))
    monkeypatch.setattr(X, "act_array", lambda p: unmoved)
    with pytest.raises(ValidationFailed, match="does not kill a relator"):
        induce(X, hom(P, Q, P.generators))


def triple(X):
    """(|M|, pi2 invariants, the name of pi1) of a crossed module."""
    _, invariants = pi2(X)
    return X.M.order(), tuple(invariants), small_group_name(pi1(X))


# (name, P, n) for P <= Q = S_n whose cosets of H fall short of [G:H]·|M|,
# as core_G(H) != 1
JOINT_CASES = (
    ("S3", "(1,2,3),(1,2)", 3),
    ("S4", "(1,2,3,4),(1,2)", 4),
    ("S5", S5, 5),
    ("A4 <= S4", "(1,2,3),(2,3,4)", 4),
    ("A5 <= S5", "(1,2,3),(3,4,5)", 5),
)


class TestJointAction:
    @pytest.mark.parametrize("name, sub, n", JOINT_CASES,
                             ids=[c[0] for c in JOINT_CASES])
    def test_against_reference(self, name, sub, n):
        Q = symmetric(n)
        self.check(Q, Q.subgroup(parse_generator_list(sub, n)))

    def test_klein_two_in_c2_x_c2(self):
        # Q = <(1,2),(3,4)> is abelian, so H is normal in G
        Q = PermGroup(4, parse_generator_list("(1,2),(3,4)", 4))
        self.check(Q, Q.subgroup(parse_generator_list("(1,2)", 4)))

    @staticmethod
    def check(Q, P):
        # the chain over the cosets of H falls short, so M acts on Q's
        # points too; the reference reads it as a regular group
        X, iota = identity_xmod(P), hom(P, Q, P.generators)
        Xi, report = induce(X, iota)
        assert report.stats["subgroup_order"] == P.order()
        assert Xi.M.degree == Q.degree + report.stats["ncosets"]
        reference = reference_induced_module(X, iota)
        assert triple(Xi) == triple(reference)
        assert xmod_isomorphic(reference, Xi) is not None

    def test_normal_klein_four_in_s4(self, monkeypatch):
        # M of order 4096 on S4's 4 points and the 1024 cosets of H, read
        # off the one coset table: Todd-Coxeter runs once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return todd_coxeter(*args, **kwargs)

        # ``xmodlab.induce`` is the function; the module is read by name
        module = importlib.import_module("xmodlab.induce")
        monkeypatch.setattr(module, "todd_coxeter", counted)
        Q = symmetric(4)
        P = Q.subgroup(parse_generator_list("(1,2)(3,4),(1,3)(2,4)", 4))
        Xi, report = induce(identity_xmod(P), hom(P, Q, P.generators))
        assert len(calls) == 1 and calls[0]  # over H, not the trivial one
        assert (report.induced_order, report.pi2_invariants,
                report.pi1_name) == (4096, (2,) * 10, "S3")
        assert Xi.M.degree == 1028
        assert validate(Xi).ok
        K, _ = pi2(Xi)
        closure = conjugation_closure(
            4, [q.images for q in Q.elements()],
            [p.images for p in P.generators])
        assert report.order_law_ok
        assert Xi.M.order() == K.order() * len(closure) == 1024 * 4


def identity_inclusion(n, sub):
    """``identity_xmod(P)`` and the inclusion of P = <sub> in S_n."""
    Q = symmetric(n)
    P = Q.subgroup(parse_generator_list(sub, n))
    return identity_xmod(P), hom(P, Q, P.generators)


# one representative of each class of nontrivial subgroups of S5
S5_SUBGROUP_CLASSES = (
    "(1,2)", "(1,2)(3,4)", "(1,2,3)", "(1,2,3,4)", "(1,2),(3,4)",
    "(1,2)(3,4),(1,3)(2,4)", "(1,2,3,4,5)", "(1,2,3)(4,5)",
    "(1,2,3),(1,2)", "(1,2,3),(1,2)(4,5)", "(1,2,3,4),(1,3)",
    "(1,2,3,4,5),(2,5)(3,4)", "(1,2,3),(1,2),(4,5)", "(1,2,3),(2,3,4)",
    "(1,2,3,4,5),(2,3,5,4)", "(1,2,3,4),(1,2)", "(1,2,3),(3,4,5)", S5,
)

# (id, n, P) for the identity module of P <= S_n, or (m, None, None) for
# the trivial-boundary module ``trivial_boundary_module(m)``: the seven S4
# rows, the normal V4 of S4, P = Q = S4, the two trivial boundaries and
# the classes of S5
ONE_SIFT_CASES = (
    *[(f"row {r}", 4, ",".join(gens))
      for r, (_, gens) in enumerate(TABLE_SUBGROUPS, 1)],
    ("V4 <= S4", 4, "(1,2)(3,4),(1,3)(2,4)"),
    ("S4 <= S4", 4, "(1,2),(1,2,3,4)"),
    ("C3", None, None),
    ("C2xC2", None, None),
    *[(f"{sub} <= S5", 5, sub) for sub in S5_SUBGROUP_CLASSES],
)


class TestOneSift:
    """M is built by one sift of the coset permutations of S, the
    generators G is presented on, after the permutations of K's
    generators have chosen between the cosets and the joint action; the
    presentation has chosen T0 by one sift of the copies' boundaries."""

    @pytest.mark.parametrize("case, n, sub", ONE_SIFT_CASES,
                             ids=[c[0] for c in ONE_SIFT_CASES])
    def test_faithfulness_check_agrees_with_the_sift(self, monkeypatch,
                                                     case, n, sub):
        X, iota = (trivial_boundary_module(case) if n is None
                   else identity_inclusion(n, sub))
        calls = []

        def spied(degree, candidates, *args, **kwargs):
            candidates = list(candidates)
            calls.append((degree, len(candidates), kwargs.get("order")))
            return _sifted(degree, candidates, *args, **kwargs)

        module = importlib.import_module("xmodlab.induce")
        monkeypatch.setattr(module, "_sifted", spied)
        Xi, report = induce(X, iota)
        induced = list(calls)
        ncosets = report.stats["ncosets"]
        order = report.stats["subgroup_order"]
        bound = ncosets * order
        ip = induced_presentation(X, iota)
        kept, _ = _injective_generators(X)
        Q = iota.target
        nT = Q.order() // iota.source.order()
        ng = len(ip.gen_pairs) // nT
        # T0's boundaries, copy t0's first, with no bound; then K's
        # generators against |L|, then S's, once, against the bound
        assert induced == [(Q.degree, ng * (nT + 1), None),
                           (ncosets, len(kept), order),
                           (Xi.M.degree, len(ip.generators), bound)]
        # the sift the check replaced: S's permutations of the cosets of K
        # with no bound, which reach [G:K]·|L| exactly when the action on
        # the cosets is faithful
        ct = todd_coxeter(ip.presentation,
                          [ip.subgroup_words[i] for i in kept])
        perms = _coset_action(ct)
        assert all(len(ip.subgroup_words[i]) == 1 for i in kept)
        k_image = _sifted(ncosets, [perms[ip.subgroup_words[i].letters[0][0]]
                                    for i in kept])
        short = _sifted(ncosets, perms).order() < bound
        assert (k_image.order() < order) == short
        assert Xi.M.degree == ncosets + (iota.target.degree if short else 0)
        assert Xi.M.order() == bound

    @pytest.mark.parametrize("sub, products",
                             [("(1,2)", 8), ("(1,2,3,4,5)", 4)])
    def test_only_action_entries_are_multiplied_out(self, monkeypatch, sub,
                                                    products):
        # the coset permutations of S alone are read off the table, so a
        # word over them is multiplied out only for an action entry: one
        # per kept generator and generator of Q
        words = []

        def spied(word, *args):
            words.append(word)
            return _word_image(word, *args)

        module = importlib.import_module("xmodlab.induce")
        monkeypatch.setattr(module, "_word_image", spied)
        X, iota = identity_inclusion(5, sub)
        Xi, _ = induce(X, iota)
        assert len(words) == products == (
            len(Xi.M.generators) * len(iota.target.generators))


# the reference module's generators up to which the two-step oracle builds
# it: its enumeration takes about 1.7 s at 120 generators (the normal V4 of
# S5 over <(1,2)(3,4)>) and 7.6 s at 240 (D8 over C4)
REFERENCE_GENERATORS = 120

# (n, P, R, |L|) for P <= R <= S_n.  The second step's boundary is not
# injective when the first step's pi2 != 1, and |L| is then below the
# first step's |M|
TWO_STEP_CHAINS = (
    (4, "(1,2)", "(1,2),(3,4)", 2),
    (4, "(1,2)", "(1,2),(1,2,3)", 6),
    (4, "(1,2,3,4)", "(1,2,3,4),(1,3)", 4),
    (4, "(1,2)(3,4)", "(1,2,3,4),(1,3)", 2),
    (4, "(1,2,3)", "(1,2,3),(2,3,4)", 3),
    (4, "(1,2)(3,4)", "(1,2)(3,4),(1,3)(2,4)", 2),
    (5, "(1,2)", "(1,2),(3,4)", 2),
    (5, "(1,2,3)", "(1,2,3),(1,2)", 3),
    (5, "(1,2,3,4)", "(1,2,3,4),(1,3)", 4),
    (5, "(1,2,3)", "(1,2,3),(2,3,4)", 3),
    (5, "(1,2)(3,4)", "(1,2)(3,4),(1,3)(2,4)", 2),
    (5, "(1,2,3,4,5)", "(1,2,3,4,5),(2,3,5,4)", 5),
)


@pytest.mark.parametrize(
    "n, p, r, subgroup_order", TWO_STEP_CHAINS,
    ids=[f"{p} <= {r}" + ("" if n == 4 else f" <= S{n}")
         for n, p, r, _ in TWO_STEP_CHAINS])
def test_induction_in_two_steps(n, p, r, subgroup_order):
    # Induction along iota is left adjoint to pulling crossed modules back
    # along iota (Brown-Wensley, *On finite induced crossed modules, and
    # the homotopy 2-type of mapping cones*).  Pulling back along
    # P <= R <= Q is pulling back to R, then to P, and left adjoints of
    # composite functors compose, so inducing to R and then to Q gives the
    # module induced along P <= Q, up to isomorphism.
    Q = symmetric(n)
    R = Q.subgroup(parse_generator_list(r, n))
    P = R.subgroup(parse_generator_list(p, n))
    X = identity_xmod(P)
    one_step, _ = induce(X, hom(P, Q, P.generators))
    first, _ = induce(X, hom(P, R, P.generators))
    iota = hom(R, Q, R.generators)
    two_steps, report = induce(first, iota)
    assert report.stats["subgroup_order"] == subgroup_order
    assert validate(two_steps).ok
    assert triple(two_steps) == triple(one_step)
    if one_step.M.order() <= ISO_SEARCH_BOUND:
        assert xmod_isomorphic(two_steps, one_step) is not None
        # the reference has a generator for every element of every copy
        if first.M.order() * Q.order() // R.order() <= REFERENCE_GENERATORS:
            reference = reference_induced_module(first, iota)
            assert xmod_isomorphic(two_steps, reference) is not None
