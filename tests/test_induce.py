"""Induction along subgroup inclusions and the bundled reference table."""

import dataclasses
import importlib
import random

import pytest

from support import conjugation_closure, reference_induced_module
from xmodlab import perm
from xmodlab.errors import (
    BudgetExceeded,
    CosetLimitExceeded,
    NonInjective,
    NotInGroup,
    TableMismatch,
)
from xmodlab.fp import (
    Presentation,
    Word,
    _coset_action,
    abelianization,
    todd_coxeter,
)
from xmodlab.induce import (
    RELATOR_LETTER_BUDGET,
    TABLE_ISO_PAIRS,
    TABLE_SUBGROUPS,
    _NAMED_GROUPS,
    _cyclically_reduced,
    _schreier_relators,
    _spelt,
    _word_image,
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
    ISO_SEARCH_BOUND,
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
    CrossedModule,
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


def implied_pairs(X, iota, ip):
    """The pairs (x, y) whose Peiffer relator follows from the others: for
    x = (g, s) with d = dx, y in the largest copy of each cycle of length
    ord(g) in M of the copies under right multiplication by d, copy t going
    to the copy t' with ``t d t'^-1`` in iota(P)."""
    H = image(iota)
    nT = iota.target.order() // H.order()
    T = [t for _, t in ip.gen_pairs[:nT]]
    n = len(ip.gen_pairs)
    pairs = set()
    for x, (g, _) in enumerate(ip.gen_pairs):
        d = ip.boundary_images[x]
        to = [next(j for j, u in enumerate(T) if t * d * u.inverse() in H)
              for t in T]
        for ti in range(nT):
            cycle = [ti]
            while to[cycle[-1]] != ti:
                cycle.append(to[cycle[-1]])
            if min(cycle) == ti and len(cycle) == g.order():
                pairs.update((x, y) for y in range(max(cycle), n, nT))
    return pairs


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


def t0_copies(ip):
    """The copies T0 the presentation is on, read off its generators."""
    nT = len(ip.gen_pairs) // len({g for g, _ in ip.gen_pairs})
    return sorted({x % nT for x in ip.generators})


class TestPresentation:
    def test_generator_count(self):
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        # one pair per generator of M, (1,2), and coset of P; G is
        # presented on three of them, whose transpositions generate S4
        assert len(ip.gen_pairs) == 1 * 12
        assert ip.presentation.ngens == 3
        assert ip.boundary_kills_relators()
        # H, the copy at the coset of P, is generated by (s, 1)
        [word] = ip.subgroup_words
        [(k, e)] = word.letters
        assert e == 1
        assert ip.gen_pairs[ip.generators[k]] == (P("(1,2)", 4), P("()", 4))

    def test_generators_are_m_generators_times_t(self):
        # M = D8 with generators (1,2,3,4) and (1,3): each of the 3 copies
        # is generated by those two, though P's action also reaches
        # (1,4,3,2) and (2,4)
        X, iota = include(["(1,2,3,4)", "(1,3)"])
        ip = induced_presentation(X, iota)
        T = coset_transversal(iota.target, image(iota))
        assert list(ip.gen_pairs) == [(g, t) for g in X.M.generators
                                      for t in T]
        # D8 and one conjugate of it generate S4, which is transitive on
        # the copies: T0 is two copies
        assert len(t0_copies(ip)) == 2
        assert ip.presentation.ngens == 2 * 2

    def test_generators_skip_repeats_and_the_identity(self):
        X, iota = include(["(1,2)", "()", "(1,2)"])
        ip = induced_presentation(X, iota)
        assert {g for g, _ in ip.gen_pairs} == {P("(1,2)", 4)}
        assert len(ip.gen_pairs) == 12
        assert induce(X, iota)[1].induced_order == 48

    def test_boundary_images_formula(self):
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        for k, (m, t) in enumerate(ip.gen_pairs):
            expected = t.inverse() * iota.apply(X.boundary.apply(m)) * t
            assert ip.boundary_images[k] == expected

    def test_action_permutes_generators(self):
        # {(1,2)} is closed under P's action: each word is one letter, and
        # q permutes the generators
        X, iota = include(["(1,2)"])
        ip = induced_presentation(X, iota)
        n = len(ip.gen_pairs)
        for q in iota.target.generators:
            words = [ip.act_gen(k, q).letters for k in range(n)]
            assert all(len(w) == 1 and w[0][1] == 1 for w in words)
            assert sorted(w[0][0] for w in words) == list(range(n))

    @pytest.mark.parametrize("sub", [["(1,2)", "(1,2,3)"],
                                     ["(1,2,3,4)", "(1,3)"]], ids=str)
    def test_action_words_spell_the_image(self, sub):
        # (m, t)^q = (m^p, t') with t q = p t': the word's letters all lie in
        # copy t', and the product of their M-parts is m^p
        X, iota = include(sub)
        ip = induced_presentation(X, iota)
        Q = iota.target
        for k, (m, t) in enumerate(ip.gen_pairs):
            for q in Q.elements():
                word = ip.act_gen(k, q).letters
                pairs = [ip.gen_pairs[j] for j, e in word]
                assert all(e == 1 for _, e in word)
                (t1,) = {u for _, u in pairs}
                p = t * q * t1.inverse()
                assert p in image(iota)
                product = Q.identity
                for g, _ in pairs:
                    product = product * g
                assert product == X.act(m, p)

    def test_requires_injective(self):
        S3 = symmetric(3)
        C2 = cyclic(2)
        collapse = hom(S3, C2, [C2.generators[0], C2.identity])
        with pytest.raises(NonInjective):
            induced_presentation(identity_xmod(S3), collapse)

    def test_budget(self, monkeypatch):
        # two relations over S6: 1440 generators (r, p), and a Peiffer
        # relator of 4 letters for every pair, refused by arithmetic before
        # a word is built
        built = []
        monkeypatch.setattr(Word, "__init__", lambda *a: built.append(a))
        S6 = symmetric(6)
        with pytest.raises(BudgetExceeded) as info:
            free_crossed_module_presentation(
                S6, [("r", P("(1,2)", 6)), ("s", P("(1,2,3)", 6))])
        assert info.value.limit == RELATOR_LETTER_BUDGET == 1 << 20
        assert str(info.value).startswith(f"{4 * 1440 * 1440} relator letters")
        assert not built

    @pytest.mark.parametrize("sub", [["(1,2)", "(1,2,3)"],
                                     ["(1,2,3,4)", "(1,3)"]], ids=str)
    def test_budget_counts_the_action_words(self, monkeypatch, sub):
        # the counts checked against the budget are, first, copy t0's
        # Schreier letters and the lower bound 4 for each Peiffer pair (x, y)
        # with x in copy t0, but the most that can be left out,
        # (nT - 1) // ord(g) copies y for x = (g, t0); then T0's Schreier
        # letters and, for each pair kept with x in T0, 2 letters for x and
        # x^-1, the word of y and the word of y^(dx) with each letter spelt
        # by its word; some of those words are longer than one letter
        counted = []
        # the package exports the function ``induce``, so the module is
        # reached through importlib
        monkeypatch.setattr(importlib.import_module("xmodlab.induce"),
                            "_check_letters", counted.append)
        X, iota = include(sub)
        ip = induced_presentation(X, iota)
        schreier, _ = _schreier_relators(X.M)
        n = len(ip.gen_pairs)
        implied = implied_pairs(X, iota, ip)
        words = [ip.act_gen(y, ip.boundary_images[x]) for x in ip.generators
                 for y in range(n) if (x, y) not in implied]
        assert implied and max(len(w) for w in words) > 1
        ng = len(X.M.generators)
        nT = n // ng
        peiffer = sum(2 + len(ip.words[y]) + len(_spelt(
            ip.act_gen(y, ip.boundary_images[x]), ip.words))
            for x in ip.generators for y in range(n) if (x, y) not in implied)
        kept_at_least = ng * sum(
            nT - (nT - 1) // g.order() for g in X.M.generators)
        assert counted == [schreier + 4 * kept_at_least,
                           len(t0_copies(ip)) * schreier + peiffer]
        assert max(len(ip.words[y]) for y in range(n)) > 1

    def test_budget_of_free_crossed_modules(self):
        S7 = symmetric(7)
        with pytest.raises(BudgetExceeded) as info:
            free_crossed_module_presentation(S7, [("r", P("(1,2)", 7))])
        assert info.value.limit == RELATOR_LETTER_BUDGET

    def test_s5_in_s6_fits_the_budget(self):
        S6 = symmetric(6)
        H = S6.subgroup(parse_generator_list("(1,2,3,4,5),(1,2)", 6))
        ip = induced_presentation(identity_xmod(H), hom(H, S6, H.generators))
        # 2 generators per copy of S5, 6 copies, of which G is presented on
        # the two whose boundaries generate S6
        letters = sum(len(w) for w in ip.presentation.relators)
        assert len(ip.gen_pairs) == 12 and ip.presentation.ngens == 4
        assert letters == 4_335 < RELATOR_LETTER_BUDGET

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


def trivial_boundary():
    """C3 inverted by P = <(1,2)> <= S3, with the trivial boundary."""
    S3 = symmetric(3)
    P2 = S3.subgroup([P("(1,2)", 3)])
    M = cyclic(3)
    X = CrossedModule(M, P2, hom(M, P2, [P2.identity]),
                      [hom(M, M, [M.generators[0].inverse()])])
    return X, hom(P2, S3, P2.generators)


# the 18 classes of nontrivial subgroups of S5, (4,5) as (1,2)
S5_CLASSES = (
    "(1,2)", "(2,3)(4,5)", "(3,4,5)", "(2,3,4,5)", "(4,5),(2,3)",
    "(2,3)(4,5),(2,4)(3,5)", "(1,2,3,4,5)", "(1,2)(3,4,5)", "(4,5),(3,4)",
    "(3,4,5),(1,2)(4,5)", "(4,5),(2,4)(3,5)", "(2,3)(4,5),(1,2)(3,4)",
    "(4,5),(1,2)(3,4)", "(3,4,5),(2,3)(4,5)", "(2,3)(4,5),(1,2,3,4)",
    "(4,5),(2,3,4)", "(3,4,5),(1,2,3)", "(4,5),(1,2,3,4)",
)

IMPLIED_CASES = {
    **{f"S4 row {row}": (lambda row=row: include(TABLE_SUBGROUPS[row - 1][1]))
       for row in range(1, 8)},
    "S3 trivial boundary": trivial_boundary,
    "S5 <(1,2)>": lambda: include(["(1,2)"], 5),
    **{f"S5 {sub}": (lambda sub=sub: include(sub.replace("),(", ") (")
                                             .split(), 5))
       for sub in S5_CLASSES[1:]},
}


def copy_generator_perms(ip, subgroup_words=()):
    """Each copy generator's permutation of the cosets of the subgroup the
    ``subgroup_words`` generate: the product along its word."""
    perms = _coset_action(todd_coxeter(ip.presentation, subgroup_words))
    inverses = [p.inverse() for p in perms]
    return [_word_image(w, perms, inverses) for w in ip.words]


def copy_relators(X, ip):
    """Every copy's Schreier relators, as words over the copy generators."""
    gens = list(dict.fromkeys(
        g for g in X.M.generators if not g.is_identity()))
    _, spell = _schreier_relators(PermGroup(X.M.degree, gens))
    nT = len(ip.gen_pairs) // len(gens)
    return [Word(tuple((gi * nT + ti, e) for gi, e in word))
            for word in spell()[1] for ti in range(nT)]


class TestImpliedPeiffer:
    """G is presented on the generators of the copies T0 alone, and the
    copower relators left out of that presentation (those of the other
    copies, the Peiffer relators ``partners`` leaves out and those of the
    generators outside T0; the proofs are in ``induced_presentation`` and
    ``_with_peiffer_relators``) must hold in G.  The presentation is
    enumerated over the trivial subgroup, so G acts faithfully (regularly)
    on those cosets, and each copy generator acts by the product along its
    word.  Those permutations must satisfy every copower relator: each
    copy's Schreier relators, and the Peiffer relator of every pair (x, y)
    of copy generators.  So the copower group maps onto G, and as each
    relator of G is a consequence of the copower relators, G is the
    copower group."""

    @pytest.mark.parametrize("case", list(IMPLIED_CASES))
    def test_left_out_relators_hold(self, case):
        X, iota = IMPLIED_CASES[case]()
        ip = induced_presentation(X, iota)
        perms = copy_generator_perms(ip)
        identity = perms[0] * perms[0].inverse()
        inverses = [p.inverse() for p in perms]
        for w in copy_relators(X, ip):
            assert _word_image(w, perms, inverses) == identity
        for x, dx in enumerate(ip.boundary_images):
            for y in range(len(perms)):
                assert perms[y].conj(perms[x]) == _word_image(
                    ip.act_gen(y, dx), perms)
        _, report = induce(X, iota)
        assert identity.degree == report.induced_order
        # T0 is every copy only where the normal closure of the boundaries
        # fixes every copy: a trivial boundary, and A5 and S5, normal in S5
        eliminated = len(ip.generators) < len(perms)
        assert eliminated == (case not in {
            "S3 trivial boundary", "S5 (3,4,5),(1,2,3)", "S5 (4,5),(1,2,3,4)"})

    def test_left_out_relators_follow_the_rule(self):
        # S5/<(1,2)>: M = C2 and one generator x = (g, s) per copy, 60
        # copies.  d = dx is a transposition; it fixes the copies t with
        # t d t^-1 = (1,2), |C(d)| / 2 = 6 of them, and swaps the other 54
        # in 27 cycles of length 2 = ord(g), so 27 relators are left out
        # for each x.  G is presented on the 4 copies whose transpositions
        # generate S5: what is built is each one's relator x^2 and the
        # Peiffer relators of those 4 with every y but the 27 left out,
        # rewritten through the words, cyclically reduced, with the empty
        # ones and repeats dropped
        X, iota = include(["(1,2)"], 5)
        ip = induced_presentation(X, iota)
        implied = implied_pairs(X, iota, ip)
        n = len(ip.gen_pairs)
        assert n == 60 and len(implied) == 60 * 27
        assert len(ip.generators) == 4
        kept = {
            _cyclically_reduced(Word.of(
                ((j, -1),) + ip.words[y].letters + ((j, 1),)
                + Word(_spelt(ip.act_gen(y, ip.boundary_images[x]),
                              ip.words)).inverse().letters)).letters
            for j, x in enumerate(ip.generators) for y in range(n)
            if (x, y) not in implied}
        built = [w.letters for w in ip.presentation.relators]
        assert len(built) == len(set(built)) == 100
        assert set(built) == (kept - {()}) | {((j, 1), (j, 1))
                                              for j in range(4)}


CORE_CASES = {
    **{f"S4 row {row}": (lambda row=row: include(TABLE_SUBGROUPS[row - 1][1]))
       for row in range(1, 8)},
    "S5 <(1,2)>": lambda: include(["(1,2)"], 5),
    "S5 C5": lambda: include(["(1,2,3,4,5)"], 5),
    "S5 S4": lambda: include(["(1,2,3,4)", "(1,2)"], 5),
}


def copy_moves(ip, iota, x):
    """Where right multiplication by ``d = dx`` takes each copy: copy t to
    the copy t' with ``t d t'^-1`` in iota(P)."""
    H = image(iota)
    nT = iota.target.order() // H.order()
    T = [t for _, t in ip.gen_pairs[:nT]]
    d = ip.boundary_images[x]
    return [next(j for j, u in enumerate(T) if t * d * u.inverse() in H)
            for t in T]


def copower_presentation(X, ip):
    """The copower presentation on every copy generator: every copy's
    Schreier relators and the Peiffer relator of every pair."""
    n = len(ip.gen_pairs)
    relators = copy_relators(X, ip) + [
        Word.of(((x, -1), (y, 1), (x, 1))
                + ip.act_gen(y, dx).inverse().letters)
        for x, dx in enumerate(ip.boundary_images) for y in range(n)]
    return Presentation(n, tuple(w for w in relators if w.letters))


class TestCore:
    """G is presented on the generators S of a few copies T0: T0 starts
    with the copy of iota(P), takes each copy with a boundary outside the
    group T0's boundaries generate so far, then one copy of each orbit of
    that group on the copies that T0 does not meet yet; the proof is in
    ``induced_presentation``."""

    @pytest.mark.parametrize("case", list(CORE_CASES))
    def test_core_orbits_meet_its_copies(self, case):
        X, iota = CORE_CASES[case]()
        ip = induced_presentation(X, iota)
        n = len(ip.gen_pairs)
        nT = iota.target.order() // image(iota).order()
        copies = t0_copies(ip)
        S = list(ip.generators)
        # every generator of T0's copies, and only those, one letter each
        assert S == [x for x in range(n) if x % nT in copies]
        assert [ip.words[x].letters for x in S] == [
            ((j, 1),) for j in range(len(S))]
        t0 = next(ti for ti, (_, t) in enumerate(ip.gen_pairs[:nT])
                  if t in image(iota))
        assert t0 in copies
        # T0's boundaries generate the normal closure of iota(dM)
        Q = iota.target
        D = Q.subgroup([ip.boundary_images[x] for x in S])
        assert D.order() == normal_closure(Q, ip.boundary_images).order()
        moves = [copy_moves(ip, iota, x) for x in S]
        seen, stack = set(copies), list(copies)
        while stack:
            t = stack.pop()
            for move in moves:
                if move[t] not in seen:
                    seen.add(move[t])
                    stack.append(move[t])
        assert seen == set(range(nT))
        # the presentation is on fewer generators unless T0 is every copy
        assert (len(S) < n) == (len(copies) < nT)

    @pytest.mark.parametrize("case", list(CORE_CASES))
    def test_core_alone_presents_g(self, case):
        # The presentation on S presents a group G'.  Its relators hold in
        # G, the copower group, and S generates G, so G' maps onto G, and
        # H' (generated by copy t0's generators) onto H.  H' is a quotient
        # of M, by copy t0's relators, and H is isomorphic to M as the
        # boundary is injective (``induce``), so |H'| <= |H|.  Equal
        # indices, the one over H read off the copower presentation, then
        # give |G'| <= |G|, so the map G' -> G is an isomorphism.
        X, iota = CORE_CASES[case]()
        ip = induced_presentation(X, iota)
        nT = iota.target.order() // image(iota).order()
        t0 = next(ti for ti, (_, t) in enumerate(ip.gen_pairs[:nT])
                  if t in image(iota))
        full = todd_coxeter(copower_presentation(X, ip), [
            Word(((k, 1),)) for k in range(t0, len(ip.gen_pairs), nT)])
        got = todd_coxeter(ip.presentation, ip.subgroup_words)
        assert got.ncosets == full.ncosets


# the classes of S5 whose |M| (1080, 960, 3000, 720 and 540) is above the
# isomorphism search bound
BEYOND_SEARCH = {"S5 (3,4,5)", "S5 (2,3)(4,5),(2,4)(3,5)", "S5 (1,2,3,4,5)",
                 "S5 (1,2)(3,4,5)", "S5 (3,4,5),(2,3)(4,5)"}


class TestElimination:
    """The module read off the presentation on T0's generators against
    ``support.reference_induced_module``, every element of M in every copy
    enumerated over the trivial subgroup: isomorphic, with a witness, on
    the S4 rows, the trivial-boundary S3 module and the classes of S5
    whose |M| the isomorphism search takes."""

    @pytest.mark.parametrize(
        "case", [c for c in IMPLIED_CASES if c not in BEYOND_SEARCH])
    def test_isomorphic_to_reference(self, case):
        X, iota = IMPLIED_CASES[case]()
        Xi, _ = induce(X, iota)
        assert Xi.M.order() <= ISO_SEARCH_BOUND
        reference = reference_induced_module(X, iota)
        assert xmod_isomorphic(reference, Xi) is not None


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

    def test_two_relations_act_within_their_blocks(self):
        # (r, p)^q = (r, pq): the image of each generator under each q is
        # one generator of the same relation's block of |P|, and its
        # boundary is q^-1 d(r, p) q, as CM1 asks; 12 generators, at most
        # 4·12² = 576 relator letters, far under the budget
        S3 = symmetric(3)
        ip = free_crossed_module_presentation(
            S3, [("r", P("(1,2)", 3)), ("s", P("(1,2,3)", 3))])
        n, nP = ip.presentation.ngens, S3.order()
        assert n == 12
        assert sum(map(len, ip.presentation.relators)) <= 4 * n * n
        for k in range(n):
            for q in S3.elements():
                (j, e), = ip.act_gen(k, q).letters
                assert e == 1 and j // nP == k // nP
                assert ip.boundary_images[j] == (
                    q.inverse() * ip.boundary_images[k] * q)


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

    def test_verify_table_reports_every_deviation(self, table_results,
                                                  monkeypatch):
        # row 5 checked against row 6's values, row 7's order law broken
        # and rows 1 and 5 paired: one report for each deviation, in the
        # order the checks run
        module = importlib.import_module("xmodlab.induce")
        expected = list(module.TABLE_EXPECTED)
        expected[4] = expected[5]
        monkeypatch.setattr(module, "TABLE_EXPECTED", tuple(expected))
        monkeypatch.setattr(module, "TABLE_ISO_PAIRS", ((1, 5),))
        doctored = list(table_results)
        X, rep = doctored[6]
        doctored[6] = (X, dataclasses.replace(rep, order_law_ok=False))
        with pytest.raises(TableMismatch) as e:
            verify_table(doctored)
        assert str(e.value) == "; ".join([
            "row 5: induced order 96, expected 72",
            "row 5: pi2 invariants (4,), expected (6,)",
            "row 5: pi1 1, expected C2",
            "row 5: pi1 order 1, expected 2",
            "row 7: order law broken",
            "rows 1 and 5 are not isomorphic",
        ])

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
