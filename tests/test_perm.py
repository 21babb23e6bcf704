"""Permutation groups: arithmetic, stabilizer chains, homs, invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    abelian_order_census,
    closure,
    closure_from,
    conjugation_closure,
    parity,
    random_groups,
    reference_parse_generator_list,
    reference_parse_permutation,
    tcompose,
    tidentity,
    tinverse,
    torder,
)
from xmodlab import perm
from xmodlab.errors import (
    DegreeMismatch,
    EnumerationBoundExceeded,
    NonAbelian,
    NonNormal,
    NotInGroup,
    ParseError,
    RelationViolated,
    SearchBoundExceeded,
)
from xmodlab.perm import (
    Fingerprint,
    PermGroup,
    Permutation,
    _closure,
    abelian_invariants,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    fingerprint,
    gl23,
    hom,
    identity_hom,
    image,
    isomorphic,
    kernel,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    quotient,
    right_coset_representatives,
    sl23,
    symmetric,
)


def P(text, degree):
    return parse_permutation(text, degree)


perm_strategy = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)

# text near cycle notation: raw characters, or whole cycles and separators
# run together, so that well-formed lists turn up as often as broken ones
cycle_texts = st.one_of(
    st.text(alphabet="(),0123456789 x\t\n", max_size=20),
    st.lists(st.sampled_from([
        "(", ")", ",", " ", "x", "1", "2", "3", "7", "(1,2)", "(3, 4,5)",
        "()", " , ", "(6)",
    ]), max_size=8).map("".join),
)


class TestPermutation:
    def test_composition_is_left_to_right(self):
        # apply (1,2) first, then (1,3): 1 -> 2 -> 2, 2 -> 1 -> 3, 3 -> 3 -> 1
        assert P("(1,2)", 3) * P("(1,3)", 3) == P("(1,2,3)", 3)

    def test_apply_matches_tuple_composition(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = list(range(1, n + 1))
            b = list(range(1, n + 1))
            rng.shuffle(a)
            rng.shuffle(b)
            pa, pb = Permutation(a), Permutation(b)
            assert (pa * pb).images == tcompose(tuple(a), tuple(b))

    def test_inverse(self):
        g = P("(1,2,3)(4,5)", 5)
        assert (g * g.inverse()).is_identity()
        assert g.inverse().images == tinverse(g.images)

    def test_conjugation_convention(self):
        p, q = P("(1,2)", 4), P("(2,3,4)", 4)
        assert p.conj(q) == q.inverse() * p * q
        assert p.conj(q) == P("(1,3)", 4)

    def test_order(self):
        assert P("(1,2,3)(4,5)", 5).order() == 6
        assert Permutation.identity(3).order() == 1
        rng = random.Random(1)
        for _ in range(30):
            imgs = list(range(1, 8))
            rng.shuffle(imgs)
            g = Permutation(imgs)
            assert g.order() == torder(g.images)

    def test_pow(self):
        g = P("(1,2,3,4,5)", 5)
        assert g ** 5 == Permutation.identity(5)
        assert g ** -1 == g.inverse()
        assert g ** 7 == g * g

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_trusted_products_match_tuple_oracle(self, data):
        # products, inverses and powers skip the bijection check, so their
        # images are compared with the raw-tuple oracle and checked here
        n = data.draw(st.integers(1, 9))
        a, b = (
            tuple(data.draw(st.permutations(list(range(1, n + 1)))))
            for _ in range(2)
        )
        k = data.draw(st.integers(-12, 12))
        pa, pb = Permutation(a), Permutation(b)
        power = tidentity(n)
        for _ in range(abs(k)):
            power = tcompose(power, a if k >= 0 else tinverse(a))
        cases = [
            (pa * pb, tcompose(a, b)),
            (pa.inverse(), tinverse(a)),
            (pa ** k, power),
            (pa.conj(pb), tcompose(tcompose(tinverse(b), a), b)),
            (Permutation.identity(n), tidentity(n)),
        ]
        for p, expected in cases:
            assert p.images == expected
            assert sorted(p.images) == list(range(1, n + 1))
            assert p.is_identity() == (expected == tidentity(n))
            assert p == Permutation(expected)
            assert hash(p) == hash(Permutation(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gathered_products_match_tuple_oracle(self, data):
        # products are gathered in C (``perm._gather``): equal to the tuple
        # oracle and to plain indexing at every degree, and a product of two
        # degrees is still refused
        n = data.draw(st.integers(1, 8))
        a, b = (
            tuple(data.draw(st.permutations(list(range(1, n + 1)))))
            for _ in range(2)
        )
        assert (Permutation(a) * Permutation(b)).images == tcompose(a, b)
        indices = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
        gathered = perm._gather(indices, b)
        assert type(gathered) is tuple
        assert gathered == tuple([b[i] for i in indices])
        m = data.draw(st.integers(1, 8).filter(lambda m: m != n))
        with pytest.raises(DegreeMismatch):
            Permutation(a) * Permutation.identity(m)

    def test_gather_edge_cases(self):
        # itemgetter refuses no index and returns one index's value bare
        assert perm._gather((), (5, 6)) == ()
        assert perm._gather([], ()) == ()
        assert perm._gather((1,), (5, 6)) == (6,)
        assert perm._gather([0], [7]) == (7,)
        assert perm._gather((1, 1, 0), (5, 6)) == (6, 6, 5)
        one = Permutation.identity(1)
        assert (one * one).images == (1,) == tcompose((1,), (1,))
        with pytest.raises(DegreeMismatch):
            one * Permutation.identity(2)
        with pytest.raises(DegreeMismatch):
            Permutation.identity(2) * one

    def test_raw_images_still_checked(self):
        for bad in [(1, 1), (2, 3), (0, 1), (1, 2, 2), ()]:
            with pytest.raises(ValueError):
                Permutation(bad)
        with pytest.raises(ValueError):
            Permutation.identity(0)
        with pytest.raises(ParseError):
            parse_permutation("(1,2)(2,3)", 3)
        with pytest.raises(DegreeMismatch):
            P("(1,2)", 2) * P("(1,2)", 3)
        with pytest.raises(DegreeMismatch):
            P("(1,2)", 2).conj(P("(1,2)", 3))

    def test_cycles_and_str(self):
        g = P("(2,5)(1,4,3)", 5)
        assert g.cycles() == [(1, 4, 3), (2, 5)]
        assert str(Permutation.identity(4)) == "()"
        assert str(g) == "(1,4,3)(2,5)"

    def test_immutability(self):
        g = P("(1,2)", 2)
        with pytest.raises(AttributeError):
            g.images = (1, 2)

    def test_moved_points(self):
        assert P("(2,4)", 5).moved_points() == [2, 4]
        assert Permutation.identity(5).moved_points() == []


class TestParsing:
    def test_round_trip_examples(self):
        for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(1,3)(2,4)"]:
            g = P(text, 5)
            assert P(str(g), 5) == g

    @given(perm_strategy)
    def test_round_trip_random(self, images):
        g = Permutation(list(images))
        assert parse_permutation(str(g), g.degree) == g

    def test_whitespace_insensitive(self):
        assert P(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == P("(1,2)(3,4)", 4)

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_permutation("(1,2", 4)
        assert e.value.position == 4
        with pytest.raises(ParseError) as e:
            parse_permutation("(1,9)", 4)
        assert e.value.position == 3
        with pytest.raises(ParseError):
            parse_permutation("(1,1)", 4)
        with pytest.raises(ParseError):
            parse_permutation("", 4)
        with pytest.raises(ParseError):
            parse_permutation("(1,2))", 4)

    def test_generator_list(self):
        gens = parse_generator_list("(1,2),(1,2,3,4)", 4)
        assert gens == [P("(1,2)", 4), P("(1,2,3,4)", 4)]
        assert parse_generator_list("", 4) == []
        assert parse_generator_list("  ", 4) == []
        with pytest.raises(ParseError):
            parse_generator_list("(1,2),(1,", 4)

    @pytest.mark.parametrize("text, position", [
        ("(1,2),(1,9)", 9),     # point out of range, in the second part
        ("(1,2),,(3,4)", 6),    # the second comma opens no permutation
        ("(1,2),", 6),          # nothing after the last comma
        ("(1,2)x(3,4)", 5),     # no comma between permutations
        ("(1,2) , (3,3)", 11),  # point repeated, after whitespace
        ("(1,2))", 5),
    ])
    def test_generator_list_positions(self, text, position):
        # a position counts from the start of the text as given
        with pytest.raises(ParseError) as e:
            parse_generator_list(text, 4)
        assert e.value.position == position

    @pytest.mark.parametrize("text", ["(1,\u00b2)", "(1,\u0663)"],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_point_in_ascii_digits_only(self, text):
        # both are str.isdigit(); int() refuses the first and reads the
        # second as 3
        with pytest.raises(ParseError) as e:
            parse_generator_list(text, 4)
        assert str(e.value) == "expected a point (at position 3)"

    @settings(max_examples=400, deadline=None)
    @given(cycle_texts, st.integers(1, 9))
    def test_parsers_agree_with_the_two_pass_reader(self, text, degree):
        def outcome(parse):
            try:
                return parse(text, degree)
            except ParseError as exc:
                return exc

        want = outcome(reference_parse_permutation)
        got = outcome(parse_permutation)
        if isinstance(want, ParseError):
            assert isinstance(got, ParseError)
            assert (str(got), got.position) == (str(want), want.position)
        else:
            assert got.images == want

        want = outcome(reference_parse_generator_list)
        got = outcome(parse_generator_list)
        if isinstance(want, ParseError):
            assert isinstance(got, ParseError)
            assert 0 <= got.position <= len(text)
        else:
            assert [g.images for g in got] == want


class TestPermGroup:
    def test_orders_of_named_groups(self):
        assert symmetric(4).order() == 24
        assert symmetric(1).order() == 1
        assert cyclic(1).order() == 1
        assert cyclic(6).order() == 6
        assert dihedral(2).order() == 2
        assert dihedral(4).order() == 4
        assert dihedral(8).order() == 8
        assert dihedral(12).order() == 12
        assert gl23().order() == 48
        assert sl23().order() == 24
        assert direct_product(symmetric(4), cyclic(2)).order() == 48

    def test_order_against_closure_oracle(self):
        cases = [
            (4, ["(1,2)", "(2,3)", "(3,4)"]),
            (4, ["(1,2)", "(1,2,3,4)"]),
            (4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
            (5, ["(1,2,3,4,5)", "(1,2)"]),
            (6, ["(1,2,3)", "(4,5,6)"]),
            (7, ["(1,2,3,4,5,6,7)", "(2,3,5)"]),
        ]
        for degree, texts in cases:
            gens = [P(t, degree) for t in texts]
            G = PermGroup(degree, gens)
            truth = closure(degree, [g.images for g in gens])
            assert G.order() == len(truth)
            # membership must agree with the closure in both directions
            for t in truth:
                assert Permutation(t) in G

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_order_and_membership_random(self, data):
        degree = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(0, 3))
        gens = [
            Permutation(list(data.draw(
                st.permutations(list(range(1, degree + 1))))))
            for _ in range(k)
        ]
        G = PermGroup(degree, gens)
        truth = closure(degree, [g.images for g in gens])
        assert G.order() == len(truth)
        probe = Permutation(
            list(data.draw(st.permutations(list(range(1, degree + 1)))))
        )
        assert (probe in G) == (probe.images in truth)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_membership_same_before_and_after_walk(self, data):
        # before elements() the chain sifts; after it the element index
        # answers, and both must match the closure oracle
        five = list(range(1, 6))
        gens = [
            Permutation(data.draw(st.permutations(five)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        probes = [
            Permutation(data.draw(st.permutations(five))) for _ in range(8)
        ]
        G = PermGroup(5, gens)
        truth = closure(5, [g.images for g in gens])
        before = [p in G for p in probes]
        G.elements()
        after = [p in G for p in probes]
        assert before == after == [p.images in truth for p in probes]
        for outsider in (P("(1,2)", 4), P("(1,2)", 6), (2, 1, 3, 4, 5),
                         "(1,2)", None):
            assert outsider not in G
            assert not G.contains(outsider)

    def test_elements_sorted_identity_first(self):
        G = symmetric(3)
        elems = G.elements()
        assert len(elems) == 6
        assert elems[0].is_identity()
        assert list(elems) == sorted(elems)
        assert G.element_index()[G.identity] == 0

    def test_enumeration_bound(self):
        G = symmetric(8)
        assert G.order() == 40320
        with pytest.raises(EnumerationBoundExceeded):
            G.elements()

    def test_subgroup_rejects_outsiders(self):
        A4 = PermGroup(4, parse_generator_list("(1,2,3),(2,3,4)", 4))
        with pytest.raises(NotInGroup):
            A4.subgroup([P("(1,2)", 4)])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(3, [P("(1,2)", 4)])

    def test_normality(self):
        S4 = symmetric(4)
        V = S4.subgroup(parse_generator_list("(1,2)(3,4),(1,3)(2,4)", 4))
        H = S4.subgroup([P("(1,2)", 4)])
        assert V.is_normal_in(S4)
        assert not H.is_normal_in(S4)
        assert H.is_subgroup_of(S4)

    def test_random_element_stays_inside(self):
        G = PermGroup(5, parse_generator_list("(1,2,3,4,5),(1,2)", 5))
        rng = random.Random(3)
        draws = {G.random_element(rng) for _ in range(200)}
        assert all(g in G for g in draws)
        # the chain walk reaches well beyond the generators
        assert len(draws) > 50

    def test_random_element_covers_small_group(self):
        G = cyclic(6)
        rng = random.Random(4)
        draws = {G.random_element(rng) for _ in range(300)}
        assert len(draws) == 6

    @pytest.mark.parametrize("gens, degree, orbits, draws", [
        ("(1,2,3,4,5),(1,2)", 5,
         [(1, [1, 2, 3, 4, 5]), (2, [2, 5, 4, 3]), (4, [4, 5, 3]),
          (3, [3, 5])],
         ["(1,3,5,2)", "(2,4,3,5)", "(1,4,5,2,3)", "(1,4)(3,5)"]),
        ("(1,2,3,4,5,6),(1,3)(4,6)", 6,
         [(1, [1, 2, 3, 4, 5, 6]), (2, [2, 6])],
         ["(1,3,5)(2,4,6)", "(1,3,5)(2,4,6)", "(1,6,5,4,3,2)", "(2,6)(3,5)"]),
    ])
    def test_chain_and_draws_pinned(self, gens, degree, orbits, draws):
        # base points, orbit discovery order and seeded draws are fixed;
        # the values were taken before transversal inverses were cached
        G = PermGroup(degree, parse_generator_list(gens, degree))
        assert [(lv["point"], list(lv["transversal"]))
                for lv in G._levels] == orbits
        rng = random.Random(17)
        assert [str(G.random_element(rng)) for _ in range(4)] == draws


class TestKnownOrder:
    @settings(max_examples=80, deadline=None)
    @given(random_groups(), st.integers(0, 3))
    def test_bounded_chain_is_complete(self, spec, slack):
        # at the true order the loop may stop early, above it it runs in
        # full; either way order and membership are those of the full chain
        degree, gens = spec
        full = PermGroup(degree, gens)
        G = PermGroup._bounded(degree, gens, full.order() + slack)
        assert G.order() == full.order()
        assert G._base() == full._base()
        truth = closure(degree, [g.images for g in gens])
        assert {p.images for p in G.elements()} == truth
        probes = [Permutation(p) for p in
                  sorted(closure(degree, [g.images for g in gens]))[:6]]
        assert all(p in G for p in probes)

    def test_stop_saves_the_check_loop(self, monkeypatch):
        # S5 on its own generators reaches 120 before the check loop has
        # tested every Schreier generator
        gens = parse_generator_list("(1,2,3,4,5),(1,2)", 5)
        calls = []
        strip_at = perm._strip_at
        monkeypatch.setattr(perm, "_strip_at",
                            lambda *a: calls.append(1) or strip_at(*a))
        PermGroup(5, gens)
        full = len(calls)
        calls.clear()
        assert PermGroup._bounded(5, gens, 120).order() == 120
        assert len(calls) < full

    def test_sifting_stops_at_the_order(self, monkeypatch):
        # (1,2,3,4) and (1,2) generate S4: the rest are never sifted, and
        # the kept generators are those of the full pass
        gens = parse_generator_list("(1,2,3,4),(1,2),(1,3),(2,4),(3,4)", 4)
        sifted = []
        strip = perm._strip
        monkeypatch.setattr(perm, "_strip",
                            lambda levels, g: sifted.append(g) or strip(levels, g))
        G = perm._sifted(4, gens, order=24)
        assert sifted == gens[:2]
        assert G.generators == perm._sifted(4, gens).generators == tuple(gens[:2])
        assert G.order() == 24

    @settings(max_examples=60, deadline=None)
    @given(random_groups(max_degree=5))
    def test_derived_subgroup_keeps_its_generators(self, spec):
        degree, gens = spec
        G = PermGroup(degree, gens)
        assert (perm._sifted(degree, gens, order=G.order()).generators
                == perm._sifted(degree, gens).generators)
        elems = [g.images for g in G.elements()]
        comms = {tcompose(tcompose(tinverse(a), tinverse(b)), tcompose(a, b))
                 for a in elems for b in elems}
        assert {g.images for g in derived_subgroup(G).elements()} == (
            closure_from(degree, comms))


def extend_chain_calls(monkeypatch):
    """The generators handed to each ``_extend_chain`` call: every chain is
    opened and extended there, ``_build_chain``'s and ``_sifted``'s."""
    calls = []
    extend = perm._extend_chain

    def recording(levels, degree, gens, order=None):
        calls.append(list(gens))
        return extend(levels, degree, gens, order)

    monkeypatch.setattr(perm, "_extend_chain", recording)
    return calls


@pytest.fixture(scope="module")
def c5_induced_m():
    """The induced M of S5 over ``<(1,2,3,4,5)>``, order 3000 on 600
    points, read off its coset permutations by ``_sifted``."""
    from xmodlab.induce import induce
    from xmodlab.xmod import identity_xmod

    S5 = symmetric(5)
    C5 = S5.subgroup([P("(1,2,3,4,5)", 5)])
    X, _ = induce(identity_xmod(C5), hom(C5, S5, C5.generators))
    assert X.M.order() == 3000
    return X.M


class TestDerivedSubgroupOfSiftedGroups:
    """``derived_subgroup`` takes the commutators of G's own generators,
    whether G was built by ``_sifted`` or not, on one chain."""

    @pytest.mark.parametrize("which", ["c5_m", "sl23_kernel", "a4_kernel"])
    def test_sifted_group_builds_one_chain(self, monkeypatch, c5_induced_m,
                                           which):
        if which == "c5_m":
            G = c5_induced_m
        elif which == "sl23_kernel":
            G = sl23()
        else:
            S4, C2 = symmetric(4), cyclic(2)
            sign = [C2.generators[0] if parity(g.images) == -1
                    else C2.identity for g in S4.generators]
            G = kernel(hom(S4, C2, sign))
            assert G.order() == 12
        calls = extend_chain_calls(monkeypatch)
        D = derived_subgroup(G)
        # one chain, opened and extended once per kept generator of G'
        assert [c for (c,) in calls] == list(D.generators)

    def test_redundant_list_is_still_sifted(self, monkeypatch):
        a, b = P("(1,2,3,4)", 4), P("(1,2)", 4)
        G = PermGroup(4, [a, a, b])
        calls = extend_chain_calls(monkeypatch)
        D = derived_subgroup(G)
        assert [c for (c,) in calls] == list(D.generators)
        # the generators of G' may depend on the list, the group does not
        elems = [g.images for g in G.elements()]
        comms = [
            tcompose(tcompose(tinverse(x.images), tinverse(y.images)),
                     tcompose(x.images, y.images))
            for x in G.generators for y in G.generators
        ]
        assert {g.images for g in D.elements()} == conjugation_closure(
            4, elems, comms)
        assert D.order() == 12


class TestNormalityWitness:
    @settings(max_examples=80, deadline=None)
    @given(random_groups(), st.data())
    def test_first_witness_matches_the_conj_oracle(self, spec, data):
        # the witness found by sifting is the first pair whose
        # conjugate, formed as a product, lies outside N
        degree, gens = spec
        G = PermGroup(degree, gens)
        seeds = data.draw(st.lists(st.sampled_from(G.elements()), max_size=2))
        N = G.subgroup(seeds)
        members = {p.images for p in N.elements()}
        want = next(((n, g) for n in N.generators for g in G.generators
                     if n.conj(g).images not in members), None)
        assert perm._normality_witness(N, G) == want
        assert N.is_normal_in(G) is (want is None)

    def test_witness_in_s4(self):
        # N = S3 on {1,2,3}, and c = (1,2,3,4): (1,2)^c = (2,3) lies in N
        # but (1,2)^(c^-1) = (1,4) does not, so conjugating the wrong way
        # round would name ((1,2), c); the first pair escaping N is
        # ((2,3), c), with (2,3)^c = (3,4)
        S4 = symmetric(4)
        c = P("(1,2,3,4)", 4)
        assert S4.generators == (P("(1,2)", 4), c)
        N = S4.subgroup([P("(1,2)", 4), P("(2,3)", 4)])
        assert perm._normality_witness(N, S4) == (P("(2,3)", 4), c)
        H = S4.subgroup([P("(1,2)", 4), P("(3,4)", 4)])
        assert perm._normality_witness(H, S4) == (P("(1,2)", 4), c)

    def test_subgroups_too_large_to_enumerate(self):
        # |A8| = 20160 is past ENUMERATION_BOUND: each conjugate is sifted
        S8 = symmetric(8)
        A8 = normal_closure(S8, [P("(1,2,3)", 8)])
        assert A8.order() > perm.ENUMERATION_BOUND
        assert A8.is_normal_in(S8)
        # S8 fixing 9 in S9: (1,...,8) conjugated by (1,...,9) moves 9
        S9 = symmetric(9)
        c8 = P("(1,2,3,4,5,6,7,8)", 9)
        S8_in_S9 = S9.subgroup([P("(1,2)", 9), c8])
        assert S8_in_S9.order() == 40320
        assert perm._normality_witness(S8_in_S9, S9) == (c8, S9.generators[1])
        assert not S8_in_S9.is_normal_in(S9)

    def test_pinned_witnesses_leave_n_unwalked(self):
        # the cases above, each on a fresh N, below the enumeration bound
        # and above it
        S4, S8, S9 = symmetric(4), symmetric(8), symmetric(9)
        c, c8 = P("(1,2,3,4)", 4), P("(1,2,3,4,5,6,7,8)", 9)
        cases = [
            (S4.subgroup([P("(1,2)", 4), P("(2,3)", 4)]), S4,
             (P("(2,3)", 4), c)),
            (S4.subgroup([P("(1,2)", 4), P("(3,4)", 4)]), S4,
             (P("(1,2)", 4), c)),
            (normal_closure(S4, [P("(1,2)(3,4)", 4)]), S4, None),
            (normal_closure(S8, [P("(1,2,3)", 8)]), S8, None),
            (S9.subgroup([P("(1,2)", 9), c8]), S9, (c8, S9.generators[1])),
        ]
        for N, G, want in cases:
            assert perm._normality_witness(N, G) == want
            assert N._walk is None


class TestHoms:
    def test_sign_hom(self):
        S4 = symmetric(4)
        C2 = cyclic(2)
        flip = P("(1,2)", 2)
        sgn = hom(S4, C2, [flip, flip])
        for g in S4.elements():
            expected = C2.identity if parity(g.images) == 1 else flip
            assert sgn.apply(g) == expected
        K = kernel(sgn)
        assert K.order() == 12
        assert all(parity(g.images) == 1 for g in K.elements())
        assert image(sgn).order() == 2
        assert S4.order() == K.order() * image(sgn).order()

    def test_sign_hom_element_map_against_closure_oracle(self):
        # the map replays the source's Cayley walk; the oracle walks raw tuples
        S4, C2 = symmetric(4), cyclic(2)
        flip = P("(1,2)", 2)
        sgn = hom(S4, C2, [flip, flip])
        truth = closure(4, [g.images for g in S4.generators])
        assert {p.images for p in sgn.element_map} == truth
        for p, v in sgn.element_map.items():
            assert v.images == ((1, 2) if parity(p.images) == 1 else (2, 1))

    def test_relation_violation(self):
        C2, C3 = cyclic(2), cyclic(3)
        with pytest.raises(RelationViolated) as e:
            hom(C2, C3, [C3.generators[0]])
        assert e.value.witness is not None

    def test_image_count_checked(self):
        S3 = symmetric(3)
        with pytest.raises(ValueError):
            hom(S3, S3, [S3.identity])

    def test_identity_hom_and_composition(self):
        S3 = symmetric(3)
        e = identity_hom(S3)
        assert e.is_bijective()
        sgn = hom(S3, cyclic(2), [P("(1,2)", 2), cyclic(2).identity])
        comp = e.then(sgn)
        assert all(comp.apply(g) == sgn.apply(g) for g in S3.elements())

    def test_apply_outside_the_source(self):
        e = identity_hom(symmetric(3))
        with pytest.raises(NotInGroup, match=r"\(1,4\) is not in the source"):
            e.apply(P("(1,4)", 4))
        # a list is unhashable: refused as outside the source, not a bare
        # TypeError
        with pytest.raises(NotInGroup,
                           match=r"\[1, 2, 3\] is not in the source group"):
            e.apply([1, 2, 3])

    def test_quotient_s4_by_v(self):
        S4 = symmetric(4)
        V = normal_closure(S4, [P("(1,2)(3,4)", 4)])
        Q, proj = quotient(S4, V)
        assert Q.order() == 6
        assert isomorphic(Q, symmetric(3)) is not None
        assert kernel(proj).order() == 4
        for g in S4.generators:
            for h in S4.generators:
                assert proj.apply(g * h) == proj.apply(g) * proj.apply(h)

    def test_projection_maps_generators_to_quotient_generators(self):
        S4 = symmetric(4)
        for N in [normal_closure(S4, [P("(1,2)(3,4)", 4)]),
                  derived_subgroup(S4), S4, S4.subgroup([])]:
            Q, proj = quotient(S4, N)
            assert proj.source is S4 and proj.target is Q
            assert proj.images == Q.generators
            assert Q.order() * N.order() == S4.order()
        # the first escaping pair of _normality_witness, as before
        with pytest.raises(NonNormal) as e:
            quotient(S4, S4.subgroup([P("(1,2)", 4), P("(3,4)", 4)]))
        assert e.value.witness == (P("(1,2)", 4), P("(1,2,3,4)", 4))

    def test_quotient_requires_normal(self):
        from xmodlab.errors import NonNormal

        S4 = symmetric(4)
        H = S4.subgroup([P("(1,2)", 4)])
        with pytest.raises(NonNormal):
            quotient(S4, H)


class TestCosetsAndClosures:
    def test_right_coset_representatives(self):
        S4 = symmetric(4)
        H = S4.subgroup([P("(1,2)", 4)])
        reps = right_coset_representatives(S4, H)
        assert len(reps) == 12
        assert reps[0].is_identity()
        # each element of S4 lies in exactly one coset H*rep
        helems = [h.images for h in H.elements()]
        cover = set()
        for rep in reps:
            coset = {tcompose(h, rep.images) for h in helems}
            assert not (coset & cover)
            cover |= coset
        assert len(cover) == 24
        # representatives are the lexicographically least of their coset
        for rep in reps:
            coset = {tcompose(h, rep.images) for h in helems}
            assert rep.images == min(coset)

    def test_transversal_sizes(self):
        S4 = symmetric(4)
        D8 = S4.subgroup(parse_generator_list("(1,2,3,4),(1,3)", 4))
        assert len(right_coset_representatives(S4, D8)) == 3

    def test_normal_closure_against_oracle(self):
        S4 = symmetric(4)
        s4_tuples = closure(4, [g.images for g in S4.generators])
        for seed, expected in [("(1,2)", 24), ("(1,2)(3,4)", 4), ("(1,2,3)", 12)]:
            N = normal_closure(S4, [P(seed, 4)])
            truth = conjugation_closure(4, s4_tuples, [P(seed, 4).images])
            assert N.order() == len(truth)
            assert N.order() == expected
            assert {g.images for g in N.elements()} == truth

    @pytest.mark.parametrize("seed, gens", [
        ("(1,2)", ["(1,2)", "(2,3)", "(3,4)"]),
        ("(1,2)(3,4)", ["(1,2)(3,4)", "(1,4)(2,3)"]),
        ("(1,2,3)", ["(1,2,3)", "(2,3,4)"]),
        ("(1,2,3,4)", ["(1,2,3,4)", "(1,3,4,2)"]),
    ])
    def test_normal_closure_generators_pinned(self, seed, gens):
        # recorded before every derived subgroup was grown by one sifting
        # loop: a single seed keeps the same generators
        N = normal_closure(symmetric(4), [P(seed, 4)])
        assert [str(g) for g in N.generators] == gens

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_normal_closure_sifts_redundant_seeds(self, data):
        # seeds with repeats, products of earlier seeds and the identity,
        # in a random subgroup of S5
        S5 = symmetric(5)
        G = S5.subgroup(data.draw(
            st.lists(st.sampled_from(S5.elements()), min_size=1, max_size=2)
        ))
        gelems = G.elements()
        seeds = data.draw(st.lists(st.sampled_from(gelems), max_size=3))
        seeds += [a * b for a, b in zip(seeds, seeds[1:])]
        seeds += seeds[:1] + [G.identity]
        seeds = data.draw(st.permutations(seeds))
        N = normal_closure(G, seeds)
        truth = conjugation_closure(
            5, [g.images for g in gelems], [s.images for s in seeds]
        )
        assert {g.images for g in N.elements()} == truth
        for k, g in enumerate(N.generators):
            assert g not in PermGroup(5, N.generators[:k])


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sifted_extends_one_chain(self, data):
        # one chain is extended per kept generator; the kept generators,
        # the order and membership are those of rebuilding from scratch
        degree = data.draw(st.integers(1, 6))
        perms = st.permutations(list(range(1, degree + 1))).map(Permutation)
        candidates = data.draw(st.lists(perms, max_size=5))
        candidates += candidates[:1] + [Permutation.identity(degree)]
        candidates = data.draw(st.permutations(candidates))
        conjugators = data.draw(st.lists(perms, max_size=2))

        kept, group, queue = [], PermGroup(degree, []), list(candidates)
        for c in queue:  # the loop as first written, rebuilding each time
            if c not in group:
                kept.append(c)
                group = PermGroup(degree, kept)
                queue.extend(c.conj(g) for g in conjugators)

        built = []
        build_chain = perm._build_chain
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perm, "_build_chain",
                       lambda *args: built.append(args) or build_chain(*args))
            G = perm._sifted(degree, candidates, conjugators)
        assert len(built) <= 1
        assert list(G.generators) == kept
        assert G.order() == group.order() == len(
            closure(degree, [g.images for g in kept]))
        probes = data.draw(st.lists(perms, min_size=1, max_size=6))
        assert [p in G for p in probes] == [p in group for p in probes]
        G.elements()  # membership from the element index agrees too
        assert [p in G for p in probes] == [p in group for p in probes]


class TestInvariants:
    def test_abelian_invariants_of_products(self):
        cases = [
            (cyclic(6), [6]),
            (direct_product(cyclic(2), cyclic(2)), [2, 2]),
            (direct_product(cyclic(2), cyclic(4)), [2, 4]),
            (direct_product(cyclic(2), cyclic(3)), [6]),
            (direct_product(direct_product(cyclic(2), cyclic(4)), cyclic(3)),
             [2, 12]),
        ]
        for G, expected in cases:
            got = abelian_invariants(G)
            assert got == expected
            # ascending divisibility
            for a, b in zip(got, got[1:]):
                assert b % a == 0
            # the invariants reproduce the element-order census
            census = {}
            for g in G.elements():
                census[g.order()] = census.get(g.order(), 0) + 1
            assert census == abelian_order_census(expected)

    def test_abelian_invariants_rejects_nonabelian(self):
        with pytest.raises(NonAbelian):
            abelian_invariants(symmetric(3))

    def test_center_against_commuting_oracle(self):
        for G in [dihedral(8), gl23(), symmetric(4), cyclic(5)]:
            Z = center(G)
            elems = [g.images for g in G.elements()]
            truth = {
                z for z in elems
                if all(tcompose(z, g) == tcompose(g, z) for g in elems)
            }
            assert {z.images for z in Z.elements()} == truth

    def test_derived_subgroup_against_oracle(self):
        from support import closure_from

        for G in [symmetric(3), symmetric(4), dihedral(8), gl23()]:
            D = derived_subgroup(G)
            elems = [g.images for g in G.elements()]
            comms = {
                tcompose(tcompose(tinverse(a), tinverse(b)), tcompose(a, b))
                for a in elems
                for b in elems
            }
            truth = closure_from(G.degree, comms)
            assert {g.images for g in D.elements()} == truth

    def test_gl23_fingerprint(self):
        fp = fingerprint(gl23())
        assert fp.order == 48
        assert fp.abelianization == (2,)
        assert fp.center_order == 2
        assert fp.derived_order == 24
        assert dict(fp.order_histogram)[8] == 12

    def test_fingerprint_distinguishes_order_48_groups(self):
        # S4 x C2 has no element of order 8; GL(2,3) has twelve
        fp1 = fingerprint(gl23())
        fp2 = fingerprint(direct_product(symmetric(4), cyclic(2)))
        assert fp1 != fp2
        assert 8 not in dict(fp2.order_histogram)

    def test_fingerprint_json_shape(self):
        d = fingerprint(symmetric(3)).to_json_dict()
        assert d == {
            "order": 6,
            "abelianization": [2],
            "center_order": 1,
            "derived_order": 3,
            "order_histogram": [[1, 1], [2, 3], [3, 2]],
        }


class TestIsomorphism:
    def test_positive_with_verified_witness(self):
        # the same dihedral group on shifted points
        D1 = dihedral(8)
        D2 = PermGroup(8, parse_generator_list("(5,6,7,8),(6,8)", 8))
        assert D2.order() == 8
        f = isomorphic(D1, D2)
        assert f is not None
        # verify multiplicativity and bijectivity with raw tuples
        fmap = {g.images: f.apply(g).images for g in D1.elements()}
        assert len(set(fmap.values())) == 8
        for a in fmap:
            for b in fmap:
                assert fmap[tcompose(a, b)] == tcompose(fmap[a], fmap[b])

    def test_negative_same_order(self):
        assert isomorphic(dihedral(8), cyclic(8)) is None
        assert isomorphic(dihedral(8), direct_product(cyclic(4), cyclic(2))) is None
        assert isomorphic(
            PermGroup(4, parse_generator_list("(1,2,3),(2,3,4)", 4)),
            dihedral(12),
        ) is None
        assert isomorphic(gl23(), direct_product(symmetric(4), cyclic(2))) is None

    def test_order_mismatch_is_fast_negative(self):
        assert isomorphic(cyclic(6), cyclic(7)) is None

    def test_self_isomorphism(self):
        for G in [cyclic(1), cyclic(12), symmetric(4), gl23()]:
            assert isomorphic(G, G) is not None

    def test_search_bound(self):
        with pytest.raises(SearchBoundExceeded):
            isomorphic(symmetric(6), symmetric(6))  # 720 > 512

    def test_fingerprint_type(self):
        assert isinstance(fingerprint(cyclic(2)), Fingerprint)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_closure_matches_oracle(self, data):
        # _closure under conjugations of S4 is the subgroup generated by
        # every conjugate of the seeds by the group the conjugators generate
        S4 = symmetric(4)
        elems = S4.elements()
        index = st.integers(0, len(elems) - 1)
        seeds = data.draw(st.lists(index, max_size=3))
        conjugators = [elems[k] for k in data.draw(st.lists(index, max_size=2))]
        acts = [tuple(S4.element_index()[e.conj(c)] for e in elems)
                for c in conjugators]
        H = closure(4, [c.images for c in conjugators])
        truth = closure(4, [
            tcompose(tcompose(tinverse(h), elems[s].images), h)
            for s in seeds for h in H
        ])
        got = _closure(S4, seeds, acts)
        assert {elems[j].images for j in got} == truth

    @pytest.mark.parametrize("G, H, images", [
        (lambda: dihedral(8),
         lambda: PermGroup(4, parse_generator_list("(1,3,2,4),(1,2)", 4)),
         ["(1,3,2,4)", "(3,4)"]),
        (lambda: symmetric(4), lambda: symmetric(4),
         ["(1,2)", "(1,2,3,4)"]),
        (gl23, gl23,
         ["(3,4,5)(6,8,7)", "(1,3,2,6)(4,5,8,7)", "(3,6)(4,7)(5,8)"]),
        (lambda: direct_product(symmetric(4), cyclic(2)),
         lambda: direct_product(cyclic(2), symmetric(4)),
         ["(3,4)", "(3,4,5,6)", "(1,2)"]),
        (lambda: cyclic(12), lambda: direct_product(cyclic(3), cyclic(4)),
         ["(1,2,3)(4,5,6,7)"]),
    ], ids=["D8", "S4", "GL23", "S4xC2", "C12"])
    def test_witnesses_pinned(self, G, H, images):
        # the search's first witness, recorded before the backtrack was
        # shared with xmod_isomorphic; a reordered search changes it
        target = H()
        f = isomorphic(G(), target)
        assert list(f.images) == [P(s, target.degree) for s in images]
