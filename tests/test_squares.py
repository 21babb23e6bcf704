"""Squares over a crossed module: compositions, connections, interchange."""

import dataclasses
import hashlib
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import SquareOracle, interchange_witness
from test_xmod import ROW6, cm1_and_cm2, cm1_only
from xmodlab import squares
from xmodlab.errors import (
    EdgeMismatch,
    MaterializationBoundExceeded,
    NotInGroup,
)
from xmodlab.perm import (
    PermGroup,
    Permutation,
    cyclic,
    dihedral,
    hom,
    normal_closure,
    parse_generator_list,
    parse_permutation,
    symmetric,
)
from xmodlab.squares import (
    MATERIALIZATION_BOUND,
    DoubleGroupoidView,
    compose_h,
    compose_v,
    connection_minus,
    connection_plus,
    gamma,
    h_unit,
    interchange_exhaustive,
    interchange_sampled,
    inverse_h,
    inverse_v,
    random_block,
    square,
    v_unit,
)
from xmodlab.xmod import (
    CrossedModule,
    identity_xmod,
    normal_inclusion_xmod,
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


def random_square(X, rng):
    q = X.Q.elements()
    m = X.M.elements()
    return square(X, rng.choice(q), rng.choice(q), rng.choice(q), rng.choice(m))


class TestSquare:
    def test_south_edge_formula(self):
        X = identity_xmod(symmetric(3))
        n, w, e = P("(1,2)", 3), P("(1,2,3)", 3), P("(2,3)", 3)
        m = P("(1,3)", 3)
        sq = square(X, n, w, e, m)
        assert sq.s == w.inverse() * n * e * X.boundary.apply(m).inverse()
        assert sq.boundary_holds()

    def test_membership_checked(self):
        X = v_in_s4()
        q = X.Q.identity
        with pytest.raises(NotInGroup):
            square(X, q, q, q, P("(1,2)", 4))
        with pytest.raises(NotInGroup):
            square(X, P("(1,5)", 5), q, q, X.M.identity)

    def test_thin_shell_commutes(self):
        X = identity_xmod(symmetric(3))
        rng = random.Random(2)
        q = X.Q.elements()
        for _ in range(50):
            sq = square(X, rng.choice(q), rng.choice(q), rng.choice(q),
                        X.M.identity)
            assert sq.is_thin()
            assert sq.w * sq.s == sq.n * sq.e

    def test_str(self):
        X = identity_xmod(cyclic(2))
        i = X.Q.identity
        sq = square(X, i, i, i, X.M.identity)
        assert str(sq) == "(() | () () | (); ())"


class TestComposition:
    def test_units(self):
        X = v_in_s4()
        rng = random.Random(3)
        for _ in range(30):
            sq = random_square(X, rng)
            assert compose_h(h_unit(X, sq.w), sq) == sq
            assert compose_h(sq, h_unit(X, sq.e)) == sq
            assert compose_v(v_unit(X, sq.n), sq) == sq
            assert compose_v(sq, v_unit(X, sq.s)) == sq

    def test_inverses(self):
        X = v_in_s4()
        rng = random.Random(4)
        for _ in range(30):
            sq = random_square(X, rng)
            assert compose_h(sq, inverse_h(sq)) == h_unit(X, sq.w)
            assert compose_h(inverse_h(sq), sq) == h_unit(X, sq.e)
            assert compose_v(sq, inverse_v(sq)) == v_unit(X, sq.n)
            assert compose_v(inverse_v(sq), sq) == v_unit(X, sq.s)

    def test_edge_mismatch(self):
        X = v_in_s4()
        i = X.Q.identity
        a = square(X, P("(1,2,3)", 4), i, P("(1,2)", 4), X.M.identity)
        b = square(X, i, P("(1,3)", 4), i, X.M.identity)
        with pytest.raises(EdgeMismatch):
            compose_h(a, b)
        with pytest.raises(EdgeMismatch):
            compose_v(a, b)

    def test_cross_module_composition_rejected(self):
        X1 = identity_xmod(cyclic(2))
        X2 = identity_xmod(cyclic(2))
        with pytest.raises(EdgeMismatch):
            compose_h(h_unit(X1, X1.Q.identity), h_unit(X2, X2.Q.identity))

    def test_composite_boundary_still_holds(self):
        X = a4_in_s4()
        rng = random.Random(5)
        q = X.Q.elements()
        m = X.M.elements()
        for _ in range(40):
            a = random_square(X, rng)
            b = square(X, rng.choice(q), a.e, rng.choice(q), rng.choice(m))
            assert compose_h(a, b).boundary_holds()
            c = square(X, a.s, rng.choice(q), rng.choice(q), rng.choice(m))
            assert compose_v(a, c).boundary_holds()

    def test_associativity_sampled(self):
        X = v_in_s4()
        rng = random.Random(6)
        q = X.Q.elements()
        m = X.M.elements()
        for _ in range(80):
            a = random_square(X, rng)
            b = square(X, rng.choice(q), a.e, rng.choice(q), rng.choice(m))
            c = square(X, rng.choice(q), b.e, rng.choice(q), rng.choice(m))
            assert compose_h(compose_h(a, b), c) == compose_h(a, compose_h(b, c))
            d = square(X, a.s, rng.choice(q), rng.choice(q), rng.choice(m))
            e = square(X, d.s, rng.choice(q), rng.choice(q), rng.choice(m))
            assert compose_v(compose_v(a, d), e) == compose_v(a, compose_v(d, e))


class TestConnections:
    def test_connections_are_thin(self):
        X = v_in_s4()
        for g in X.Q.elements():
            assert connection_plus(X, g).is_thin()
            assert connection_minus(X, g).is_thin()
            assert connection_plus(X, g).boundary_holds()
            assert connection_minus(X, g).boundary_holds()

    def test_transport_identity(self):
        # folding either way around the corner gives the same degenerate
        # square with g on all four edges
        X = v_in_s4()
        for g in X.Q.elements():
            cp, cm = connection_plus(X, g), connection_minus(X, g)
            h = compose_h(cp, cm)
            v = compose_v(cp, cm)
            assert h == v
            assert h.n == h.w == h.e == h.s == g
            assert h.is_thin()

    def test_corner_cancellation_to_units(self):
        X = v_in_s4()
        for g in X.Q.elements():
            cp, cm = connection_plus(X, g), connection_minus(X, g)
            assert compose_v(cm, cp) == h_unit(X, g)
            assert compose_h(cm, cp) == v_unit(X, g)


class TestInterchange:
    def test_holds_on_valid_modules(self):
        assert interchange_exhaustive(identity_xmod(symmetric(3))) is None
        assert interchange_exhaustive(v_in_s4()) is None
        assert interchange_exhaustive(a4_in_s4()) is None

    def test_broken_cm2_yields_counterexample(self):
        X = broken_cm2()
        block = interchange_exhaustive(X)
        assert block is not None
        a, b, c, d = block
        rows_then_cols = compose_v(compose_h(a, b), compose_h(c, d))
        cols_then_rows = compose_h(compose_v(a, c), compose_v(b, d))
        assert rows_then_cols != cols_then_rows

    def test_sampled(self):
        assert interchange_sampled(a4_in_s4(), 500, random.Random(7)) is None

    def test_sampled_draws_pinned(self):
        # the state after the search was recorded before the law was proved
        # on generators: sampling consumes the same draws as it did then
        rng = random.Random(7)
        assert interchange_sampled(a4_in_s4(), 500, rng) is None
        assert rng.random() == 0.24848973260623386

    def test_sampled_finds_break(self):
        assert interchange_sampled(broken_cm2(), 500, random.Random(8)) is not None

    @staticmethod
    def image_tuples(squares_):
        return [tuple(p.images for p in (sq.n, sq.w, sq.e, sq.s, sq.m))
                for sq in squares_]

    def test_first_failing_block_pinned(self):
        # recorded while every square was still built from permutations:
        # the draws and the first failing block are those of that build
        rng = random.Random(8)
        block = interchange_sampled(broken_cm2(), 500, rng)
        one = ((1,),) * 4
        assert self.image_tuples(block) == [
            one + ((1, 3, 2),), one + ((1, 2, 3),),
            one + ((3, 1, 2),), one + ((2, 3, 1),),
        ]
        assert rng.random() == 0.641868435072107

    def test_row6_draws_pinned(self):
        # recorded while every square was still built from permutations
        rng = random.Random(3)
        X = xmod_from_json(ROW6.read_text())
        assert interchange_sampled(X, 2000, rng) is None
        assert rng.random() == 0.5203452421686546

    @pytest.mark.parametrize("make", [
        a4_in_s4, lambda: xmod_from_json(ROW6.read_text()),
    ], ids=["a4_in_s4", "row6"])
    def test_sampled_builds_no_square_once_proved(self, monkeypatch, make):
        # CM2 holds on generator pairs, so the law is proved and the search
        # only replays its draws: no kernel, no square
        calls = []
        real = squares._Kernel.square

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(squares._Kernel, "square", counting)
        X = make()
        assert interchange_sampled(X, 2000, random.Random(4)) is None
        assert len(calls) == 0
        assert X._square_kernel is None

    def test_random_block_shape(self):
        X = v_in_s4()
        rng = random.Random(9)
        for _ in range(50):
            a, b, c, d = random_block(X, rng)
            assert a.e == b.w and c.e == d.w
            assert a.s == c.n and b.s == d.n
            for sq in (a, b, c, d):
                assert sq.boundary_holds()


class TestInterchangeOracle:
    """``interchange_exhaustive`` proves the law on generator pairs; it must
    agree with the raw-tuple triple scan of ``support.interchange_witness``
    on the block it returns, or on there being none."""

    @staticmethod
    def oracle(X):
        return interchange_witness(
            X.M.degree, [m.images for m in X.M.generators],
            X.Q.degree, [q.images for q in X.Q.generators],
            [b.images for b in X.boundary.images],
            [[im.images for im in a.images] for a in X.action],
        )

    def valid_modules(self):
        return [identity_xmod(symmetric(3)), v_in_s4(), a4_in_s4(),
                identity_xmod(dihedral(8)), xmod_from_json(ROW6.read_text())]

    @pytest.mark.parametrize("make, holds", [
        (cm1_only, True),  # CM1 fails, CM2 and so the law hold
        (broken_cm2, False),
        (cm1_and_cm2, False),
    ])
    def test_invalid_modules(self, make, holds):
        X = make()
        block = interchange_exhaustive(X)
        expected = self.oracle(X)
        assert (block is None) == (expected is None) == holds
        if block is not None:
            a, b, c, d = block
            assert (a.m.images, d.m.images, c.e.images) == expected

    def test_valid_modules(self):
        for X in self.valid_modules():
            assert interchange_exhaustive(X) is None
            assert self.oracle(X) is None

    def test_valid_modules_skip_triple_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("triple scan run on a valid module")

        monkeypatch.setattr(squares, "_block_from_triple", refuse)
        for X in self.valid_modules():
            assert interchange_exhaustive(X) is None


class TestView:
    def test_square_count(self):
        X = identity_xmod(symmetric(3))
        assert DoubleGroupoidView(X).square_count() == 6 ** 4
        assert DoubleGroupoidView(v_in_s4()).square_count() == 24 ** 3 * 4

    def test_materialization(self):
        view = DoubleGroupoidView(identity_xmod(cyclic(2)))
        squares = view.squares()
        assert len(squares) == 16
        assert len(set(squares)) == 16
        assert all(sq.boundary_holds() for sq in squares)

    def test_materialization_pinned(self):
        # recorded while every square was still built from permutations:
        # the same squares, in the same order
        sqs = DoubleGroupoidView(identity_xmod(dihedral(8))).squares()
        digest = hashlib.sha256(
            repr(TestInterchange.image_tuples(sqs)).encode()).hexdigest()
        assert len(sqs) == 4096
        assert digest == (
            "4222b213dd7a65db560494029ebec1a61c95e1353be85dc0717c0036049e9b77"
        )

    def test_materialization_refused_when_too_big(self, table_results):
        X7, _ = table_results[6]
        view = DoubleGroupoidView(X7)
        assert view.square_count() == 24 ** 3 * 128
        assert view.square_count() > MATERIALIZATION_BOUND
        with pytest.raises(MaterializationBoundExceeded):
            view.squares()


class TestSlottedSquare:
    """``Square`` is a frozen, slotted dataclass; the kernel fills the slots
    of the squares it returns directly (``_Kernel.to_square``)."""

    def test_frozen(self):
        X = identity_xmod(symmetric(3))
        i = X.Q.identity
        for sq in (squares.Square(i, i, i, i, i, X), h_unit(X, i)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                sq.n = i
            with pytest.raises(dataclasses.FrozenInstanceError):
                sq.xmod = None

    def test_no_dict(self):
        X = identity_xmod(symmetric(3))
        i = X.Q.identity
        for sq in (squares.Square(i, i, i, i, i, X), h_unit(X, i)):
            assert not hasattr(sq, "__dict__")
        assert squares.Square.__slots__ == ("n", "w", "e", "s", "m", "xmod")

    def test_equality_and_hash_ignore_xmod(self):
        S3 = symmetric(3)
        X, Y = identity_xmod(S3), identity_xmod(S3)
        t = P("(1,2)", 3)
        built = compose_h(h_unit(X, t), h_unit(X, t))
        public = squares.Square(S3.identity, t, t, S3.identity,
                                S3.identity, Y)
        assert built.xmod is X and public.xmod is Y
        assert built == public and hash(built) == hash(public)
        assert built != squares.Square(S3.identity, t, t, S3.identity, t, X)

    def test_view_equals_public_squares(self):
        # the kernel's squares are those of the public constructor, in
        # the order n, w, e, label
        X = identity_xmod(dihedral(8))
        qs, ms = X.Q.elements(), X.M.elements()
        listed = DoubleGroupoidView(X).squares()
        assert listed == [square(X, n, w, e, m)
                          for n in qs for w in qs for e in qs for m in ms]
        assert all(sq.xmod is X for sq in listed)


class TestGamma:
    def test_round_trip_identity_s3(self):
        X = identity_xmod(symmetric(3))
        R = gamma(DoubleGroupoidView(X))
        assert validate(R).ok
        assert xmod_isomorphic(R, X) is not None

    def test_round_trip_v_in_s4(self):
        X = v_in_s4()
        R = gamma(DoubleGroupoidView(X))
        assert validate(R).ok
        assert xmod_isomorphic(R, X) is not None

    def test_round_trip_beyond_materialization(self, table_results):
        # gamma only touches generator squares, so it works where the
        # square universe itself is too big to list
        X7, _ = table_results[6]
        R = gamma(DoubleGroupoidView(X7))
        assert xmod_isomorphic(R, X7) is not None

    @pytest.mark.parametrize("which", ["row6", "S4"])
    def test_regular_chain_matches_schreier_sims(self, which):
        # M is built on the bound |M| = degree; its base points and
        # transversal keys are those the full Schreier-Sims chain has
        X = (xmod_from_json(ROW6.read_text()) if which == "row6"
             else identity_xmod(symmetric(4)))
        R = gamma(DoubleGroupoidView(X))
        full = PermGroup(R.M.degree, R.M.generators)

        def shape(G):
            return [(level["point"], list(level["transversal"]))
                    for level in G._levels]

        assert R.M.order() == R.M.degree == X.M.order()
        assert R.M._base() == full._base()
        assert shape(R.M) == shape(full)
        assert xmod_isomorphic(R, X) is not None

    def test_row6_builds_each_sigma_square_once(self, monkeypatch):
        X = xmod_from_json(ROW6.read_text())
        calls = []
        real = squares._Kernel.square

        def counting(*args):
            calls.append(args)
            return real(*args)

        # gamma builds its squares on the module's index kernel
        monkeypatch.setattr(squares._Kernel, "square", counting)
        R = gamma(DoubleGroupoidView(X))
        gm, gq = len(X.M.generators), len(X.Q.generators)
        assert X.M.order() <= len(calls) <= X.M.order() + 3 * gm * gq + gm
        # generator, boundary and action images as recorded when every
        # regular() call rebuilt all |M| sigma squares (7024 square calls)
        digest = hashlib.sha256(xmod_to_json(R).encode()).hexdigest()
        assert digest == (
            "c2a662305ab10566387e4585b6508c3d0188ee19d4f9e279233a16c86aea10bb"
        )


# ---------------------------------------------------------------------------
# the index kernel against the raw-tuple oracle


def json_form(X):
    """The module's data as ``support`` takes it, on image tuples."""
    return (X.M.degree, [m.images for m in X.M.generators],
            X.Q.degree, [q.images for q in X.Q.generators],
            [b.images for b in X.boundary.images],
            [[im.images for im in a.images] for a in X.action])


ORACLE_MODULES = {
    "s3": lambda: identity_xmod(symmetric(3)),
    "d8": lambda: identity_xmod(dihedral(8)),
    "v_in_s4": v_in_s4,
    "a4_in_s4": a4_in_s4,
    "row6": lambda: xmod_from_json(ROW6.read_text()),
    "cm1_only": cm1_only,
    "broken_cm2": broken_cm2,
    "cm1_and_cm2": cm1_and_cm2,
}


@cache
def module_and_oracle(name):
    X = ORACLE_MODULES[name]()
    return X, SquareOracle(*json_form(X))


def images(sq):
    return sq.n.images, sq.w.images, sq.e.images, sq.s.images, sq.m.images


class TestKernelOracle:
    """Every public square function, run on the index kernel, must give the
    oracle's square, and a sampled search the oracle's block and draws."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ORACLE_MODULES)), data=st.data())
    def test_kernel_matches_oracle(self, name, data):
        X, oracle = module_and_oracle(name)
        rq = st.sampled_from(X.Q.elements())
        rm = st.sampled_from(X.M.elements())
        a = square(X, data.draw(rq), data.draw(rq), data.draw(rq),
                   data.draw(rm))
        assert images(a) == oracle.square(*images(a)[:3], a.m.images)
        b = square(X, data.draw(rq), a.e, data.draw(rq), data.draw(rm))
        c = square(X, a.s, data.draw(rq), data.draw(rq), data.draw(rm))
        assert images(compose_h(a, b)) == oracle.compose_h(images(a),
                                                           images(b))
        assert images(compose_v(a, c)) == oracle.compose_v(images(a),
                                                           images(c))
        assert images(inverse_h(a)) == oracle.inverse_h(images(a))
        assert images(inverse_v(a)) == oracle.inverse_v(images(a))
        assert a.boundary_holds()

        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        mine, theirs = random.Random(seed), random.Random(seed)
        block = interchange_sampled(X, 40, mine)
        expected = oracle.sampled(40, theirs)
        assert (block and [images(sq) for sq in block]) == expected
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
    def test_sampled_search_matches_oracle(self, name, seed):
        # where CM2 holds on generators the search proves the law and only
        # replays its draws; the oracle composes every block it draws, and
        # both return the same block, or None, and leave the rng alike
        X, oracle = module_and_oracle(name)
        mine, theirs = random.Random(seed), random.Random(seed)
        block = interchange_sampled(X, 2000, mine)
        expected = oracle.sampled(2000, theirs)
        assert (block and [images(sq) for sq in block]) == expected
        assert (expected is None) == (name not in ("broken_cm2",
                                                   "cm1_and_cm2"))
        assert mine.random() == theirs.random()

    def test_sampled_draws_of_a_subclass_overriding_random(self,
                                                          monkeypatch):
        # a Random subclass that overrides random() alone draws below n
        # through random() (_randbelow_without_getrandbits), a stream unlike
        # getrandbits'; the proved search replays the draws of rng.choice
        # on that stream, calls no choice and builds no kernel
        class RandomOnly(random.Random):
            choices = 0

            def random(self):
                return super().random()

            def choice(self, seq):
                self.choices += 1
                return super().choice(seq)

        assert (RandomOnly._randbelow
                is random.Random._randbelow_without_getrandbits)
        built = []
        monkeypatch.setattr(squares, "_Kernel", built.append)
        X = xmod_from_json(ROW6.read_text())
        oracle = module_and_oracle("row6")[1]
        mine, theirs = RandomOnly(3), RandomOnly(3)
        assert interchange_sampled(X, 500, mine) is None
        assert oracle.sampled(500, theirs) is None
        assert (mine.choices, theirs.choices) == (0, 12 * 500)
        assert built == [] and X._square_kernel is None
        following = mine.random()
        assert following == theirs.random()
        plain = random.Random(3)
        assert interchange_sampled(X, 500, plain) is None
        assert plain.random() != following

    def test_sampled_search_forms_no_product(self, monkeypatch):
        # once the kernel is built the sampled search runs on indices alone:
        # no permutation product, no membership test
        X = xmod_from_json(ROW6.read_text())
        squares._kernel(X)
        calls = []

        def spy(name, real):
            def counting(*args):
                calls.append(name)
                return real(*args)
            return counting

        monkeypatch.setattr(Permutation, "__mul__",
                            spy("mul", Permutation.__mul__))
        for attr in ("contains", "__contains__"):
            monkeypatch.setattr(PermGroup, attr,
                                spy(attr, getattr(PermGroup, attr)))
        assert interchange_sampled(X, 2000, random.Random(5)) is None
        assert calls == []

    def test_boundary_holds_fills_no_element_map(self):
        X = v_in_s4()
        rng = random.Random(11)
        for _ in range(20):
            assert random_square(X, rng).boundary_holds()
        assert "element_map" not in vars(X.boundary)

    def test_foreign_members_refused(self):
        X = v_in_s4()
        i = X.Q.identity
        alien = squares.Square(i, i, i, i, P("(1,2)", 4), X)
        with pytest.raises(NotInGroup):
            alien.boundary_holds()
        with pytest.raises(NotInGroup):
            inverse_h(alien)
        with pytest.raises(NotInGroup):
            h_unit(X, P("(1,5)", 5))
