"""Presentations: words, coset enumeration, integer normal forms."""

import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import minors_gcd_invariants
from xmodlab import fp
from xmodlab.errors import (
    BudgetExceeded,
    CosetLimitExceeded,
    IncompleteTable,
    ParseError,
)
from xmodlab.fp import (
    CosetTable,
    Presentation,
    Word,
    abelianization,
    parse_word,
    perm_rep,
    smith_normal_form,
    todd_coxeter,
)
from xmodlab.perm import isomorphic, symmetric


def W(pairs):
    return Word.of(pairs)


letters = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=12
)


class TestWord:
    def test_free_reduction(self):
        assert W([(0, 1), (0, -1)]).is_identity()
        assert W([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()
        assert W([(0, 1), (1, 1), (1, -1), (0, 1)]).letters == ((0, 1), (0, 1))

    @given(letters)
    def test_reduced_form_has_no_cancelling_pair(self, ls):
        w = W(ls)
        for (g1, e1), (g2, e2) in zip(w.letters, w.letters[1:]):
            assert not (g1 == g2 and e1 == -e2)

    @given(letters)
    def test_word_times_inverse_is_identity(self, ls):
        w = W(ls)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()

    @given(letters, letters)
    def test_concatenation_reduces(self, a, b):
        # composing then reducing equals reducing the concatenation
        assert (W(a) * W(b)).letters == W(list(a) + list(b)).letters

    def test_exponent_vector(self):
        w = W([(0, 1), (1, -1), (0, 1), (2, 1), (2, 1)])
        assert w.exponent_vector(3) == [2, -1, 2]


class TestWordParsing:
    def test_basic(self):
        labels = ("a", "b")
        assert parse_word("a b", labels).letters == ((0, 1), (1, 1))
        assert parse_word("a^-1 b^2", labels).letters == ((0, -1), (1, 1), (1, 1))
        assert parse_word("A b", labels).letters == ((0, -1), (1, 1))
        assert parse_word("1", labels).is_identity()

    def test_unknown_label(self):
        with pytest.raises(ParseError):
            parse_word("c", ("a", "b"))

    def test_caret_without_exponent(self):
        with pytest.raises(ParseError, match=r"'a\^'"):
            parse_word("a^", ("a", "b"))

    def test_letter_budget(self, monkeypatch):
        # counted before a letter is built: this many cannot be allocated
        built = []
        monkeypatch.setattr(Word, "__init__", lambda *a: built.append(a))
        token = "a^" + "9" * 20
        with pytest.raises(BudgetExceeded, match=re.escape(repr(token))) as info:
            parse_word(f"b {token} b", ("a", "b"))
        assert info.value.limit == fp.RELATOR_LETTER_BUDGET == 1 << 20
        assert not built


class TestPresentation:
    def test_defaults_and_format(self):
        p = Presentation(2, (W([(0, 1)] * 2), W([(1, 1)] * 3)))
        assert p.labels == ("a", "b")
        assert p.format_word(W([(0, 1), (1, -1)])) == "a b^-1"
        assert p.format_word(W([])) == "1"

    def test_json_round_trip(self):
        p = Presentation(
            2, (W([(0, 1)] * 4), W([(0, 1), (0, 1), (1, -1), (1, -1)]))
        )
        q = Presentation.from_json(p.to_json())
        assert q == p
        payload = json.loads(p.to_json())
        assert set(payload) == {"generators", "relators"}

    def test_generators_string_rejected(self):
        # a string is not split into the labels a, b
        with pytest.raises(ParseError, match="generators"):
            Presentation.from_json_dict({"generators": "ab", "relators": []})

    def test_relators_string_rejected(self):
        # "a a" is not read character by character into three relators
        with pytest.raises(ParseError, match="relators"):
            Presentation.from_json_dict(
                {"generators": ["a"], "relators": "a a"})

    def test_non_string_relator_rejected(self):
        with pytest.raises(ParseError, match=r"relators\[1\]"):
            Presentation.from_json_dict(
                {"generators": ["a"], "relators": ["a a", 3]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError, match="generators.*'a'"):
            Presentation.from_json_dict(
                {"generators": ["a", "a"], "relators": []})

    def test_letter_budget_over_all_relators(self, monkeypatch):
        # 6 + 6 letters, under a budget of 10 one by one, over it together
        monkeypatch.setattr(fp, "RELATOR_LETTER_BUDGET", 10)
        built = []
        monkeypatch.setattr(Word, "__init__", lambda *a: built.append(a))
        with pytest.raises(BudgetExceeded) as info:
            Presentation.from_json_dict(
                {"generators": ["a"], "relators": ["a^6", "a^-6"]})
        assert info.value.limit == 10
        assert not built

    def test_not_an_object(self):
        with pytest.raises(ParseError,
                           match=r"presentation must be a JSON object, got \[1, 2\]"):
            Presentation.from_json_dict([1, 2])

    @pytest.mark.parametrize("label", ["x^2", "", "a b", "1"],
                             ids=["caret", "empty", "space", "one"])
    def test_label_that_cannot_be_read_back(self, label):
        with pytest.raises(ParseError, match=r"generators\[1\]"):
            Presentation(2, (), ("a", label))
        with pytest.raises(ParseError, match=r"generators\[1\]"):
            Presentation.from_json_dict(
                {"generators": ["a", label], "relators": []})

    def test_label_not_a_string(self):
        with pytest.raises(ParseError, match=r"generators\[0\] must be a string"):
            Presentation(1, (), (3,))
        with pytest.raises(ParseError, match=r"generators\[0\] must be a string"):
            Presentation.from_json_dict({"generators": [3], "relators": ["a"]})

    def test_validation(self):
        with pytest.raises(ValueError):
            Presentation(2, (), ("a", "a"))
        with pytest.raises(ValueError):
            Presentation(1, (W([(3, 1)]),))

    @pytest.mark.parametrize("e", [2, 0, -3])
    def test_letter_exponent_other_than_one_rejected(self, e):
        # a raw Word skips Word.of's check; todd_coxeter would read (0, 2)
        # as a^-1 and abelianization as a^2, so the presentation is refused
        with pytest.raises(ValueError, match=f"exponent must be \\+1 or -1, got {e}"):
            Presentation(1, (Word(((0, e),)),))


class TestToddCoxeter:
    def test_cyclic(self):
        p = Presentation(1, (W([(0, 1)] * 5),))
        ct = todd_coxeter(p)
        assert ct.ncosets == 5
        assert all(entry != -1 for row in ct.table for entry in row)
        assert ct.scans_close()

    def test_klein(self):
        p = Presentation(
            2, (W([(0, 1)] * 2), W([(1, 1)] * 2), W([(0, 1), (1, 1)] * 2))
        )
        assert todd_coxeter(p).ncosets == 4

    def test_coxeter_presentation_of_s4(self):
        rels = (
            W([(0, 1)] * 2), W([(1, 1)] * 2), W([(2, 1)] * 2),
            W([(0, 1), (1, 1)] * 3), W([(1, 1), (2, 1)] * 3),
            W([(0, 1), (2, 1)] * 2),
        )
        p = Presentation(3, rels)
        ct = todd_coxeter(p)
        assert ct.ncosets == 24
        G, gens = perm_rep(ct)
        assert G.order() == 24
        assert isomorphic(G, symmetric(4)) is not None

    def test_a4_presentation(self):
        p = Presentation(
            2, (W([(0, 1)] * 2), W([(1, 1)] * 3), W([(0, 1), (1, 1)] * 3))
        )
        assert todd_coxeter(p).ncosets == 12

    def test_quaternion_presentation(self):
        p = Presentation(
            2,
            (
                W([(0, 1)] * 4),
                W([(0, 1), (0, 1), (1, -1), (1, -1)]),
                W([(1, -1), (0, 1), (1, 1), (0, 1)]),
            ),
        )
        ct = todd_coxeter(p)
        assert ct.ncosets == 8
        G, _ = perm_rep(ct)
        # exactly one involution is the signature of the quaternion group
        assert sum(1 for g in G.elements() if g.order() == 2) == 1

    def test_subgroup_enumeration(self):
        rels = (
            W([(0, 1)] * 2), W([(1, 1)] * 2), W([(2, 1)] * 2),
            W([(0, 1), (1, 1)] * 3), W([(1, 1), (2, 1)] * 3),
            W([(0, 1), (2, 1)] * 2),
        )
        p = Presentation(3, rels)
        ct = todd_coxeter(p, subgroup_words=(W([(0, 1)]),))
        assert ct.ncosets == 12
        ct = todd_coxeter(
            p, subgroup_words=(W([(0, 1)]), W([(1, 1)]), W([(2, 1)]))
        )
        assert ct.ncosets == 1

    def test_relator_order_invariance(self):
        rels = [
            W([(0, 1)] * 2), W([(1, 1)] * 3), W([(0, 1), (1, 1)] * 3),
        ]
        base = todd_coxeter(Presentation(2, tuple(rels))).ncosets
        rng = random.Random(5)
        for _ in range(6):
            rng.shuffle(rels)
            assert todd_coxeter(Presentation(2, tuple(rels))).ncosets == base

    def test_coset_limit(self):
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(Presentation(2, ()), max_cosets=50)
        # the limit names itself in the error
        try:
            todd_coxeter(Presentation(2, ()), max_cosets=50)
        except CosetLimitExceeded as e:
            assert e.limit == 50

    @pytest.mark.parametrize("limit", [0, -5])
    def test_coset_limit_below_one_rejected(self, limit):
        # not even the subgroup's own coset fits under such a limit
        with pytest.raises(ValueError, match=f"at least 1, got {limit}"):
            todd_coxeter(Presentation(1, (W([(0, 1)]),)), max_cosets=limit)

    @pytest.mark.parametrize("e", [2, 0, -3])
    def test_subgroup_letter_exponent_other_than_one_rejected(self, e):
        # a raw Word skips Word.of's check; the enumeration would read (0, 2)
        # as a^-1 and give <a> (1 coset) for what was meant as <a^2> (2)
        p = Presentation(1, (W([(0, 1)] * 4),))
        with pytest.raises(ValueError, match=f"exponent must be \\+1 or -1, got {e}"):
            todd_coxeter(p, (Word(((0, e),)),))
        assert todd_coxeter(p, (W([(0, 1), (0, 1)]),)).ncosets == 2

    @pytest.mark.parametrize("g", [1, 3, -1])
    def test_subgroup_letter_naming_no_generator_rejected(self, g):
        # the check the relators get, not an IndexError (or, for -1, a
        # silent read of the last column)
        p = Presentation(1, (W([(0, 1)] * 4),))
        with pytest.raises(ValueError, match=f"subgroup word uses unknown generator {g}"):
            todd_coxeter(p, (W([(0, 1), (g, 1)]),))

    def test_trivial_group(self):
        p = Presentation(1, (W([(0, 1)]),))
        assert todd_coxeter(p).ncosets == 1

    def test_collapse_through_coincidences(self):
        # a presentation that forces many merges: C2 written redundantly
        p = Presentation(
            2, (W([(0, 1)] * 2), W([(1, 1)] * 2), W([(0, 1), (1, -1)]))
        )
        ct = todd_coxeter(p)
        assert ct.ncosets == 2
        assert ct.scans_close()

    def test_speed(self):
        rels = (
            W([(0, 1)] * 2), W([(1, 1)] * 2), W([(2, 1)] * 2),
            W([(0, 1), (1, 1)] * 3), W([(1, 1), (2, 1)] * 3),
            W([(0, 1), (2, 1)] * 2),
        )
        t0 = time.perf_counter()
        todd_coxeter(Presentation(3, rels))
        assert time.perf_counter() - t0 < 1.0


class TestPermRep:
    def test_regular_rep_of_c6(self):
        p = Presentation(1, (W([(0, 1)] * 6),))
        G, gens = perm_rep(todd_coxeter(p))
        assert G.degree == 6
        assert G.order() == 6
        assert gens[0].order() == 6

    def test_incomplete_table_rejected(self):
        p = Presentation(1, (W([(0, 1)] * 2),))
        bad = CosetTable(p, (), ((1, 1), (-1, -1)))
        with pytest.raises(IncompleteTable):
            perm_rep(bad)

    def test_undefined_forward_entry_rejected(self):
        # a -1 among the columns perm_rep reads once gave "not a bijection"
        p = Presentation(1, (W([(0, 1)] * 2),))
        bad = CosetTable(p, (), ((1, 1), (-1, 0)))
        with pytest.raises(IncompleteTable):
            perm_rep(bad)


class TestSmithNormalForm:
    def test_known_cases(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[2, 4], [4, 8]]) == [2, 0]
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
        assert smith_normal_form([[-6]]) == [6]
        assert smith_normal_form([[1, 2, 3]]) == [1]
        assert smith_normal_form([[2, 0], [0, 2], [0, 0]]) == [2, 2]

    def test_divisibility_and_sign(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            inv = smith_normal_form(rows)
            assert len(inv) == min(m, n)
            assert all(x >= 0 for x in inv)
            nz = [x for x in inv if x != 0]
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            # zeros only at the tail
            assert inv == nz + [0] * (len(inv) - len(nz))

    def test_against_minors_oracle(self):
        rng = random.Random(12)
        for _ in range(150):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert smith_normal_form(rows) == minors_gcd_invariants(rows)

    def test_input_not_mutated(self):
        rows = [[2, 4], [6, 8]]
        snapshot = [r[:] for r in rows]
        smith_normal_form(rows)
        assert rows == snapshot


class TestAbelianization:
    def test_examples(self):
        free2 = Presentation(2, ())
        assert abelianization(free2) == [0, 0]
        c6 = Presentation(1, (W([(0, 1)] * 6),))
        assert abelianization(c6) == [6]
        s3 = Presentation(
            2, (W([(0, 1)] * 2), W([(1, 1)] * 3), W([(0, 1), (1, 1)] * 2))
        )
        assert abelianization(s3) == [2]
        # b = a^2 collapses to a single free generator
        za = Presentation(2, (W([(0, 1), (0, 1), (1, -1)]),))
        assert abelianization(za) == [0]
        both = Presentation(
            2,
            (
                W([(0, 1), (1, 1), (0, -1), (1, -1)]),
                W([(0, 1)] * 4),
                W([(1, 1)] * 6),
            ),
        )
        assert abelianization(both) == [2, 12]
