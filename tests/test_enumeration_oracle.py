"""Coset enumeration against the reference copy in ``support``.

``todd_coxeter`` traces each relator scan through a sentinel row before it
runs the full scan-and-fill, but it must define the same cosets in the same
order and process the same coincidences, so every table, counter and refusal
has to match ``reference_todd_coxeter``.  That covers the small presentations
of ``test_fp``, random presentations and limits, the S4 rows regular and over
H, and the three enumerations over H that ``induce`` runs for P = S4,
``<(1,2)>`` and C5 in S5, whose counters are pinned too.  The S5 inductions of
``reference_induced_presentation`` (every element of M in every copy) are too
slow for the reference here; their regular tables are pinned by a hash taken
from the reference enumeration instead.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import reference_induced_presentation, reference_todd_coxeter
from xmodlab.errors import CosetLimitExceeded
from xmodlab.fp import CosetTable, Presentation, Word, todd_coxeter
from xmodlab.induce import (
    free_crossed_module_presentation,
    induced_presentation,
    table_subgroup,
)
from xmodlab.perm import PermGroup, cyclic, hom, parse_generator_list, symmetric
from xmodlab.xmod import identity_xmod


def W(pairs):
    return Word.of(pairs)


def outcome(enumerate_, presentation, subgroup_words=(), max_cosets=1 << 16):
    """The table with its counters, or the refusal's limit and message."""
    try:
        ct = enumerate_(presentation, subgroup_words, max_cosets)
    except CosetLimitExceeded as exc:
        return ("refused", exc.limit, str(exc))
    return ("table", ct.table, ct.defined, ct.peak_live)


def assert_same(presentation, subgroup_words=(), max_cosets=1 << 16):
    got = outcome(todd_coxeter, presentation, subgroup_words, max_cosets)
    want = outcome(reference_todd_coxeter, presentation, subgroup_words,
                   max_cosets)
    assert got == want
    return got


S4_COXETER = Presentation(3, (
    W([(0, 1)] * 2), W([(1, 1)] * 2), W([(2, 1)] * 2),
    W([(0, 1), (1, 1)] * 3), W([(1, 1), (2, 1)] * 3),
    W([(0, 1), (2, 1)] * 2),
))
A4_RELATORS = [W([(0, 1)] * 2), W([(1, 1)] * 3), W([(0, 1), (1, 1)] * 3)]

# every presentation enumerated in test_fp.py's TestToddCoxeter
SMALL = {
    "cyclic": Presentation(1, (W([(0, 1)] * 5),)),
    "klein": Presentation(
        2, (W([(0, 1)] * 2), W([(1, 1)] * 2), W([(0, 1), (1, 1)] * 2))),
    "s4_coxeter": S4_COXETER,
    "a4": Presentation(2, tuple(A4_RELATORS)),
    "quaternion": Presentation(2, (
        W([(0, 1)] * 4),
        W([(0, 1), (0, 1), (1, -1), (1, -1)]),
        W([(1, -1), (0, 1), (1, 1), (0, 1)]),
    )),
    "free2": Presentation(2, ()),
    "trivial": Presentation(1, (W([(0, 1)]),)),
    "collapse": Presentation(
        2, (W([(0, 1)] * 2), W([(1, 1)] * 2), W([(0, 1), (1, -1)]))),
    # rows of no entry, and one generator whose cosets all merge into the
    # first (a^3 = a^2 = 1): the renumbering's smallest tables
    "no_generators": Presentation(0, ()),
    "one_generator_collapse": Presentation(
        1, (W([(0, 1)] * 3), W([(0, -1)] * 2))),
}
rng = random.Random(5)
for _k in range(6):
    rng.shuffle(A4_RELATORS)
    SMALL[f"a4_shuffle{_k}"] = Presentation(2, tuple(A4_RELATORS))


def subgroup_choices(ngens):
    """No subgroup, each generator alone, all generators, and a longer word."""
    out = [(), tuple(W([(g, 1)]) for g in range(ngens))]
    out += [(W([(g, 1)]),) for g in range(ngens)]
    if ngens:
        out.append((W([(g, -1) for g in range(ngens)] + [(0, -1)]),))
    return out


class TestSmallPresentations:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_matches_reference(self, name):
        pres = SMALL[name]
        limit = 50 if name == "free2" else 1 << 16
        for words in subgroup_choices(pres.ngens):
            assert_same(pres, words, limit)

    def test_refusal_matches_reference(self):
        got = assert_same(SMALL["free2"], (), 50)
        assert got == ("refused", 50, "needed more than 50 cosets")

    def test_counters_not_compared(self):
        ct = todd_coxeter(SMALL["a4"])
        bare = CosetTable(ct.presentation, ct.subgroup, ct.table)
        assert bare == ct
        assert (bare.defined, bare.peak_live) == (0, 0)
        assert ct.defined >= ct.peak_live >= ct.ncosets == 12


def s4_row_induced(row):
    P = table_subgroup(row)
    iota = hom(P, symmetric(4), P.generators)
    return induced_presentation(identity_xmod(P), iota)


def s4_row_presentation(row):
    return s4_row_induced(row).presentation


class TestInducedPresentations:
    @pytest.mark.parametrize("row", range(1, 8))
    def test_s4_row_matches_reference(self, row):
        kind, table, defined, peak_live = assert_same(s4_row_presentation(row))
        assert kind == "table"
        # counters: every coset kept was defined and live at once
        assert defined >= peak_live >= len(table)

    @pytest.mark.parametrize("row", range(1, 8))
    def test_s4_row_over_h_matches_reference(self, row):
        # the enumeration induce runs: over the copy of M at the identity
        # coset, whose index is |M*| / |M|
        ip = s4_row_induced(row)
        kind, table, _, _ = assert_same(ip.presentation, ip.subgroup_words)
        assert kind == "table"
        order = (48, 48, 48, 48, 96, 72, 128)[row - 1]
        assert len(table) * table_subgroup(row).order() == order

    @pytest.mark.parametrize("relation", ["identity", "generator"])
    def test_free_crossed_module_refusal_matches_reference(self, relation):
        C2 = cyclic(2)
        w = C2.identity if relation == "identity" else C2.generators[0]
        pres = free_crossed_module_presentation(C2, [("r", w)]).presentation
        assert assert_same(pres, (), 500) == (
            "refused", 500, "needed more than 500 cosets")


# (subgroup P of S5, cosets, cosets defined, peak live cosets) of the
# enumeration over H that induce runs on identity_xmod(P)
S5_OVER_H = (
    ("(1,2,3,4),(1,2)", 5, 134, 117),
    ("(1,2)", 120, 3902, 3152),
    ("(1,2,3,4,5)", 600, 4714, 2353),
)


class TestS5OverH:
    @pytest.mark.parametrize("sub, ncosets, defined, peak_live", S5_OVER_H)
    def test_matches_reference(self, sub, ncosets, defined, peak_live):
        Q = PermGroup(5, parse_generator_list("(1,2,3,4,5),(1,2)", 5))
        P = Q.subgroup(parse_generator_list(sub, 5))
        ip = induced_presentation(identity_xmod(P), hom(P, Q, P.generators))
        got = assert_same(ip.presentation, ip.subgroup_words)
        assert got[0] == "table"
        assert (len(got[1]), got[2], got[3]) == (ncosets, defined, peak_live)


# (subgroup of S5, coset count, sha256 of repr(table), cosets defined,
# peak live cosets), all from the reference enumeration
S5_TABLES = (
    ("(1,2,3,4),(1,2)", 120,
     "c35409fd13200b80254c4aa32ba9b03ea9cd4c2822ca60e53e233fcbdbe70b75",
     10778, 10696),
    ("(1,2)", 240,
     "7973ef321377f712f13d046a1900568ea305917e848b51772867ab421699f524",
     7696, 6304),
)


def s5_presentation(sub):
    Q = PermGroup(5, parse_generator_list("(1,2,3,4,5),(1,2)", 5))
    P = Q.subgroup(parse_generator_list(sub, 5))
    return reference_induced_presentation(
        identity_xmod(P), hom(P, Q, P.generators))


class TestS5Pinned:
    @pytest.mark.parametrize(
        "sub, ncosets, digest, defined, peak_live", S5_TABLES)
    def test_table_hash(self, sub, ncosets, digest, defined, peak_live):
        ct = todd_coxeter(s5_presentation(sub).presentation)
        assert ct.ncosets == ncosets
        assert hashlib.sha256(repr(ct.table).encode()).hexdigest() == digest
        assert (ct.defined, ct.peak_live) == (defined, peak_live)

    def test_c5_refusal(self):
        pres = s5_presentation("(1,2,3,4,5)").presentation
        with pytest.raises(CosetLimitExceeded) as info:
            todd_coxeter(pres)
        assert info.value.limit == 65536
        assert str(info.value) == "needed more than 65536 cosets"


words = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
    min_size=1, max_size=6,
)


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    word = words.map(
        lambda ls: W([(g % ngens, e) for g, e in ls]))
    relators = tuple(draw(st.lists(word, max_size=4)))
    subgroup = tuple(draw(st.lists(word, max_size=2)))
    return Presentation(ngens, relators), subgroup, draw(st.integers(1, 200))


class TestRandomPresentations:
    @settings(max_examples=300, deadline=None)
    @given(small_presentations())
    def test_matches_reference(self, case):
        pres, subgroup, limit = case
        assert_same(pres, subgroup, limit)
