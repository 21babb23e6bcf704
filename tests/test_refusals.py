"""Every typed bound refusal names the bound it met, and carries it.

Each case runs one input past one hard bound of the package and requires
the bound's value in the refusal's message (on stderr, for the command
line, which exits 2), and, for a refusal raised by the library, as its
``limit``.  Enumeration is refused by a group's Cayley walk
alone, so a crossed module, an action and a fingerprint over S8 all meet
the same ``order 40320 exceeds 10000``.
"""

import contextlib
import io

import pytest

from xmodlab.cli import main
from xmodlab.errors import (
    BudgetExceeded,
    CosetLimitExceeded,
    EnumerationBoundExceeded,
    MaterializationBoundExceeded,
    SearchBoundExceeded,
)
from xmodlab.fp import DEFAULT_MAX_COSETS, RELATOR_LETTER_BUDGET
from xmodlab.induce import free_crossed_module_presentation, induce
from xmodlab.perm import (
    ENUMERATION_BOUND,
    ISO_SEARCH_BOUND,
    GroupHom,
    cyclic,
    fingerprint,
    hom,
    isomorphic,
    parse_permutation,
    symmetric,
)
from xmodlab.squares import MATERIALIZATION_BOUND, DoubleGroupoidView
from xmodlab.xmod import CrossedModule, identity_xmod

MAX_COSETS = 37


def inclusion(degree, sub):
    Q = symmetric(degree)
    H = Q.subgroup([parse_permutation(sub, degree)])
    return identity_xmod(H), hom(H, Q, H.generators)


def trivial_module_over_s8():
    S8 = symmetric(8)
    triv = cyclic(1)
    CrossedModule(triv, S8, hom(triv, S8, []),
                  [GroupHom(triv, triv, []) for _ in S8.generators])


def refused(error, run):
    """The ``error`` that ``run()`` must raise."""
    def raised():
        with pytest.raises(error) as info:
            run()
        return info.value
    return raised


def identify_s8():
    """What ``xmodlab identify`` prints on stderr for S8; it exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["identify", "--degree", "8",
                   "--group", "(1,2),(1,2,3,4,5,6,7,8)"])
    assert rc == 2
    return err.getvalue()


# the bound each case meets, and its refusal: the library's error, or the
# command line's stderr
REFUSALS = {
    "identity_xmod(S8)": (ENUMERATION_BOUND, refused(
        EnumerationBoundExceeded, lambda: identity_xmod(symmetric(8)))),
    "action over S8": (ENUMERATION_BOUND, refused(
        EnumerationBoundExceeded, trivial_module_over_s8)),
    "fingerprint(S8)": (ENUMERATION_BOUND, refused(
        EnumerationBoundExceeded, lambda: fingerprint(symmetric(8)))),
    "identify S8": (ENUMERATION_BOUND, identify_s8),
    "isomorphic(S6, S6)": (ISO_SEARCH_BOUND, refused(
        SearchBoundExceeded, lambda: isomorphic(symmetric(6), symmetric(6)))),
    "squares of S5": (MATERIALIZATION_BOUND, refused(
        MaterializationBoundExceeded,
        lambda: DoubleGroupoidView(identity_xmod(symmetric(5))).squares())),
    "free over S7": (RELATOR_LETTER_BUDGET, refused(
        BudgetExceeded, lambda: free_crossed_module_presentation(
            symmetric(7), [("r", parse_permutation("(1,2)", 7))]))),
    # presented on the generators of six of its 2520 copies, S7/<(1,2)>
    # fits the letter budget and is refused by the default coset limit
    "S7/<(1,2)>": (DEFAULT_MAX_COSETS, refused(
        CosetLimitExceeded, lambda: induce(*inclusion(7, "(1,2)")))),
    "cosets": (MAX_COSETS, refused(
        CosetLimitExceeded,
        lambda: induce(*inclusion(4, "(1,2)"), max_cosets=MAX_COSETS))),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_its_bound(case):
    bound, refusal = REFUSALS[case]
    assert str(bound) in str(refusal())


@pytest.mark.parametrize("case", [c for c in REFUSALS if c != "identify S8"])
def test_refusal_carries_its_bound(case):
    bound, refusal = REFUSALS[case]
    assert refusal().limit == bound
