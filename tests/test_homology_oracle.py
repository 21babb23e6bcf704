"""``|pi2|`` of an induced crossed module against the homology of a mapping
cone, with no enumeration of M.

By the 2-dimensional van Kampen theorem (Brown–Higgins; Brown–Wensley, *On
finite induced crossed modules, and the homotopy 2-type of mapping cones*,
TAC 1995), the crossed module induced from the identity on P along
``P <= Q`` is the fundamental crossed module of the mapping cone
``X = BQ ∪ C(BP)``: ``pi1 = pi1(X)`` and ``pi2 = pi2(X)``.  The exact
homology sequence of the pair ``(BQ, BP)``, with ``H2(BQ, BP) = H2(X)``,
reads

    H2(P) -> H2(Q) -> H2(X) -> P_ab -> Q_ab

When ``pi1 = 1``, X is simply connected and Hurewicz gives
``pi2 ≅ H2(X)``, so

    |pi2| = |coker(H2 P -> H2 Q)| · |ker(P_ab -> Q_ab)|.

That is exact when ``H2(P) = 0``.  Otherwise the image of ``H2(P)`` has
order between 1 and ``|H2 P|``, so ``|pi2|`` lies in
``[|H2 Q|·|ker| / |H2 P|, |H2 Q|·|ker|]``.

Closed forms for the Schur multiplier ``H2``, each from Karpilovsky, *The
Schur Multiplier*:

- ``H2(S_n) = C2`` for n >= 4 (Schur, 1911); every Q below is S4 or S5;
- a finite group whose Sylow subgroups are all cyclic has trivial
  multiplier: cyclic groups, S3 and the Frobenius group F20 below;
- ``H2(V4) = H2(D8) = H2(D12) = C2``: ``C_m x C_n`` has multiplier
  ``C_gcd(m,n)``, and a dihedral group of order 2m with m even has C2.

``|P_ab|`` is ``|P| / |P'|`` (``derived_subgroup``).  ``Q' = A_n``, so
``Q_ab = C2`` through the sign, and the image of P in ``Q_ab`` is C2 exactly
when P holds an odd permutation, that is when one of its generators is odd.

The oracle cannot kill a mutant of ``induce.induced_presentation`` that
drops a Peiffer relator per copy, because such a mutant presents the same
M.  Four were tried on 17 rows, the seven of the S4 table and ten
subgroups of S5:

- for every copy t, drop the relator of generator 0 of copy t with
  generator 0 of copy t + 1;
- the same, with the reverse relator dropped too;
- drop every relator of generator 0 of copy 0 with another copy;
- drop every relator, both ways, between copies 0 and 1.

Each left ``(|M|, pi2, |pi1|)`` unchanged on every row.  M is a quotient
of the group that a mutant presents, as the mutant has fewer relators, so
equal orders mean the relators kept imply those dropped.  Larger mutants
fail loudly rather than give a wrong M.  Dropping every relator of copy t
with copy t + 1, one way round, breaks the D8 row, which ``induce``
refuses (``RelationViolated``), and leaves the other rows unchanged.
Dropping every relator of generator 0 of each copy with the other copies
gives a presentation that Todd–Coxeter does not close within the default
coset limit on any row.

One S6 row is checked as well, S6 over ``P = <(1,2)>``, which finishes
at the default coset limit (as ``<(1,2)(3,4)(5,6)>`` does, checked in
CI).  There the closed forms give the
whole triple before anything is enumerated: ``H2(S6) = C2`` (Schur) and
``H2(C2) = 0`` (cyclic), so the prediction is exact; the sign map is
injective on ``<(1,2)>``, so ``ker(P_ab -> Q_ab) = 1`` and ``|pi2| = 2``;
the boundary's image is P's normal closure, which holds every
transposition and so is S6, hence ``pi1 = 1``; and the order law
``|M| = |pi2|·|d(M)|`` gives ``|M| = 2·720 = 1440``.  S6 over the cyclic
``P = <(1,2,3,4,5,6)>`` is exact the same way: ``H2(C6) = 0``, the 6-cycle
is odd, so ``ker(P_ab -> Q_ab) = C3`` and ``|pi2| = 2·3 = 6``, its normal
closure is S6, and ``|M| = 6·720 = 4320``.

Where ``pi1 = G != 1``, X is not simply connected, and the Serre spectral
sequence of ``X -> BG``, whose fibre is ``K(pi2, 2)``, gives Hopf's
sequence ``H3(X) -> H3(G) -> (pi2)_G -> H2(X) -> H2(G) -> 0`` (K. S. Brown,
*Cohomology of Groups*), with ``(pi2)_G = pi2 / <k^-1 k^q>`` the
coinvariants.  For ``G = C2`` or S3, ``H2(G) = 0`` and ``H3(G)`` is C2 or
C6, so ``|(pi2)_G| = c·|H2(X)|`` with c dividing ``|H3(G)|``.  On the rows
``P = <(1,2)(3,4)>`` of S4 (G = S3) and of S6 (G = C2), ``H2(P) = 0`` and
the double transposition is even, so ``|H2(X)| = 2·2 = 4`` exactly, and
the coinvariants read off the module must number 4 as well (c = 1).

Six more rows have ``G = C2`` and ``H2(P) = 0`` (P cyclic, or with cyclic
Sylow subgroups): C3 in S4, and ``<(1,2)(3,4)>``, C3, C5, the twisted S3
``<(1,2,3),(1,2)(4,5)>`` and D10 in S5.  There ``|H2(X)|`` is exact, and
the check is that it divides ``|(pi2)_G|`` with a quotient dividing
``|H3(C2)| = 2``.  A module whose action on pi2 is wrong fails it: with Q
acting trivially the coinvariants are all of pi2, 50 on S5/C5, where
``|H2(X)| = 10`` allows only 10 or 20.
"""

from math import prod

import pytest

from support import parity
from test_induce_paths import S5_CLASSES
from xmodlab.induce import induce
from xmodlab.perm import (
    derived_subgroup,
    dihedral,
    fingerprint,
    hom,
    identity_hom,
    isomorphic,
    parse_generator_list,
    symmetric,
)
from xmodlab.xmod import CrossedModule, identity_xmod, pi2, validate

# (name, group, |H2|) for the multipliers of the closed forms above that
# are not covered by the cyclic-Sylow rule
NAMED_MULTIPLIERS = (
    ("V4", dihedral(4), 2),
    ("D8", dihedral(8), 2),
    ("D12", dihedral(12), 2),
    ("S4", symmetric(4), 2),
    ("S5", symmetric(5), 2),
)

ROWS = [
    (4, sub) for sub in
    ["(1,2)", "(1,2),(1,2,3)", "(1,2),(3,4)", "(1,2,3,4),(1,3)", "(1,2,3,4)"]
] + [
    (5, sub) for sub, _, _, pi1_order, _ in S5_CLASSES if pi1_order == 1
] + [
    (5, sub) for sub in ["(1,2)", "(1,2,3,4)", "(1,2,3)(4,5)"]
]

# H2(P) = 0 on these rows, so the prediction is exact there
EXACT = [
    (4, "(1,2)"), (4, "(1,2),(1,2,3)"), (4, "(1,2,3,4)"),
    (5, "(1,2,3),(1,2)"), (5, "(1,2,3,4,5),(2,3,5,4)"),
    (5, "(1,2)"), (5, "(1,2,3,4)"), (5, "(1,2,3)(4,5)"),
]


def prime_powers(n):
    """The prime powers p^a exactly dividing n."""
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append(q)
        p += 1
    return out


def multiplier_order(P):
    """``|H2(P)|`` by the closed forms of the module docstring."""
    orders = dict(fingerprint(P).order_histogram)
    # a Sylow p-subgroup of order p^a is cyclic exactly when P has an
    # element of order p^a; the Sylow p-subgroups are conjugate
    if all(q in orders for q in prime_powers(P.order())):
        return 1
    for _, G, m in NAMED_MULTIPLIERS:
        if G.order() == P.order() and isomorphic(P, G) is not None:
            return m
    raise AssertionError(f"no closed form for the multiplier of {P}")


def prediction(Q, P):
    """``(|H2 Q|·|ker(P_ab -> Q_ab)|, |H2 P|)``."""
    assert Q.order() == 2 * derived_subgroup(Q).order()  # Q_ab = C2
    h2q = 2  # H2(S_n) = C2 for n >= 4
    p_ab = P.order() // derived_subgroup(P).order()
    odd = any(parity(g.images) == -1 for g in P.generators)
    kernel = p_ab // 2 if odd else p_ab  # of P_ab -> Q_ab
    return h2q * kernel, multiplier_order(P)


def test_rows():
    # S4 rows 1-5, the six S5 classes with pi1 = 1, then three more
    assert len(ROWS) == 14
    assert set(EXACT) <= set(ROWS)


@pytest.mark.parametrize("degree, sub", ROWS,
                         ids=[f"S{d}:{s}" for d, s in ROWS])
def test_pi2_order_against_mapping_cone_homology(degree, sub):
    Q = symmetric(degree)
    P = Q.subgroup(parse_generator_list(sub, degree))
    _, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert report.pi1_order == 1
    pi2_order = prod(report.pi2_invariants)
    upper, h2p = prediction(Q, P)
    assert (h2p == 1) == ((degree, sub) in EXACT)
    if h2p == 1:
        assert pi2_order == upper
    else:
        assert upper <= pi2_order * h2p and pi2_order <= upper


def test_s6_transposition_row_from_closed_forms():
    Q = symmetric(6)
    P = Q.subgroup(parse_generator_list("(1,2)", 6))
    assert prediction(Q, P) == (2, 1)  # exact: |pi2| = 2
    X, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert (report.induced_order, list(report.pi2_invariants),
            report.pi1_name) == (2 * 720, [2], "1")
    assert validate(X).ok
    assert report.order_law_ok
    # the order law with d(M) = S6
    assert report.induced_order == report.pi2_order * Q.order()


def test_s6_c6_row_from_closed_forms():
    Q = symmetric(6)
    P = Q.subgroup(parse_generator_list("(1,2,3,4,5,6)", 6))
    assert prediction(Q, P) == (6, 1)  # exact: |pi2| = 6
    X, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert (report.induced_order, list(report.pi2_invariants),
            report.pi1_name) == (6 * 720, [6], "1")
    assert validate(X).ok
    assert report.order_law_ok
    # the order law with d(M) = S6
    assert report.induced_order == report.pi2_order * Q.order()


def coinvariants_order(X):
    """``|(pi2)_Q|``: pi2 over the subgroup of the ``k^-1 k^q``, grown until
    Q maps it into itself.  ``m^q`` is read off the action entry of each
    generator q of Q through M's walk, so no element list of M is built."""
    M = X.M
    base = M._base()
    index = {key: i for i, key in enumerate(M._cayley_walk()[0])}

    def moved(m):  # m^-1 m^q for each generator q of Q
        i = index[tuple(m.images[b - 1] for b in base)]
        return [m.inverse() * M._element(a._keys[i]) for a in X.action]

    K, _ = pi2(X)
    gens = [d for k in K.generators for d in moved(k)]
    while True:
        I = M.subgroup(gens)
        more = [d for g in I.generators for d in moved(g) if d not in I]
        if not more:
            return K.order() // I.order()
        gens += more


@pytest.mark.parametrize("degree, pi1_name, order, invariants",
                         [(4, "S3", 128, [2, 2, 2, 4]),
                          (6, "C2", 8640, [2, 12])], ids=["S4", "S6"])
def test_double_transposition_rows_hopf_count(degree, pi1_name, order,
                                              invariants):
    Q = symmetric(degree)
    P = Q.subgroup(parse_generator_list("(1,2)(3,4)", degree))
    assert prediction(Q, P) == (4, 1)  # exact: |H2 X| = 4
    X, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert (report.induced_order, list(report.pi2_invariants),
            report.pi1_name) == (order, invariants, pi1_name)
    assert validate(X).ok
    assert report.order_law_ok
    assert coinvariants_order(X) == 4


# |H3(C2)| (K. S. Brown, *Cohomology of Groups*): Hopf's sequence with
# H2(C2) = 0 gives |(pi2)_G| = c·|H2 X| with c dividing it
H3_C2 = 2

# (n, P, |(pi2)_G| as measured) for the rows with pi1 = C2 and H2(P) = 0
HOPF_ROWS = (
    (4, "(1,2,3)", 6),
    (5, "(1,2)(3,4)", 4),
    (5, "(1,2,3)", 6),
    (5, "(1,2,3,4,5)", 10),
    (5, "(1,2,3),(1,2)(4,5)", 4),
    (5, "(1,2,3,4,5),(2,5)(3,4)", 4),
)


def hopf_holds(coinvariants, h2x):
    """Whether ``|(pi2)_G| = c·|H2 X|`` with c dividing ``|H3(C2)|``."""
    return coinvariants % h2x == 0 and H3_C2 % (coinvariants // h2x) == 0


def c2_row(degree, sub):
    """The induced module of a row of ``HOPF_ROWS`` and its exact
    ``|H2 X|``."""
    Q = symmetric(degree)
    P = Q.subgroup(parse_generator_list(sub, degree))
    h2x, h2p = prediction(Q, P)
    assert h2p == 1  # exact
    X, report = induce(identity_xmod(P), hom(P, Q, P.generators))
    assert report.pi1_name == "C2"
    return X, h2x


@pytest.mark.parametrize("degree, sub, count", HOPF_ROWS,
                         ids=[f"S{d}:{s}" for d, s, _ in HOPF_ROWS])
def test_c2_rows_hopf_count(degree, sub, count):
    X, h2x = c2_row(degree, sub)
    coinvariants = coinvariants_order(X)
    assert coinvariants == count
    assert hopf_holds(coinvariants, h2x)


def test_hopf_count_rejects_a_trivial_action():
    # the S5/C5 module with Q acting trivially: the coinvariants are all of
    # pi2, C5 x C10, and 50 is not 10 or 20
    X, h2x = c2_row(5, "(1,2,3,4,5)")
    trivial = CrossedModule(X.M, X.Q, X.boundary,
                            [identity_hom(X.M)] * len(X.Q.generators))
    assert h2x == 10
    coinvariants = coinvariants_order(trivial)
    assert coinvariants == 50
    assert not hopf_holds(coinvariants, h2x)
