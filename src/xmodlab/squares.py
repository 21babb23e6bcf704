"""Square calculus of a crossed module: a double groupoid with connection.

A square over a crossed module d: M -> P has edges n, w, e, s in P and a
label m in M tied by the boundary condition

    dm = s^-1 w^-1 n e

so s is determined: ``square(X, n, w, e, m)`` computes it.  Compositions:

    horizontal (shared vertical edge, left.e == right.w):
        n = n1n2, w = w1, e = e2, s = s1s2, m = m1^(s2) * m2
    vertical (shared horizontal edge, top.s == bottom.n):
        n = n1, w = w1w2, e = e1e2, s = s2, m = m2 * m1^(e2)

Thin squares are those with trivial label; the connections Gamma+ and
Gamma- are the thin squares folding an edge around a corner.

The interchange law for 2x2 blocks reduces to CM2.  The block that
``_block_from_triple`` builds from (ma, md, u) interchanges exactly when

    md * ma^(u dmd) = ma^u * md,

which is CM2 at (ma^u, md).  For fixed u, ma -> ma^u is a bijection of M,
so the law holds on every triple exactly when CM2 holds on every pair of M,
and ``validate``'s argument shows that this holds exactly when CM2 holds on
generator pairs.  ``interchange_exhaustive`` proves the law that way and
scans the triples only when a generator pair fails.  ``gamma`` rebuilds a
crossed module from squares alone and is the round-trip witness for the
whole encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EdgeMismatch, MaterializationBoundExceeded, NotInGroup
from .perm import GroupHom, PermGroup, Permutation
from .xmod import CrossedModule, _cm2_failure

MATERIALIZATION_BOUND = 1 << 20


@dataclass(frozen=True)
class Square:
    """Oriented square: edges n, w, e, s in the base group, label m in M.

    Prints as ``(n | w e | s; m)``.  Equality compares edges and label;
    squares only compose over the same crossed module instance.
    """

    n: Permutation
    w: Permutation
    e: Permutation
    s: Permutation
    m: Permutation
    xmod: CrossedModule = field(repr=False, compare=False)

    def __str__(self) -> str:
        return f"({self.n} | {self.w} {self.e} | {self.s}; {self.m})"

    def is_thin(self) -> bool:
        return self.m.is_identity()

    def boundary_holds(self) -> bool:
        bm = self.xmod.boundary.apply(self.m)
        return bm == self.s.inverse() * self.w.inverse() * self.n * self.e


def square(
    X: CrossedModule,
    n: Permutation,
    w: Permutation,
    e: Permutation,
    m: Permutation,
) -> Square:
    """Square with the given north/west/east edges and label; south computed."""
    for edge in (n, w, e):
        if edge not in X.Q:
            raise NotInGroup(f"edge {edge} is not in the base group")
    if m not in X.M:
        raise NotInGroup(f"label {m} is not in M")
    s = w.inverse() * n * e * X.boundary.apply(m).inverse()
    return Square(n=n, w=w, e=e, s=s, m=m, xmod=X)


def _require_same(a: Square, b: Square):
    if a.xmod is not b.xmod:
        raise EdgeMismatch("squares live over different crossed modules")


def compose_h(left: Square, right: Square) -> Square:
    """Compose along the shared vertical edge (left.e must equal right.w)."""
    _require_same(left, right)
    if left.e != right.w:
        raise EdgeMismatch(
            f"horizontal composition needs left.e == right.w "
            f"({left.e} vs {right.w})"
        )
    X = left.xmod
    return Square(
        n=left.n * right.n,
        w=left.w,
        e=right.e,
        s=left.s * right.s,
        m=X.act(left.m, right.s) * right.m,
        xmod=X,
    )


def compose_v(top: Square, bottom: Square) -> Square:
    """Compose along the shared horizontal edge (top.s must equal bottom.n)."""
    _require_same(top, bottom)
    if top.s != bottom.n:
        raise EdgeMismatch(
            f"vertical composition needs top.s == bottom.n "
            f"({top.s} vs {bottom.n})"
        )
    X = top.xmod
    return Square(
        n=top.n,
        w=top.w * bottom.w,
        e=top.e * bottom.e,
        s=bottom.s,
        m=bottom.m * X.act(top.m, bottom.e),
        xmod=X,
    )


def h_unit(X: CrossedModule, p: Permutation) -> Square:
    """Two-sided unit for horizontal composition at vertical edge p."""
    idq = X.Q.identity
    return Square(n=idq, w=p, e=p, s=idq, m=X.M.identity, xmod=X)


def v_unit(X: CrossedModule, g: Permutation) -> Square:
    """Two-sided unit for vertical composition at horizontal edge g."""
    idq = X.Q.identity
    return Square(n=g, w=idq, e=idq, s=g, m=X.M.identity, xmod=X)


def inverse_h(sq: Square) -> Square:
    """Horizontal inverse: composes with sq to the unit at sq.w."""
    X = sq.xmod
    si = sq.s.inverse()
    return Square(
        n=sq.n.inverse(),
        w=sq.e,
        e=sq.w,
        s=si,
        m=X.act(sq.m.inverse(), si),
        xmod=X,
    )


def inverse_v(sq: Square) -> Square:
    """Vertical inverse: composes with sq to the unit at sq.n."""
    X = sq.xmod
    ei = sq.e.inverse()
    return Square(
        n=sq.s,
        w=sq.w.inverse(),
        e=ei,
        s=sq.n,
        m=X.act(sq.m.inverse(), ei),
        xmod=X,
    )


def connection_plus(X: CrossedModule, g: Permutation) -> Square:
    """Thin square folding g from the north edge onto the west edge."""
    idq = X.Q.identity
    return Square(n=g, w=g, e=idq, s=idq, m=X.M.identity, xmod=X)


def connection_minus(X: CrossedModule, g: Permutation) -> Square:
    """Thin square folding g from the east edge onto the south edge."""
    idq = X.Q.identity
    return Square(n=idq, w=idq, e=g, s=g, m=X.M.identity, xmod=X)


# ---------------------------------------------------------------------------
# the derived double groupoid


class DoubleGroupoidView:
    """Squares of a crossed module, materialized only when small enough.

    The universe has |P|^3*|M| squares (n, w, e free, label free, s computed).
    Beyond ``MATERIALIZATION_BOUND`` the list is refused but element-wise
    operations (composition, gamma, the interchange searches) still work.
    """

    def __init__(self, X: CrossedModule):
        self.xmod = X
        self._squares = None

    def square_count(self) -> int:
        p = self.xmod.Q.order()
        return p * p * p * self.xmod.M.order()

    def squares(self) -> list[Square]:
        if self._squares is None:
            count = self.square_count()
            if count > MATERIALIZATION_BOUND:
                raise MaterializationBoundExceeded(
                    f"{count} squares exceed the bound of "
                    f"{MATERIALIZATION_BOUND}"
                )
            X = self.xmod
            qelems = X.Q.elements()
            melems = X.M.elements()
            self._squares = [
                square(X, n, w, e, m)
                for n in qelems
                for w in qelems
                for e in qelems
                for m in melems
            ]
        return self._squares


def gamma(view: DoubleGroupoidView) -> CrossedModule:
    """Rebuild a crossed module from squares alone.

    Elements of M are represented by squares sigma(m) with trivial west,
    east and south edges, built once per call.  Horizontal composition
    multiplies them, and the recovered group is their right-regular action,
    whose degree bounds its order (``PermGroup._bounded``: one chain level,
    no Schreier generator); ``regular`` composes the squares on purpose, as
    the round-trip witness.
    The boundary reads the north edge of sigma(m); the action conjugates by
    sandwiching between thin squares.  The result is isomorphic to
    ``view.xmod`` (the round-trip test), and nothing here enumerates the
    square universe.
    """
    X = view.xmod
    P = X.Q
    idq = P.identity
    melems = list(X.M.elements())
    midx = X.M.element_index()

    # the |M| squares sigma(m), in the order of melems
    sigmas = [
        square(X, X.boundary.apply(m), idq, idq, m) for m in melems
    ]

    def sigma(m):
        return sigmas[midx[m]]

    def regular(x):
        # right multiplication by x, computed through compose_h
        sx = sigma(x)
        images = [midx[compose_h(sm, sx).m] + 1 for sm in sigmas]
        return Permutation(tuple(images))

    gens = [regular(g) for g in X.M.generators]
    M_rec = PermGroup._bounded(len(melems), gens, len(melems))

    boundary = GroupHom(
        M_rec, P, [sigma(g).n for g in X.M.generators]
    )

    def conjugate_by_thin(m, p):
        # sigma(m) sandwiched vertically between thin squares carrying p
        top = square(X, p.inverse() * X.boundary.apply(m) * p,
                     p.inverse(), p.inverse(), X.M.identity)
        mid = sigma(m)
        bot = square(X, mid.s, p, p, X.M.identity)
        return compose_v(top, compose_v(mid, bot)).m

    action = []
    for p in P.generators:
        images = [regular(conjugate_by_thin(g, p)) for g in X.M.generators]
        action.append(GroupHom(M_rec, M_rec, images))
    return CrossedModule(M_rec, P, boundary, action)


# ---------------------------------------------------------------------------
# interchange law


def _block_from_triple(X: CrossedModule, ma, md, u):
    """A 2x2 composable block whose interchange identity reduces to the
    Peiffer comparison of (ma, md) twisted by u.

    Every block reduces to such a triple once edges are cancelled, so
    exhausting triples exhausts the law.
    """
    idq = X.Q.identity
    da = X.boundary.apply(ma)
    dd = X.boundary.apply(md)
    a = square(X, idq, idq, idq, ma)
    b = square(X, u * dd, idq, idq, X.M.identity)
    c = square(X, a.s, idq, u, X.M.identity)
    d = square(X, b.s, u, idq, md)
    return a, b, c, d


def _block_interchanges(a, b, c, d) -> bool:
    row_then_column = compose_v(compose_h(a, b), compose_h(c, d))
    column_then_row = compose_h(compose_v(a, c), compose_v(b, d))
    return row_then_column == column_then_row


def interchange_exhaustive(X: CrossedModule):
    """First 2x2 block violating interchange, or None if the law holds.

    Covers the full block space through the triple reduction; a None from
    this search is a proof for the given crossed module.  The proof is
    made on generator pairs.  Composing the block of (ma, md, u) with
    ``a = (1 | 1 1 | dma^-1; ma)``, ``b = (u dmd | 1 1 | u dmd; 1)``,
    ``c = (dma^-1 | 1 u | dma^-1 u; 1)`` and ``d = (u dmd | u 1 | 1; md)``:

    - rows first, ``a|b`` has label ``ma^(u dmd)`` and ``c|d`` has label
      ``md``, so the block has label ``md * ma^(u dmd)``;
    - columns first, ``a/c`` has label ``ma^u`` and ``b/d`` has label
      ``md``, so the block has label ``ma^u * md``;
    - both ways the edges are ``(u dmd | 1 1 | dma^-1 u)``, so the block
      interchanges exactly when the two labels agree.

    The action is a right action of Q by automorphisms (the action table
    is filled along Q's spanning tree and proved on the Schreier edges of
    Q's walk by ``perm._replay_walk``, which rejects an assignment that
    breaks a relation of Q), so ``ma^(u dmd) =
    (ma^u)^(dmd)`` and the identity is CM2 at ``(ma^u, md)``.  For fixed
    u, ``ma -> ma^u`` is a bijection of M, so the law holds on every triple
    exactly when CM2 holds on all of ``M x M``, which ``validate``'s
    argument reduces to ``gens(M) x gens(M)``; it uses the boundary and the
    action only, not CM1.  When a generator pair fails, the triples are
    scanned in element order and the first violating block is returned.
    """
    gens = X.M.generators
    if _cm2_failure(X, gens, gens) is None:
        return None
    for ma in X.M.elements():
        for md in X.M.elements():
            for u in X.Q.elements():
                block = _block_from_triple(X, ma, md, u)
                if not _block_interchanges(*block):
                    return block
    return None


def random_block(X: CrossedModule, rng):
    """Uniformly random composable 2x2 block (a b / c d)."""
    qelems = X.Q.elements()
    melems = X.M.elements()

    def rq():
        return rng.choice(qelems)

    def rm():
        return rng.choice(melems)

    a = square(X, rq(), rq(), rq(), rm())
    b = square(X, rq(), a.e, rq(), rm())
    c = square(X, a.s, rq(), rq(), rm())
    d_n = b.s
    d = square(X, d_n, c.e, rq(), rm())
    return a, b, c, d


def interchange_sampled(X: CrossedModule, samples: int, rng):
    """First violating block among ``samples`` random ones, or None."""
    for _ in range(samples):
        block = random_block(X, rng)
        if not _block_interchanges(*block):
            return block
    return None
