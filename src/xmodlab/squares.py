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

Every formula above is written once, in ``_Kernel``, on element indices: a
square is the 5-tuple ``(n, w, e, s, m)`` of the indices of its edges in
``Q.elements()`` and of its label in ``M.elements()``, where 0 is the
identity (``elements()`` is sorted by image tuple).  The kernel is built
on first need and kept on the module, like ``perm._context`` on a group,
and like that context it reads products through ``perm._product_rule``,
which looks an element's base images up in the other's image tuple.  It
holds Q's and M's products and inverses, the boundary's index array and
the action array of every element of Q.  Its memory is ``O(|G|·|base|)``
per group plus the ``|Q|·|M|`` action arrays the module already keeps;
neither it nor the isomorphism search builds a ``|G|²`` table, so no bound
is added: a module the library can build has a kernel.  The public functions
translate ``Square`` objects to indices (an edge or label outside its
group raises ``NotInGroup``), call the kernel and translate back; the bulk
callers (the interchange searches, ``DoubleGroupoidView.squares`` and
``gamma``) stay in indices and translate only what they return, so no
square costs a permutation product or a membership test.  The random
searches draw indices with ``rng.choice(range(n))``, which makes the same
``_randbelow`` call as ``rng.choice`` on the n elements, so the draws, and
the first failing block, are those of drawing elements.

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
from .perm import GroupHom, PermGroup, Permutation, _product_rule
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
        k = _kernel(self.xmod)
        return k.boundary_holds(k.indices(self))


class _Kernel:
    """The square calculus of one crossed module on element indices.

    A square is ``(n, w, e, s, m)``: the indices of its edges in
    ``Q.elements()`` and of its label in ``M.elements()``.  Each formula of
    the module docstring is written here once.
    """

    def __init__(self, X: CrossedModule):
        Q, M = X.Q, X.M
        self.xmod = X
        self.qelems, self.melems = Q.elements(), M.elements()
        self.qindex, self.mindex = Q.element_index(), M.element_index()
        self.qmul, self.mmul = _product_rule(Q), _product_rule(M)
        self.qinv = [self.qindex[q.inverse()] for q in self.qelems]
        self.minv = [self.mindex[m.inverse()] for m in self.melems]
        self.d = X.boundary._index_array()
        self.act = [X.act_array(q) for q in self.qelems]

    def edge(self, p: Permutation) -> int:
        return _index_of(self.qindex, p, "edge", "the base group")

    def label(self, m: Permutation) -> int:
        return _index_of(self.mindex, m, "label", "M")

    def indices(self, sq: Square) -> tuple:
        edge = self.edge
        return edge(sq.n), edge(sq.w), edge(sq.e), edge(sq.s), self.label(sq.m)

    def to_square(self, t) -> Square:
        q = self.qelems
        return Square(q[t[0]], q[t[1]], q[t[2]], q[t[3]], self.melems[t[4]],
                      self.xmod)

    def square(self, n, w, e, m) -> tuple:
        qmul, qinv = self.qmul, self.qinv
        return n, w, e, qmul(qmul(qmul(qinv[w], n), e), qinv[self.d[m]]), m

    def boundary_holds(self, t) -> bool:
        n, w, e, s, m = t
        qmul, qinv = self.qmul, self.qinv
        return self.d[m] == qmul(qmul(qmul(qinv[s], qinv[w]), n), e)

    def compose_h(self, a, b) -> tuple:
        qmul = self.qmul
        return (qmul(a[0], b[0]), a[1], b[2], qmul(a[3], b[3]),
                self.mmul(self.act[b[3]][a[4]], b[4]))

    def compose_v(self, a, b) -> tuple:
        qmul = self.qmul
        return (a[0], qmul(a[1], b[1]), qmul(a[2], b[2]), b[3],
                self.mmul(b[4], self.act[b[2]][a[4]]))

    def inverse_h(self, t) -> tuple:
        n, w, e, s, m = t
        si = self.qinv[s]
        return self.qinv[n], e, w, si, self.act[si][self.minv[m]]

    def inverse_v(self, t) -> tuple:
        n, w, e, s, m = t
        ei = self.qinv[e]
        return s, self.qinv[w], ei, n, self.act[ei][self.minv[m]]

    def interchanges(self, a, b, c, d) -> bool:
        h, v = self.compose_h, self.compose_v
        return v(h(a, b), h(c, d)) == h(v(a, c), v(b, d))


def _kernel(X: CrossedModule) -> _Kernel:
    """The module's index kernel, built once."""
    if X._square_kernel is None:
        X._square_kernel = _Kernel(X)
    return X._square_kernel


def _index_of(index: dict, p, what: str, where: str) -> int:
    try:
        return index[p]
    except (KeyError, TypeError):
        raise NotInGroup(f"{what} {p} is not in {where}") from None


def square(
    X: CrossedModule,
    n: Permutation,
    w: Permutation,
    e: Permutation,
    m: Permutation,
) -> Square:
    """Square with the given north/west/east edges and label; south computed."""
    k = _kernel(X)
    return k.to_square(k.square(k.edge(n), k.edge(w), k.edge(e), k.label(m)))


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
    k = _kernel(left.xmod)
    return k.to_square(k.compose_h(k.indices(left), k.indices(right)))


def compose_v(top: Square, bottom: Square) -> Square:
    """Compose along the shared horizontal edge (top.s must equal bottom.n)."""
    _require_same(top, bottom)
    if top.s != bottom.n:
        raise EdgeMismatch(
            f"vertical composition needs top.s == bottom.n "
            f"({top.s} vs {bottom.n})"
        )
    k = _kernel(top.xmod)
    return k.to_square(k.compose_v(k.indices(top), k.indices(bottom)))


def h_unit(X: CrossedModule, p: Permutation) -> Square:
    """Two-sided unit for horizontal composition at vertical edge p."""
    k = _kernel(X)
    i = k.edge(p)
    return k.to_square((0, i, i, 0, 0))


def v_unit(X: CrossedModule, g: Permutation) -> Square:
    """Two-sided unit for vertical composition at horizontal edge g."""
    k = _kernel(X)
    i = k.edge(g)
    return k.to_square((i, 0, 0, i, 0))


def inverse_h(sq: Square) -> Square:
    """Horizontal inverse: composes with sq to the unit at sq.w."""
    k = _kernel(sq.xmod)
    return k.to_square(k.inverse_h(k.indices(sq)))


def inverse_v(sq: Square) -> Square:
    """Vertical inverse: composes with sq to the unit at sq.n."""
    k = _kernel(sq.xmod)
    return k.to_square(k.inverse_v(k.indices(sq)))


def connection_plus(X: CrossedModule, g: Permutation) -> Square:
    """Thin square folding g from the north edge onto the west edge."""
    k = _kernel(X)
    i = k.edge(g)
    return k.to_square((i, i, 0, 0, 0))


def connection_minus(X: CrossedModule, g: Permutation) -> Square:
    """Thin square folding g from the east edge onto the south edge."""
    k = _kernel(X)
    i = k.edge(g)
    return k.to_square((0, 0, i, i, 0))


# ---------------------------------------------------------------------------
# the derived double groupoid


class DoubleGroupoidView:
    """Squares of a crossed module, materialized only when small enough.

    The universe has |P|^3*|M| squares (n, w, e free, label free, s computed).
    Beyond ``MATERIALIZATION_BOUND`` the list is refused but element-wise
    operations (composition, gamma, the interchange searches) still work.
    The list is built on indices, n, then w, then e, then the label, each in
    element order, with no membership test: every index names an element.
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
                    f"{MATERIALIZATION_BOUND}",
                    limit=MATERIALIZATION_BOUND,
                )
            k = _kernel(self.xmod)
            qs, ms = range(len(k.qelems)), range(len(k.melems))
            self._squares = [
                k.to_square(k.square(n, w, e, m))
                for n in qs for w in qs for e in qs for m in ms
            ]
        return self._squares


def gamma(view: DoubleGroupoidView) -> CrossedModule:
    """Rebuild a crossed module from squares alone.

    Elements of M are represented by squares sigma(m) with trivial west,
    east and south edges, built once per call on the module's index kernel.
    Horizontal composition multiplies them, and the recovered group is their right-regular action,
    whose degree bounds its order (``PermGroup._bounded``: one chain level,
    no Schreier generator); ``regular`` composes the squares on purpose, as
    the round-trip witness.
    The boundary reads the north edge of sigma(m); the action conjugates by
    sandwiching between thin squares.  The result is isomorphic to
    ``view.xmod`` (the round-trip test), and nothing here enumerates the
    square universe.
    """
    X = view.xmod
    k = _kernel(X)
    order = len(k.melems)
    # the |M| squares sigma(m), in the order of M.elements()
    sigmas = [k.square(k.d[m], 0, 0, m) for m in range(order)]

    def regular(x):
        # right multiplication by x, computed through compose_h
        sx = sigmas[x]
        return Permutation(tuple([k.compose_h(sm, sx)[4] + 1
                                  for sm in sigmas]))

    gens = [k.mindex[g] for g in X.M.generators]
    M_rec = PermGroup._bounded(order, [regular(g) for g in gens], order)
    boundary = GroupHom(M_rec, X.Q, [k.qelems[sigmas[g][0]] for g in gens])

    def conjugate_by_thin(m, p):
        # sigma(m) sandwiched vertically between thin squares carrying p
        pi = k.qinv[p]
        mid = sigmas[m]
        top = k.square(k.qmul(k.qmul(pi, mid[0]), p), pi, pi, 0)
        bot = k.square(mid[3], p, p, 0)
        return k.compose_v(top, k.compose_v(mid, bot))[4]

    action = []
    for p in X.Q.generators:
        images = [regular(conjugate_by_thin(g, k.qindex[p])) for g in gens]
        action.append(GroupHom(M_rec, M_rec, images))
    return CrossedModule(M_rec, X.Q, boundary, action)


# ---------------------------------------------------------------------------
# interchange law


def _block_from_triple(k: _Kernel, ma: int, md: int, u: int):
    """A 2x2 composable block, on indices, whose interchange identity
    reduces to the Peiffer comparison of (ma, md) twisted by u.

    Every block reduces to such a triple once edges are cancelled, so
    exhausting triples exhausts the law.
    """
    a = k.square(0, 0, 0, ma)
    b = k.square(k.qmul(u, k.d[md]), 0, 0, 0)
    c = k.square(a[3], 0, u, 0)
    d = k.square(b[3], u, 0, md)
    return a, b, c, d


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
    k = _kernel(X)
    ms, qs = range(len(k.melems)), range(len(k.qelems))
    for ma in ms:
        for md in ms:
            for u in qs:
                block = _block_from_triple(k, ma, md, u)
                if not k.interchanges(*block):
                    return tuple(map(k.to_square, block))
    return None


def _random_block(k: _Kernel, rng):
    """Uniformly random composable 2x2 block (a b / c d), on indices."""
    qs, ms = range(len(k.qelems)), range(len(k.melems))

    def rq():
        return rng.choice(qs)

    def rm():
        return rng.choice(ms)

    a = k.square(rq(), rq(), rq(), rm())
    b = k.square(rq(), a[2], rq(), rm())
    c = k.square(a[3], rq(), rq(), rm())
    d = k.square(b[3], c[2], rq(), rm())
    return a, b, c, d


def random_block(X: CrossedModule, rng):
    """Uniformly random composable 2x2 block (a b / c d)."""
    k = _kernel(X)
    return tuple(map(k.to_square, _random_block(k, rng)))


def interchange_sampled(X: CrossedModule, samples: int, rng):
    """First violating block among ``samples`` random ones, or None."""
    k = _kernel(X)
    for _ in range(samples):
        block = _random_block(k, rng)
        if not k.interchanges(*block):
            return tuple(map(k.to_square, block))
    return None
