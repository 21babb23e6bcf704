"""Crossed modules of finite permutation groups.

A crossed module here is a boundary homomorphism d: M -> Q together with a
right action of Q on M by automorphisms, written m^q, subject to

    CM1:  d(m^q) = q^-1 (dm) q
    CM2:  m^(dm') = m'^-1 m m'   (Peiffer identity)

The action is supplied on the generators of Q only, as homomorphisms M -> M
that the module reads as index arrays over ``M.elements()``
(``perm.GroupHom._index_array``, off their keys, with no product).  Each
element of Q gets its whole array composed once, along Q's spanning tree
(``perm._tree_values``, the fill every map out of a group uses).  An
automorphism of M is fixed by the images of M's generators, so the arrays
are proved to extend to an action of Q by checking those images alone on
the Schreier edges of Q's walk (``perm._replay_walk``, the walk rule every
homomorphism out of Q uses).  A conflict means the generator assignment
violates a relation of Q and is rejected at construction.  Q's walk is
the one enumeration guard: a Q above ``perm.ENUMERATION_BOUND`` is refused
there, naming its order and the bound.

CM1 and CM2 themselves are *not* assumed: ``validate`` proves them on
generator pairs, which is enough once the boundary and the action are
verified, and on failure scans every element pair to report the first
counterexample instead of raising.  One loop per axiom (``_cm1_failure``,
``_cm2_failure``) serves both passes, and ``squares.interchange_exhaustive``
too.

``xmod_isomorphic`` runs the backtrack of the group isomorphism search
(``perm._extensions``) over M, once for each isomorphism of the bases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    NonNormal,
    ParseError,
    SearchBoundExceeded,
    XmodlabError,
)
from .perm import (
    ISO_SEARCH_BOUND,
    GroupHom,
    PermGroup,
    Permutation,
    _array,
    _context,
    _extensions,
    _gather,
    _generating_sequence,
    _iter_isomorphisms,
    _object,
    _quotient_group,
    _replay_walk,
    _tree_values,
    abelian_invariants,
    fingerprint,
    hom,
    image,
    kernel,
    parse_generator_list,
)

class CrossedModule:
    """Boundary d: M -> Q plus a Q-action on M given on Q's generators."""

    def __init__(self, M: PermGroup, Q: PermGroup, boundary: GroupHom, action):
        action = tuple(action)
        if boundary.source is not M or boundary.target is not Q:
            raise ValueError("boundary must map M into Q")
        if len(action) != len(Q.generators):
            raise ValueError("one automorphism of M per generator of Q required")
        arrays = []
        for a in action:
            if a.source is not M or a.target is not M:
                raise ValueError("action entries must be endomorphisms of M")
            arr = a._index_array()
            if len(set(arr)) != len(arr):
                raise ValueError("action entries must be automorphisms of M")
            arrays.append(arr)
        self.M = M
        self.Q = Q
        self.boundary = boundary
        self.action = action
        # extend now so an assignment violating a relation of Q cannot
        # produce a half-usable object
        self._table = self._action_table(arrays)
        # the square calculus on indices (``squares._kernel``), on first need
        self._square_kernel = None

    def _action_table(self, arrays) -> dict:
        """Index array over M.elements() for every element of Q.

        The whole arrays are filled once along Q's spanning tree, one
        gather in C per tree edge (``perm._tree_values``, ``perm._gather``;
        Q is walked once per group, not per module, and the walk refuses a
        Q too large to enumerate).  Each array is an automorphism of M, so
        it is fixed by its entries at M's generators, its key; the walk
        rule (``perm._replay_walk``) proves the keys on the Schreier edges
        of Q's walk, or the assignment does not factor through Q and is
        refused.
        """
        index = self.M.element_index()
        values = _tree_values(self.Q, tuple(range(len(index))), arrays,
                              _gather)
        gens = [index[m] for m in self.M.generators]
        _replay_walk(
            self.Q, [_gather(gens, arr) for arr in values], arrays,
            _gather, "action assignment does not respect the relations of Q",
        )
        return dict(zip(self.Q._cayley_walk()[0], values))

    def act(self, m: Permutation, q: Permutation) -> Permutation:
        """m^q for any q in Q."""
        try:
            arr = self._table[q]
        except KeyError:
            raise ValueError(f"{q} is not in Q") from None
        return self.M.elements()[arr[self.M.element_index()[m]]]

    def act_array(self, q: Permutation) -> tuple[int, ...]:
        return self._table[q]

    def __repr__(self) -> str:
        return (
            f"CrossedModule(|M|={self.M.order()}, |Q|={self.Q.order()}, "
            f"|im d|={image(self.boundary).order()})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the axiom check.

    A witness is the first counterexample in element order (``M.elements()``,
    then ``Q.elements()`` or ``M.elements()``); it is the same whether or not
    the generator pairs were checked first.
    """

    cm1_ok: bool
    cm2_ok: bool
    cm1_witness: tuple[Permutation, Permutation] | None = None
    cm2_witness: tuple[Permutation, Permutation] | None = None

    @property
    def ok(self) -> bool:
        return self.cm1_ok and self.cm2_ok

    def describe(self) -> str:
        lines = []
        if self.cm1_ok:
            lines.append("CM1 ok")
        else:
            m, q = self.cm1_witness
            lines.append(f"CM1 fails at m={m}, q={q}")
        if self.cm2_ok:
            lines.append("CM2 ok")
        else:
            m, mp = self.cm2_witness
            lines.append(f"CM2 fails at m={m}, m'={mp}")
        return ", ".join(lines)


def validate(X: CrossedModule) -> ValidationReport:
    """Check CM1 and CM2; a failure reports the first counterexample.

    CM1 is checked on ``gens(Q) x gens(M)`` and CM2 on ``gens(M) x gens(M)``.
    That is a proof, not a sample:

    - the boundary and the action entries are proved homomorphisms (by
      ``perm.GroupHom``: on the relators of a presented M, as ``induce``
      builds it, or along M's Cayley walk), the action entries are
      bijective, and the action table, filled along Q's spanning tree, is
      proved by the walk rule on the Schreier edges of Q's walk
      (``perm._replay_walk``), which proves that ``q -> (m -> m^q)`` is a
      right action of Q by automorphisms of M;
    - for a fixed q, both sides of CM1, ``m -> d(m^q)`` and
      ``m -> q^-1 (dm) q``, are homomorphisms M -> Q, so they agree on M
      once they agree on ``gens(M)``;
    - if q1 and q2 satisfy CM1 for every m, so does q1 q2:
      ``d(m^(q1 q2)) = d((m^q1)^q2) = q2^-1 q1^-1 (dm) q1 q2``, so the q
      that satisfy CM1 form a subgroup of the finite group Q, and Q is that
      subgroup once it holds ``gens(Q)``;
    - CM2 follows the same way, and without CM1: for a fixed m',
      ``m -> m^(dm')`` and ``m -> m'^-1 m m'`` are automorphisms of M, and
      the m' that satisfy CM2 for every m are closed under products.

    If any generator pair fails, every element pair is scanned, so the
    witnesses are the first counterexamples in element order.  The scan
    needs no bound of its own: construction already walked M and Q, and a
    walk refuses a group above ``perm.ENUMERATION_BOUND``.
    """
    gens_m = X.M.generators
    if (_cm1_failure(X, X.Q.generators, gens_m) is None
            and _cm2_failure(X, gens_m, gens_m) is None):
        return ValidationReport(True, True)
    return _element_scan(X)


def _cm1_failure(X: CrossedModule, qs, ms):
    """First ``(m, q)`` with ``d(m^q) != q^-1 (dm) q``, q outer, or None.

    The boundary is read as an index array (``GroupHom._index_array``), so
    ``d(m^q)`` is looked up, not multiplied out.
    """
    index = X.M.element_index()
    qelems = X.Q.elements()
    qindex = X.Q.element_index()
    d = X.boundary._index_array()
    mdata = [(m, index[m], qelems[d[index[m]]]) for m in ms]
    for q in qs:
        arr = X.act_array(q)
        qi = q.inverse()
        for m, i, dm in mdata:
            if d[arr[i]] != qindex[qi * dm * q]:
                return m, q
    return None


def _cm2_failure(X: CrossedModule, mps, ms):
    """First ``(m, m')`` with ``m^(dm') != m'^-1 m m'``, m' outer, or None.

    Both sides lie in M, so they are compared by their base images
    (``PermGroup._base``): at base point b, ``m'^-1 m m'`` gives
    ``m'(m(c))`` where c is the point m' sends to b.
    """
    melems = X.M.elements()
    index = X.M.element_index()
    qelems = X.Q.elements()
    d = X.boundary._index_array()
    base = X.M._base()
    mdata = [(m, index[m], m.images) for m in ms]
    for mp in mps:
        arr = X.act_array(qelems[d[index[mp]]])
        mpi = mp.images
        pairs = [(b - 1, mpi.index(b)) for b in base]
        for m, i, mi in mdata:
            lhs = melems[arr[i]].images
            if any(lhs[b] != mpi[mi[c] - 1] for b, c in pairs):
                return m, mp
    return None


def _element_scan(X: CrossedModule) -> ValidationReport:
    """CM1 and CM2 over every element pair; first failures are kept."""
    melems = X.M.elements()
    cm1 = _cm1_failure(X, X.Q.elements(), melems)
    cm2 = _cm2_failure(X, melems, melems)
    return ValidationReport(cm1 is None, cm2 is None, cm1, cm2)


def _conjugation_action(M: PermGroup, Q: PermGroup) -> list[GroupHom]:
    return [
        GroupHom(M, M, [m.conj(q) for m in M.generators])
        for q in Q.generators
    ]


def identity_xmod(P: PermGroup) -> CrossedModule:
    """P -> P with the identity boundary and conjugation action."""
    return CrossedModule(
        P, P, GroupHom(P, P, P.generators), _conjugation_action(P, P)
    )


def normal_inclusion_xmod(N: PermGroup, Q: PermGroup) -> CrossedModule:
    """N -> Q for a normal subgroup N, with the conjugation action."""
    if not N.is_normal_in(Q):
        raise NonNormal("N must be a normal subgroup of Q")
    return CrossedModule(
        N, Q, GroupHom(N, Q, N.generators), _conjugation_action(N, Q)
    )


def pi1(X: CrossedModule) -> PermGroup:
    """Cokernel Q / d(M), on the cosets of d(M) (``perm._quotient_group``,
    which builds no projection).  d(M) is normal in Q for a valid crossed
    module; otherwise ``NonNormal`` names the first generator pair whose
    conjugate escapes it."""
    return _quotient_group(X.Q, image(X.boundary))


def pi2(X: CrossedModule) -> tuple[PermGroup, list[int]]:
    """Kernel of d with its invariant factors (central, hence abelian)."""
    K = kernel(X.boundary)
    return K, abelian_invariants(K)


# ---------------------------------------------------------------------------
# morphisms and isomorphism search


@dataclass(frozen=True)
class XModMorphism:
    """Pair of homomorphisms (f: M -> M', g: Q -> Q') commuting with d and
    the actions."""

    f: GroupHom
    g: GroupHom

    def verify(self, X: CrossedModule, Y: CrossedModule) -> bool:
        """Check d'.f = g.d and f(m^q) = f(m)^g(q) on generator pairs.

        Both sides of each law are homomorphisms, so generator checks settle
        the general case.  Both read index arrays (``GroupHom._index_array``,
        ``CrossedModule.act_array``): no value of f, g or a boundary is
        multiplied out.
        """
        f, g = self.f._index_array(), self.g._index_array()
        dx, dy = X.boundary._index_array(), Y.boundary._index_array()
        ms = [X.M.element_index()[m] for m in X.M.generators]
        if any(dy[f[i]] != g[dx[i]] for i in ms):
            return False
        for q in X.Q.generators:
            gq = Y.Q.elements()[g[X.Q.element_index()[q]]]
            xq, yq = X.act_array(q), Y.act_array(gq)
            if any(f[xq[i]] != yq[f[i]] for i in ms):
                return False
        return True

    def is_isomorphism(self) -> bool:
        return self.f.is_bijective() and self.g.is_bijective()


def xmod_isomorphic(X: CrossedModule, Y: CrossedModule):
    """First crossed-module isomorphism (f, g) found, or None.

    Iterates over the isomorphisms g: Q -> Q' and for each takes the first
    extension (``perm._extensions``) over a short sequence that generates M
    under products *and* the Q-action.  Candidates for m are the d-fiber
    over g(dm); partial maps are grown along the Cayley edges of the seeds
    and along the action edges, checked against the fibers on every
    assignment, so a completed propagation certifies the morphism (the
    action step is in ``perm._extensions``).  The search is exhaustive:
    None is a definitive negative within ``ISO_SEARCH_BOUND``, which every
    one of the four groups must meet or ``SearchBoundExceeded`` is raised.
    """
    for G in (X.M, X.Q, Y.M, Y.Q):
        if G.order() > ISO_SEARCH_BOUND:
            raise SearchBoundExceeded(
                f"order {G.order()} exceeds search bound {ISO_SEARCH_BOUND}",
                limit=ISO_SEARCH_BOUND,
            )
    if X.M.order() != Y.M.order() or X.Q.order() != Y.Q.order():
        return None
    if fingerprint(X.M) != fingerprint(Y.M):
        return None
    if fingerprint(X.Q) != fingerprint(Y.Q):
        return None
    kx, ky = kernel(X.boundary), kernel(Y.boundary)
    if fingerprint(kx) != fingerprint(ky):
        return None
    if fingerprint(image(X.boundary)) != fingerprint(image(Y.boundary)):
        return None

    ctx1 = _context(X.M)
    ctx2 = _context(Y.M)

    d1 = X.boundary._index_array()
    d2 = Y.boundary._index_array()
    fibers2 = {}
    for j, qidx in enumerate(d2):
        fibers2.setdefault(qidx, []).append(j)
    act1 = [X.act_array(q) for q in X.Q.generators]
    seq = _generating_sequence(ctx1, act1)

    for g in _iter_isomorphisms(X.Q, Y.Q):
        gmap = g._index_array()
        act2 = [Y.act_array(im) for im in g.images]

        def pair_check(i, j):
            return gmap[d1[i]] == d2[j]

        def candidates(i, map21):
            # the d-fiber over g(d(m)), in element order
            return [
                j for j in fibers2.get(gmap[d1[i]], [])
                if ctx2.orders[j] == ctx1.orders[i] and map21[j] == -1
            ]

        map12 = next(_extensions(
            ctx1, ctx2, seq, candidates, pair_check, list(zip(act1, act2))
        ), None)
        if map12 is None:
            continue
        f = GroupHom(X.M, Y.M, [
            ctx2.elements[map12[ctx1.index[m]]] for m in X.M.generators
        ])
        morphism = XModMorphism(f, g)
        if morphism.verify(X, Y):
            return morphism
    return None


# ---------------------------------------------------------------------------
# JSON schema


def xmod_to_json_dict(X: CrossedModule) -> dict:
    return {
        "M": {
            "degree": X.M.degree,
            "generators": [str(m) for m in X.M.generators],
        },
        "Q": {
            "degree": X.Q.degree,
            "generators": [str(q) for q in X.Q.generators],
        },
        "boundary": [str(im) for im in X.boundary.images],
        "action": [
            [str(im) for im in a.images] for a in X.action
        ],
    }


def xmod_to_json(X: CrossedModule) -> str:
    return json.dumps(xmod_to_json_dict(X), indent=2)


def xmod_from_json_dict(data: dict) -> CrossedModule:
    data = _object(data, "crossed module")
    try:
        mdata, qdata = _object(data["M"], "M"), _object(data["Q"], "Q")
        mdeg = _degree(mdata["degree"])
        mgens = _array(mdata["generators"], "M.generators")
        qdeg = _degree(qdata["degree"])
        qgens = _array(qdata["generators"], "Q.generators")
        braw = _array(data["boundary"], "boundary")
        araw = _array(data["action"], "action")
    except KeyError as exc:
        raise ParseError(f"crossed module JSON missing field: {exc}") from None
    M = PermGroup(mdeg, [_parse_one(s, mdeg) for s in mgens])
    Q = PermGroup(qdeg, [_parse_one(s, qdeg) for s in qgens])
    if len(braw) != len(M.generators):
        raise ParseError("boundary must list one image per M generator")
    boundary = hom(M, Q, [_parse_one(s, qdeg) for s in braw])
    if len(araw) != len(Q.generators):
        raise ParseError("action must list one row per Q generator")
    action = []
    for k, row in enumerate(araw):
        row = _array(row, f"action[{k}]")
        if len(row) != len(M.generators):
            raise ParseError("action row must list one image per M generator")
        action.append(GroupHom(M, M, [_parse_one(s, mdeg) for s in row]))
    try:
        return CrossedModule(M, Q, boundary, action)
    except XmodlabError:
        raise
    except ValueError as exc:  # e.g. an action row that is not bijective
        raise ParseError(f"not a crossed module: {exc}") from None


def xmod_from_json(text: str) -> CrossedModule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return xmod_from_json_dict(data)


def _degree(value) -> int:
    """A JSON degree: an integer of at least 1 (not a float or a bool)."""
    if type(value) is not int or value < 1:
        raise ParseError(f"degree must be an integer of at least 1, got {value!r}")
    return value


def _parse_one(s: str, degree: int) -> Permutation:
    if not isinstance(s, str):
        raise ParseError(f"expected a permutation in cycle notation, got {s!r}")
    perms = parse_generator_list(s, degree)
    if len(perms) != 1:
        raise ParseError(f"expected a single permutation, got {s!r}")
    return perms[0]
