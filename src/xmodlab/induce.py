"""Induced crossed modules along a subgroup inclusion.

Given a crossed module d: M -> P and an injective iota: P -> Q, the induced
crossed module over Q is generated by one copy of M for every coset
representative t of iota(P) in Q, written (m, t), with

    copower relators   (m, t)(m', t) = (mm', t)
    Peiffer relators   x^-1 y x = y^(dx)
    boundary           d(m, t) = t^-1 iota(dm) t
    action             (m, t)^q = (m^p, t')  where t q = iota(p) t'

``induced_presentation`` keeps this small: each copy is generated by M's
own generators and presented by M's Schreier relators, read off M's Cayley
walk (``PermGroup._cayley_walk``), and the Peiffer relators run over
generator pairs only.  The action is spelled as words: ``(g, t)^q`` is the
word of ``g^p`` along the walk's spanning tree, in copy t'.  Right
multiplication by ``d = dx`` permutes the copies; for each of its cycles
whose length is the order of g in M, x = (g, s), the Peiffer relators
``(x, y)`` for y in one copy of the cycle follow from the rest and are not
built (the proof is in ``_with_peiffer_relators``).  The copies' relators
and the Peiffer relators of the generators of a few copies T0, chosen so
that every orbit of their boundaries on the copies meets T0, present G by
themselves (the core; the proof is in ``_with_peiffer_relators``).  So G is
presented on T0's generators alone: every other copy's generators are
eliminated by Tietze moves, ``(g, t) = x w x^-1`` with x a generator of T0
and w the word of ``(g, t)^(dx)`` in a copy eliminated before, and the
presentation keeps T0's copy relators and the Peiffer relators of T0's
generators, rewritten through those words (the proof is in
``induced_presentation``).  The letters are counted before a relator is
built, and a presentation of more than ``RELATOR_LETTER_BUDGET`` letters is
refused.

``induce`` reads M off one coset table of the presented group G, over K,
the copy at the identity coset of a subgroup L of M on which M's boundary
is injective, chosen greedily from M's generators: L = M for an injective
boundary, when K is H, the copy of M, and L = 1 for a trivial one.  G is
presented on the generators S of T0's copies, so their permutations of
the cosets generate G's action, and ``induce`` sifts them once
(``perm._sifted``), keeping only those that enlarge the group so far, into
a chain stopped at ``[G:K]·|L|``, which is ``|G|``; reaching that bound
proves the action faithful.  Before that sift, the permutations of K's
generators, sifted against ``|L|``, tell whether the cosets fall short
(``core_G(K) != 1``, as for ``P = Q``); then each generator acts on Q's
points through its boundary as well, and that joint action reaches it (the
proof is in ``induce``).  So M is generated by an irredundant sublist of
S's permutations.  An action entry is the product along the word
``act_gen(k, q)`` with each letter spelt over S, and the boundary and the
action are proved homomorphisms by the walk rule over M's Cayley graph,
in the pass that fills their keys (``perm._tree_values``), like every
map; the axioms are re-checked by
``validate``.

``InducedPresentation.boundary_kills_relators`` decides whether the
relators die under the boundary, on the base points of the base group,
without products.

``run_table`` reproduces the bundled reference table for the seven standard
subgroups of S4 with M = P and the identity boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import reduce

from . import fp
from .errors import (
    NonInjective,
    NotInGroup,
    TableMismatch,
    ValidationFailed,
)
from .fp import (
    DEFAULT_MAX_COSETS,
    Presentation,
    Word,
    _check_letters,
    _coset_action,
    todd_coxeter,
)
from .perm import (
    Fingerprint,
    GroupHom,
    PermGroup,
    Permutation,
    _off_tree_edges,
    _right_cosets,
    _sifted,
    _tree_values,
    abelian_invariants,
    cyclic,
    dihedral,
    direct_product,
    fingerprint,
    gl23,
    hom,
    image,
    isomorphic,
    normal_closure,
    parse_generator_list,
    right_coset_representatives,
    sl23,
    symmetric,
)
from .xmod import CrossedModule, identity_xmod, pi1, pi2, validate, xmod_isomorphic

# the relator letter budget of every presentation (``fp._check_letters``),
# under the name callers of induction read
RELATOR_LETTER_BUDGET = fp.RELATOR_LETTER_BUDGET

coset_transversal = right_coset_representatives


@dataclass
class InducedPresentation:
    """Presentation of an induced (or free) crossed module's top group.

    The module's generators are indexed k: ``gen_pairs[k]`` records which
    (m, t) pair generator k stands for, ``boundary_images[k]`` its boundary
    in the base group, and ``act_gen(k, q)`` is a word over them for the
    image of generator k under any base group element q: one letter for a
    free module, the spanning-tree word of ``g^p`` in copy t' for an induced
    one.  The presentation is on the generators listed in ``generators``,
    and ``words[k]`` spells generator k over its generators: one letter for
    those, for an induced module a word over them for the rest
    (``induced_presentation``).  ``_with_peiffer_relators`` fills both: a
    presentation on every generator, as for a free module, lists
    ``(0, ..., n-1)`` with one letter each.  They are empty only on a
    presentation built directly, which ``boundary_kills_relators`` reads
    as one on every generator.
    ``subgroup_words`` generate the copy of M at the coset of the subgroup,
    for an induced module; they are empty for a free one.
    """

    presentation: Presentation
    base: PermGroup
    boundary_images: tuple[Permutation, ...]
    gen_pairs: tuple[tuple[Permutation, Permutation], ...]
    subgroup_words: tuple[Word, ...] = ()
    act_gen: object = field(repr=False, compare=False, default=None)
    generators: tuple[int, ...] = ()
    words: tuple[Word, ...] = ()

    def boundary_kills_relators(self) -> bool:
        """Check in the base group that every relator dies.

        The boundary images lie in the base group (``NotInGroup`` if not),
        so a relator's image does too, and it is the identity exactly when
        it fixes every point of the base (``PermGroup._base``).  Each
        relator is traced from each base point through the point maps of
        its letters' images and their inverses: no product is formed.
        """
        images = self.boundary_images
        for im in images:
            if im not in self.base:
                raise NotInGroup(f"boundary image {im} is not in the base group")
        base = self.base._base()
        # indexed by the exponent: [1] the image, [-1] its inverse
        steps = [(None, images[k].images, images[k].inverse().images)
                 for k in self.generators or range(len(images))]
        for w in self.presentation.relators:
            for b in base:
                x = b
                for g, e in w.letters:
                    x = steps[g][e][x - 1]
                if x != b:
                    return False
        return True


def _word_image(word: Word, perms, inverses=()) -> Permutation:
    """The product along a nonempty word of ``perms``, or of ``inverses``
    for a letter of exponent -1."""
    return reduce(Permutation.__mul__, [perms[g] if e == 1 else inverses[g]
                                        for g, e in word.letters])


def _spelt(w: Word, words) -> tuple:
    """The letters of a positive word with each generator z replaced by
    the letters of ``words[z]``."""
    return tuple([c for z, _ in w.letters for c in words[z].letters])


def _cyclically_reduced(w: Word) -> Word:
    """A freely reduced word less the letters its two ends cancel, a
    conjugate of it: as a relator it has the same normal closure."""
    letters = w.letters
    i = 0
    while len(letters) - 2 * i > 1 and letters[i] == (
            letters[-1 - i][0], -letters[-1 - i][1]):
        i += 1
    return Word(letters[i:len(letters) - i])


def _dedupe_relators(words):
    """The distinct nonidentity ``words``, in order of first appearance."""
    return tuple({w.letters: w for w in words if not w.is_identity()}.values())


def _schreier_relators(G: PermGroup):
    """Schreier relators of G on its generators, as words over generator
    positions, read off G's Cayley walk (``PermGroup._cayley_walk``).

    Its spanning tree gives each element a word ``w_a`` and its length,
    the tree depth (both filled by ``perm._tree_values``), and the
    relators ``w_a s w_(as)^-1`` for the edges off the tree generate the
    kernel of the free group on G's generators onto G (Schreier's lemma),
    so they present G.  The edges off the tree are
    ``perm._off_tree_edges``, the Schreier edges the walk rule checks.
    Returns the relators' letter count, read off the depths before any
    word is spelled, and ``spell``, which spells out the tree word of every
    element, then the relators.
    """
    positions = range(len(G.generators))
    depth = _tree_values(G, 0, positions, lambda d, _: d + 1)
    edges = _off_tree_edges(G)
    letters = sum(depth[a] + 1 + depth[c] for a, _, c in edges)

    def spell():
        word = _tree_values(G, (), positions, lambda w, j: w + (j,))
        return word, [
            [(k, 1) for k in word[a]] + [(j, 1)]
            + [(k, -1) for k in reversed(word[c])]
            for a, j, c in edges
        ]

    return letters, spell


def _boundary_in_q(X: CrossedModule, iota: GroupHom) -> list:
    """``iota(d g)`` for each generator g of M, in order: the boundary's
    generator images looked up in iota's index array, so neither map
    multiplies out its ``element_map``."""
    values = iota._index_array()
    index = X.Q.element_index()
    qelems = iota.target.elements()
    return [qelems[values[index[b]]] for b in X.boundary.images]


def induced_presentation(
    X: CrossedModule, iota: GroupHom, transversal=None
) -> InducedPresentation:
    """Presentation of the top group of the crossed module induced by iota.

    The module has one copy of M per right coset of iota(P) in Q, each on
    the generators ``(g, t)`` for g among M's distinct nonidentity
    generators and t the coset's transversal element; ``gen_pairs``,
    ``boundary_images``, ``act_gen`` and ``words`` are indexed by them.
    The copower presentation on all of them has each copy's Schreier
    relators (``_schreier_relators``, built once and shifted per copy) and
    the Peiffer relators over generator pairs (``_with_peiffer_relators``),
    less those each cycle of copies implies (``partners``).  The copower
    relators ``(m, t)(m', t) = (mm', t)`` on all of M follow: the
    generators generate M.  The Peiffer identity on a generating set gives
    it on all of the group, since for a fixed x the elements y with
    ``x^-1 y x = y^(dx)`` form a subgroup, and so do the x that satisfy it
    for every y.

    The presentation returned is that one, Tietze-transformed onto the
    generators S of a few copies T0 (``generators``).  T0 starts with the
    copy t0 of iota(P); a copy joins, in copy order, when one of its
    generators' boundaries lies outside the group that T0's boundaries
    generate so far (one ``perm._sifted`` of the boundaries, copy t0's
    first, then every copy's; a kept boundary names its copy); then,
    while some copy is not reached from T0 along the copy moves of its
    generators' boundaries (``row``), the first such copy joins.  So
    every orbit of ``D = <d(x) : x in S>`` on the copies meets T0, and the
    copies' relators with the Peiffer relators kept for x in S, the core,
    present G (the proof is in ``_with_peiffer_relators``).  The other
    copies are given words level by level outward from T0: copy t, once a
    copy ``t'`` with ``t dx = p t'`` has words, for some x in S, gets
    ``(g, t) = x w x^-1`` for each of its generators, w the word
    ``act_gen((g, t), dx)`` in copy t' with its letters spelt by their
    words, freely reduced; of the x that qualify, the one whose words are
    shortest in all wins, the first on a tie.  Every copy gets words, as
    the copies reached from T0 along the inverse copy moves of D are the
    union of D's orbits through T0.

    1. Each definition follows from the core.  Step 1 of its proof gives
       ``x^-1 z x = alpha_dx(z)`` for x in S and every word z, so
       ``(g, t) = x act_gen((g, t), dx) x^-1`` in G, and by induction on
       the level the letters of that word, in copy t', equal their words.
       So adding the definitions to the core and then deleting each
       generator outside S, substituting its word wherever it occurs, are
       Tietze moves, and the rewritten core presents G on S.
    2. The Peiffer relator of the pair (x, (g, t)) that gave (g, t) its
       word rewrites to ``x^-1 (x w x^-1) x w^-1``, the empty word.
    3. Copy t took one x for all its generators, so a relator r of copy t
       rewrites to x r' x^-1, where r' is r with each (g, t) replaced by
       ``act_gen((g, t), dx)``, then rewritten.  Before the rewriting, r'
       spells in copy t' the image of r under the automorphism of M by p,
       through spanning-tree words, so it is trivial in M and follows from
       copy t''s relators in the free group on copy t''s generators; so
       its rewriting follows from copy t''s rewritten relators, and by
       induction on the level from T0's.  So the relators of the copies
       outside T0 are dropped.
    4. The Peiffer relators of generators outside S are not in the core.

    So the presentation keeps T0's copy relators and the Peiffer relators
    of S, rewritten through the words, freely and cyclically reduced (a
    relator's cyclic conjugate has the same normal closure), with empty
    and repeated words dropped.  ``subgroup_words`` generate H, the copy
    at the coset of iota(P), on the letters of copy t0.

    The action ``(g, t)^q = (g^p, t')``, where ``t q = iota(p) t'``, is
    spelled in copy t' by the word of ``g^p`` along the spanning tree of M's
    Cayley walk, the tree the Schreier relators are spelled on
    (``act_gen``).  p acts on M by an automorphism, so it maps each copy's
    relators to consequences of those of copy t', and the relators as a
    whole are Q-invariant up to consequences.  The letters are counted
    from the word lengths before any relator is built: the Peiffer
    relator of (x, y) has ``2 + |words[y]|`` letters and the spelt length
    of the word of ``y^(dx)``, and T0's copies their Schreier letters.
    Before the cosets are listed, a job is refused on a lower bound: copy
    t0's relators, and 4 letters a pair for x in copy t0 and every y but
    the most that can be left out, ``(nT - 1) // ord(g)`` copies for
    x = (g, t0) (copy t0 is fixed by dx, and each cycle left out has
    ord(g) copies).

    ``transversal`` may supply explicit right-coset representatives of
    iota(P) in Q (any full transversal works; the resulting modules are
    isomorphic); an element outside Q raises ``NotInGroup``, and two in one
    coset or a coset left out raise ``ValueError``.  Raises
    ``NonInjective`` if iota is not injective and ``BudgetExceeded`` if the
    relators would have more than ``RELATOR_LETTER_BUDGET`` letters.
    """
    if iota.source is not X.Q:
        raise ValueError("iota must start at the base group of X")
    if not iota.is_injective():
        raise NonInjective("induction requires an injective inclusion")
    Q = iota.target
    M = X.M
    H = image(iota)
    gens = list(dict.fromkeys(g for g in M.generators if not g.is_identity()))
    ng = len(gens)
    walk = PermGroup(M.degree, gens)
    schreier_letters, spell = _schreier_relators(walk)
    nT = Q.order() // H.order()
    orders = [g.order() for g in gens]
    # copy t0 is in T0, every Peiffer relator has at least 4 letters, and
    # for x = (g, t0) at most (nT - 1) // ord(g) copies are left out: refuse
    # on that bound before the cosets are listed, then on the exact count
    _check_letters(schreier_letters + 4 * ng * sum(
        nT - (nT - 1) // n for n in orders))
    reps, coset_of = _right_cosets(Q, H)
    qbase = Q._base()

    def coset(z):  # of an element of Q, by its base images
        return coset_of[tuple([z.images[b - 1] for b in qbase])]

    if transversal is None:
        T = reps
    else:
        T = list(transversal)
        for t in T:
            if t not in Q:
                raise NotInGroup(f"transversal element {t} is not in Q")
        position = {coset(t): ti for ti, t in enumerate(T)}
        if len(position) != len(T):
            raise ValueError("transversal elements share a coset")
        if len(position) != len(reps):
            raise ValueError("transversal does not cover every coset")
        coset_of = {e: position[c] for e, c in coset_of.items()}

    def gen(gi, ti):
        return gi * nT + ti

    boundary_images = []
    gen_pairs = []
    labels = []
    d_in_q = dict(zip(M.generators, _boundary_in_q(X, iota)))
    for gi, g in enumerate(gens):
        dg = d_in_q[g]
        for ti, t in enumerate(T):
            boundary_images.append(t.inverse() * dg * t)
            gen_pairs.append((g, t))
            labels.append(f"s{gi}t{ti}")

    # the index in M.elements() of each g^p, keyed by the Q-base images of p
    ranks = [walk._rank(g) for g in gens]
    acts = {key: [X.act_array(p)[r] for r in ranks]
            for key, p in zip(iota._keys, X.Q.elements())}
    tkeys = [tuple([t.images[b - 1] for b in qbase]) for t in T]
    tinv = [t.inverse().images for t in T]
    moves = {}  # q -> (tj, acts of p) for each ti, where T[ti] q = p T[tj]

    def row(q):
        got = moves.get(q)
        if got is None:
            got = moves[q] = []
            for z in tkeys:
                z = tuple([q.images[x - 1] for x in z])  # of T[ti] q
                tj = coset_of[z]
                got.append((tj, acts[tuple([tinv[tj][x - 1] for x in z])]))
        return got

    implied = {}  # (q, n) -> the largest copy of each n-cycle under q

    def implied_copies(q, n):
        got = implied.get((q, n))
        if got is None:
            copies = Permutation(tuple([tj + 1 for tj, _ in row(q)]))
            got = implied[q, n] = {
                max(c) - 1 for c in copies.cycles() if len(c) == n}
        return got

    def partners(x):  # the y whose Peiffer relator with x is kept
        skip = implied_copies(boundary_images[x], orders[x // nT])
        return [y for y in range(ng * nT) if y % nT not in skip]

    tree, schreier = spell()

    def act_gen(k, q):
        gi, ti = divmod(k, nT)
        tj, images = row(q)[ti]
        return Word(tuple([(gen(j, tj), 1) for j in tree[images[gi]]]))

    def reached(copies):  # from ``copies`` along their generators' boundaries
        moves = [[tj for tj, _ in row(boundary_images[gen(gi, ti)])]
                 for ti in copies for gi in range(ng)]
        seen = set(copies)
        stack = list(copies)
        while stack:
            ti = stack.pop()
            for move in moves:
                if move[ti] not in seen:
                    seen.add(move[ti])
                    stack.append(move[ti])
        return seen

    # T0: t0, then each copy with a generator whose boundary lies outside
    # the group that T0's boundaries generate so far, then the first copy
    # not reached while one is left
    t0 = coset(Q.identity)  # the transversal element in iota(P)
    sweep = [t0, *range(nT)]
    cands = [boundary_images[gen(gi, ti)] for ti in sweep for gi in range(ng)]
    # a kept boundary is the first of its value: a later equal one would
    # have sifted to the identity
    kept = _sifted(Q.degree, cands).generators
    copies = list(dict.fromkeys(
        [t0] + [sweep[cands.index(d) // ng] for d in kept]))
    while len(seen := reached(copies)) < nT:
        copies.append(min(set(range(nT)) - seen))

    # the other copies' generators, level by level outward from T0:
    # (g, t) = x w x^-1 with w = act_gen((g, t), dx) in a copy done before
    S = sorted(gen(gi, ti) for ti in copies for gi in range(ng))
    words = [None] * (ng * nT)  # each generator's word over S
    for j, x in enumerate(S):
        words[x] = Word(((j, 1),))

    done = set(copies)
    copy_moves = [(j, x, boundary_images[x],
                   [tj for tj, _ in row(boundary_images[x])])
                  for j, x in enumerate(S)]
    while len(done) < nT:
        level = {}
        for ti in range(nT):
            if ti in done:
                continue
            for j, _, dx, move in copy_moves:
                if move[ti] not in done:
                    continue
                defined = [
                    Word.of(((j, 1),) + _spelt(act_gen(gen(gi, ti), dx), words)
                            + ((j, -1),))
                    for gi in range(ng)]
                if ti not in level or (sum(map(len, defined))
                                       < sum(map(len, level[ti]))):
                    level[ti] = defined
        if not level:
            raise AssertionError("a copy is not reached from T0")
        for ti, defined in level.items():
            for gi, w in enumerate(defined):
                words[gen(gi, ti)] = w
        done.update(level)

    # arithmetic on the word lengths: refuse before building any relator
    _check_letters(len(copies) * schreier_letters + sum(
        2 + len(words[y])
        + sum(len(words[z]) for z, _ in act_gen(y, dx).letters)
        for _, x, dx, _ in copy_moves for y in partners(x)))
    letter = {x: j for j, x in enumerate(S)}
    # spanning-tree words are reduced: the one letter that could cancel
    # is the tree edge itself
    relators = [
        _cyclically_reduced(Word(tuple([(letter[gen(gi, ti)], e)
                                        for gi, e in word])))
        for word in schreier for ti in sorted(copies)
    ]
    subgroup_words = tuple(Word(((letter[gen(gi, t0)], 1),))
                           for gi in range(ng))
    return _with_peiffer_relators(
        Q, relators, boundary_images, gen_pairs, [labels[x] for x in S],
        act_gen, subgroup_words, partners, S, words,
    )


def free_crossed_module_presentation(P: PermGroup, relations) -> InducedPresentation:
    """Free crossed module on relations w: R -> P; often infinite.

    ``relations`` is a sequence of (label, element of P) pairs.  Generators
    are (r, p) for every relation r and every p in P, with d(r, p) =
    p^-1 w(r) p and action (r, p)^q = (r, pq); only Peiffer relators are
    imposed.  Enumeration of the presented group is left to the caller (and
    may well exceed any coset limit); its abelianization is always available.
    """
    pelems = list(P.elements())
    pidx = P.element_index()
    nP = len(pelems)
    rels = list(relations)
    for _, w in rels:
        if w not in P:
            raise ValueError(f"relation value {w} is not in P")
    ngens = len(rels) * nP
    _check_letters(4 * ngens * ngens)

    def gen(r, pi):
        return r * nP + pi

    boundary_images = []
    gen_pairs = []
    labels = []
    for r, (label, w) in enumerate(rels):
        for pi, p in enumerate(pelems):
            boundary_images.append(p.inverse() * w * p)
            gen_pairs.append((w, p))
            labels.append(f"{label}.{pi}")

    def act_gen(k, q):
        r, pi = divmod(k, nP)
        return Word(((gen(r, pidx[pelems[pi] * q]), 1),))

    return _with_peiffer_relators(
        P, [], boundary_images, gen_pairs, labels, act_gen
    )


def _with_peiffer_relators(
    base, relators, boundary_images, gen_pairs, labels, act_gen,
    subgroup_words=(), partners=None, generators=None, words=None,
) -> InducedPresentation:
    """Add the Peiffer relators ``x^-1 y x w^-1`` of the x in ``generators``
    to ``relators``, which are over those generators, and return the
    presentation on them, checked against the boundary.  w is the word
    ``act_gen(y, dx)`` of ``y^(dx)``, and y and each letter of w are spelt
    by their ``words`` over ``generators``; the relator is then freely and
    cyclically reduced, and empty and repeated relators are dropped.  When
    ``generators`` is None the presentation is on every generator, each
    its own one-letter word, and the relator has ``3 + |w|`` letters before
    free reduction.  The pairs (x, y) run over every y in ``partners(x)``,
    or over every generator when ``partners`` is None, as for a free
    crossed module, whose generators have no finite order.

    For an induced module, ``partners(x)`` leaves out the y in one copy
    (the largest) of each cycle of length ``L = ord(g)`` in M of the
    permutation of the copies by ``d = dx``, x = (g, s): copy t goes to t'
    where ``t d = p t'``.  Those relators follow from the rest, so G is
    unchanged.  Let ``alpha_d`` be the substitution ``act_gen(., d)``
    letter by letter, an endomorphism of the free group F read into G.

    - Modulo the copies' relators ``alpha_a alpha_b = alpha_ab``.  ord(d)
      divides L, as d is a conjugate of ``iota(dg)``, and the cycle length
      L divides ord(d), so ``d^L = 1`` and ``alpha_d^L`` is the identity
      in G.
    - For fixed x, the words z with ``x^-1 z x = alpha_d(z)`` in G form a
      subgroup of F, both sides being homomorphisms F -> G.  So the
      relators kept give ``x^-1 z x = alpha_d(z)`` for every word z in the
      other L - 1 copies of the cycle.
    - For y in the copy left out, put ``z = alpha_d(y)``.  Then
      ``alpha_d^k(y)`` lies in the other copies for ``0 < k < L``, so
      ``y = alpha_d^L(y) = x^-(L-1) z x^(L-1)``, and
      ``x^-1 y x = x^-L z x^L = z = alpha_d(y)``, since ``x^L = 1`` by
      copy s's relators.

    Copy s itself is fixed by d (``t_s d = iota(dg) t_s``), and L >= 2, so
    x's own copy is never left out, and each cycle is argued from relators
    that are kept.

    Let S be all the generators of a few copies T0.  The copies' relators
    and the Peiffer relators kept for x in S form the core.  When every
    orbit of ``D = <d(x) : x in S>`` on the copies meets T0, the core
    presents the same group G:

    1. For fixed x, the words z with ``x^-1 z x = alpha_dx(z)`` form a
       subgroup of F, and the argument above gives every z from the
       relators (x, y) that are built.  So the core gives the Peiffer
       identity for each x in S and every word z.
    2. The words u with ``u^-1 z u = alpha_du(z)`` for every z form a
       subgroup of F: modulo the copies' relators ``alpha_a alpha_b =
       alpha_ab`` and ``alpha_1`` is the identity, so the identity for a
       and for b gives it for ab and for a^-1.
    3. The copies lying in ``<S>`` are closed under ``t -> t'`` where
       ``t dx = p t'``, for x in S: ``alpha_dx`` maps copy t onto copy t'
       (p acts on M by an automorphism), and ``alpha_dx(y) = x^-1 y x``
       lies in ``<S>`` for y in it.  So they are closed under D, and as
       each orbit meets T0 every copy lies in ``<S>``.

    So every generator lies in ``<S>``, and by steps 1 and 2 satisfies the
    Peiffer identity for every z: every Peiffer relator, built or not,
    follows from the core.  ``induced_presentation`` rewrites the core on S
    alone, which is where the relators passed in stop being every copy's.
    """
    ngens = len(boundary_images)
    if generators is None:
        generators = tuple(range(ngens))
        words = tuple(Word(((k, 1),)) for k in range(ngens))

    for j, x in enumerate(generators):
        dx = boundary_images[x]
        for y in range(ngens) if partners is None else partners(x):
            w = Word(_spelt(act_gen(y, dx), words)).inverse().letters
            relators.append(_cyclically_reduced(
                Word.of(((j, -1),) + words[y].letters + ((j, 1),) + w)))
    pres = Presentation(len(generators), _dedupe_relators(relators),
                        tuple(labels))
    ip = InducedPresentation(
        presentation=pres,
        base=base,
        boundary_images=tuple(boundary_images),
        gen_pairs=tuple(gen_pairs),
        subgroup_words=subgroup_words,
        act_gen=act_gen,
        generators=tuple(generators),
        words=tuple(words),
    )
    if not ip.boundary_kills_relators():
        raise ValidationFailed("boundary assignment does not kill a relator")
    return ip


# ---------------------------------------------------------------------------
# reports


PHASES = ("presentation", "todd_coxeter", "chain", "homs", "validate",
          "pi1_pi2", "naming")


@dataclass
class Report:
    """Everything the table prints about one induced crossed module.

    ``phases`` gives the seconds of each stage of ``induce``, in the order
    of ``PHASES``: ``presentation``, ``todd_coxeter``, ``chain`` (M read off
    the coset table), ``homs`` (boundary, action and the module),
    ``validate``, ``pi1_pi2`` (with the order law's closure) and ``naming``
    (names and fingerprints); they sum to ``seconds``.
    ``stats`` gives ``subgroup_order``, the order of the subgroup L of M
    whose copy the cosets are taken of (``induce``), the counters of the
    coset table M was read off (``ncosets``, ``defined``, ``peak_live``),
    the presentation's size (``generators``, ``relators``,
    ``relator_letters``) and M's ``degree``.
    Neither is part of the JSON or of comparisons.
    """

    row: int | None
    subgroup: str
    subgroup_generators: tuple[str, ...]
    induced_order: int
    pi2_invariants: tuple[int, ...]
    pi2_order: int
    pi1_order: int
    pi1_name: str | None
    pi1_fingerprint: Fingerprint
    induced_name: str | None
    induced_fingerprint: Fingerprint
    boundary_image_order: int
    order_law_ok: bool
    seconds: float
    phases: dict[str, float] = field(default_factory=dict, compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        """Stable field order; timing (``seconds``, ``phases``) and
        ``stats`` are deliberately omitted so identical inputs give
        identical bytes."""
        return {
            "row": self.row,
            "subgroup": self.subgroup,
            "subgroup_generators": list(self.subgroup_generators),
            "induced_order": self.induced_order,
            "pi2_invariants": list(self.pi2_invariants),
            "pi2_order": self.pi2_order,
            "pi1_order": self.pi1_order,
            "pi1_name": self.pi1_name,
            "pi1_fingerprint": self.pi1_fingerprint.to_json_dict(),
            "induced_name": self.induced_name,
            "induced_fingerprint": self.induced_fingerprint.to_json_dict(),
            "boundary_image_order": self.boundary_image_order,
            "order_law_ok": self.order_law_ok,
        }

    def render_text(self) -> str:
        pi2_name = (
            "1"
            if not self.pi2_invariants
            else "x".join(f"C{d}" for d in self.pi2_invariants)
        )
        induced = self.induced_name or f"order {self.induced_order}"
        pi1 = self.pi1_name or f"order {self.pi1_order}"
        head = f"row {self.row}: " if self.row is not None else ""
        return (
            f"{head}P={self.subgroup}  induced={induced} "
            f"(|M|={self.induced_order})  pi2={pi2_name}  pi1={pi1}  "
            f"[law |M|=|pi2|*|im| {'ok' if self.order_law_ok else 'BROKEN'}; "
            f"{self.seconds:.2f}s]"
        )


# Named groups in matching order: (name, order, constructor, whether
# ``match_catalogue`` names it rather than ``small_group_name``).  An entry is
# built the first time a group of its order is named; its fingerprint is
# cached on the group.
_NAMED_GROUPS = (
    ("S3", 6, lambda: symmetric(3), False),
    ("D8", 8, lambda: dihedral(8), False),
    ("A4", 12, lambda: PermGroup(4, parse_generator_list("(1,2,3),(2,3,4)", 4)),
     False),
    ("D12", 12, lambda: dihedral(12), False),
    ("S4", 24, lambda: symmetric(4), False),
    ("GL(2,3)", 48, gl23, True),
    ("SL(2,3)", 24, sl23, True),
    ("S4xC2", 48, lambda: direct_product(symmetric(4), cyclic(2)), True),
    ("C3xSL(2,3)", 72, lambda: direct_product(cyclic(3), sl23()), True),
)
_BUILT = {}  # name -> group


def _named(G: PermGroup, catalogue: bool) -> str | None:
    """First entry of the given part of ``_NAMED_GROUPS`` isomorphic to G."""
    for name, order, build, in_catalogue in _NAMED_GROUPS:
        if in_catalogue is not catalogue or order != G.order():
            continue
        if name not in _BUILT:
            _BUILT[name] = build()
        if isomorphic(G, _BUILT[name]) is not None:
            return name
    return None


def small_group_name(G: PermGroup) -> str | None:
    """Canonical name for small groups: invariant factors if abelian, else a
    match against a short list of standard groups."""
    if G.order() == 1:
        return "1"
    if G.is_abelian():
        return "x".join(f"C{d}" for d in abelian_invariants(G))
    return _named(G, catalogue=False)


def match_catalogue(G: PermGroup) -> str | None:
    return _named(G, catalogue=True)


def _injective_generators(X: CrossedModule) -> tuple[list[int], int]:
    """The generators of L, a subgroup of M on which X's boundary d is
    injective, and ``|L|``.  They are given by their positions among M's
    distinct nonidentity generators, in the order of
    ``induced_presentation``, and chosen greedily: g is kept when
    ``|<L, g>| = |d<L, g>|``.  An injective d keeps every generator
    (L = M), a trivial one none (L = 1)."""
    M, P, d = X.M, X.Q, dict(zip(X.M.generators, X.boundary.images))
    gens = list(dict.fromkeys(g for g in M.generators if not g.is_identity()))
    kept, order = [], 1
    for i in range(len(gens)):
        L = [gens[j] for j in kept + [i]]
        if (n := M.subgroup(L).order()) == P.subgroup(map(d.get, L)).order():
            kept, order = kept + [i], n
    return kept, order


def induce(
    X: CrossedModule,
    iota: GroupHom,
    max_cosets: int = DEFAULT_MAX_COSETS,
    transversal=None,
) -> tuple[CrossedModule, Report]:
    """Induced crossed module along iota, with a report of its invariants.

    The top group G of ``induced_presentation`` is read off one coset
    table, over the copy K of a subgroup L of M on which X's boundary d is
    injective (``_injective_generators``), and the permutations that the
    presentation's generators S induce on the cosets are sifted into a
    chain stopped at ``[G:K]·|L|`` (``perm._sifted``).  G is presented on
    S, so they generate its action.  K is generated by the words
    ``(g, t0)`` for the generators g of L, with t0 the transversal element
    in iota(P): the ``ip.subgroup_words`` at L's positions, single letters
    of copy t0.

    - ``phi: M -> G``, ``m -> (m, t0)``, is a homomorphism, by the relators
      of copy t0, which is in T0, and ``K = phi(L)``; so
      ``|G| = [G:K]·|K| <= [G:K]·|L|``.
    - G's boundary ``d_G`` has ``d_G phi = c iota d``, with c conjugation
      by t0.  As d is injective on L, and iota on P, so is ``c iota d``,
      hence phi, and ``|G| = [G:K]·|L|``; and ``d_G`` is injective on K.
    - The group of the permutations G induces is a quotient of G.  Its
      chain is built to stop at ``[G:K]·|L|``: a chain never has a larger
      product of transversal lengths than the order of its group, so
      reaching that bound proves the quotient has order ``|G|``, the
      action faithful and the chain complete.
    - The kernel of the action on the cosets of K is ``core_G(K) <= K``,
      which need not be trivial (``P = Q``).  So the permutations of K's
      generators generate ``K / core_G(K)``, of order at most |L|, and it
      is |L| exactly when ``|K| = |L|`` and ``core_G(K) = 1``, that is when
      the action on the cosets is faithful; they are sifted against that
      bound, which costs at most ``|gens L|`` sifts, before M is.  When
      they fall short, each generator x of S acts jointly: by
      ``ip.boundary_images[x]`` on Q's n points 1..n, then by its coset
      permutation shifted by n.  The kernel of that action is
      ``core_G(K) ∩ ker d_G <= K ∩ ker d_G = 1``, so its chain, sifted with
      the same bound, reaches it; the coset table is not enumerated again.
      A chain that still falls short means a premise failed, and raises
      ``ValidationFailed`` naming the bound.

    An injective d gives L = M, and K is H, the copy of M at the coset of
    iota(P); a trivial d gives L = 1, on whose cosets G acts regularly.
    So M is G, acting faithfully.  Sifting keeps a permutation only when
    it lies outside the group generated by those kept before it, so M's
    generators are an irredundant sublist of S's, and ``keep`` lists the
    copy generators they belong to.  The boundary and each action entry
    are given on the kept generators and proved homomorphisms by the walk
    rule (``perm.GroupHom``), in one pass over the ``|M|·k`` edges of M's
    Cayley walk for k kept generators: the ``|M| - 1`` tree edges fill the
    keys and the ``|M|·(k-1)+1`` Schreier edges check them.  Generator k's
    image under a
    generator q of Q is the product along its word ``act_gen(k, q)``, with
    each letter spelt over S by its word ``ip.words`` (``_spelt``) and
    freely reduced: the permutations of S are the only ones read off the
    table (``fp._coset_action``), and a copy generator outside S is
    multiplied out only inside an action entry.  The action entries keep
    their keys only; ``CrossedModule`` reads them as index arrays, and
    none multiplies out its values.

    The table is enumerated by one ``todd_coxeter`` call on the
    presentation over S.  ``Report.stats`` gives ``|L|`` as
    ``subgroup_order``.  The returned module has passed the axiom check; a
    failure there raises ``ValidationFailed`` (it would mean an internal
    error, not bad input).
    """
    phases = dict.fromkeys(PHASES, 0.0)
    clock = time.perf_counter()

    def lap(stage):  # the time since the last lap goes to ``stage``
        nonlocal clock
        now = time.perf_counter()
        phases[stage] += now - clock
        clock = now

    ip = induced_presentation(X, iota, transversal)
    pres = ip.presentation
    Q = iota.target
    kept, order = _injective_generators(X)
    lap("presentation")
    ct = todd_coxeter(pres, [ip.subgroup_words[i] for i in kept], max_cosets)
    lap("todd_coxeter")
    perms = _coset_action(ct)
    degree, bound = ct.ncosets, ct.ncosets * order
    # K's generators are single letters of copy t0, and their permutations
    # generate a group of order |L| / |core_G(K)|: adjoin Q's points when
    # it falls short
    k_perms = [perms[ip.subgroup_words[i].letters[0][0]] for i in kept]
    if _sifted(degree, k_perms, order=order).order() < order:
        perms = [Permutation([*ip.boundary_images[x].images,
                              *(y + Q.degree for y in p.images)])
                 for x, p in zip(ip.generators, perms)]
        degree += Q.degree
    Mstar = _sifted(degree, perms, order=bound)
    if Mstar.order() < bound:  # a premise of the bound failed
        raise ValidationFailed(f"M reaches {Mstar.order()} < bound {bound}")
    lap("chain")
    # a kept permutation is the first of its value: a later equal one
    # would have sifted to the identity
    keep = [ip.generators[perms.index(g)] for g in Mstar.generators]
    inverses = [p.inverse() for p in perms]
    boundary = hom(Mstar, Q, [ip.boundary_images[k] for k in keep])
    action = [GroupHom(Mstar, Mstar, [_word_image(Word.of(_spelt(
        ip.act_gen(k, qg), ip.words)), perms, inverses) for k in keep])
              for qg in Q.generators]
    Xi = CrossedModule(Mstar, Q, boundary, action)
    lap("homs")
    report_check = validate(Xi)
    if not report_check.ok:
        raise ValidationFailed(
            f"induced module failed axioms: {report_check.describe()}"
        )
    lap("validate")
    K, invariants = pi2(Xi)
    P1 = pi1(Xi)
    closure = normal_closure(Q, _boundary_in_q(X, iota))
    boundary_image_order = image(boundary).order()
    lap("pi1_pi2")
    pi1_name = small_group_name(P1)
    pi1_fingerprint = fingerprint(P1)
    induced_name = match_catalogue(Mstar) or small_group_name(Mstar)
    induced_fingerprint = fingerprint(Mstar)
    lap("naming")
    report = Report(
        row=None,
        subgroup=", ".join(str(g) for g in X.Q.generators) or "1",
        subgroup_generators=tuple(str(g) for g in X.Q.generators),
        induced_order=Mstar.order(),
        pi2_invariants=tuple(invariants),
        pi2_order=K.order(),
        pi1_order=P1.order(),
        pi1_name=pi1_name,
        pi1_fingerprint=pi1_fingerprint,
        induced_name=induced_name,
        induced_fingerprint=induced_fingerprint,
        boundary_image_order=boundary_image_order,
        order_law_ok=Mstar.order() == K.order() * closure.order(),
        seconds=sum(phases.values()),
        phases=phases,
        stats={
            "subgroup_order": order,
            "ncosets": ct.ncosets,
            "defined": ct.defined,
            "peak_live": ct.peak_live,
            "generators": pres.ngens,
            "relators": len(pres.relators),
            "relator_letters": sum(len(w) for w in pres.relators),
            "degree": Mstar.degree,
        },
    )
    return Xi, report


# ---------------------------------------------------------------------------
# the reference table


TABLE_SUBGROUPS = (
    ("<(1,2)>", ("(1,2)",)),
    ("S3", ("(1,2)", "(1,2,3)")),
    ("<(1,2),(3,4)>", ("(1,2)", "(3,4)")),
    ("D8", ("(1,2,3,4)", "(1,3)")),
    ("C4", ("(1,2,3,4)",)),
    ("C3", ("(1,2,3)",)),
    ("<(1,2)(3,4)>", ("(1,2)(3,4)",)),
)

TABLE_EXPECTED = (
    (48, (2,), "1"),
    (48, (2,), "1"),
    (48, (2,), "1"),
    (48, (2,), "1"),
    (96, (4,), "1"),
    (72, (6,), "C2"),
    (128, (2, 2, 2, 4), "S3"),
)

TABLE_ISO_PAIRS = ((1, 2), (3, 4))


def table_subgroup(rownum: int) -> PermGroup:
    """The fixed subgroup of S4 used in the given 1-based table row."""
    _, gen_strs = TABLE_SUBGROUPS[rownum - 1]
    return PermGroup(4, [g for s in gen_strs for g in parse_generator_list(s, 4)])


def run_table_full(
    max_cosets: int = DEFAULT_MAX_COSETS, rows=None
) -> list[tuple[CrossedModule, Report]]:
    """Induce every requested table row (1-based); module and report each."""
    Q = symmetric(4)
    selected = list(rows) if rows is not None else list(range(1, 8))
    out = []
    for rownum in selected:
        if not 1 <= rownum <= len(TABLE_SUBGROUPS):
            raise ValueError(f"row {rownum} out of range 1..{len(TABLE_SUBGROUPS)}")
        label, _ = TABLE_SUBGROUPS[rownum - 1]
        P = table_subgroup(rownum)
        iota = hom(P, Q, P.generators)
        Xi, report = induce(identity_xmod(P), iota, max_cosets)
        report = replace(report, row=rownum, subgroup=label)
        out.append((Xi, report))
    return out


def verify_table(results) -> None:
    """Compare computed rows against the stored reference values.

    Also checks the two known coincidences: rows 1 and 2, and rows 3 and 4,
    carry isomorphic crossed modules.  Raises ``TableMismatch`` listing every
    deviation.
    """
    problems = []
    by_row = {}
    for Xi, report in results:
        by_row[report.row] = Xi
        induced_order, pi2_inv, pi1_name = TABLE_EXPECTED[report.row - 1]
        if report.induced_order != induced_order:
            problems.append(
                f"row {report.row}: induced order {report.induced_order}, "
                f"expected {induced_order}"
            )
        if report.pi2_invariants != pi2_inv:
            problems.append(
                f"row {report.row}: pi2 invariants {report.pi2_invariants}, "
                f"expected {pi2_inv}"
            )
        if report.pi1_name != pi1_name:
            problems.append(
                f"row {report.row}: pi1 {report.pi1_name}, expected {pi1_name}"
            )
        pi1_order = {"1": 1, "C2": 2, "S3": 6}[pi1_name]
        if report.pi1_order != pi1_order:
            problems.append(
                f"row {report.row}: pi1 order {report.pi1_order}, "
                f"expected {pi1_order}"
            )
        if not report.order_law_ok:
            problems.append(f"row {report.row}: order law broken")
    for a, b in TABLE_ISO_PAIRS:
        if a in by_row and b in by_row:
            if xmod_isomorphic(by_row[a], by_row[b]) is None:
                problems.append(f"rows {a} and {b} are not isomorphic")
    if problems:
        raise TableMismatch("; ".join(problems))


def run_table(
    max_cosets: int = DEFAULT_MAX_COSETS, verify: bool = True, rows=None
) -> list[Report]:
    """Reports for the reference table, optionally verified against it."""
    results = run_table_full(max_cosets, rows)
    if verify:
        verify_table(results)
    return [report for _, report in results]
