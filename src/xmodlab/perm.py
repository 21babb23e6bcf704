"""Finite permutation groups with exact membership, quotients and isomorphism search.

Points are 1-based.  Products compose left to right: ``(p * q).apply(x) ==
q.apply(p.apply(x))``, so conjugation ``p.conj(q) == q^-1 p q`` and all group
actions in the package are right actions.

Every group builds a stabilizer chain on construction, so order and membership
are exact from the start.  A group walks its Cayley graph once, on first
need, on keys, and keeps the walk and its spanning tree, the edges that
first reach each element.  The walk is the one place that
refuses enumeration: a group of order above ``ENUMERATION_BOUND`` raises
``EnumerationBoundExceeded``, naming its order and the bound, wherever its
elements are first needed (homomorphisms, actions, fingerprints,
quotients), instead of sampling.

One routine, ``_tree_values``, fills in the values of a map given on G's
generators, one step per tree edge: the walk's own elements, a
homomorphism's keys and values (``GroupHom``), the keys of a crossed
module's action (``xmod.CrossedModule``) and a left-multiplication table
(``_central``).  The walk has ``|G|·k`` edges for
k generators and the tree ``|G| - 1`` of them; the other
``|G|·(k-1) + 1`` are the Schreier edges (``_off_tree_edges``), whose
relators present G on its generators (Schreier's lemma), and
``induce._schreier_relators`` spells them.  So a map filled along the tree
is a homomorphism exactly when each Schreier edge leads from its tail's
value to its endpoint's (von Dyck's theorem), and that is all the walk
rule checks.  Asked to prove the map, the same routine fills and proves
keys in one pass over every edge in walk order: the walk is breadth first,
so the first edge into an element is its tree edge, which sets the value,
and every later one is a Schreier edge, which compares with it.  It reads
a tail's k edges with one reader built for that tail's key.  It proves
every map out of every group, so its cost grows with the number of
generators: the groups the package builds from many candidates (the
induced M, kernels, closures) keep only the ones that enlarge the group
(``_sifted``).

The chain is complete, so an element of the group is fixed by where it sends
the base points (Seress, *Permutation Group Algorithms*): two elements with the
same base images differ by an element fixing every base point, and the last
stabilizer of a complete chain is trivial.  The walk, homomorphisms and
the products of the isomorphism search (``_product_rule``) look elements up
and compare them by their base images, ``|base|`` lookups where a product
costs ``degree``; the regular representation of a group has a base of one
point.  Those ``degree`` lookups are gathered in C (``_gather``, one
``operator.itemgetter`` per product), as are the lookups of each step of
the walk and of each tail of a proved map, a homomorphism's keys and a
crossed module's action keys (one reader per tail, applied to every
generator: an itemgetter for two or more points), and the ``|base|`` lookups of the element orders, the
compositions of a crossed module's action arrays and the renumbering of a
coset table and of the Cayley walk.

The walk forms no product.  It tracks each element by its images on S, the
points up to the last base point that the group moves, which hold the
base.  Two elements first differ at a point of S, so sorting by those
images sorts by image tuple, and the walk numbers the elements that way,
once: its keys, successor columns and tree edges, and every value filled
along the tree, are indexed as ``elements()`` is.  The order in which the
walk found the elements is read only where a tail must come before its
head: by the fill along the tree and by the Schreier edges
(``PermGroup._cayley_walk``).  The readers that ``induce`` runs work on
keys and on the walk's successor columns, and multiply out only the
elements they return, one product per chain level
(``PermGroup._element``):
- a homomorphism keeps keys, and its kernel is picked on them (``kernel``);
- the centre compares a left-multiplication table, filled along the tree,
  with the columns (``_central``);
- the right cosets of a subgroup H, and those of G', are the classes of
  one union-find over the columns, the least right congruence that merges
  the identity with each generator of H, or ``x·a·b`` with ``x·b·a``
  (``_right_congruence``); a quotient reads its generators off them, and
  the fingerprint ``|G'|`` and G/G';
- element orders are read off the chain one cyclic subgroup at a time,
  each element's key mapped by the element until the base comes back
  (``PermGroup._element_orders``), and the invariant factors of an abelian
  group off their histogram (``abelian_invariants``).
``elements()`` is the fill along the tree with products: every element
multiplied out, once, along its tree edge, when first asked.  Base images
also decide commutation (``_commute``).

A caller that knows an upper bound for a group's order builds its chain
with ``PermGroup._bounded``: the Schreier-Sims check loop stops once the
chain reaches the bound, which proves the chain complete.  A group that
acts regularly has its degree as the bound and reaches it at level 0,
without a single Schreier generator: a quotient on the cosets of its normal
subgroup and the right-regular M that ``squares.gamma`` rebuilds from
squares.

One function, ``_extend_chain``, opens and extends every chain:
``_build_chain`` hands it a group's generators at once.  Kernels, images,
centres, normal closures and derived subgroups are grown by one loop,
``_sifted``, which keeps a candidate generator only if it enlarges the group
so far and hands each generator it keeps to ``_extend_chain``, and stops at
a bound for the order if it is given one: the induced M is read off its
coset permutations that way (``induce``), and the copies T0 that its
presentation keeps are chosen by sifting their boundaries
(``induce.induced_presentation``).  A kernel, an image and a centre know
their order before they are sifted, from the keys or the columns, and
sift against it: the loop stops once the chain reaches it, which proves
the chain complete, and no later candidate is multiplied out.  No other
module names the chain or the routines that read or build it (guarded in
``test_imports.py``); they build groups through ``PermGroup``,
``PermGroup._bounded`` and ``_sifted``.  Generators passed to
``PermGroup`` are kept as given, and ``derived_subgroup`` is the normal
closure of the commutators of those; the fingerprint builds no such
group.  Normality is decided by sifting: each generator of N conjugated
by each generator of G is sifted through N's chain
(``_normality_witness``), so N is never walked for it.  ``quotient``
returns G/N with its projection; the callers that read only the group
(``xmod.pi1``, and the fingerprint's G/G') build it with
``_quotient_group`` or ``_coset_action`` and prove no homomorphism.

Isomorphisms are found by one backtrack, ``_extensions``, over a greedy
generating sequence; ``isomorphic`` and ``xmod.xmod_isomorphic`` differ
only in the candidates they offer and the checks they add.  It proves its
maps by the walk rule too: a partial map is grown along the Cayley edges
``x -> x·s`` of the seeds assigned so far, one product each, and a map
that agrees on every such edge is a homomorphism.  No multiplication table
is built.  The search reads each group's own tables, each built once and
kept on the group: ``elements()``, ``element_index()``, the element orders
in ``elements()`` order (``PermGroup._element_orders``, which the
fingerprint reads too) and the product rule (``_product_rule``, which
``squares`` reads too).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd, lcm, prod
from operator import itemgetter

from .errors import (
    DegreeMismatch,
    EnumerationBoundExceeded,
    NonAbelian,
    NonNormal,
    NotASubgroup,
    NotInGroup,
    ParseError,
    RelationViolated,
    SearchBoundExceeded,
)

ENUMERATION_BOUND = 10_000
ISO_SEARCH_BOUND = 512


class Permutation:
    """Bijection of {1..degree}; ``images[i]`` is the image of point ``i + 1``.

    The constructor checks that ``images`` is a bijection, so every
    permutation built from raw images (parsed text, JSON, a coset table, a
    quotient's coset action, the named-group constructors) is checked once,
    where it enters.  Products, inverses and identities are bijections by
    construction and are stored through ``_trusted`` without the check.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        _set_images(self, images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return _trusted(_identity_images(degree))

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other."""
        si = self.images
        oi = other.images
        if len(si) != len(oi):
            raise DegreeMismatch(f"degree {len(si)} vs {len(oi)}")
        # the images of ``self`` index ``other``'s from 1
        return _trusted(_gather(si, (0,) + oi))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images, 1):
            inv[x - 1] = i
        return _trusted(tuple(inv))

    def conj(self, q: "Permutation") -> "Permutation":
        """q^-1 * self * q, which takes ``q(x)`` to ``q(self(x))``: one
        pass over the points, no inverse and no product."""
        qi = q.images
        if len(qi) != len(self.images):
            raise DegreeMismatch(f"degree {len(qi)} vs {len(self.images)}")
        images = [0] * len(qi)
        for x, y in zip(qi, self.images):
            images[x - 1] = qi[y - 1]
        return _trusted(tuple(images))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    def __pow__(self, k: int) -> "Permutation":
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def moved_points(self):
        return [i + 1 for i, x in enumerate(self.images) if x != i + 1]

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.apply(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.apply(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r}, degree={self.degree})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images


_set_images = Permutation.images.__set__  # the slot, past __setattr__
_IDENTITY_IMAGES: dict[int, tuple[int, ...]] = {}


def _identity_images(degree: int) -> tuple[int, ...]:
    """``(1, ..., degree)``, built once per degree."""
    images = _IDENTITY_IMAGES.get(degree)
    if images is None:
        images = _IDENTITY_IMAGES[degree] = tuple(range(1, degree + 1))
    return images


def _gather(indices, values) -> tuple:
    """``tuple(values[i] for i in indices)``, read in C by one
    ``operator.itemgetter``.  A tuple for no index and for one index too,
    where ``itemgetter`` would refuse or return the bare value.  It forms
    permutation products, the steps of a homomorphism's keys, of the
    element orders and of a Cayley walk on at most one point, the action
    arrays of a crossed module and the renumbering of a coset table and of
    a Cayley walk."""
    if len(indices) > 1:
        return itemgetter(*indices)(values)
    return tuple([values[i] for i in indices])


def _trusted(images: tuple) -> Permutation:
    """Permutation on an image tuple already known to be a bijection."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _scan_permutation(text: str, i: int, degree: int) -> tuple:
    """Read the cycles of one permutation from position ``i``: the
    permutation and the position after it and the whitespace that follows.

    The scan stops at the first character that does not open a cycle, or
    at the end of the text; there must be at least one cycle.  Points are
    1-based and must not exceed ``degree``; a point may appear in at most
    one cycle.  Every ``ParseError`` position indexes ``text`` as given.
    """
    images = list(range(1, degree + 1))
    used = set()
    n = len(text)
    i = _skip_ws(text, i)
    if i == n:
        raise ParseError("empty permutation", i)
    if text[i] != "(":
        raise ParseError(f"expected '(' but found {text[i]!r}", i)
    while i < n and text[i] == "(":
        i = _skip_ws(text, i + 1)
        points = []
        if i < n and text[i] == ")":
            i = _skip_ws(text, i + 1)  # () = identity cycle
            continue
        while True:
            start = i
            # ASCII digits only: int() reads other digits, or refuses them
            # with no position
            while i < n and "0" <= text[i] <= "9":
                i += 1
            if i == start:
                raise ParseError("expected a point", i)
            p = int(text[start:i])
            if not 1 <= p <= degree:
                raise ParseError(f"point {p} out of range 1..{degree}", start)
            if p in used:
                raise ParseError(f"point {p} repeated", start)
            used.add(p)
            points.append(p)
            i = _skip_ws(text, i)
            if i < n and text[i] == ",":
                i = _skip_ws(text, i + 1)
                continue
            if i < n and text[i] == ")":
                i = _skip_ws(text, i + 1)
                break
            raise ParseError("expected ',' or ')'", i)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Permutation(images), i


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1,2)(3,4)``; ``()`` is the identity.

    Whitespace is ignored everywhere.  The text is read by
    ``_scan_permutation`` and must end where the permutation does.
    """
    g, i = _scan_permutation(text, 0, degree)
    if i < len(text):
        raise ParseError(f"expected '(' but found {text[i]!r}", i)
    return g


def parse_generator_list(text: str, degree: int) -> list[Permutation]:
    """Parse a comma-separated list of cycle-notation permutations.

    Commas inside parentheses separate points; commas between a ``)`` and the
    next ``(`` separate permutations.  An empty string denotes no generators.
    The list is read in one pass, one ``_scan_permutation`` per generator,
    so an error's position indexes the whole text as given.
    """
    if not text.strip():
        return []
    gens = []
    i = 0
    while True:
        g, i = _scan_permutation(text, i, degree)
        gens.append(g)
        if i == len(text):
            return gens
        if text[i] != ",":
            raise ParseError(f"expected '(' or ',' but found {text[i]!r}", i)
        i += 1


def _array(value, field: str) -> list:
    """A JSON array; a string, which ``list()`` would split into characters,
    or any other value is a ``ParseError`` naming the field.  Shared by the
    JSON readers of presentations (``fp``) and crossed modules (``xmod``)."""
    if type(value) is not list:
        raise ParseError(f"{field} must be a JSON array, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    """A JSON object; any other value is a ``ParseError`` naming the field.
    Shared, like ``_array``, by the presentation and crossed-module readers."""
    if type(value) is not dict:
        raise ParseError(f"{field} must be a JSON object, got {value!r}")
    return value


class PermGroup:
    """Group generated by permutations of a common degree.

    The stabilizer chain (base points preferred in natural order 1, 2, ...)
    is built eagerly, so ``order`` and ``contains`` never guess:
    ``contains`` sifts through the chain, whether or not the group's
    elements have been multiplied out.
    """

    def __init__(self, degree: int, generators):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"not a permutation: {g!r}")
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree}, group degree {degree}"
                )
        self._adopt(degree, generators, _build_chain(degree, generators))

    @classmethod
    def _on_chain(cls, degree: int, generators, levels) -> "PermGroup":
        """The group generated by ``generators``, on a complete chain for it
        built already."""
        group = object.__new__(cls)
        group._adopt(degree, tuple(generators), levels)
        return group

    @classmethod
    def _bounded(cls, degree: int, generators, order: int) -> "PermGroup":
        """The group generated by ``generators``, whose order the caller
        knows to be at most ``order``.

        The Schreier-Sims check loop stops as soon as the product of the
        chain's transversal lengths reaches ``order`` (``_complete_chain``).
        A group smaller than the bound gets its full check loop, so the
        chain is complete either way, and ``order()`` equals the bound
        exactly when the group is that large.

        A group that acts regularly (transitively, with trivial point
        stabilizers) has its degree as the bound: its order is the degree
        and every nonidentity element moves every point, so the first
        level opens at point 1 with the whole orbit as its transversal,
        reaches the bound there, at level 0, and no Schreier generator is
        ever formed.  Without a nonidentity generator the chain is empty.
        """
        generators = tuple(generators)
        return cls._on_chain(degree, generators,
                             _build_chain(degree, generators, order))

    def _adopt(self, degree: int, generators: tuple, levels: list) -> None:
        self.degree = degree
        self.generators = generators
        self._levels = levels
        self._order = _chain_order(levels)
        self._walk = None
        self._tree = None
        self._fill = None
        self._elements = None
        self._index = None
        self._by_key = None
        self._orders = None
        self._mul = None
        self._fingerprint = None

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def order(self) -> int:
        return self._order

    def is_trivial(self) -> bool:
        return self._order == 1

    def contains(self, p: Permutation) -> bool:
        """Whether p lies in the group: it sifts to the identity through
        the chain, which is complete."""
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        return _strip(self._levels, p).is_identity()

    __contains__ = contains

    def subgroup(self, generators) -> "PermGroup":
        return PermGroup(self.degree, _members(self, generators))

    def _base(self) -> tuple:
        """The chain's base points, level by level; ``()`` when trivial.

        The chain is complete, so an element of the group is fixed by its
        base images ``tuple(p.images[b - 1] for b in base)``, its key: two
        elements with the same base images differ by one fixing every base
        point, which is the identity.  Only for elements of the group: a
        permutation outside it may share the base images of one inside.
        """
        return tuple(level["point"] for level in self._levels)

    def _element(self, key) -> Permutation:
        """The element with base images ``key``, multiplied out from the
        chain, one product per level.

        Sifting writes an element as ``g = u_k ... u_1`` (applied left to
        right), ``u_i`` the transversal element of level i at ``c_i``, and
        every ``u_j`` with ``j > i`` fixes the base point ``b_i``; so
        ``key[i] = g(b_i) = r_i(c_i)`` for ``r_i = u_(i-1) ... u_1``, and
        ``c_i`` is the point ``r_i`` sends to ``key[i]``.
        """
        g = self.identity
        for level, y in zip(self._levels, key):
            g = level["transversal"][g.images.index(y) + 1] * g
        return g

    def _element_orders(self) -> list[int]:
        """The order of each element, in ``elements()`` order, read off the
        stabilizer chain one cyclic subgroup at a time.

        The chain is complete, so ``g^j`` is the identity exactly when it
        fixes every base point, that is when its key is the base.  The key
        of ``g^(j+1) = g^j g`` is g's images at the key of ``g^j``, so
        mapping g's key by g, one gather of ``|base|`` points a step, gives
        the keys of g, g², ... and comes back to the base after exactly
        ``n = ord(g)`` steps; ``g^j`` has order ``n / gcd(j, n)``, so every
        power of g gets its order from that one cycle, and an element whose
        order is set already is skipped.  The elements are run through as
        ``g = h u``, u in the first level's transversal and h in the
        stabilizer of the first base point, whose elements alone are
        multiplied out, one product each, as ``_element`` factors them.  g
        sends x to ``u(h(x))``, two lookups: at the base points they give
        its key, which places it in ``elements()`` order (``_key_index``),
        and g itself is gathered only when its cyclic subgroup is walked.
        Read once and kept: the fingerprint, ``abelian_invariants`` and the
        isomorphism search all share it.
        """
        if self._orders is not None:
            return self._orders
        by_key = self._key_index()
        base = self._base()
        if not base:
            self._orders = [1]
            return self._orders
        # h = u_k ... u_2, one factor per deeper level, the deepest applied
        # first (``_element``), kept as h[x] = h(x) - 1 for x >= 1: the
        # index of h(x) in a permutation's images
        stabilizer = [(0,) + tuple(range(self.degree))]
        for level in self._levels[1:]:
            stabilizer = [(0,) + _gather(u.images, h) for u in
                          level["transversal"].values() for h in stabilizer]
        first = [u.images for u in self._levels[0]["transversal"].values()]
        orders = [0] * len(by_key)
        for h in stabilizer:
            at = _gather(base, h)
            for u in first:
                key = _gather(at, u)
                i = by_key[key]
                if orders[i]:
                    continue
                # g[x] = u(h(x)) for x >= 1: g's images indexed from 1
                g = _gather(h, u)
                powers = [i]
                while key != base:
                    key = _gather(key, g)
                    powers.append(by_key[key])
                n = len(powers)
                for j, power in enumerate(powers, 1):
                    orders[power] = n // gcd(j, n)
        self._orders = orders
        return orders

    def _cayley_walk(self) -> tuple[tuple, tuple]:
        """Breadth-first walk of the Cayley graph from the identity, on
        keys alone, numbered in ``elements()`` order.

        Returns each element's base images (``_base``) and, for each
        element, the indices of its products with the generators in list
        order.  An element is tracked by its images on S, the points up to
        the last base point that G moves, which hold the base: an edge
        ``x -> x*g`` is looked up by the images of x's images under g, and
        no product is formed.  An element is multiplied out only when a
        caller asks for it as a permutation (``elements()``, ``_element``).

        Once walked, the elements are numbered by their images on S, and
        that sorts them by image tuple, as ``elements()`` does.  Two
        elements ``g != h`` first differ at the least point that
        ``k = g h^-1`` moves.  k is not the identity, so it moves a base
        point, as the chain is complete; so that least point is at most
        the last base point, and it is moved by G: it lies in S.  The
        points before it agree, on S as everywhere.  ``_fill`` lists
        the indices in the order the walk found the elements, each tree
        edge's tail before its head; two readers alone need it: the fill
        along the walk, which proves a map on the Schreier edges in the
        same pass (``_tree_values``), and the Schreier edges in walk order
        that ``induce._schreier_relators`` spells (``_off_tree_edges``).
        Each step of the walk reads x's images on S from the generator's
        images, by one ``operator.itemgetter`` built per tail x and applied
        to every generator.  Walked once per group and kept; a
        group of order above ``ENUMERATION_BOUND`` raises
        ``EnumerationBoundExceeded`` here.
        """
        if self._walk is None:
            if self._order > ENUMERATION_BOUND:
                raise EnumerationBoundExceeded(
                    f"order {self._order} exceeds {ENUMERATION_BOUND}",
                    limit=ENUMERATION_BOUND,
                )
            base = self._base()
            S = [x for x in range(1, max(base, default=0) + 1)
                 if any(g.images[x - 1] != x for g in self.generators)]
            found = [tuple(S)]
            index = {found[0]: 0}
            columns = []  # each element's successors in turn, k at a time
            tree = [None]  # the edge first reaching each element
            # g's images indexed from 1, each read at x's images on S by
            # one reader per tail; itemgetter returns a bare value for one
            # point and refuses none, so those walks read by _gather
            shifted = [(0,) + g.images for g in self.generators]
            many = len(S) > 1
            # grows while it is read: a FIFO queue
            for i, on_s in enumerate(found):
                read = itemgetter(*on_s) if many else partial(_gather, on_s)
                for s, y in enumerate(map(read, shifted)):
                    j = index.get(y)
                    if j is None:
                        j = index[y] = len(found)
                        found.append(y)
                        tree.append((i, s))
                    columns.append(j)
            # order: the discovery index of each element, in elements()
            # order; fill: the inverse, each element's index in elements()
            order = sorted(range(len(found)), key=found.__getitem__)
            fill = [0] * len(found)
            for r, i in enumerate(order):
                fill[i] = r
            self._fill = tuple(fill)
            self._tree = tuple([(fill[a], s)
                                for a, s in _gather(order[1:], tree)])
            keys = found
            if S != list(base):
                at = [S.index(b) for b in base]
                keys = [_gather(at, y) for y in found]
            k = len(self.generators)
            columns = _gather(columns, fill)
            self._walk = (_gather(order, keys),
                          tuple([columns[i * k:i * k + k] for i in order]))
        return self._walk

    def _spanning_tree(self) -> tuple:
        """For each element after the identity, in ``elements()`` order,
        the edge of the Cayley walk that first reaches it: the index of its
        tail, found before it (``_fill``), and the position of its
        generator."""
        if self._tree is None:
            self._cayley_walk()
        return self._tree

    def elements(self) -> tuple:
        """All elements, sorted by image tuple (identity first), multiplied
        out once each along the spanning tree (``_tree_values``) on first
        call and kept."""
        if self._elements is None:
            self._elements = tuple(_tree_values(
                self, self.identity, self.generators, Permutation.__mul__))
        return self._elements

    def element_index(self) -> dict:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.elements())}
        return self._index

    def _key_index(self) -> dict:
        """The index in ``elements()`` of each element, keyed by its base
        images (``_base``), in ``elements()`` order; built once, from the
        walk's keys alone."""
        if self._by_key is None:
            keys = self._cayley_walk()[0]
            self._by_key = dict(zip(keys, range(len(keys))))
        return self._by_key

    def _rank(self, p: Permutation) -> int:
        """The index in ``elements()`` of p, an element of G, looked up by
        its base images (``_key_index``); p outside G may share the key of
        an element inside."""
        return self._key_index()[tuple([p.images[b - 1] for b in self._base()])]

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(
            g in other for g in self.generators
        )

    def is_normal_in(self, other: "PermGroup") -> bool:
        return (self.is_subgroup_of(other)
                and _normality_witness(self, other) is None)

    def is_abelian(self) -> bool:
        return _noncommuting_pair(self) is None

    def random_element(self, rng) -> Permutation:
        """Uniformly random element drawn through the stabilizer chain."""
        result = self.identity
        for level in reversed(self._levels):
            points = sorted(level["transversal"])
            result = result * level["transversal"][rng.choice(points)]
        return result

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self._order}, <{gens}>)"


def _build_chain(degree: int, generators, order: int | None = None) -> list:
    """Deterministic Schreier-Sims: the chain ``_extend_chain`` opens on the
    nonidentity generators; empty when there are none.

    Each level holds a base point, the strong generators fixing all earlier
    base points, a transversal mapping the base point across its orbit, and
    the inverses of transversal elements, each computed when first needed
    and dropped whenever the orbit is rebuilt.
    """
    levels = []
    seed = [g for g in generators if not g.is_identity()]
    if seed:
        _extend_chain(levels, degree, seed, order)
    return levels


def _extend_chain(levels: list, degree: int, gens: list,
                  order: int | None = None) -> None:
    """Extend a complete chain, in place, to one of the group with the
    nonidentity ``gens`` as more generators.

    ``gens`` join level 0's generators (a first level is opened at the
    least point any of them moves if there is none) and the check loop
    resumes from level 0; the deeper levels are complete already and are
    re-checked only when they gain a generator.  ``order`` is passed on to
    ``_complete_chain``.
    """
    if not levels:
        levels.append({"point": min(map(_min_moved, gens)), "gens": []})
    levels[0]["gens"].extend(gens)
    _rebuild_orbit(levels[0], degree)
    _complete_chain(levels, degree, order)


def _chain_order(levels: list) -> int:
    """The product of the transversal lengths: the order of the group a
    complete chain is for, and at most the order of the group its
    generators generate for any chain."""
    return prod(len(level["transversal"]) for level in levels)


def _min_moved(g: Permutation) -> int:
    for i, x in enumerate(g.images):
        if x != i + 1:
            return i + 1
    raise AssertionError("identity has no moved point")


def _rebuild_orbit(level: dict, degree: int) -> None:
    b = level["point"]
    tr = {b: Permutation.identity(degree)}
    orbit = [b]
    for a in orbit:  # grows while it is read: a FIFO queue
        ua = tr[a]
        for g in level["gens"]:
            c = g.apply(a)
            if c not in tr:
                tr[c] = ua * g
                orbit.append(c)
    level["transversal"] = tr
    level["inverses"] = {}


def _complete_chain(levels: list, degree: int,
                    order: int | None = None) -> None:
    """The Schreier-Sims check loop, from level 0, with every deeper level
    complete on entry.

    A Schreier generator ``u_a g u_c^-1`` (``c = a^g``) is the identity
    exactly when ``u_a g`` is the transversal element ``u_c``, so it is
    formed only when that test fails.  The loop re-checks a level whenever a
    deeper one gains a generator, so on return every level's generators
    generate the stabilizer of the earlier base points.

    ``order``, if given, is an upper bound the caller knows for the order
    of the group.  Level i's transversal is an orbit of a subgroup of the
    stabilizer of the earlier base points, so its length is at most the
    index of the next stabilizer in that one, and the product of the
    lengths (``_chain_order``) never exceeds the group's order.  Once the
    product reaches the bound, the group has exactly that order, every
    orbit is a full one and the last stabilizer is trivial: the chain is
    complete, and the loop stops (Seress, *Permutation Group Algorithms*,
    on Schreier-Sims with a known order).
    """
    def add_at(j, h):
        if j == len(levels):
            levels.append({"point": _min_moved(h), "gens": []})
        # h fixes the base points of levels 0..j-1, so it is a strong
        # generator for every level from 1 to j, not only the stuck one.
        for l in range(1, j + 1):
            levels[l]["gens"].append(h)
            _rebuild_orbit(levels[l], degree)

    i = 0
    while i >= 0:
        if order is not None and _chain_order(levels) >= order:
            return
        level = levels[i]
        tr = level["transversal"]
        clean = True
        for a in sorted(tr):
            ua = tr[a]
            for g in level["gens"]:
                c = g.apply(a)
                ug = ua * g
                if ug == tr[c]:
                    continue
                sg = ug * _transversal_inverse(level, c)
                residue, j = _strip_at(levels, sg, i + 1)
                if not residue.is_identity():
                    add_at(j, residue)
                    i = j
                    clean = False
                    break
            if not clean:
                break
        if clean:
            i -= 1


def _strip_at(levels, g, start):
    i = start
    while i < len(levels) and not g.is_identity():
        level = levels[i]
        c = g.apply(level["point"])
        if c not in level["transversal"]:
            return g, i
        g = g * _transversal_inverse(level, c)
        i += 1
    return g, i


def _transversal_inverse(level, c):
    """Inverse of the level's transversal element at ``c``, computed once."""
    inv = level["inverses"].get(c)
    if inv is None:
        inv = level["inverses"][c] = level["transversal"][c].inverse()
    return inv


def _strip(levels, g):
    residue, _ = _strip_at(levels, g, 0)
    return residue


def _index_of(index: dict, key, message: str):
    """``index[key]``; a key missing from ``index``, or one that cannot be
    hashed, raises ``NotInGroup`` with ``message.format(key)``."""
    try:
        return index[key]
    except (KeyError, TypeError):
        raise NotInGroup(message.format(key)) from None


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom:
    """Homomorphism given by images of the source generators.

    A homomorphism keeps, for each element of the source in ``elements()``
    order, the target's base images (``PermGroup._base``) of its value,
    its key.  Every value lies in the target, whose chain is complete, so
    a key fixes its value; ``is_injective``, ``is_surjective``, ``kernel``
    and ``_index_array`` read the keys.  Construction fills and proves the
    keys in one pass over the edges of the source's Cayley walk (walked
    once per group, not once per homomorphism) in walk order
    (``_tree_values``): each key is set on its tree edge and checked on
    every Schreier edge into it, the k edges out of a tail read by one
    reader of ``|base|`` points built for its key, and ``RelationViolated``
    is raised at the first Schreier edge that does not lead to its
    endpoint's key, with that endpoint as the witness.

    The values themselves are multiplied out only when ``element_map`` is
    first read, by the same fill with products in place of keys; the
    source's walk is on keys too (``PermGroup._cayley_walk``), so building
    and proving a homomorphism multiplies out no element of either group,
    and a violation multiplies out only its witness.  The source is
    walked, so sources above ``ENUMERATION_BOUND`` raise
    ``EnumerationBoundExceeded``.
    """

    def __init__(self, source: PermGroup, target: PermGroup, images):
        images = tuple(images)
        if len(images) != len(source.generators):
            raise ValueError(
                f"{len(source.generators)} generators but {len(images)} images"
            )
        for im in images:
            if im.degree != target.degree:
                raise DegreeMismatch(
                    f"image degree {im.degree}, target degree {target.degree}"
                )
            if im not in target:
                raise NotInGroup(f"image {im} is not in the target group")
        self.source = source
        self.target = target
        self.images = images
        # the base images of ``v * im`` are im's images at v's: a gather
        self._keys = _tree_values(
            source, target._base(), [(0,) + im.images for im in images],
            violation="generator images do not respect the relations of "
            "the source",
        )

    @cached_property
    def element_map(self) -> dict:
        """Each source element's value, multiplied out on first read."""
        values = _tree_values(self.source, self.target.identity, self.images,
                              Permutation.__mul__)
        return dict(zip(self.source.elements(), values))

    def _index_array(self) -> tuple[int, ...]:
        """For each element of ``source.elements()``, the index of its
        image in ``target.elements()``, read off the keys."""
        return tuple(map(self.target._key_index().__getitem__, self._keys))

    def apply(self, p: Permutation) -> Permutation:
        return _index_of(self.element_map, p, "{} is not in the source group")

    def is_injective(self) -> bool:
        return self._keys.count(self.target._base()) == 1

    def is_surjective(self) -> bool:
        return len(set(self._keys)) == self.target.order()

    def is_bijective(self) -> bool:
        return (
            self.source.order() == self.target.order() and self.is_surjective()
        )

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite: self first, then other."""
        return GroupHom(
            self.source, other.target, [other.apply(im) for im in self.images]
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{g} -> {im}" for g, im in zip(self.source.generators, self.images)
        )
        return f"GroupHom({pairs or 'trivial'})"


def _off_tree_edges(G: PermGroup) -> list:
    """The Schreier edges of G's Cayley walk, in walk order (tails in the
    order the walk found them, ``PermGroup._fill``, generators in list
    order): each ``(a, s, c)``, the indices of tail and endpoint and the
    generator's position, that is not the edge first reaching c
    (``PermGroup._spanning_tree``).  An edge into the identity is never a
    tree edge.  There are ``|G|·(k-1) + 1`` of them for k generators;
    ``induce._schreier_relators`` spells them, and ``_tree_values`` checks
    the same edges in the same order without listing them."""
    tree, successors = G._spanning_tree(), G._cayley_walk()[1]
    return [(a, s, c) for a in G._fill for s, c in enumerate(successors[a])
            if c == 0 or tree[c - 1] != (a, s)]


def _tree_values(G: PermGroup, start, images, step=None,
                 violation=None) -> list:
    """Values of a map given on G's generators, in ``elements()`` order:
    ``start`` at the identity, and ``step(value(x), image(g))`` at the end
    of the edge ``x -> x*g`` of G's Cayley walk that first reaches it, its
    tree edge (``PermGroup._spanning_tree``).  Tails are read in the order
    the walk found them (``PermGroup._fill``), so each before its head.
    The one routine that fills values along the walk.

    Given ``step``, only the tree edges are stepped along.  Given
    ``violation`` instead, the values are keys, tuples of indices, the
    step is the gather ``_gather(value(x), image(g))``, and the map is
    also proved a homomorphism, or ``RelationViolated`` is raised: it is
    one exactly when each Schreier relator ``w_a s w_c^-1`` dies (von
    Dyck's theorem), that is when each Schreier edge ``(a, s, c)``
    (``_off_tree_edges``) leads from ``value(a)`` to ``value(c)``.  Every
    edge is then read once, in walk order, tails as found and generators
    in list order: each tail's k successors by one reader built for its
    key and applied to every image, an ``operator.itemgetter`` for a key
    of two or more points and a tuple per image for one point or none, as
    ``PermGroup._cayley_walk`` reads its steps.  The walk is breadth first,
    so the first edge that reaches an element is its tree edge: it sets
    the value, and every later edge into it, a Schreier edge, compares
    with it; the identity's value is ``start``, so every edge into it
    compares.  The first Schreier edge that disagrees raises, naming its
    endpoint, the one element multiplied out here (``PermGroup._element``).
    """
    keys, successors = G._cayley_walk()
    if step is not None:
        tree = G._spanning_tree()
        values = [start] * len(keys)
        for c in G._fill[1:]:
            a, s = tree[c - 1]
            values[c] = step(values[a], images[s])
        return values
    # None until reached: no key is None
    values = [None] * len(keys)
    values[0] = start
    width = len(start)
    for a in G._fill:
        key = values[a]
        if width > 1:
            row = map(itemgetter(*key), images)
        elif width:
            x = key[0]
            row = [(im[x],) for im in images]
        else:
            row = [()] * len(images)
        for c, v in zip(successors[a], row):
            if values[c] is None:
                values[c] = v
            elif v != values[c]:
                witness = G._element(keys[c])
                raise RelationViolated(
                    f"{violation} (conflict at {witness})", witness=witness
                )
    return values


def hom(source: PermGroup, target: PermGroup, images) -> GroupHom:
    """Verified homomorphism mapping source generators to ``images``."""
    return GroupHom(source, target, images)


def identity_hom(G: PermGroup) -> GroupHom:
    return GroupHom(G, G, G.generators)


def kernel(h: GroupHom) -> PermGroup:
    """Kernel in the source, its members (the elements whose key is the
    target's base, picked on keys) sifted in ``elements()`` order
    (``_sifted_at``) against their number, ``|ker h|``: the sift stops once
    its chain reaches that order, which proves the chain complete, and
    the members after that are never multiplied out."""
    one = h.target._base()
    return _sifted_at(h.source,
                      [i for i, key in enumerate(h._keys) if key == one])


def image(h: GroupHom) -> PermGroup:
    """The image, the generators' images sifted against its order: the
    number of distinct keys, as a key fixes its value in the target."""
    return _sifted(h.target.degree, h.images, order=len(set(h._keys)))


# ---------------------------------------------------------------------------
# closures, quotients, invariants


def _members(G: PermGroup, elements) -> list:
    """The elements as a list; one outside G raises ``NotInGroup``."""
    elements = list(elements)
    for s in elements:
        if s not in G:
            raise NotInGroup(f"{s} is not in the group")
    return elements


def _sifted(degree: int, candidates, conjugators=(), order=None) -> PermGroup:
    """Group generated by ``candidates``, keeping, in order, each one outside
    the group kept so far.  With ``conjugators``, each kept generator's
    conjugates by them are queued too, so the result is normal in the group
    they generate (Seress, *Permutation Group Algorithms*).  One chain is
    kept and extended with each kept generator, never rebuilt.

    ``order``, if given, is an upper bound for the order of the group the
    candidates generate, and may be that order.  The chain stops its check
    loop on reaching it (``_complete_chain``), and the remaining candidates,
    which all lie in the group, are not sifted, nor drawn from
    ``candidates``, which is read lazily: the kept generators are the
    same.  A chain never has a larger product of transversal lengths than
    the order of its group, so reaching the bound proves the chain complete;
    a group that falls short of it gets its full check loop at every kept
    generator.  Either way the chain is complete, and so are its levels
    the same: once every orbit is full, every Schreier generator that the
    unbounded check loop would go on to form sifts to the identity and
    adds nothing.

    A kept generator is the first candidate of its value, as a later equal
    one sifts to the identity: ``induce`` maps the kept coset permutations,
    and ``induce.induced_presentation`` the kept boundaries of T0, back to
    their candidates that way."""
    gens = []
    levels = []
    queue = []  # conjugates, read after every candidate: a FIFO queue
    for c in itertools.chain(candidates, queue):
        if order is not None and _chain_order(levels) >= order:
            break
        if not _strip(levels, c).is_identity():
            gens.append(c)
            _extend_chain(levels, degree, [c], order)
            queue.extend(c.conj(g) for g in conjugators)
    return PermGroup._on_chain(degree, gens, levels)


def _sifted_at(G: PermGroup, indices) -> PermGroup:
    """The subgroup of G whose elements are those at the given ascending
    indices of ``G.elements()``, sifted in that order against its order,
    the number of indices (``_sifted``); an element is multiplied out from
    its key (``PermGroup._element``) only when it is sifted, so none after
    the chain reaches that order."""
    keys = G._cayley_walk()[0]
    return _sifted(G.degree, (G._element(keys[i]) for i in indices),
                   order=len(indices))


def normal_closure(G: PermGroup, elements) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements: they
    are sifted in order, then their conjugates breadth first."""
    return _sifted(G.degree, _members(G, elements), G.generators)


def _normality_witness(N: PermGroup, G: PermGroup):
    """First ``(n, g)`` over the generators, N's before G's, with ``n^g``
    outside N, or None; None proves a subgroup N normal in G.

    Each conjugate ``n^g = g^-1 n g`` is formed in one pass over the
    points (``Permutation.conj``) and sifted through N's chain (Seress,
    *Permutation Group Algorithms*; ``PermGroup.contains``).  N is never
    walked here: the check costs ``|gens N|·|gens G|`` conjugates and
    sifts, whatever the order of N.
    """
    pairs = itertools.product(N.generators, G.generators)
    return next(((n, g) for n, g in pairs if n.conj(g) not in N), None)


def _commute(base, a, b) -> bool:
    """Whether ``a b == b a``, for the image tuples of two elements of a
    group with base ``base``: both products lie in the group, so they are
    equal exactly when they agree on the base, where they give ``b(a(x))``
    and ``a(b(x))``."""
    return all(b[a[x - 1] - 1] == a[b[x - 1] - 1] for x in base)


def _noncommuting_pair(G: PermGroup):
    """First pair of generators that do not commute, or None (G abelian)."""
    base = G._base()
    pairs = itertools.combinations(G.generators, 2)
    return next(((a, b) for a, b in pairs
                 if not _commute(base, a.images, b.images)), None)


def right_coset_representatives(G: PermGroup, H: PermGroup) -> list[Permutation]:
    """Lexicographically least element of each right coset Hg, ascending.

    The identity represents H itself and always comes first.
    """
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not a subgroup of G")
    return _right_cosets(G, H)[0]


def _right_cosets(G: PermGroup, H: PermGroup) -> tuple[list, dict]:
    """Least element of each right coset Hg, ascending, and the number of
    the coset of every element of G, keyed by its base images in G
    (``PermGroup._base``).

    The cosets are the classes of the least right congruence that merges
    the identity with each generator of H (``_right_congruence``), and only
    their representatives are multiplied out (``PermGroup._element``).
    Keys are only for elements of G: a caller holding a permutation from
    outside must check membership first.
    """
    keys = G._cayley_walk()[0]
    merges = [(0, G._rank(h)) for h in H.generators]
    reps, label = _right_congruence(G, merges, range(len(G.generators)))
    return [G._element(keys[i]) for i in reps], dict(zip(keys, label))


def _right_congruence(G: PermGroup, merges, columns) -> tuple[list, list]:
    """The least right congruence on G's Cayley walk that holds the pairs
    of element indices ``merges``, for ``columns`` the positions of
    generators of G that generate it: each class's least element,
    ascending, and the number of each element's class, both in
    ``elements()`` order.  No product is formed and no chain is built.

    A union-find over the elements merges each pair, and then closes the
    merges under right multiplication by the columns' generators, so by
    every element of G, which they generate: each pair of classes joined
    is followed along each column in turn.  The identity class K of a
    right congruence is a subgroup (``x ~ 1`` and ``y ~ 1`` give
    ``x·y ~ y ~ 1``, and G is finite), and ``x ~ y`` exactly when
    ``x·y^-1 ~ 1``, so the classes are the right cosets Kx (Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*).  The right
    cosets of any subgroup form a right congruence, so K is the least
    subgroup whose cosets hold the merges:
    - merging the identity with each generator of a subgroup H gives
      ``K = H``: K holds H's generators, and the cosets of H hold the
      merges (``_right_cosets``, ``_quotient_group``);
    - merging ``x·a·b`` with ``x·b·a`` for every element x and every pair
      a, b of a generating set gives ``K = G'``: K holds each conjugate
      ``x·[a^-1, b^-1]·x^-1`` of a commutator, so their normal closure,
      modulo which the generating set, and so G, commutes; and
      ``x·a·b`` and ``x·b·a`` lie in one coset of G' (the fingerprint).

    Of two roots merged the lesser is kept, so every pointer leads to a
    lesser element, and a class's root is its least element."""
    successors = G._cayley_walk()[1]
    parent = list(range(len(successors)))
    joined = []  # pairs of roots merged, each followed along columns in turn

    def union(x, y):
        while parent[x] != x:  # the roots, halving the paths to them
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            if x < y:
                x, y = y, x
            parent[x] = y
            joined.append((x, y))

    for x, y in merges:
        union(x, y)
    for x, y in joined:  # grows while it is read: a FIFO queue
        for t in columns:
            union(successors[x][t], successors[y][t])
    # a pointer leads to an element labelled already: one ascending pass
    reps, label = [], []
    for x, p in enumerate(parent):
        if p == x:
            label.append(len(reps))
            reps.append(x)
        else:
            label.append(label[p])
    return reps, label


def _quotient_group(G: PermGroup, N: PermGroup) -> PermGroup:
    """G/N acting on the right cosets of N, coset ``i`` (point ``i + 1``)
    that of the ``i``-th representative in ``right_coset_representatives``
    order; its generators are the actions of G's, in order, read off G's
    successor columns at the representatives, with no product formed: the
    cosets are the classes of the least right congruence that merges the
    identity with each generator of N (``_right_congruence``).  N must be
    a normal subgroup of G (``NotASubgroup``, ``NonNormal`` with the first
    escaping pair of ``_normality_witness``)."""
    if not N.is_subgroup_of(G):
        raise NotASubgroup("N is not a subgroup of G")
    bad = _normality_witness(N, G)
    if bad is not None:
        raise NonNormal(
            "subgroup is not normal: {} conjugated by {} escapes".format(*bad),
            witness=bad,
        )
    columns = range(len(G.generators))
    merges = [(0, G._rank(n)) for n in N.generators]
    return _coset_action(G, *_right_congruence(G, merges, columns), columns)


def _coset_action(G: PermGroup, reps, label, columns) -> PermGroup:
    """G/N acting on the right cosets of a normal subgroup N, given as
    ``_right_congruence`` gives them: the action of the generator at each
    position in ``columns``, read off its successor column at the
    representatives, with no product formed."""
    successors = G._cayley_walk()[1]
    perms = [Permutation(tuple([label[successors[r][s]] + 1 for r in reps]))
             for s in columns]
    # G/N acts on the cosets of the normal N as on itself: regularly
    return PermGroup._bounded(len(reps), perms, len(reps))


def quotient(G: PermGroup, N: PermGroup) -> tuple[PermGroup, GroupHom]:
    """Quotient G/N via the action on right cosets (``_quotient_group``),
    with the projection, which takes each generator of G to its action.

    The projection composed with the section of coset representatives is
    the identity on representatives.  Callers that need only the group call
    ``_quotient_group``, which builds and proves no homomorphism.
    """
    Q = _quotient_group(G, N)
    return Q, GroupHom(G, Q, Q.generators)


def abelian_invariants(G: PermGroup) -> list[int]:
    """Invariant factors d1 | d2 | ... | dk of a finite abelian group.

    Ascending divisibility: C4 x C2 x C2 x C2 comes back as [2, 2, 2, 4].
    A finite abelian group is fixed by its order histogram
    (``PermGroup._element_orders``), which is read once, with no quotient
    formed.  In ``C_(p^e1) x ... x C_(p^er) x A'``, A' of order prime to p,
    the elements with ``g^(p^k) = 1`` number ``p^(sum_i min(k, e_i))``; so
    the count at k over that at k - 1 is p to the number of the e_i at
    least k, and those numbers give the exponents e_i.  The j-th largest
    invariant factor is the product over the primes p of p to the j-th
    largest exponent.
    """
    bad = _noncommuting_pair(G)
    if bad is not None:
        raise NonAbelian("group is not abelian", witness=bad)
    hist = Counter(G._element_orders())
    descending = []
    p, rest = 2, G.order()
    while rest > 1:
        if rest % p:
            p += 1
            continue
        while rest % p == 0:
            rest //= p
        # at_least[k - 1]: the number of exponents at least k
        at_least = []
        count, q = 1, p
        while True:
            more = sum(c for o, c in hist.items() if q % o == 0)
            if more == count:
                break
            r, ratio = 0, more // count
            while ratio > 1:
                ratio //= p
                r += 1
            at_least.append(r)
            count, q = more, q * p
        for j in range(at_least[0]):
            if j == len(descending):
                descending.append(1)
            descending[j] *= p ** sum(1 for r in at_least if r > j)
    return descending[::-1]


def _central(G: PermGroup) -> list[int]:
    """The indices in ``G.elements()`` of the elements of G's centre,
    ascending, read off G's Cayley walk with no product formed.

    z is central when ``z·s = s·z`` for each generator s.  ``z·s`` is the
    successor column of s at z.  ``s·z`` is read off a left-multiplication
    table filled along the spanning tree: ``s·1 = s`` is the successor of
    the identity, and along the tree edge ``x -> x·t``,
    ``s·(x·t) = (s·x)·t`` is the successor of ``s·x`` in column t.
    """
    successors = G._cayley_walk()[1]
    central = range(len(successors))
    for s in range(len(G.generators)):
        left = _tree_values(G, successors[0][s], range(len(G.generators)),
                            lambda x, t: successors[x][t])
        central = [z for z in central if left[z] == successors[z][s]]
    return list(central)


def center(G: PermGroup) -> PermGroup:
    """The centre: the central elements (``_central``) sifted in ascending
    order (``_sifted_at``) against their number, the centre's order."""
    return _sifted_at(G, _central(G))


def derived_subgroup(G: PermGroup) -> PermGroup:
    """G', the normal closure of the commutators of G's generators (modulo
    it those generators commute)."""
    return _sifted(
        G.degree,
        [a.commutator(b) for a, b in itertools.combinations(G.generators, 2)],
        G.generators,
    )


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants; equal fingerprints do not prove
    isomorphism, unequal ones refute it."""

    order: int
    abelianization: tuple[int, ...]
    center_order: int
    derived_order: int
    order_histogram: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "abelianization": list(self.abelianization),
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "order_histogram": [list(pair) for pair in self.order_histogram],
        }


def fingerprint(G: PermGroup) -> Fingerprint:
    """Invariants of G, computed once per group and kept on it.

    None of them multiplies out an element of G or builds a chain on its
    degree: the order histogram is read off the chain
    (``PermGroup._element_orders``); ``|G'|`` and G/G' off the cosets of
    G', the classes of the least right congruence that merges ``x·a·b``
    with ``x·b·a`` for each element x and each pair from a generating
    subset of G's generators (``_generating_subset``,
    ``_right_congruence``), ``|G'|`` as |G| over their number and G/G' as
    G's regular action on them (``_coset_action``), whose histogram gives
    the abelianization.  When the classes are the elements, G' = 1: G is
    abelian and its own G/G', its invariants read off the histogram read
    already, and its centre is G; otherwise the centre's order is the
    count of the central elements (``_central``).
    """
    if G._fingerprint is None:
        G._fingerprint = _compute_fingerprint(G)
    return G._fingerprint


def _compute_fingerprint(G: PermGroup) -> Fingerprint:
    # the histogram walks G first, so a G too large to enumerate is refused
    # with its own order
    hist = Counter(G._element_orders())
    T = _generating_subset(G)
    successors = G._cayley_walk()[1]
    pairs = list(itertools.combinations(T, 2))
    reps, label = _right_congruence(
        G, ((successors[row[a]][b], successors[row[b]][a])
            for row in successors for a, b in pairs), T)
    # G' = 1 exactly when G is abelian, and then G is its own G/G'
    abelian = len(reps) == G.order()
    return Fingerprint(
        order=G.order(),
        abelianization=tuple(abelian_invariants(
            G if abelian else _coset_action(G, reps, label, T))),
        center_order=G.order() if abelian else len(_central(G)),
        derived_order=G.order() // len(reps),
        order_histogram=tuple(sorted(hist.items())),
    )


def _generating_subset(G: PermGroup) -> list[int]:
    """The positions of an irredundant generating subset T of G's
    generators, chosen greedily on the walk: a generator is kept when its
    element lies outside the subgroup the kept ones generate, and the
    choice stops once that subgroup is G.

    The subgroup is closed up on the successor columns of the kept
    generators from the identity; as G is finite, the elements reached
    from the identity by right multiplication by some elements are the
    subgroup they generate.  So every generator left out lies in the
    subgroup of T, and T generates G."""
    successors = G._cayley_walk()[1]
    kept = []
    closed = [0]
    seen = [False] * len(successors)
    seen[0] = True
    for s, y in enumerate(successors[0]):
        if len(closed) == len(successors):
            break
        if seen[y]:
            continue
        kept.append(s)
        for x in closed:  # grows while it is read: a FIFO queue
            for t in kept:
                z = successors[x][t]
                if not seen[z]:
                    seen[z] = True
                    closed.append(z)
    return kept


# ---------------------------------------------------------------------------
# isomorphism search


def _product_rule(G: PermGroup):
    """``mul(i, j)``, the index in ``G.elements()`` of ``a * b`` for the
    elements a and b at indices i and j; built once and kept on G, so the
    isomorphism search and the square calculus (``squares._Kernel``) share
    it.

    The base images of ``a * b`` are b's images at the base images of a
    (``PermGroup._base``), so a product costs ``|base|`` lookups and no
    permutation is formed.  The reads are kept per element, ``O(|G|·|base|)``
    memory, not a ``|G|²`` table; the identity's read is the base itself.
    The search reads one product per Cayley edge it steps along.
    """
    if G._mul is not None:
        return G._mul
    if G.order() == 1:
        G._mul = lambda i, j: 0
        return G._mul
    images = [p.images for p in G.elements()]
    reads = [itemgetter(*[k - 1 for k in key]) for key in G._key_index()]
    by_read = {reads[0](x): i for i, x in enumerate(images)}

    def mul(i, j):
        return by_read[reads[i](images[j])]

    G._mul = mul
    return mul


def _closure(G: PermGroup, seeds, act_arrays=()) -> set[int]:
    """Subgroup of G (as an index set) generated by the seed indices and,
    given ``act_arrays`` (index arrays of automorphisms), invariant under
    them.

    The search steps along the Cayley edges ``x -> x·s`` of the seeds and
    along each automorphism.  The set it reaches is closed under each
    automorphism a and, as automorphisms of a finite group have finite
    order, under ``a^-1``; so it holds ``x · a(s) = a(a^-1(x) · s)`` for
    each x in it, and is the smallest invariant subgroup holding the seeds.
    """
    mul = _product_rule(G)
    closed = {0}
    frontier = [0]
    seeds = list(seeds)
    while frontier:
        nxt = []
        for i in frontier:
            for j in [mul(i, s) for s in seeds] + [a[i] for a in act_arrays]:
                if j not in closed:
                    closed.add(j)
                    nxt.append(j)
        frontier = nxt
    return closed


def _generating_sequence(G: PermGroup, act_arrays=()) -> list[int]:
    """Greedy generating sequence, preferring high element orders; with
    ``act_arrays`` it generates the group under those automorphisms too."""
    n, orders = G.order(), G._element_orders()
    ranked = sorted(range(n), key=lambda i: (-orders[i], i))
    seq = []
    closed = {0}
    for i in ranked:
        if i not in closed:
            seq.append(i)
            closed = _closure(G, seq, act_arrays)
            if len(closed) == n:
                break
    return seq


def _propagate(G, H, map12, map21, seeds, pairs, pair_check, action_edges):
    """Grow a partial isomorphism G -> H along Cayley edges (and optional
    action edges); returns False on the first conflict.

    ``map12``/``map21`` are index arrays with -1 for unassigned, and
    ``seeds`` lists the assigned seed pairs ``(s, f(s))``.  Each pair
    ``(x, f(x))`` assigned pushes the pairs ``(x·s, f(x)·f(s))`` for every
    seed s and ``(a1(x), a2(f(x)))`` for every action edge ``(a1, a2)``.  A
    pair is refused when it reassigns x, reuses ``f(x)``, changes the
    element order or fails ``pair_check``.
    """
    mul1, mul2 = _product_rule(G), _product_rule(H)
    orders1, orders2 = G._element_orders(), H._element_orders()
    stack = list(pairs)
    while stack:
        i, j = stack.pop()
        cur = map12[i]
        if cur == j:
            continue
        if cur != -1 or map21[j] != -1:
            return False
        if orders1[i] != orders2[j]:
            return False
        if pair_check is not None and not pair_check(i, j):
            return False
        map12[i] = j
        map21[j] = i
        for s, t in seeds:
            stack.append((mul1(i, s), mul2(j, t)))
        for act1, act2 in action_edges:
            stack.append((act1[i], act2[j]))
    return True


def _extensions(G, H, seq, candidates, pair_check=None, action_edges=()):
    """Yield every bijection ``map12`` of G onto H that ``_propagate`` grows
    from the identity pair by assigning each index of ``seq`` in turn.

    A new seed pair ``(i, j)`` pushes only itself; every pair assigned
    pushes its edge along each seed assigned so far and along each action
    edge, ``f(a(x)) = a2(f(x))``.  A leaf is yielded only when every element
    is assigned, and its map f is then a homomorphism: by induction over
    the seeds, f respects right products by each seed i, with ``f(i) = j``.

    - Let S be the subgroup the earlier seeds generate, invariant under the
      action; it holds every element assigned before i was pushed.  f
      respects right products by each earlier seed, and if by y then by
      ``a(y)``, as ``f(x·a(y)) = f(a(a^-1(x)·y)) = a2(f(a^-1(x))·f(y)) =
      f(x)·f(a(y))``; so by every element of S.
    - An element outside S was assigned after i was pushed, so its i-edge
      was checked.  For a in S, let r be the least exponent with ``i^r``
      in S.  The elements ``a·i^k`` with ``0 < k < r`` lie outside S, so
      their i-edges give ``f(a·i^r) = f(a·i)·j^(r-1)``, and with a = 1,
      ``f(i^r) = j^r``.
    - With ``f(a·i^r) = f(a)·f(i^r)`` this gives ``f(a·i) = f(a)·j``.

    So every Cayley edge holds, and the walk rule makes f a homomorphism.
    Conversely, when the seeds' assignment extends to an injective
    homomorphism that passes ``pair_check`` and commutes with the action,
    every pair pushed is one of its own, so it is never refused; that the
    propagation then assigns every element the seeds generate is checked
    against ``support.table_extensions``, which closes each pair under its
    product with every assigned element, and on every short generating
    sequence of seven small groups.

    ``candidates(i, map21)`` lists the targets to try for ``i``; the search
    is depth-first, so their order fixes the order of the results.
    """
    def backtrack(k, map12, map21, seeds):
        if k == len(seq):
            if -1 not in map12:
                yield map12
            return
        i = seq[k]
        for j in candidates(i, map21):
            m12, m21 = list(map12), list(map21)
            grown = seeds + [(i, j)]
            if _propagate(G, H, m12, m21, grown, [(i, j)], pair_check,
                          action_edges):
                yield from backtrack(k + 1, m12, m21, grown)

    n = G.order()
    map12, map21 = [-1] * n, [-1] * n
    if _propagate(G, H, map12, map21, [], [(0, 0)], pair_check,
                  action_edges):
        yield from backtrack(0, map12, map21, [])


def _iter_isomorphisms(G: PermGroup, H: PermGroup):
    """Yield every isomorphism G -> H as a verified GroupHom.

    Candidates are the unused elements of the right order; those equal to
    the source element itself are tried first, so that identity-like maps
    surface early when source and target share a degree.  Callers check
    the search bound.
    """
    if G.order() != H.order():
        return
    elements1, elements2 = G.elements(), H.elements()
    orders1 = G._element_orders()
    by_order = {}
    for j, o in enumerate(H._element_orders()):
        by_order.setdefault(o, []).append(j)
    same_degree = G.degree == H.degree

    def candidates(i, map21):
        cands = [j for j in by_order.get(orders1[i], []) if map21[j] == -1]
        if same_degree:
            cands.sort(key=lambda j: (elements2[j] != elements1[i], j))
        return cands

    index1 = G.element_index()
    for map12 in _extensions(G, H, _generating_sequence(G), candidates):
        yield GroupHom(G, H, [elements2[map12[index1[g]]]
                              for g in G.generators])


def isomorphic(G: PermGroup, H: PermGroup):
    """First isomorphism G -> H found, or None after an exhausted search.

    The search is complete, so None is a definitive negative for groups
    within ``ISO_SEARCH_BOUND``; larger groups raise ``SearchBoundExceeded``.
    """
    if G.order() > ISO_SEARCH_BOUND or H.order() > ISO_SEARCH_BOUND:
        raise SearchBoundExceeded(
            f"orders {G.order()}, {H.order()} exceed search bound "
            f"{ISO_SEARCH_BOUND}",
            limit=ISO_SEARCH_BOUND,
        )
    if G.order() != H.order():
        return None
    if fingerprint(G) != fingerprint(H):
        return None
    for iso in _iter_isomorphisms(G, H):
        return iso
    return None


# ---------------------------------------------------------------------------
# named groups


def cyclic(n: int) -> PermGroup:
    """Cyclic group of order n on n points (trivial group for n = 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return PermGroup(1, [])
    shift = Permutation(tuple(list(range(2, n + 1)) + [1]))
    return PermGroup(n, [shift])


def symmetric(n: int) -> PermGroup:
    """Symmetric group on n points."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return PermGroup(1, [])
    if n == 2:
        return PermGroup(2, [Permutation((2, 1))])
    swap = parse_permutation("(1,2)", n)
    cyc = Permutation(tuple(list(range(2, n + 1)) + [1]))
    return PermGroup(n, [swap, cyc])


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given (even) order.

    For order 2n with n >= 3 this is the n-gon symmetry group on n points;
    order 4 is realized on 4 points and order 2 as a single swap.
    """
    if order < 2 or order % 2:
        raise ValueError("order must be even and at least 2")
    n = order // 2
    if n == 1:
        return cyclic(2)
    if n == 2:
        return PermGroup(4, [parse_permutation("(1,2)", 4),
                             parse_permutation("(3,4)", 4)])
    rot = Permutation(tuple(list(range(2, n + 1)) + [1]))
    refl = Permutation(tuple([1] + list(range(n, 1, -1))))
    return PermGroup(n, [rot, refl])


_F3_POINTS = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
_F3_INDEX = {v: i + 1 for i, v in enumerate(_F3_POINTS)}


def _matrix_perm(m) -> Permutation:
    """Permutation of the 8 nonzero vectors of F3^2 by right multiplication."""
    images = []
    for a, b in _F3_POINTS:
        va = (a * m[0][0] + b * m[1][0]) % 3
        vb = (a * m[0][1] + b * m[1][1]) % 3
        images.append(_F3_INDEX[(va, vb)])
    return Permutation(tuple(images))


def gl23() -> PermGroup:
    """GL(2,3) acting on the 8 nonzero vectors of F3^2; order 48."""
    t = _matrix_perm([[1, 1], [0, 1]])
    s = _matrix_perm([[0, 2], [1, 0]])
    d = _matrix_perm([[2, 0], [0, 1]])
    return PermGroup(8, [t, s, d])


def sl23() -> PermGroup:
    """SL(2,3) as the determinant-one kernel inside gl23(); order 24."""
    G = gl23()
    c2 = cyclic(2)
    # generator determinants are 1, 1, 2
    det = GroupHom(G, c2, [c2.identity, c2.identity, c2.generators[0]])
    return kernel(det)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    dg, dh = G.degree, H.degree
    gens = []
    for g in G.generators:
        gens.append(Permutation(tuple(list(g.images) + list(range(dg + 1, dg + dh + 1)))))
    for h in H.generators:
        gens.append(Permutation(tuple(list(range(1, dg + 1)) + [x + dg for x in h.images])))
    return PermGroup(dg + dh, gens)
