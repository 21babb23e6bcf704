"""Finite permutation groups with exact membership, quotients and isomorphism search.

Points are 1-based.  Products compose left to right: ``(p * q).apply(x) ==
q.apply(p.apply(x))``, so conjugation ``p.conj(q) == q^-1 p q`` and all group
actions in the package are right actions.

Every group builds a stabilizer chain on construction, so order and membership
are exact from the start.  A group walks its Cayley graph once, on first
need, and keeps the walk and its spanning tree, the edges that first reach
each element; ``elements()`` sorts it.  The walk is the one place that
refuses enumeration: a group of order above ``ENUMERATION_BOUND`` raises
``EnumerationBoundExceeded``, naming its order and the bound, wherever its
elements are first needed (homomorphisms, actions, fingerprints,
quotients), instead of sampling.

One routine, ``_tree_values``, fills in the values of a map given on G's
generators, one step per tree edge: the walk's own elements, a
homomorphism's keys and values (``GroupHom``) and the action arrays of a
crossed module (``xmod.CrossedModule``).  The walk has ``|G|·k`` edges for
k generators and the tree ``|G| - 1`` of them; the other
``|G|·(k-1) + 1`` are the Schreier edges (``_off_tree_edges``), whose
relators present G on its generators (Schreier's lemma), and
``induce._schreier_relators`` spells them.  So a map filled along the tree
is a homomorphism exactly when each Schreier edge leads from its tail's
value to its endpoint's (von Dyck's theorem), and that is all the walk
rule, ``_replay_walk``, checks.  It proves every map out of every group,
so its cost grows with the number of generators: the groups the package
builds from many candidates (the induced M, kernels, closures) keep only
the ones that enlarge the group (``_sifted``).

The chain is complete, so an element of the group is fixed by where it sends
the base points (Seress, *Permutation Group Algorithms*): two elements with the
same base images differ by an element fixing every base point, and the last
stabilizer of a complete chain is trivial.  The walk, homomorphisms and
the products of the isomorphism search (``_product_rule``) look elements up
and compare them by their base images, ``|base|`` lookups where a product
costs ``degree``; the regular representation of a group has a base of one
point.  Those ``degree`` lookups are gathered in C (``_gather``, one
``operator.itemgetter`` per product), as are the compositions of a crossed
module's action arrays and the renumbering of a coset table.  The walk
discovers elements by their base images alone, then multiplies each out
once, along its tree edge.  Base images also decide commutation
(``_commute``), coset membership (``_right_cosets``, ``quotient``) and
element order, which is the lcm of the lengths of the cycles through the
base points (``PermGroup._element_orders``).

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
coset permutations that way (``induce``).  Generators passed to
``PermGroup`` are kept as given.  Normality is decided by sifting: each
generator of N conjugated by each generator of G is sifted through N's
chain (``_normality_witness``), so N is never walked for it.  ``quotient``
returns G/N with its projection; the callers that read only the group
(``abelian_invariants``, fingerprints, ``xmod.pi1``) build it with
``_quotient_group`` and prove no homomorphism.

Isomorphisms are found by one backtrack, ``_extensions``, over a greedy
generating sequence; ``isomorphic`` and ``xmod.xmod_isomorphic`` differ
only in the candidates they offer and the checks they add.  It proves its
maps by the walk rule too: a partial map is grown along the Cayley edges
``x -> x·s`` of the seeds assigned so far, one product each, and a map
that agrees on every such edge is a homomorphism.  No multiplication table
is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod
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
    permutation products, the action arrays of a crossed module and a
    coset table's renumbering."""
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
    is built eagerly, so ``order`` and ``contains`` never guess.
    ``contains`` sifts through the chain until the group's Cayley walk
    exists; from then on it looks the permutation up in
    ``element_index()``, which holds every element, so the answer is the
    same.
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
        # set by ``_sifted``: no generator lies in the group of those before
        self._irredundant = False
        self._walk = None
        self._tree = None
        self._elements = None
        self._ranks = None
        self._index = None
        self._by_key = None
        self._ctx = None
        self._fingerprint = None

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def order(self) -> int:
        return self._order

    def is_trivial(self) -> bool:
        return self._order == 1

    def contains(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        if self._walk is not None:
            return p in self.element_index()
        return _strip(self._levels, p).is_identity()

    __contains__ = contains

    def subgroup(self, generators) -> "PermGroup":
        return PermGroup(self.degree, _members(self, generators))

    def _base(self) -> tuple:
        """The chain's base points, level by level; ``()`` when trivial.

        The chain is complete, so an element of the group is fixed by its
        base images ``tuple(p.images[b - 1] for b in base)``: two elements
        with the same base images differ by one fixing every base point,
        which is the identity.  Only for elements of the group: a
        permutation outside it may share the base images of one inside.
        """
        return tuple(level["point"] for level in self._levels)

    def _element_orders(self) -> list[int]:
        """The order of each element, in ``elements()`` order.

        ``p^k`` is the identity exactly when it fixes every base point, that
        is when k is a multiple of the length of the cycle of p through each
        base point; so the order of p is the lcm of those lengths, and
        cycles missing the base are never followed.
        """
        base = self._base()
        orders = []
        for p in self.elements():
            images = p.images
            order = 1
            for b in base:
                length = 1
                x = images[b - 1]
                while x != b:
                    x = images[x - 1]
                    length += 1
                order = lcm(order, length)
            orders.append(order)
        return orders

    def _cayley_walk(self) -> tuple[tuple, tuple]:
        """Breadth-first walk of the Cayley graph from the identity.

        Returns the elements in discovery order and, for each of them, the
        discovery indices of its products with the generators in list order.
        Elements are discovered by their base images (``_base``) alone: an
        edge ``x -> x*g`` is looked up by the images of ``x``'s base images
        under ``g``, and no product is formed while the walk runs.  Once it
        is complete, each element is multiplied out once along the edge
        that first reached it (``_spanning_tree``, ``_tree_values``).
        Walked once per group and kept; a group of order above
        ``ENUMERATION_BOUND`` raises ``EnumerationBoundExceeded`` here.
        """
        if self._walk is None:
            if self._order > ENUMERATION_BOUND:
                raise EnumerationBoundExceeded(
                    f"order {self._order} exceeds {ENUMERATION_BOUND}",
                    limit=ENUMERATION_BOUND,
                )
            base = self._base()
            keys = [base]
            index = {base: 0}
            successors = []
            tree = []
            # grows while it is read: a FIFO queue
            for i, key in enumerate(keys):
                row = []
                for s, g in enumerate(self.generators):
                    gi = g.images
                    y = tuple([gi[k - 1] for k in key])
                    j = index.get(y)
                    if j is None:
                        j = index[y] = len(keys)
                        keys.append(y)
                        tree.append((i, s))
                    row.append(j)
                successors.append(tuple(row))
            self._tree = tuple(tree)
            found = _tree_values(self, self.identity, self.generators,
                                 Permutation.__mul__)
            self._walk = (tuple(found), tuple(successors))
        return self._walk

    def _spanning_tree(self) -> tuple:
        """For each element after the identity, in discovery order, the
        edge of the Cayley walk that first reaches it: the discovery index
        of its tail, always smaller, and the position of its generator."""
        if self._tree is None:
            self._cayley_walk()
        return self._tree

    def elements(self) -> tuple:
        """All elements, sorted by image tuple (identity first)."""
        if self._elements is None:
            found = self._cayley_walk()[0]
            order = sorted(range(len(found)), key=lambda i: found[i].images)
            self._elements = tuple([found[i] for i in order])
            self._ranks = [0] * len(order)
            for r, i in enumerate(order):
                self._ranks[i] = r
        return self._elements

    def _walk_ranks(self) -> list[int]:
        """For each element in discovery order, its index in
        ``elements()``."""
        self.elements()
        return self._ranks

    def element_index(self) -> dict:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.elements())}
        return self._index

    def _key_index(self) -> dict:
        """The index in ``elements()`` of each element, keyed by its base
        images (``_base``), in ``elements()`` order; built once."""
        if self._by_key is None:
            base = self._base()
            self._by_key = {tuple([p.images[b - 1] for b in base]): i
                            for i, p in enumerate(self.elements())}
        return self._by_key

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


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom:
    """Homomorphism given by images of the source generators.

    A homomorphism keeps, for each element of the source in walk order,
    the target's base images (``PermGroup._base``) of its value, its key.
    Every value lies in the target, whose chain is complete, so a key fixes
    its value; ``is_injective``, ``is_surjective``, ``kernel`` and
    ``_index_array`` read the keys.  Construction fills the keys once,
    along the source's spanning tree (``_tree_values``), and proves them
    with ``_replay_walk``, which checks the Schreier edges of the source's
    Cayley walk (walked once per group, not once per homomorphism) and
    raises ``RelationViolated`` at the first one, in walk order, that does
    not lead to its endpoint's key, with that endpoint as the witness.

    The values themselves are multiplied out only when ``element_map`` is
    first read, by the same fill with products in place of keys.  The
    source is walked, so sources above ``ENUMERATION_BOUND`` raise
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
        self._keys = _tree_values(source, target._base(), images, _image_key)
        _replay_walk(
            source, self._keys, images, _image_key,
            "generator images do not respect the relations of the source",
        )

    @cached_property
    def element_map(self) -> dict:
        """Each source element's value, multiplied out on first read."""
        values = _tree_values(self.source, self.target.identity, self.images,
                              Permutation.__mul__)
        return dict(zip(self.source._cayley_walk()[0], values))

    def _index_array(self) -> tuple[int, ...]:
        """For each element of ``source.elements()``, the index of its
        image in ``target.elements()``, read off the keys."""
        by_key = self.target._key_index()
        arr = [0] * len(self._keys)
        for r, key in zip(self.source._walk_ranks(), self._keys):
            arr[r] = by_key[key]
        return tuple(arr)

    def apply(self, p: Permutation) -> Permutation:
        try:
            return self.element_map[p]
        except KeyError:
            raise NotInGroup(f"{p} is not in the source group") from None

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


def _image_key(key: tuple, im: Permutation) -> tuple:
    """The base images of ``v * im``, from ``key``, those of v."""
    return tuple([im.images[b - 1] for b in key])


def _off_tree_edges(G: PermGroup) -> list:
    """The Schreier edges of G's Cayley walk, in walk order (elements in
    discovery order, generators in list order): each ``(a, s, c)``, the
    discovery indices of tail and endpoint and the generator's position,
    that is not the edge first reaching c (``PermGroup._spanning_tree``).
    An edge into the identity is never a tree edge.  There are
    ``|G|·(k-1) + 1`` of them for k generators."""
    tree = G._spanning_tree()
    return [(a, s, c) for a, row in enumerate(G._cayley_walk()[1])
            for s, c in enumerate(row) if c == 0 or tree[c - 1] != (a, s)]


def _replay_walk(G: PermGroup, values, images, step, violation: str) -> None:
    """Prove that ``values``, filled along G's spanning tree from a map
    given on G's generators (``_tree_values``), are those of a
    homomorphism, or raise ``RelationViolated``.

    The map is one exactly when each Schreier relator ``w_a s w_c^-1`` dies
    (von Dyck's theorem), that is when each Schreier edge ``(a, s, c)``
    (``_off_tree_edges``) derives ``step(values[a], images[s])`` equal to
    ``values[c]``; the tree edges hold by construction and are not read.
    The edges are checked in walk order, and the first that disagrees
    raises, naming its endpoint.
    """
    found = G._cayley_walk()[0]
    for a, s, c in _off_tree_edges(G):
        if step(values[a], images[s]) != values[c]:
            raise RelationViolated(
                f"{violation} (conflict at {found[c]})", witness=found[c]
            )


def _tree_values(G: PermGroup, start, images, step) -> list:
    """Values of a map given on G's generators, in discovery order, along
    the spanning tree of G's Cayley walk (``PermGroup._spanning_tree``):
    ``start`` at the identity, and ``step(value(x), image(g))`` at the end
    of the tree edge ``x -> x*g``.  The one routine that fills values along
    a tree; relations are not checked (``_replay_walk``)."""
    values = [start]
    for i, s in G._spanning_tree():
        values.append(step(values[i], images[s]))
    return values


def hom(source: PermGroup, target: PermGroup, images) -> GroupHom:
    """Verified homomorphism mapping source generators to ``images``."""
    return GroupHom(source, target, images)


def identity_hom(G: PermGroup) -> GroupHom:
    return GroupHom(G, G, G.generators)


def kernel(h: GroupHom) -> PermGroup:
    """Kernel in the source, its members (the elements whose key is the
    target's base) sifted in ascending order."""
    one = h.target._base()
    found = h.source._cayley_walk()[0]
    members = sorted(p for p, key in zip(found, h._keys) if key == one)
    return _sifted(h.source.degree, members)


def image(h: GroupHom) -> PermGroup:
    return _sifted(h.target.degree, h.images)


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
    which all lie in the group, are not sifted: the kept generators are the
    same.  A chain never has a larger product of transversal lengths than
    the order of its group, so reaching the bound proves the chain complete;
    a group that falls short of it gets its full check loop at every kept
    generator.  Either way the chain is complete."""
    gens = []
    levels = []
    queue = list(candidates)
    for c in queue:  # grows while it is read: a FIFO queue
        if order is not None and _chain_order(levels) >= order:
            break
        if not _strip(levels, c).is_identity():
            gens.append(c)
            _extend_chain(levels, degree, [c], order)
            queue.extend(c.conj(g) for g in conjugators)
    group = PermGroup._on_chain(degree, gens, levels)
    group._irredundant = True
    return group


def normal_closure(G: PermGroup, elements) -> PermGroup:
    """Smallest normal subgroup of G containing the given elements: they
    are sifted in order, then their conjugates breadth first."""
    return _sifted(G.degree, _members(G, elements), G.generators)


def _normality_witness(N: PermGroup, G: PermGroup):
    """First ``(n, g)`` over the generators, N's before G's, with ``n^g``
    outside N, or None; None proves a subgroup N normal in G.

    Each conjugate ``n^g = g^-1 n g`` is formed in one pass over the
    points (``Permutation.conj``) and sifted through N's chain (Seress,
    *Permutation Group Algorithms*), or looked up in N's element index
    once N has been walked (``PermGroup.contains``).  N is never walked
    here: the check costs ``|gens N|·|gens G|`` conjugates and sifts,
    whatever the order of N.
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

    The base images of ``h * e`` are those of h mapped by e, so no product
    is formed.  Keys are only for elements of G: a caller holding a
    permutation from outside must check membership first.
    """
    base = G._base()
    hkeys = [tuple([h.images[b - 1] for b in base]) for h in H.elements()]
    reps = []
    coset_of = {}
    for e in G.elements():
        ei = e.images
        if tuple([ei[b - 1] for b in base]) in coset_of:
            continue
        for key in hkeys:
            coset_of[tuple([ei[k - 1] for k in key])] = len(reps)
        reps.append(e)
    return reps, coset_of


def _quotient_group(G: PermGroup, N: PermGroup) -> PermGroup:
    """G/N acting on the right cosets of N, coset ``i`` (point ``i + 1``)
    that of the ``i``-th representative in ``right_coset_representatives``
    order; its generators are the actions of G's, in order.  N must be a
    normal subgroup of G (``NotASubgroup``, ``NonNormal`` with the first
    escaping pair of ``_normality_witness``)."""
    if not N.is_subgroup_of(G):
        raise NotASubgroup("N is not a subgroup of G")
    bad = _normality_witness(N, G)
    if bad is not None:
        raise NonNormal(
            "subgroup is not normal: {} conjugated by {} escapes".format(*bad),
            witness=bad,
        )
    reps, coset_of = _right_cosets(G, N)
    base = G._base()
    rkeys = [tuple([r.images[b - 1] for b in base]) for r in reps]
    perms = []
    for g in G.generators:
        # the coset of r * g, by r's base images mapped by g
        gi = g.images
        perms.append(Permutation(tuple(
            coset_of[tuple([gi[k - 1] for k in key])] + 1 for key in rkeys
        )))
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
    """
    bad = _noncommuting_pair(G)
    if bad is not None:
        raise NonAbelian("group is not abelian", witness=bad)
    invariants = []
    H = G
    while H.order() > 1:
        orders = H._element_orders()
        exponent = max(orders)
        g = H.elements()[orders.index(exponent)]
        invariants.append(exponent)
        H = _quotient_group(H, H.subgroup([g]))
    invariants.reverse()
    return invariants


def center(G: PermGroup) -> PermGroup:
    """Elements commuting with every generator (``_commute``, on base
    images), sifted in ascending order."""
    base = G._base()
    gens = [g.images for g in G.generators]
    return _sifted(G.degree, [
        z for z in G.elements()
        if all(_commute(base, z.images, gi) for gi in gens)
    ])


def derived_subgroup(G: PermGroup) -> PermGroup:
    """G', the normal closure of the commutators of any generating set of G
    (modulo it those generators commute); the set used is G's generators
    sifted, so that redundant generators do not square the commutators.

    A group built by ``_sifted`` is used as it is: each of its generators
    lies outside the group of those before it, so sifting them again would
    keep the same list in the same order, on a second chain.  Any other
    group's generators are sifted, stopping at ``G.order()``, as they
    generate G."""
    gens = G.generators
    if not G._irredundant:
        gens = _sifted(G.degree, gens, order=G.order()).generators
    return _sifted(
        G.degree,
        [a.commutator(b) for a, b in itertools.combinations(gens, 2)],
        gens,
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
    """Invariants of G, computed once per group and kept on it."""
    if G._fingerprint is None:
        G._fingerprint = _compute_fingerprint(G)
    return G._fingerprint


def _compute_fingerprint(G: PermGroup) -> Fingerprint:
    # the histogram walks G first, so a G too large to enumerate is refused
    # with its own order, not with that of a subgroup walked on the way
    hist = Counter(G._element_orders())
    derived = derived_subgroup(G)
    ab = _quotient_group(G, derived)
    return Fingerprint(
        order=G.order(),
        abelianization=tuple(abelian_invariants(ab)),
        center_order=center(G).order(),
        derived_order=derived.order(),
        order_histogram=tuple(sorted(hist.items())),
    )


# ---------------------------------------------------------------------------
# isomorphism search


class _GroupContext:
    """Indexed view of a small group for the isomorphism search: elements,
    element orders and the product ``mul(i, j)``, all over element indices.

    ``mul`` is ``_product_rule``, which reads a product off base images
    with ``O(|G|·|base|)`` memory; the search reads one product per Cayley
    edge it steps along, so no multiplication table is built.
    """

    def __init__(self, G: PermGroup):
        self.elements = G.elements()
        self.index = G.element_index()
        self.orders = G._element_orders()
        self.mul = _product_rule(G)
        self.by_order = {}
        for i, o in enumerate(self.orders):
            self.by_order.setdefault(o, []).append(i)


def _product_rule(G: PermGroup):
    """``mul(i, j)``, the index in ``G.elements()`` of ``a * b`` for the
    elements a and b at indices i and j.

    The base images of ``a * b`` are b's images at the base images of a
    (``PermGroup._base``), so a product costs ``|base|`` lookups and no
    permutation is formed.  The reads are kept per element, ``O(|G|·|base|)``
    memory, not a ``|G|²`` table; the identity's read is the base itself.
    """
    if G.order() == 1:
        return lambda i, j: 0
    images = [p.images for p in G.elements()]
    reads = [itemgetter(*[k - 1 for k in key]) for key in G._key_index()]
    by_read = {reads[0](x): i for i, x in enumerate(images)}

    def mul(i, j):
        return by_read[reads[i](images[j])]

    return mul


def _context(G: PermGroup) -> _GroupContext:
    """The group's indexed view, built once with no product formed;
    callers check the search bound."""
    if G._ctx is None:
        G._ctx = _GroupContext(G)
    return G._ctx


def _closure(ctx: _GroupContext, seeds, act_arrays=()) -> set[int]:
    """Subgroup (as an index set) generated by the seed indices and, given
    ``act_arrays`` (index arrays of automorphisms), invariant under them.

    The search steps along the Cayley edges ``x -> x·s`` of the seeds and
    along each automorphism.  The set it reaches is closed under each
    automorphism a and, as automorphisms of a finite group have finite
    order, under ``a^-1``; so it holds ``x · a(s) = a(a^-1(x) · s)`` for
    each x in it, and is the smallest invariant subgroup holding the seeds.
    """
    mul = ctx.mul
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


def _generating_sequence(ctx: _GroupContext, act_arrays=()) -> list[int]:
    """Greedy generating sequence, preferring high element orders; with
    ``act_arrays`` it generates the group under those automorphisms too."""
    n = len(ctx.elements)
    ranked = sorted(range(n), key=lambda i: (-ctx.orders[i], i))
    seq = []
    closed = {0}
    for i in ranked:
        if i not in closed:
            seq.append(i)
            closed = _closure(ctx, seq, act_arrays)
            if len(closed) == n:
                break
    return seq


def _propagate(ctx1, ctx2, map12, map21, domain, seeds, pairs, pair_check,
               action_edges):
    """Grow a partial isomorphism along Cayley edges (and optional action
    edges); returns False on the first conflict.

    ``map12``/``map21`` are index arrays with -1 for unassigned; ``domain``
    lists the assigned source indices and ``seeds`` the assigned seed pairs
    ``(s, f(s))``.  Each pair ``(x, f(x))`` assigned pushes the pairs
    ``(x·s, f(x)·f(s))`` for every seed s and ``(a1(x), a2(f(x)))`` for
    every action edge ``(a1, a2)``.  A pair is refused when it reassigns x,
    reuses ``f(x)``, changes the element order or fails ``pair_check``.
    """
    mul1, mul2 = ctx1.mul, ctx2.mul
    stack = list(pairs)
    while stack:
        i, j = stack.pop()
        cur = map12[i]
        if cur == j:
            continue
        if cur != -1 or map21[j] != -1:
            return False
        if ctx1.orders[i] != ctx2.orders[j]:
            return False
        if pair_check is not None and not pair_check(i, j):
            return False
        map12[i] = j
        map21[j] = i
        for s, t in seeds:
            stack.append((mul1(i, s), mul2(j, t)))
        for act1, act2 in action_edges:
            stack.append((act1[i], act2[j]))
        domain.append(i)
    return True


def _extensions(ctx1, ctx2, seq, candidates, pair_check=None,
                action_edges=()):
    """Yield every bijection ``map12`` that ``_propagate`` grows from the
    identity pair by assigning each index of ``seq`` in turn.

    A new seed pair ``(i, j)`` pushes ``(a·i, f(a)·j)`` for every a already
    in the domain, and every later pair pushes its edge along each seed, so
    a propagation that ends without conflict has checked every Cayley edge
    ``(x, s)`` of its domain, ``f(x·s) = f(x)·f(s)``, and every action edge,
    ``f(a(x)) = a2(f(x))``.  The domain is then the subgroup S that the
    seeds generate, invariant under the action (``_closure``), and f is a
    homomorphism on S (the walk rule): it respects right products by each
    seed, and if it respects them by y it does by ``a(y)``, as
    ``f(x·a(y)) = f(a(a^-1(x)·y)) = a2(f(a^-1(x))·f(y)) = f(x)·f(a(y))``.
    Conversely, when the seeds' assignment extends to an injective
    homomorphism on S that passes ``pair_check`` and commutes with the
    action, every pair pushed is one of its own, so it is never refused.
    A propagation over the whole group therefore certifies a bijective
    homomorphism, and prunes exactly the branches that closing under every
    product of assigned elements would.

    ``candidates(i, map21)`` lists the targets to try for ``i``; the search
    is depth-first, so their order fixes the order of the results.
    """
    n = len(ctx1.elements)
    mul1, mul2 = ctx1.mul, ctx2.mul

    def backtrack(k, map12, map21, domain, seeds):
        if k == len(seq):
            if len(domain) == n:
                yield map12
            return
        i = seq[k]
        for j in candidates(i, map21):
            m12, m21, dom = list(map12), list(map21), list(domain)
            grown = seeds + [(i, j)]
            # the identity's edge, (i, j) itself, is popped first
            edges = [(mul1(a, i), mul2(map12[a], j)) for a in reversed(domain)]
            if _propagate(ctx1, ctx2, m12, m21, dom, grown, edges, pair_check,
                          action_edges):
                yield from backtrack(k + 1, m12, m21, dom, grown)

    map12, map21, domain = [-1] * n, [-1] * n, []
    if _propagate(ctx1, ctx2, map12, map21, domain, [], [(0, 0)], pair_check,
                  action_edges):
        yield from backtrack(0, map12, map21, domain, [])


def _iter_isomorphisms(G: PermGroup, H: PermGroup):
    """Yield every isomorphism G -> H as a verified GroupHom.

    Candidates are the unused elements of the right order; those equal to
    the source element itself are tried first, so that identity-like maps
    surface early when source and target share a degree.
    """
    if G.order() != H.order():
        return
    ctx1 = _context(G)
    ctx2 = _context(H)
    same_degree = G.degree == H.degree

    def candidates(i, map21):
        cands = [
            j
            for j in ctx2.by_order.get(ctx1.orders[i], [])
            if map21[j] == -1
        ]
        if same_degree:
            cands.sort(
                key=lambda j: (ctx2.elements[j] != ctx1.elements[i], j)
            )
        return cands

    seq = _generating_sequence(ctx1)
    for map12 in _extensions(ctx1, ctx2, seq, candidates):
        images = [ctx2.elements[map12[ctx1.index[g]]] for g in G.generators]
        yield GroupHom(G, H, images)


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
