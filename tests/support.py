"""Independent oracles used by the tests.

Everything here works on raw image tuples (1-based, index i-1 holds the
image of i) so the checks do not route through the library's own group
arithmetic.
"""

from itertools import combinations
from math import gcd


def tcompose(a, b):
    """Image tuple of 'apply a, then b'."""
    return tuple(b[x - 1] for x in a)


def tinverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x - 1] = i + 1
    return tuple(out)


def tidentity(degree):
    return tuple(range(1, degree + 1))


def closure(degree, gens):
    """All products of the given image tuples, by breadth-first search."""
    gens = [tuple(g) for g in gens]
    seen = {tidentity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tcompose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def conjugation_closure(degree, group, seeds):
    """Normal closure of the seed tuples inside the given element set."""
    group = {tuple(g) for g in group}
    current = {tuple(s) for s in seeds}
    while True:
        conjugates = {
            tcompose(tcompose(tinverse(g), s), g)
            for s in current
            for g in group
        }
        new = closure_from(degree, current | conjugates)
        if new == current:
            return current
        current = new


def closure_from(degree, elems):
    return closure(degree, list(elems))


def parity(t):
    """+1 for even permutations, -1 for odd."""
    t = tuple(t)
    seen = [False] * len(t)
    sign = 1
    for i in range(len(t)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = t[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def torder(t):
    t = tuple(t)
    p = t
    n = 1
    ident = tidentity(len(t))
    while p != ident:
        p = tcompose(p, t)
        n += 1
    return n


def det(rows):
    """Integer determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def minors_gcd_invariants(rows):
    """Invariant factors via determinantal divisors.

    d_k = gcd of all k x k minors; the k-th invariant factor is d_k/d_{k-1}
    while d_k is nonzero, and 0 from the first k with every minor zero.
    """
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            out.extend([0] * (min(m, n) - k + 1))
            return out
        out.append(g // prev)
        prev = g
    return out


def abelian_order_census(invariants):
    """Element-order histogram of C_{d1} x ... x C_{dk} by direct product walk."""
    from math import lcm

    orders = [1]
    for d in invariants:
        orders = [lcm(o, d // gcd(d, r)) for o in orders for r in range(d)]
    census = {}
    for o in orders:
        census[o] = census.get(o, 0) + 1
    return census



def extend_along(gens, gen_values, identity, start, step):
    """Values on the closure of ``gens``, from ``start`` at ``identity``.

    Walks breadth first; the edge x -> x*g gives ``step(value(x), value of
    g)``.  Relations are not checked, so the result is only meaningful for
    generator values already known to define a homomorphism or action.
    """
    values = {identity: start}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, v in zip(gens, gen_values):
                y = tcompose(x, g)
                if y not in values:
                    values[y] = step(values[x], v)
                    nxt.append(y)
        frontier = nxt
    return values


def product_walk(degree, gens):
    """Breadth-first Cayley walk from the identity, keyed by products.

    Returns the element tuples in discovery order and, for each, the
    discovery indices of its products with ``gens`` in list order: the walk
    as first written, which formed and looked up every edge's product.
    """
    gens = [tuple(g) for g in gens]
    found = [tidentity(degree)]
    index = {found[0]: 0}
    successors = []
    for x in found:  # grows while it is read: a FIFO queue
        row = []
        for g in gens:
            y = tcompose(x, g)
            j = index.get(y)
            if j is None:
                j = index[y] = len(found)
                found.append(y)
            row.append(j)
        successors.append(tuple(row))
    return tuple(found), tuple(successors)


def product_replay(degree, gens, target_degree, images):
    """Homomorphism check by products along ``product_walk``.

    Every edge ``x -> x*g`` gives ``value(x) * image(g)``; edges are read in
    walk order.  Returns ``(element_map, None)`` on image tuples, or
    ``(None, w)`` where ``w`` is the endpoint of the first edge whose product
    disagrees with the value already assigned.
    """
    found, successors = product_walk(degree, gens)
    images = [tuple(im) for im in images]
    values = [tidentity(target_degree)] + [None] * (len(found) - 1)
    for value, row in zip(values, successors):
        for j, im in zip(row, images):
            v = tcompose(value, im)
            if values[j] is None:
                values[j] = v
            elif values[j] != v:
                return None, found[j]
    return dict(zip(found, values)), None


def product_action_replay(qdeg, qgens, mdeg, mgens, action):
    """The action of Q on M extended by whole automorphisms along
    ``product_walk``.

    ``action`` holds, for each generator of Q, the images of ``mgens``
    under its automorphism.  Every edge ``x -> x*g`` composes the whole
    action of x, a dict on M's element tuples, with that of g; edges are
    read in walk order.  Returns ``(table, None)`` with ``table[q][m]`` the
    image tuple of ``m^q``, or ``(None, w)`` where ``w`` is the endpoint of
    the first edge whose composite disagrees with the action already
    assigned.
    """
    mgens = [tuple(g) for g in mgens]
    one_m = tidentity(mdeg)
    autos = [extend_along(mgens, [tuple(im) for im in row], one_m, one_m,
                          tcompose)
             for row in action]
    found, successors = product_walk(qdeg, qgens)
    values = [{m: m for m in closure(mdeg, mgens)}] + [None] * (len(found) - 1)
    for value, row in zip(values, successors):
        for j, auto in zip(row, autos):
            v = {m: auto[x] for m, x in value.items()}
            if values[j] is None:
                values[j] = v
            elif values[j] != v:
                return None, found[j]
    return dict(zip(found, values)), None


def product_mult_table(elements):
    """``table[a][b]``: the index of ``elements[a] * elements[b]``."""
    elements = [tuple(e) for e in elements]
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tcompose(a, b)] for b in elements] for a in elements]


def table_extensions(ctx1, ctx2, seq, candidates, pair_check=None,
                     action_edges=()):
    """The isomorphism backtrack of ``perm._extensions`` (same arguments,
    same results) on full multiplication tables: each pair assigned is
    closed under its product with every assigned element, both ways, and
    its square, then along the action edges.  The tables and element
    orders are the product oracle's, read off the image tuples of
    ``ctx.elements``; nothing else of the contexts is read."""
    tables, orders = [], []
    for ctx in (ctx1, ctx2):
        elems = [p.images for p in ctx.elements]
        tables.append(product_mult_table(elems))
        orders.append([torder(e) for e in elems])
    (m1, m2), (o1, o2) = tables, orders
    n = len(m1)

    def propagate(map12, map21, domain, pairs):
        stack = list(pairs)
        while stack:
            i, j = stack.pop()
            cur = map12[i]
            if cur == j:
                continue
            if cur != -1 or map21[j] != -1 or o1[i] != o2[j]:
                return False
            if pair_check is not None and not pair_check(i, j):
                return False
            map12[i] = j
            map21[j] = i
            for a in domain:
                ja = map12[a]
                stack.append((m1[i][a], m2[j][ja]))
                stack.append((m1[a][i], m2[ja][j]))
            stack.append((m1[i][i], m2[j][j]))
            for act1, act2 in action_edges:
                stack.append((act1[i], act2[j]))
            domain.append(i)
        return True

    def backtrack(k, map12, map21, domain):
        if k == len(seq):
            if len(domain) == n:
                yield map12
            return
        i = seq[k]
        for j in candidates(i, map21):
            m12, m21, dom = list(map12), list(map21), list(domain)
            if propagate(m12, m21, dom, [(i, j)]):
                yield from backtrack(k + 1, m12, m21, dom)

    map12, map21, domain = [-1] * n, [-1] * n, []
    if propagate(map12, map21, domain, [(0, 0)]):
        yield from backtrack(0, map12, map21, domain)


def _module_tables(mdeg, mgens, qdeg, qgens, boundary, action):
    """Boundary ``d[m]`` and action ``act[q][m]`` on every element, from a
    crossed module's JSON-form data on image tuples."""
    mgens = [tuple(g) for g in mgens]
    one_m, one_q = tidentity(mdeg), tidentity(qdeg)
    d = extend_along(mgens, [tuple(b) for b in boundary], one_m, one_q,
                     tcompose)
    autos = [
        extend_along(mgens, [tuple(im) for im in row], one_m, one_m, tcompose)
        for row in action
    ]
    # m^q for every q: the generator automorphisms composed along Q
    act = extend_along(
        [tuple(g) for g in qgens], autos, one_q, {m: m for m in d},
        lambda a, auto: {m: auto[v] for m, v in a.items()},
    )
    return d, act


def crossed_module_witnesses(mdeg, mgens, qdeg, qgens, boundary, action):
    """First CM1 and CM2 counterexamples of a crossed module, or None each.

    The module is given as in its JSON form, on image tuples: generators of
    M and Q, the boundary images of M's generators, and for each generator
    of Q the images of M's generators under its automorphism.  Every
    element pair is scanned in sorted order (the order of
    ``PermGroup.elements()``): CM1 ``d(m^q) = q^-1 dm q`` over q, then m,
    giving (m, q); CM2 ``m^(dm') = m'^-1 m m'`` over m', then m, giving
    (m, m').
    """
    d, act = _module_tables(mdeg, mgens, qdeg, qgens, boundary, action)

    def conj(x, y):
        return tcompose(tcompose(tinverse(y), x), y)

    melems, qelems = sorted(d), sorted(act)
    cm1 = next(
        ((m, q) for q in qelems for m in melems
         if d[act[q][m]] != conj(d[m], q)),
        None,
    )
    cm2 = next(
        ((m, mp) for mp in melems for m in melems
         if act[d[mp]][m] != conj(m, mp)),
        None,
    )
    return cm1, cm2


def interchange_witness(mdeg, mgens, qdeg, qgens, boundary, action):
    """First triple (ma, md, u) whose 2x2 block fails interchange, or None.

    Same input as ``crossed_module_witnesses``.  The block built from the
    triple interchanges exactly when ``md * ma^(u dmd) = ma^u * md``
    (products read left to right); triples are scanned over ma, then md,
    then u, each in sorted order, the order of
    ``squares.interchange_exhaustive``'s scan.
    """
    d, act = _module_tables(mdeg, mgens, qdeg, qgens, boundary, action)
    melems, qelems = sorted(d), sorted(act)
    return next(
        ((ma, md, u) for ma in melems for md in melems for u in qelems
         if tcompose(md, act[tcompose(u, d[md])][ma])
         != tcompose(act[u][ma], md)),
        None,
    )


class SquareOracle:
    """The square calculus of ``squares`` on raw tuples, as the formulas of
    its module docstring read.

    Same input as ``crossed_module_witnesses``.  A square is the tuple
    ``(n, w, e, s, m)`` of image tuples; products read left to right:

    - ``square``: ``s = w^-1 n e (dm)^-1``;
    - horizontal: ``(n1n2, w1, e2, s1s2, m1^(s2) m2)``;
    - vertical: ``(n1, w1w2, e1e2, s2, m2 m1^(e2))``;
    - inverses: ``(n^-1, e, w, s^-1, (m^-1)^(s^-1))`` horizontally and
      ``(s, w^-1, e^-1, n, (m^-1)^(e^-1))`` vertically.

    ``sampled`` draws its blocks as ``squares.random_block`` did when it
    drew elements (``rng.choice`` on the sorted elements) and returns the
    first that fails interchange.
    """

    def __init__(self, mdeg, mgens, qdeg, qgens, boundary, action):
        self.d, self.act = _module_tables(mdeg, mgens, qdeg, qgens, boundary,
                                          action)
        self.melems, self.qelems = sorted(self.d), sorted(self.act)

    def square(self, n, w, e, m):
        s = tcompose(tcompose(tcompose(tinverse(w), n), e),
                     tinverse(self.d[m]))
        return n, w, e, s, m

    def compose_h(self, a, b):
        n1, w1, _, s1, m1 = a
        n2, _, e2, s2, m2 = b
        return (tcompose(n1, n2), w1, e2, tcompose(s1, s2),
                tcompose(self.act[s2][m1], m2))

    def compose_v(self, a, b):
        n1, w1, e1, _, m1 = a
        _, w2, e2, s2, m2 = b
        return (n1, tcompose(w1, w2), tcompose(e1, e2), s2,
                tcompose(m2, self.act[e2][m1]))

    def inverse_h(self, a):
        n, w, e, s, m = a
        si = tinverse(s)
        return tinverse(n), e, w, si, self.act[si][tinverse(m)]

    def inverse_v(self, a):
        n, w, e, s, m = a
        ei = tinverse(e)
        return s, tinverse(w), ei, n, self.act[ei][tinverse(m)]

    def sampled(self, samples, rng):
        h, v = self.compose_h, self.compose_v
        for _ in range(samples):
            def rq():
                return rng.choice(self.qelems)

            def rm():
                return rng.choice(self.melems)

            a = self.square(rq(), rq(), rq(), rm())
            b = self.square(rq(), a[2], rq(), rm())
            c = self.square(a[3], rq(), rq(), rm())
            d = self.square(b[3], c[2], rq(), rm())
            if v(h(a, b), h(c, d)) != h(v(a, c), v(b, d)):
                return [a, b, c, d]
        return None


def reference_todd_coxeter(presentation, subgroup_words=(), max_cosets=1 << 16):
    """The relator-driven enumeration as first written, kept as an oracle.

    ``xmodlab.fp.todd_coxeter`` must define the same cosets in the same
    order, merge them in the same order, and so return the same table (or
    the same refusal).  Besides the table this copy counts the cosets
    defined and the most live at once, for the library's counters.
    """
    from xmodlab.errors import CosetLimitExceeded
    from xmodlab.fp import CosetTable

    ngens = presentation.ngens
    ncols = 2 * ngens

    def columns(word):
        return [2 * g + (0 if e == 1 else 1) for g, e in word.letters]

    rel_cols = [columns(w) for w in presentation.relators]
    sub_cols = [columns(w) for w in subgroup_words]

    rows = [[-1] * ncols]
    parent = [0]
    defined = 1
    merged = 0
    peak_live = 1

    def rep(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def new_coset():
        nonlocal defined, peak_live
        if defined >= max_cosets:
            raise CosetLimitExceeded(
                f"needed more than {max_cosets} cosets", limit=max_cosets
            )
        rows.append([-1] * ncols)
        parent.append(len(rows) - 1)
        defined += 1
        peak_live = max(peak_live, defined - merged)
        return len(rows) - 1

    def set_entry(a, col, b):
        rows[a][col] = b
        rows[b][col ^ 1] = a

    def merge(a, b):
        nonlocal merged
        # union by smaller representative, then transfer the dead row,
        # queueing any induced coincidences
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = rep(x), rep(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            merged += 1
            dead = rows[y]
            for col in range(ncols):
                d = dead[col]
                if d == -1:
                    continue
                d = rep(d)
                if rows[d][col ^ 1] == y:
                    rows[d][col ^ 1] = -1
                e = rows[x][col]
                if e == -1 or rep(e) == d:
                    set_entry(x, col, d)
                else:
                    queue.append((rep(e), d))
            rows[y] = None

    def scan_and_fill(start, cols):
        if not cols:
            return
        while True:
            start = rep(start)
            # forward
            f = start
            fi = 0
            while fi < len(cols):
                nxt = rows[f][cols[fi]]
                if nxt == -1:
                    break
                f = rep(nxt)
                fi += 1
            if fi == len(cols):
                if f != start:
                    merge(f, start)
                return
            # backward
            b = start
            bi = len(cols)
            while bi > fi:
                prv = rows[b][cols[bi - 1] ^ 1]
                if prv == -1:
                    break
                b = rep(prv)
                bi -= 1
            if bi == fi:
                merge(f, b)
                return
            if bi == fi + 1:
                set_entry(f, cols[fi], b)
                return
            set_entry(f, cols[fi], new_coset())

    for cols in sub_cols:
        scan_and_fill(0, cols)
    current = 0
    while current < len(rows):
        if rows[current] is None or rep(current) != current:
            current += 1
            continue
        for cols in rel_cols:
            scan_and_fill(current, cols)
            if rows[current] is None or rep(current) != current:
                break
        if rows[current] is None or rep(current) != current:
            current += 1
            continue
        for col in range(ncols):
            if rows[current][col] == -1:
                set_entry(current, col, new_coset())
        current += 1

    live = [i for i in range(len(rows)) if rows[i] is not None and rep(i) == i]
    for i in live:
        if any(entry == -1 for entry in rows[i]):
            raise AssertionError("enumeration left an undefined entry")
    renumber = {old: new for new, old in enumerate(live)}
    table = tuple(
        tuple(renumber[rep(rows[i][col])] for col in range(ncols)) for i in live
    )
    return CosetTable(
        presentation=presentation,
        subgroup=tuple(subgroup_words),
        table=table,
        defined=defined,
        peak_live=peak_live,
    )


def chain_levels(levels):
    """A stabilizer chain as comparable data: per level its base point, its
    generators' image tuples and its transversal as point -> image tuple."""
    return [
        (level["point"], [g.images for g in level["gens"]],
         {a: u.images for a, u in level["transversal"].items()})
        for level in levels
    ]


def schreier_sims_levels(degree, gens):
    """``chain_levels`` of the full Schreier-Sims chain on the generator
    tuples, the check loop included: the chain every group was built on
    before a regular group got its one level directly."""
    from xmodlab.perm import Permutation, _build_chain

    return chain_levels(_build_chain(degree, [Permutation(g) for g in gens]))


def cycles_order(t):
    """Order as the lcm of the lengths of every cycle, as
    ``Permutation.order`` computes it."""
    from math import lcm

    t = tuple(t)
    seen = set()
    order = 1
    for start in range(1, len(t) + 1):
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = t[x - 1]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def product_center(elements, gens):
    """The elements z with ``z g == g z`` for every generator, by products."""
    return {
        tuple(z) for z in elements
        if all(tcompose(z, g) == tcompose(g, z) for g in gens)
    }


def product_noncommuting_pair(gens):
    """First pair of generator tuples, in ``combinations`` order, whose two
    products differ, or None."""
    return next(((tuple(a), tuple(b)) for a, b in combinations(gens, 2)
                 if tcompose(a, b) != tcompose(b, a)), None)


def product_right_cosets(elements, subgroup):
    """Least element of each right coset Hg (``elements`` sorted) and the
    coset number of every element, filled in by the products ``h * e``."""
    reps = []
    coset_of = {}
    for e in elements:
        e = tuple(e)
        if e in coset_of:
            continue
        for h in subgroup:
            coset_of[tcompose(h, e)] = len(reps)
        reps.append(e)
    return reps, coset_of


def product_relators_die(degree, images, relators):
    """Whether every relator (letters ``(generator, +1 or -1)``) multiplies
    out to the identity when each generator stands for its image tuple,
    one product per letter."""
    images = [tuple(im) for im in images]
    inverses = [tinverse(im) for im in images]
    for letters in relators:
        prod = tidentity(degree)
        for g, e in letters:
            prod = tcompose(prod, images[g] if e == 1 else inverses[g])
        if prod != tidentity(degree):
            return False
    return True


def product_cm2_failure(mdeg, mgens, qdeg, qgens, boundary, action, mps, ms):
    """First ``(m, m')`` over ``mps`` (outer), then ``ms``, with
    ``m^(dm') != m'^-1 m m'`` by products, or None; the module is given as
    in ``crossed_module_witnesses``."""
    d, act = _module_tables(mdeg, mgens, qdeg, qgens, boundary, action)
    return next(
        ((tuple(m), tuple(mp)) for mp in mps for m in ms
         if act[d[tuple(mp)]][tuple(m)]
         != tcompose(tcompose(tinverse(mp), m), mp)),
        None,
    )


# ---------------------------------------------------------------------------
# the induced module as first presented: every element of M in every copy,
# enumerated over the trivial subgroup


GENERATOR_BUDGET = 4096


def reference_induced_presentation(
    X, iota, transversal=None
):
    """Copower-plus-Peiffer presentation of the crossed module induced by iota.

    ``transversal`` may supply explicit right-coset representatives of
    iota(P) in Q (any full transversal works; the resulting modules are
    isomorphic); an element outside Q raises ``NotInGroup``, and two in one
    coset or a coset left out raise ``ValueError``.  Raises
    ``NonInjective`` if iota is not injective and ``BudgetExceeded`` if
    |M|*[Q:iota(P)] generators would exceed the budget.
    """
    from xmodlab.errors import BudgetExceeded, NonInjective, NotInGroup
    from xmodlab.fp import Word
    from xmodlab.induce import _with_peiffer_relators
    from xmodlab.perm import _right_cosets, image

    if iota.source is not X.Q:
        raise ValueError("iota must start at the base group of X")
    if not iota.is_injective():
        raise NonInjective("induction requires an injective inclusion")
    Q = iota.target
    M = X.M
    H = image(iota)
    nM = M.order()
    T = None if transversal is None else list(transversal)
    # arithmetic first: refuse the job before enumerating anything big
    nT = Q.order() // H.order() if T is None else len(T)
    if nM * nT > GENERATOR_BUDGET:
        raise BudgetExceeded(
            f"{nM * nT} generators exceed the budget of {GENERATOR_BUDGET}"
        )
    melems = list(M.elements())
    reps, coset_of = _right_cosets(Q, H)
    qbase = Q._base()

    def coset(z):  # of an element of Q, by its base images
        return coset_of[tuple([z.images[b - 1] for b in qbase])]

    if T is None:
        T = reps
    else:
        for t in T:
            if t not in Q:
                raise NotInGroup(f"transversal element {t} is not in Q")
        position = {coset(t): ti for ti, t in enumerate(T)}
        if len(position) != len(T):
            raise ValueError("transversal elements share a coset")
        if len(position) != len(reps):
            raise ValueError("transversal does not cover every coset")
        coset_of = {e: position[c] for e, c in coset_of.items()}
    iota_inv = {iota.apply(p): p for p in X.Q.elements()}

    def gen(mi, ti):
        return mi * nT + ti

    boundary_images = []
    gen_pairs = []
    labels = []
    for mi, m in enumerate(melems):
        dm = iota.apply(X.boundary.apply(m))
        for ti, t in enumerate(T):
            boundary_images.append(t.inverse() * dm * t)
            gen_pairs.append((m, t))
            labels.append(f"m{mi}t{ti}")

    moves = {}  # (ti, q) -> (tj, action array of p) where T[ti] q = p T[tj]

    def act_gen(k, q):
        mi, ti = divmod(k, nT)
        move = moves.get((ti, q))
        if move is None:
            z = T[ti] * q
            tj = coset(z)
            p = iota_inv[z * T[tj].inverse()]
            move = moves[ti, q] = (tj, X.act_array(p))
        tj, arr = move
        return Word(((gen(arr[mi], tj), 1),))

    relators = []
    table = product_mult_table([m.images for m in melems])
    for ti in range(nT):
        for a in range(nM):
            for b in range(nM):
                c = table[a][b]
                relators.append(
                    Word.of(
                        [(gen(a, ti), 1), (gen(b, ti), 1), (gen(c, ti), -1)]
                    )
                )
    return _with_peiffer_relators(
        Q, relators, boundary_images, gen_pairs, labels, act_gen
    )


def reference_induced_module(X, iota, transversal=None):
    """The induced crossed module read off ``reference_induced_presentation``
    enumerated over the trivial subgroup, as a regular permutation group
    on the full Schreier-Sims chain."""
    from xmodlab.fp import _coset_action, todd_coxeter
    from xmodlab.induce import _word_image
    from xmodlab.perm import GroupHom, PermGroup, hom
    from xmodlab.xmod import CrossedModule

    ip = reference_induced_presentation(X, iota, transversal)
    ct = todd_coxeter(ip.presentation, ())
    perms = _coset_action(ct)
    keep = [k for k, p in enumerate(perms) if not p.is_identity()]
    M = PermGroup(ct.ncosets, [perms[k] for k in keep])
    Q = iota.target
    boundary = hom(M, Q, [ip.boundary_images[k] for k in keep])
    action = [GroupHom(M, M, [_word_image(ip.act_gen(k, q), perms)
                              for k in keep])
              for q in Q.generators]
    return CrossedModule(M, Q, boundary, action)


def order_law_inclusions():
    """The twenty random inclusions ``(Q, P)`` of the order-law acceptance
    test: cyclic and two-generator subgroups of S4, then cyclic ones of S3,
    drawn with seed 17."""
    import random

    from xmodlab.perm import symmetric

    S4, S3 = symmetric(4), symmetric(3)
    rng = random.Random(17)
    out = []
    for i in range(20):
        Q = S4 if i < 16 else S3
        count = 2 if 12 <= i < 16 else 1
        gens = [Q.random_element(rng) for _ in range(count)]
        out.append((Q, Q.subgroup(gens)))
    return out


def reference_parse_permutation(text, degree):
    """Image tuple of the cycle notation ``text``: the two-pass reader's
    permutation parser, kept as the oracle for ``perm._scan_permutation``.
    Messages and positions are those ``perm.parse_permutation`` gives."""
    from xmodlab.errors import ParseError

    images = list(range(1, degree + 1))
    used = set()
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if i == n:
        raise ParseError("empty permutation", i)
    while i < n:
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != "(":
            raise ParseError(f"expected '(' but found {text[i]!r}", i)
        i = skip_ws(i + 1)
        points = []
        if i < n and text[i] == ")":
            i += 1
            continue
        while True:
            start = i
            while i < n and text[i].isdigit():
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
            i = skip_ws(i)
            if i < n and text[i] == ",":
                i = skip_ws(i + 1)
                continue
            if i < n and text[i] == ")":
                i += 1
                break
            raise ParseError("expected ',' or ')'", i)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return tuple(images)


def reference_parse_generator_list(text, degree):
    """Image tuples of a comma-separated generator list, read in two passes:
    split at the commas outside parentheses, then parse each part with
    ``reference_parse_permutation``.  Its positions count from the start of
    the part, so only acceptance and results are compared with it."""
    from xmodlab.errors import ParseError

    if not text.strip():
        return []
    parts = []
    depth = 0
    current = []
    for j, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", j)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '('", len(text) - 1)
    parts.append("".join(current))
    return [reference_parse_permutation(part, degree) for part in parts]
