"""Induced crossed modules along a subgroup inclusion.

Given a crossed module d: M -> P and an injective iota: P -> Q, the induced
crossed module over Q is presented on generators (m, t) for every element m
of M and every coset representative t of iota(P) in Q, with

    copower relators   (m, t)(m', t) = (mm', t)
    Peiffer relators   x^-1 y x = y^(dx)
    boundary           d(m, t) = t^-1 iota(dm) t
    action             (m, t)^q = (m^p, t')  where t q = iota(p) t'

Coset enumeration of the presented group over the trivial subgroup yields its
regular permutation representation, from which boundary and action are read
off as verified homomorphisms and the axioms re-checked by ``validate``.

M's stabilizer chain has one level and is built without Schreier-Sims
(``PermGroup._regular``).  A complete coset table over the trivial subgroup
is the group's right action on its own elements, which is regular: every
coset is reached from coset 1 and only the identity fixes it.  So the orbit
of point 1 under the generators is the whole transversal, the stabilizer of
point 1 is trivial, and ``|M|`` is the coset count.  It is the level
Schreier-Sims would build, with the same base, so M's walk and element
order are those of a full chain.

Relators are checked against the boundary by index arithmetic in the base
group, not by products (``InducedPresentation.boundary_kills_relators``).

``run_table`` reproduces the bundled reference table for the seven standard
subgroups of S4 with M = P and the identity boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .errors import (
    BudgetExceeded,
    NonInjective,
    NotInGroup,
    TableMismatch,
    ValidationFailed,
)
from .fp import (
    DEFAULT_MAX_COSETS,
    Presentation,
    Word,
    _coset_action,
    todd_coxeter,
)
from .perm import (
    Fingerprint,
    GroupHom,
    PermGroup,
    Permutation,
    _right_cosets,
    _right_multiplications,
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

GENERATOR_BUDGET = 4096


coset_transversal = right_coset_representatives


@dataclass
class InducedPresentation:
    """Presentation of an induced (or free) crossed module's top group.

    ``gen_pairs[k]`` records which (m, t) pair generator ``k`` stands for,
    ``boundary_images[k]`` its boundary in the base group, and ``act_gen``
    implements the generator permutation induced by any base group element.
    """

    presentation: Presentation
    base: PermGroup
    boundary_images: tuple[Permutation, ...]
    gen_pairs: tuple[tuple[Permutation, Permutation], ...]
    _act: object = field(repr=False, compare=False, default=None)

    def act_gen(self, k: int, q: Permutation) -> int:
        return self._act(k, q)

    def boundary_kills_relators(self) -> bool:
        """Check symbolically in the base group that every relator dies.

        Each relator is multiplied out over element indices of the base
        group: a letter steps the running index along the array of right
        multiplication by its boundary image (``perm._right_multiplications``,
        one array per distinct image), and the relator dies when the walk
        ends at the identity, index 0.
        """
        base = self.base
        images = self.boundary_images
        for im in images:
            if im not in base:
                raise NotInGroup(f"boundary image {im} is not in the base group")
        inverses = [im.inverse() for im in images]
        letters = list(dict.fromkeys([*images, *inverses]))
        arrays = dict(zip(letters, _right_multiplications(base, letters)))
        steps = [{1: arrays[im], -1: arrays[inv]}
                 for im, inv in zip(images, inverses)]
        for w in self.presentation.relators:
            i = 0
            for g, e in w.letters:
                i = steps[g][e][i]
            if i:
                return False
        return True


def _dedupe_relators(words):
    seen = set()
    out = []
    for w in words:
        if w.is_identity() or w.letters in seen:
            continue
        seen.add(w.letters)
        out.append(w)
    return tuple(out)


def induced_presentation(
    X: CrossedModule, iota: GroupHom, transversal=None
) -> InducedPresentation:
    """Copower-plus-Peiffer presentation of the crossed module induced by iota.

    ``transversal`` may supply explicit right-coset representatives of
    iota(P) in Q (any full transversal works; the resulting modules are
    isomorphic); an element outside Q raises ``NotInGroup``, and two in one
    coset or a coset left out raise ``ValueError``.  Raises
    ``NonInjective`` if iota is not injective and ``BudgetExceeded`` if
    |M|*[Q:iota(P)] generators would exceed the budget.
    """
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
        return gen(arr[mi], tj)

    relators = []
    # column b: the index of melems[a] * melems[b], for every a
    columns = _right_multiplications(M, melems)
    for ti in range(nT):
        for a in range(nM):
            for b in range(nM):
                c = columns[b][a]
                relators.append(
                    Word.of(
                        [(gen(a, ti), 1), (gen(b, ti), 1), (gen(c, ti), -1)]
                    )
                )
    return _with_peiffer_relators(
        Q, relators, boundary_images, gen_pairs, labels, act_gen
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
    if ngens > GENERATOR_BUDGET:
        raise BudgetExceeded(
            f"{ngens} generators exceed the budget of {GENERATOR_BUDGET}"
        )

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
        return gen(r, pidx[pelems[pi] * q])

    return _with_peiffer_relators(
        P, [], boundary_images, gen_pairs, labels, act_gen
    )


def _with_peiffer_relators(
    base, relators, boundary_images, gen_pairs, labels, act_gen
) -> InducedPresentation:
    """Add the Peiffer relators x^-1 y x = y^(dx) on every generator pair to
    ``relators`` and return the presentation, checked against the boundary."""
    ngens = len(boundary_images)
    for x in range(ngens):
        dx = boundary_images[x]
        for y in range(ngens):
            z = act_gen(y, dx)
            relators.append(Word.of([(x, -1), (y, 1), (x, 1), (z, -1)]))
    pres = Presentation(ngens, _dedupe_relators(relators), tuple(labels))
    ip = InducedPresentation(
        presentation=pres,
        base=base,
        boundary_images=tuple(boundary_images),
        gen_pairs=tuple(gen_pairs),
        _act=act_gen,
    )
    if not ip.boundary_kills_relators():
        raise ValidationFailed("boundary assignment does not kill a relator")
    return ip


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Everything the table prints about one induced crossed module.

    ``phases`` gives the seconds of each stage of ``induce``, in order:
    ``presentation``, ``todd_coxeter``, ``chain`` (M read off the coset
    table), ``homs`` (boundary, action and the module), ``validate``,
    ``pi1_pi2`` (with the order law's closure) and ``naming`` (names and
    fingerprints); they sum to ``seconds``.
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

    def to_json_dict(self) -> dict:
        """Stable field order; timing (``seconds``, ``phases``) is
        deliberately omitted so identical inputs give identical bytes."""
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


def induce(
    X: CrossedModule,
    iota: GroupHom,
    max_cosets: int = DEFAULT_MAX_COSETS,
    transversal=None,
) -> tuple[CrossedModule, Report]:
    """Induced crossed module along iota, with a report of its invariants.

    The construction enumerates the presented top group over the trivial
    subgroup, so the resulting M is given by its regular representation.
    The returned module has passed the axiom check; a failure
    there raises ``ValidationFailed`` (it would mean an internal error, not
    bad input).
    """
    marks = [(None, time.perf_counter())]

    def lap(stage):
        marks.append((stage, time.perf_counter()))

    ip = induced_presentation(X, iota, transversal)
    lap("presentation")
    ct = todd_coxeter(ip.presentation, (), max_cosets)
    lap("todd_coxeter")
    gen_perms = _coset_action(ct)
    Q = iota.target
    # generators that die in the presented group (the (1, t) copower pairs)
    # only clutter the generator list; the rest still generate everything
    keep = [
        k for k in range(ip.presentation.ngens)
        if not gen_perms[k].is_identity()
    ]
    # a complete table over the trivial subgroup: M acts regularly
    Mstar = PermGroup._regular(ct.ncosets, [gen_perms[k] for k in keep])
    lap("chain")
    boundary = hom(Mstar, Q, [ip.boundary_images[k] for k in keep])
    action = []
    for qg in Q.generators:
        images = [gen_perms[ip.act_gen(k, qg)] for k in keep]
        action.append(GroupHom(Mstar, Mstar, images))
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
    closure = normal_closure(
        Q, [iota.apply(X.boundary.apply(m)) for m in X.M.generators]
    )
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
        seconds=marks[-1][1] - marks[0][1],
        phases={stage: t - before
                for (_, before), (stage, t) in zip(marks, marks[1:])},
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
