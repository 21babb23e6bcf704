"""Walks, homomorphisms, actions, multiplication tables, element orders,
centres, cosets, CM2 and relator checks decided by base images or indices.

A complete stabilizer chain fixes each element of its group by the images
of the base points, so the library looks elements up by those images rather
than by whole products, and an automorphism of M is fixed by the images of
M's generators, so the action walk compares only those.  The walk numbers
the elements once, as ``elements()`` does: its keys, successor columns and
spanning tree share that index, and only the fill along the tree and the
Schreier edges read the order in which it found them, which keeps Schreier
relators and first conflicts in the product walk's order.  These checks hold
the library to the product oracles of ``support``: the same walk, the same
element maps, actions and first conflicts, the same multiplication table,
the same orders, centre, cosets, CM2 witness and relator verdict.  The
regular M, read off a coset table over the trivial subgroup (as ``induce``
reads it when L = 1), and quotients act regularly and get their one-level
chains without Schreier-Sims; each must equal the full chain.
C5's M in S5 (order 3000 on 600 points) holds the element orders and the
first conflicts of corrupted maps to the oracles on a larger group.
Tripwires count products on row 7's M (128 elements), so that a return to
one product per edge or per table entry fails, and on building the
regular M's chain, so that a return to the check loop fails.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    chain_levels,
    crossed_module_witnesses,
    cycles_order,
    product_action_replay,
    product_center,
    product_cm2_failure,
    product_mult_table,
    product_noncommuting_pair,
    product_relators_die,
    product_replay,
    product_right_cosets,
    product_walk,
    schreier_sims_levels,
    sorted_walk,
    tcompose,
    tidentity,
    torder,
)
from xmodlab.errors import CosetLimitExceeded, NotInGroup, RelationViolated
from xmodlab.fp import Presentation, Word, _coset_action, todd_coxeter
from xmodlab.induce import (
    InducedPresentation,
    induce,
    induced_presentation,
    table_subgroup,
)
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    _noncommuting_pair,
    _off_tree_edges,
    _product_rule,
    _right_cosets,
    center,
    cyclic,
    hom,
    identity_hom,
    kernel,
    image,
    normal_closure,
    parse_generator_list,
    quotient,
    symmetric,
)
from xmodlab.xmod import CrossedModule, _cm2_failure, identity_xmod, validate


@st.composite
def generator_lists(draw, max_degree=6, min_degree=1):
    """A degree and 0-3 image tuples, the identity and repeats allowed."""
    degree = draw(st.integers(min_degree, max_degree))
    points = list(range(1, degree + 1))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["new", "identity", "repeat"]))
        if kind == "identity":
            gens.append(tidentity(degree))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(tuple(draw(st.permutations(points))))
    return degree, gens


def group(degree, gens):
    return PermGroup(degree, [Permutation(g) for g in gens])


def check_walk(G):
    # the walk keeps keys; its elements, multiplied out along the tree, and
    # their keys are the product walk's, edge for edge, numbered by image
    # tuple, and it found them in the product walk's order
    keys, successors = G._cayley_walk()
    elements, want_successors, fill = sorted_walk(
        G.degree, [g.images for g in G.generators])
    assert successors == want_successors
    assert keys == tuple(tuple(p[b - 1] for b in G._base())
                         for p in elements)
    assert G._fill == fill
    assert tuple(p.images for p in G.elements()) == elements


def discovery_edges(successors):
    """The Schreier edges of a product walk, numbered as it found the
    elements, in walk order: every edge ``(a, s, c)`` but the first that
    reaches each element after the identity."""
    reached = {0}
    edges = []
    for a, row in enumerate(successors):
        for s, c in enumerate(row):
            if c in reached:
                edges.append((a, s, c))
            reached.add(c)
    return edges


def check_numbering(G):
    """The walk's keys, successor columns and spanning tree index
    ``elements()``, checked by products; the tree is filled tails first,
    in the order the walk found the elements, and the Schreier edges are
    the product walk's, in its order, renumbered by image tuple."""
    elements = G.elements()
    index = G.element_index()
    keys, successors = G._cayley_walk()
    assert keys == tuple(tuple(p.images[b - 1] for b in G._base())
                         for p in elements)
    assert successors == tuple(tuple(index[p * g] for g in G.generators)
                               for p in elements)
    position = {c: k for k, c in enumerate(G._fill)}
    assert sorted(position) == list(range(G.order()))
    tree = G._spanning_tree()
    assert len(tree) == G.order() - 1
    for c, (a, s) in enumerate(tree, 1):
        assert successors[a][s] == c
        assert position[a] < position[c]
    gens = [g.images for g in G.generators]
    fill = sorted_walk(G.degree, gens)[2]
    assert _off_tree_edges(G) == [
        (fill[a], s, fill[c])
        for a, s, c in discovery_edges(product_walk(G.degree, gens)[1])]


def check_mult(G):
    # the search's product, read off base images, on every pair
    expected = product_mult_table([p.images for p in G.elements()])
    mul = _product_rule(G)
    n = G.order()
    assert [[mul(i, j) for j in range(n)] for i in range(n)] == expected


def check_hom(source, target, images):
    """GroupHom agrees with the product replay: the same element map, or
    ``RelationViolated`` with the same witness."""
    expected, conflict = product_replay(
        source.degree, [g.images for g in source.generators],
        target.degree, [im.images for im in images],
    )
    try:
        h = GroupHom(source, target, images)
    except RelationViolated as exc:
        assert conflict is not None
        assert exc.witness.images == conflict
        return None
    assert conflict is None
    assert {p.images: v.images for p, v in h.element_map.items()} == expected
    return h


class TestAgainstProductOracle:
    @settings(max_examples=80, deadline=None)
    @given(generator_lists())
    def test_walk(self, spec):
        check_walk(group(*spec))

    @settings(max_examples=100, deadline=None)
    @given(generator_lists())
    def test_walk_and_elements_share_one_numbering(self, spec):
        check_numbering(group(*spec))

    @settings(max_examples=60, deadline=None)
    @given(generator_lists())
    def test_mult(self, spec):
        check_mult(group(*spec))

    @settings(max_examples=60, deadline=None)
    @given(generator_lists(), st.data())
    def test_conjugation_hom(self, spec, data):
        degree, gens = spec
        G = group(degree, gens)
        c = Permutation(data.draw(st.permutations(range(1, degree + 1))))
        images = [g.conj(c) for g in G.generators]
        target = data.draw(st.sampled_from(
            [PermGroup(degree, images), symmetric(degree)]))
        assert check_hom(G, target, images) is not None

    @settings(max_examples=60, deadline=None)
    @given(generator_lists(), st.data())
    def test_quotient_map(self, spec, data):
        G = group(*spec)
        N = normal_closure(G, [data.draw(st.sampled_from(G.elements()))])
        Q, proj = quotient(G, N)
        assert check_hom(G, Q, proj.images).element_map == proj.element_map

    @settings(max_examples=100, deadline=None)
    @given(generator_lists(), generator_lists(max_degree=5), st.data())
    def test_arbitrary_images(self, spec, target_spec, data):
        # images drawn from the target, so most assignments are not homs
        G = group(*spec)
        T = data.draw(st.sampled_from(
            [group(*target_spec), symmetric(target_spec[0])]))
        images = [data.draw(st.sampled_from(T.elements()))
                  for _ in G.generators]
        check_hom(G, T, images)

    def test_known_violation(self):
        C3 = cyclic(3)
        assert check_hom(cyclic(2), C3, C3.generators) is None


def check_action(M, Q, action):
    """CrossedModule, over a trivial boundary, agrees with the action
    replayed by whole automorphisms: ``act`` on every pair, or
    ``RelationViolated`` with the same witness.  Returns whether the
    action respects Q's relations."""
    table, conflict = product_action_replay(
        Q.degree, images(Q.generators), M.degree, images(M.generators),
        [images(a.images) for a in action])
    boundary = hom(M, Q, [Q.identity] * len(M.generators))
    try:
        X = CrossedModule(M, Q, boundary, action)
    except RelationViolated as exc:
        assert conflict is not None
        assert exc.witness.images == conflict
        return False
    assert conflict is None
    assert {(q.images, m.images): X.act(m, q).images
            for q in Q.elements() for m in M.elements()} == {
        (q, m): v for q, row in table.items() for m, v in row.items()}
    return True


@st.composite
def small_actions(draw):
    """M, nontrivial on at most 4 points, Q and, for each generator of Q, an
    automorphism of M: conjugation by a permutation normalizing M.  In a
    ``natural`` draw, Q is generated by such permutations and each acts by
    conjugation with itself, which respects Q's relations; with
    ``identity`` every generator acts trivially; a ``random`` draw assigns
    nontrivial automorphisms at random, which mostly breaks them."""
    M = draw(generator_lists(max_degree=4).map(lambda spec: group(*spec))
             .filter(lambda M: not M.is_trivial()))
    normalizer = [c for c in symmetric(M.degree).elements()
                  if all(g.conj(c) in M for g in M.generators)]
    kind = draw(st.sampled_from(["natural", "identity", "random"]))
    if kind == "natural":
        Q = PermGroup(M.degree, draw(st.lists(st.sampled_from(normalizer),
                                              min_size=1, max_size=3)))
        conjugators = Q.generators
    else:
        Q = group(*draw(generator_lists(max_degree=4)
                        .filter(lambda spec: spec[1])))
        # one conjugator per nontrivial automorphism, keyed by the images
        # of M's generators
        autos = {tuple(g.conj(c) for g in M.generators): c
                 for c in reversed(normalizer)}
        autos.pop(M.generators, None)
        choices = sorted(autos.values()) if kind == "random" else []
        conjugators = [draw(st.sampled_from(choices)) if choices
                       else M.identity for _ in Q.generators]
    action = [hom(M, M, [g.conj(c) for g in M.generators])
              for c in conjugators]
    return M, Q, action


class TestActionWalk:
    @settings(max_examples=150, deadline=None)
    @given(small_actions())
    def test_against_whole_automorphisms(self, spec):
        check_action(*spec)

    @pytest.mark.parametrize("row", range(1, 8))
    def test_table_modules(self, table_results, row):
        X = table_results[row - 1][0]
        assert check_action(X.M, X.Q, X.action)
        # the automorphisms turned by one place: mostly not an action
        check_action(X.M, X.Q, X.action[1:] + X.action[:1])

    def test_non_bijective_entry_refused_before_q_is_walked(self):
        # the automorphism check precedes the bound on Q (S8 is past it)
        # and the walk over Q's relations
        M, S8 = cyclic(2), symmetric(8)
        collapse = hom(M, M, [M.identity])
        with pytest.raises(ValueError) as e:
            CrossedModule(M, S8, hom(M, S8, [S8.identity]),
                          [collapse] * len(S8.generators))
        assert type(e.value) is ValueError
        assert str(e.value) == "action entries must be automorphisms of M"


class TestTrivialGroup:
    def test_empty_base(self):
        T = PermGroup(3, [])
        assert T._base() == ()
        check_walk(T)
        check_mult(T)
        assert _product_rule(T)(0, 0) == 0

    def test_homs_into_and_out_of(self):
        T, S3 = PermGroup(3, []), symmetric(3)
        assert check_hom(T, S3, []).element_map == {T.identity: S3.identity}
        h = check_hom(S3, T, [T.identity, T.identity])
        assert set(h.element_map.values()) == {T.identity}
        check_hom(cyclic(2), PermGroup(2, []), [Permutation((1, 2))])


class TestTableModules:
    @pytest.mark.parametrize("row", range(1, 8))
    def test_walks_tables_and_homs(self, table_results, row):
        X = table_results[row - 1][0]
        for G in (X.M, X.Q):
            check_walk(G)
            check_mult(G)
        assert check_hom(X.M, X.Q, X.boundary.images).element_map == (
            X.boundary.element_map)
        for a in X.action:
            assert check_hom(X.M, X.M, a.images).element_map == a.element_map
        # the boundary images turned by one place: mostly not a hom
        turned = X.boundary.images[1:] + X.boundary.images[:1]
        check_hom(X.M, X.Q, turned)

    def test_regular_m_has_a_one_point_base(self):
        # the regular M acts regularly on the cosets of the trivial
        # subgroup, so one point fixes each element
        for row in range(1, 8):
            M = regular_m(row_inclusion(row))
            base = M._base()
            assert len(base) == 1
            keys = {tuple(p.images[b - 1] for b in base)
                    for p in M.elements()}
            assert len(keys) == M.order() == M.degree

    def test_m_acts_faithfully_on_the_cosets_of_h(self, table_results):
        # induce reads M off the cosets of the copy of P at the identity
        # coset; a full Schreier-Sims chain on its generators, which never
        # stops at a known order, finds the same order
        for row, (X, report) in enumerate(table_results, 1):
            assert report.stats["subgroup_order"] == (
                table_subgroup(row).order())
            assert X.M.degree * table_subgroup(row).order() == X.M.order()
            assert len(schreier_sims_levels(
                X.M.degree, images(X.M.generators))) == len(X.M._levels)
            assert PermGroup(X.M.degree, X.M.generators).order() == (
                X.M.order())


def test_product_tripwire(table_results, monkeypatch):
    # row 7: |M| = 128 on the 64 cosets of H; the walk, one action hom and
    # the isomorphism search's tables of M (element orders, and products
    # read off base images, with no table) each multiply out at most one
    # product per element
    X = table_results[6][0]
    assert X.M.order() == 128 and X.M.degree == 64
    M = PermGroup(X.M.degree, X.M.generators)
    calls = []
    mul = Permutation.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    for step in (M._cayley_walk,
                 lambda: GroupHom(M, M, X.action[0].images),
                 lambda: (M._element_orders(), _product_rule(M))):
        calls.clear()
        step()
        assert len(calls) <= M.order()


# ---------------------------------------------------------------------------
# orders, centres, cosets, CM2 and relators against the product oracles


def images(perms):
    return [p.images for p in perms]


def check_orders(G):
    elements = images(G.elements())
    orders = G._element_orders()
    assert orders == [cycles_order(p) for p in elements]
    assert orders == [torder(p) for p in elements]


def check_commutation(G):
    """The centre and the first noncommuting pair of generators."""
    got = {z.images for z in center(G).elements()}
    assert got == product_center(images(G.elements()), images(G.generators))
    pair = _noncommuting_pair(G)
    assert (None if pair is None else tuple(images(pair))) == (
        product_noncommuting_pair(images(G.generators)))


def check_cosets(G, N, normal=False):
    """``_right_cosets`` (and with ``normal`` the quotient's generator
    images and chain) against the product and Schreier-Sims oracles."""
    reps, coset_of = _right_cosets(G, N)
    want_reps, want_of = product_right_cosets(images(G.elements()),
                                              images(N.elements()))
    assert images(reps) == want_reps
    base = G._base()
    assert coset_of == {tuple(p.images[b - 1] for b in base): want_of[p.images]
                        for p in G.elements()}
    if normal:
        quotient_group, _ = quotient(G, N)
        assert images(quotient_group.generators) == [
            tuple(want_of[tcompose(r, g.images)] + 1 for r in want_reps)
            for g in G.generators
        ]
        # G/N acts regularly on the cosets: its one level is the full chain
        assert chain_levels(quotient_group._levels) == schreier_sims_levels(
            quotient_group.degree, images(quotient_group.generators))


def module_data(X):
    return (X.M.degree, images(X.M.generators), X.Q.degree,
            images(X.Q.generators), images(X.boundary.images),
            [images(a.images) for a in X.action])


def check_cm2(X, scan=True):
    """``_cm2_failure`` on generator pairs (and with ``scan`` on element
    pairs, with ``validate``'s witness) against the product check."""
    data = module_data(X)
    pairs = [(X.M.generators, X.M.generators)]
    if scan:
        pairs.append((X.M.elements(), X.M.elements()))
    for mps, ms in pairs:
        got = _cm2_failure(X, mps, ms)
        assert (None if got is None else tuple(images(got))) == (
            product_cm2_failure(*data, images(mps), images(ms)))
    if scan:
        witness = validate(X).cm2_witness
        assert (None if witness is None else tuple(images(witness))) == (
            crossed_module_witnesses(*data)[1])


def trivially_acted(X):
    """X with every generator of Q acting as the identity: CM2 fails
    unless M is abelian."""
    return CrossedModule(X.M, X.Q, X.boundary,
                         [identity_hom(X.M)] * len(X.Q.generators))


def check_relators(ip, boundary_images):
    """``boundary_kills_relators`` with the given boundary images of the
    copy generators against the per-letter product check on those of the
    presentation's generators; returns the verdict."""
    ip = dataclasses.replace(ip, boundary_images=tuple(boundary_images))
    want = product_relators_die(
        ip.base.degree, images([boundary_images[k] for k in ip.generators]),
        [w.letters for w in ip.presentation.relators])
    assert ip.boundary_kills_relators() == want
    return want


class TestRandomGroups:
    @settings(max_examples=60, deadline=None)
    @given(generator_lists(max_degree=7), st.data())
    def test_orders_centre_and_cosets(self, spec, data):
        G = group(*spec)
        check_orders(G)
        check_commutation(G)
        x = data.draw(st.sampled_from(G.elements()))
        check_cosets(G, G.subgroup([x]))
        check_cosets(G, normal_closure(G, [x]), normal=True)

    def test_trivial_group(self):
        T = PermGroup(3, [])
        check_orders(T)
        check_commutation(T)
        check_cosets(T, T, normal=True)
        check_cm2(trivially_acted(identity_xmod(T)))

    @settings(max_examples=40, deadline=None)
    @given(generator_lists(max_degree=5))
    def test_cm2_under_trivial_action(self, spec):
        check_cm2(trivially_acted(identity_xmod(group(*spec))))


S5 = "(1,2,3,4,5),(1,2)"
S5_JOBS = ("(1,2,3,4),(1,2)", "(1,2)")  # the two that finish


def s5_inclusion(sub):
    Q = PermGroup(5, parse_generator_list(S5, 5))
    P = Q.subgroup(parse_generator_list(sub, 5))
    return P, hom(P, Q, P.generators)


def row_inclusion(row):
    P = table_subgroup(row)
    return P, hom(P, symmetric(4), P.generators)


INCLUSIONS = ([("row", row) for row in range(1, 8)]
              + [("S5", sub) for sub in S5_JOBS])


def inclusion(case):
    kind, arg = case
    return row_inclusion(arg) if kind == "row" else s5_inclusion(arg)


@pytest.fixture(scope="module")
def s5_modules():
    return {sub: induce(identity_xmod(P), iota)[0]
            for sub, (P, iota) in ((s, s5_inclusion(s)) for s in S5_JOBS)}


@pytest.fixture
def induced(request, table_results, s5_modules):
    kind, arg = request.param
    return table_results[arg - 1][0] if kind == "row" else s5_modules[arg]


@pytest.mark.parametrize("induced", INCLUSIONS, indirect=True,
                         ids=[f"{k}-{a}" for k, a in INCLUSIONS])
class TestInducedModules:
    def test_regular_level_is_the_full_chain(self, induced, request):
        # the regular M, read off the same presentation over the trivial
        # subgroup: a regular group of the order induce finds
        M = regular_m(inclusion(request.node.callspec.params["induced"]))
        assert M._base() == (1,) and M.order() == M.degree
        assert M.order() == induced.M.order()
        assert chain_levels(M._levels) == schreier_sims_levels(
            M.degree, images(M.generators))

    def test_orders_centres_and_cosets(self, induced):
        K, D = kernel(induced.boundary), image(induced.boundary)
        for G in (induced.M, induced.Q, K):
            check_orders(G)
            check_commutation(G)
        check_cosets(induced.M, K, normal=True)
        check_cosets(induced.Q, D, normal=True)

    def test_cm2(self, induced):
        # element pairs only on the S4 rows: the S5 scans take seconds
        scan = induced.Q.degree == 4
        check_cm2(induced, scan)
        check_cm2(trivially_acted(induced), scan)


@pytest.mark.parametrize("case", INCLUSIONS,
                         ids=[f"{k}-{a}" for k, a in INCLUSIONS])
def test_relator_check(case):
    P, iota = inclusion(case)
    ip = induced_presentation(identity_xmod(P), iota)
    assert check_relators(ip, ip.boundary_images)
    # generator 0 of copy t0, the first letter of the first subgroup word,
    # sent to an element whose order does not divide its own: copy t0's
    # relators present M, so one of them dies no longer
    (j, _), = ip.subgroup_words[0].letters
    k = ip.generators[j]
    n = ip.gen_pairs[k][0].order()
    wrong = list(ip.boundary_images)
    wrong[k] = next(z for z in ip.base.elements() if n % z.order())
    assert not check_relators(ip, wrong)


def test_relator_check_needs_images_in_the_base():
    P, iota = row_inclusion(7)
    ip = induced_presentation(identity_xmod(P), iota)
    with pytest.raises(NotInGroup):
        dataclasses.replace(ip, base=P).boundary_kills_relators()


@st.composite
def relator_checks(draw):
    """A group of degree at most 6 whose chain has at least 2 base points,
    1-4 images in it and 1-3 relators over them.  With ``dying``, each
    relator is a power of an image to its order, conjugated by another, so
    every relator dies; otherwise the relators are random words of 1-6
    letters, among them one-letter relators on images that fix the first
    base point and move a later one, which a check of the first base
    point alone would pass.

    A drawn group with fewer than 2 base points gets the transpositions
    ``(a b)`` and ``(b c)`` of three drawn points.  They generate the
    symmetric group on ``{a, b, c}``, in which every point is fixed by a
    nonidentity element, so the stabiliser of the first base point is not
    trivial and the chain needs a second point."""
    degree, gens = draw(generator_lists(min_degree=3))
    G = group(degree, gens)
    if len(G._base()) < 2:
        a, b, c = draw(st.permutations(range(1, degree + 1)))[:3]
        for u, v in ((a, b), (b, c)):
            swap = list(range(1, degree + 1))
            swap[u - 1], swap[v - 1] = v, u
            gens = gens + [tuple(swap)]
        G = group(degree, gens)
    assert len(G._base()) >= 2
    imgs = draw(st.lists(st.sampled_from(G.elements()), min_size=1,
                         max_size=4))
    gens = st.integers(0, len(imgs) - 1)
    relators = []
    dying = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        if dying:
            g, h = draw(gens), draw(gens)
            relators.append(Word.of([(h, -1)] + [(g, 1)] * imgs[g].order()
                                    + [(h, 1)]))
        else:
            relators.append(Word.of(draw(st.lists(
                st.tuples(gens, st.sampled_from([1, -1])),
                min_size=1, max_size=6))))
    return G, imgs, relators, dying


class TestRelatorsOnBasePoints:
    @settings(max_examples=200, deadline=None)
    @given(relator_checks())
    def test_against_products(self, spec):
        G, imgs, relators, dying = spec
        ip = InducedPresentation(
            presentation=Presentation(len(imgs), tuple(relators)),
            base=G, boundary_images=tuple(imgs), gen_pairs=())
        want = product_relators_die(G.degree, images(imgs),
                                    [w.letters for w in relators])
        assert ip.boundary_kills_relators() == want
        assert want or not dying


# ---------------------------------------------------------------------------
# the regular M, read off a coset table over the trivial subgroup


@st.composite
def finite_presentations(draw):
    """1-3 generators, each of an order 2-6, and for each pair of them
    either a commutator or a power of their product: finite groups of up
    to about 120 elements, and some infinite ones."""
    ngens = draw(st.integers(1, 3))
    relators = [Word.of([(g, 1)] * draw(st.integers(2, 6)))
                for g in range(ngens)]
    for g in range(ngens):
        for h in range(g + 1, ngens):
            if draw(st.booleans()):
                letters = [(g, -1), (h, -1), (g, 1), (h, 1)]
            else:
                letters = [(g, 1), (h, 1)] * draw(st.integers(2, 5))
            relators.append(Word.of(letters))
    return Presentation(ngens, tuple(relators))


def regular_group(ct):
    """The group of a table over the trivial subgroup, as ``induce`` reads
    it when L = 1: the nonidentity generators on one chain level."""
    perms = [p for p in _coset_action(ct) if not p.is_identity()]
    return PermGroup._bounded(ct.ncosets, perms, ct.ncosets)


def regular_m(inclusion_pair):
    """The regular M for an inclusion: its presentation enumerated over the
    trivial subgroup."""
    P, iota = inclusion_pair
    ip = induced_presentation(identity_xmod(P), iota)
    return regular_group(todd_coxeter(ip.presentation, ()))


def counted_products(monkeypatch, build):
    """``build()`` and the number of products it formed."""
    calls = []
    mul = Permutation.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    with monkeypatch.context() as m:
        m.setattr(Permutation, "__mul__", counting)
        return build(), len(calls)


class TestRegularChain:
    @settings(max_examples=150, deadline=None)
    @given(finite_presentations())
    def test_one_level_is_the_full_chain(self, presentation):
        try:
            ct = todd_coxeter(presentation, (), 200)
        except CosetLimitExceeded:
            return  # infinite, or too big for a quick oracle
        G = regular_group(ct)
        assert G.order() == ct.ncosets
        assert chain_levels(G._levels) == schreier_sims_levels(
            G.degree, images(G.generators))
        check_orders(G)

    def test_trivial_m_has_the_empty_chain(self):
        T = PermGroup(4, [])
        X, report = induce(identity_xmod(T), hom(T, symmetric(4), []))
        assert X.M.generators == () and X.M._levels == []
        assert X.M._base() == () and X.M._element_orders() == [1]
        assert report.induced_order == 1

    def test_row_7_m_skips_the_check_loop(self, monkeypatch):
        # the regular M for row 7 and a quotient of it get their one
        # level without the check loop: building the chain forms the
        # transversal, one product per point past the first, and not one
        # Schreier generator, which would cost |M| products per generator
        P, iota = row_inclusion(7)
        ip = induced_presentation(identity_xmod(P), iota)
        ct = todd_coxeter(ip.presentation, ())
        perms = [p for p in _coset_action(ct) if not p.is_identity()]
        M, made = counted_products(
            monkeypatch,
            lambda: PermGroup._bounded(ct.ncosets, perms, ct.ncosets))
        assert M.order() == M.degree == 128
        assert made == M.degree - 1
        Q, _ = quotient(M, normal_closure(M, [M.generators[0]]))
        G, made = counted_products(
            monkeypatch,
            lambda: PermGroup._bounded(Q.degree, Q.generators, Q.degree))
        assert G.order() == Q.order() == Q.degree > 1
        assert made == Q.degree - 1


# ---------------------------------------------------------------------------
# C5's M (order 3000 on 600 points, base of two points, first orbit 600):
# element orders by cyclic subgroup and the one fill-and-prove pass, held
# to the product oracles on a group far larger than the random draws


@pytest.fixture(scope="module")
def c5_module():
    Q = symmetric(5)
    P = Q.subgroup(parse_generator_list("(1,2,3,4,5)", 5))
    return induce(identity_xmod(P), hom(P, Q, P.generators))[0]


def test_c5_m_has_two_base_points_and_an_orbit_of_600(c5_module):
    M = c5_module.M
    assert (M.order(), M.degree) == (3000, 600)
    assert len(M._base()) == 2 and len(M._levels[0]["transversal"]) == 600


def test_c5_m_element_orders(c5_module):
    M = c5_module.M
    assert M._element_orders() == [cycles_order(p)
                                   for p in images(M.elements())]


def test_c5_m_corrupted_maps_raise_the_replay_witness(c5_module):
    # the boundary and each action entry, one generator image at a time
    # moved off by a generator of the target: each breaks a relation of M,
    # and the witness is the first conflict of the product replay
    M = c5_module.M
    maps = (c5_module.boundary,) + c5_module.action
    assert len(maps) == 1 + len(c5_module.Q.generators)
    for h in maps:
        for k in range(len(M.generators)):
            corrupted = list(h.images)
            corrupted[k] = corrupted[k] * h.target.generators[-1]
            assert check_hom(M, h.target, corrupted) is None
