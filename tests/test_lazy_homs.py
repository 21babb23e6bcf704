"""Homomorphisms that keep keys, and maps out of the induced M proved by
the walk rule.

A ``GroupHom`` keeps the target's base images of each value and
multiplies values out only when ``element_map`` is read.  These checks hold
it to the product replay of ``support``: the same element map, the same
injectivity and surjectivity, the same kernel generators (members sifted in
ascending order) and the same ``RelationViolated`` witness, on random
groups and on the action entries of the S4 table's M and of finite
quotients of free crossed modules, each also corrupted one image at a time.

``induce`` reads M on an irredundant sublist of its coset permutations, and
proves the boundary and the action on the ``|M|·(k-1)+1`` Schreier edges
of M's Cayley walk for k generators.  After ``induce``, no action entry has
multiplied out its values.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import closure, product_replay, tidentity
from xmodlab import perm
from xmodlab.errors import RelationViolated
from xmodlab.fp import Presentation, Word, _coset_action, todd_coxeter
from xmodlab.induce import _word_image, free_crossed_module_presentation
from xmodlab.perm import (
    GroupHom,
    PermGroup,
    Permutation,
    abelian_invariants,
    cyclic,
    direct_product,
    fingerprint,
    gl23,
    kernel,
    normal_closure,
    parse_permutation,
    quotient,
    symmetric,
)
from xmodlab.xmod import identity_xmod, pi1

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


@st.composite
def small_groups(draw):
    """A group of degree at most 6 on 1-3 generators, repeats and the
    identity allowed."""
    degree = draw(st.integers(1, 6))
    points = list(range(1, degree + 1))
    gens = draw(st.lists(st.permutations(points), min_size=1, max_size=3))
    return PermGroup(degree, [Permutation(g) for g in gens])


@st.composite
def assignments(draw):
    """A source group, a target and images of the source generators: a
    conjugation into S_n, a projection onto a quotient, the sign or the
    trivial map, all homomorphisms, or images drawn at random from a
    target, mostly not."""
    G = draw(small_groups())
    kind = draw(st.sampled_from(
        ["conjugation", "quotient", "sign", "trivial", "random"]))
    if kind == "conjugation":
        c = Permutation(draw(st.permutations(range(1, G.degree + 1))))
        return G, symmetric(G.degree), [g.conj(c) for g in G.generators]
    if kind == "quotient":
        N = normal_closure(G, [draw(st.sampled_from(G.elements()))])
        Q, proj = quotient(G, N)
        return G, Q, list(proj.images)
    if kind in ("sign", "trivial"):
        C2 = cyclic(2)
        odd = [kind == "sign" and sign(g) < 0 for g in G.generators]
        return G, C2, [C2.generators[0] if o else C2.identity for o in odd]
    T = draw(st.sampled_from([G, symmetric(draw(st.integers(1, 4)))]))
    return G, T, [draw(st.sampled_from(T.elements())) for _ in G.generators]


def sign(p):
    return (-1) ** sum(len(c) - 1 for c in p.cycles())


def sifted_oracle(degree, members):
    """Members, ascending, each kept when outside the closure of those kept
    before it: the generators ``kernel`` promises."""
    kept, group = [], {tidentity(degree)}
    for m in sorted(members):
        if m not in group:
            kept.append(m)
            group = closure(degree, kept)
    return kept


class TestAgainstProductReplay:
    @settings(max_examples=150, deadline=None)
    @given(assignments())
    def test_map_injectivity_surjectivity_kernel_and_witness(self, spec):
        G, T, images = spec
        expected, conflict = product_replay(
            G.degree, [g.images for g in G.generators],
            T.degree, [im.images for im in images])
        try:
            h = GroupHom(G, T, images)
        except RelationViolated as exc:
            assert conflict is not None
            assert exc.witness.images == conflict
            return
        assert conflict is None
        values = list(expected.values())
        one = tidentity(T.degree)
        assert h.is_injective() == (values.count(one) == 1)
        assert h.is_surjective() == (len(set(values)) == T.order())
        members = [p for p, v in expected.items() if v == one]
        assert [k.images for k in kernel(h).generators] == sifted_oracle(
            G.degree, members)
        # the values are multiplied out only now, and agree
        assert "element_map" not in vars(h)
        assert {p.images: v.images for p, v in h.element_map.items()} == (
            expected)


# ---------------------------------------------------------------------------
# the walk rule on the induced M and on free quotients


def free_quotient(P, relation, power):
    """The free crossed module on one relation of P, made finite by the
    relators ``x^power`` on every generator: M regular on the cosets of the
    trivial subgroup, on the coset permutations that enlarge the group (as
    ``induce`` reads M), and each generator of P's action as images of M's
    generators.

    The action permutes the generators, and it maps each Peiffer relator
    ``x^-1 y x (y^(dx))^-1`` to the one at the images of x and y, and each
    power to a power: it respects the relators, so every generator of P
    acts by an automorphism.
    """
    ip = free_crossed_module_presentation(P, [("r", relation)])
    pres = ip.presentation
    powers = tuple(Word.of([(k, 1)] * power) for k in range(pres.ngens))
    pres = Presentation(pres.ngens, pres.relators + powers)
    ct = todd_coxeter(pres, ())
    perms = _coset_action(ct)
    M = perm._sifted(ct.ncosets, perms, order=ct.ncosets)
    keep = [perms.index(g) for g in M.generators]
    action = [[_word_image(ip.act_gen(k, q), perms) for k in keep]
              for q in P.generators]
    return M, action


def walk_cases(table_results):
    """(M, images of M's generators for one generator of the base group)
    for every action entry of the S4 table and of three free quotients."""
    cases = [(X.M, list(a.images)) for X, _ in table_results
             for a in X.action]
    for P, relation, power in ((symmetric(3), "(1,2,3)", 3),
                               (symmetric(3), "(1,2)", 4),
                               (cyclic(2), "(1,2)", 3)):
        M, action = free_quotient(P, parse_permutation(relation, P.degree),
                                  power)
        assert M.order() > 1
        cases += [(M, images) for images in action]
    return cases


def corruptions(M, images):
    """The images with one of them replaced by the next element of M, for
    each position in turn."""
    elements = M.elements()
    index = M.element_index()
    for k, im in enumerate(images):
        turned = list(images)
        turned[k] = elements[(index[im] + 1) % len(elements)]
        yield turned


def test_walk_rule_matches_product_replay_on_induced_and_free_modules(
        table_results):
    # each action entry and each of its corruptions: GroupHom accepts
    # exactly when the product replay does, with the same values, and
    # otherwise raises the replay's witness
    rejected = accepted = 0
    for M, images in walk_cases(table_results):
        gens = [g.images for g in M.generators]
        for turned in [images] + list(corruptions(M, images)):
            expected, conflict = product_replay(
                M.degree, gens, M.degree, [im.images for im in turned])
            if conflict is None:
                accepted += 1
                h = GroupHom(M, M, turned)
                assert {p.images: v.images
                        for p, v in h.element_map.items()} == expected
            else:
                rejected += 1
                with pytest.raises(RelationViolated) as exc:
                    GroupHom(M, M, turned)
                assert exc.value.witness.images == conflict
    assert rejected and accepted


# ---------------------------------------------------------------------------
# tripwire: induce keeps an irredundant generating set, proves each map out
# of M on its Schreier edges and multiplies out no action entry


def record_walks(monkeypatch):
    """(source, edges checked) of every map proved by the walk rule
    (``_tree_values`` with a violation message) from now on.  Each element
    but the identity takes its value from one step, along its tree edge, so
    the steps past those ``|G| - 1`` are the edges checked."""
    walks = []
    fill = perm._tree_values

    def recording(G, start, images, step, violation=None):
        steps = [0]

        def counted(*args):
            steps[0] += 1
            return step(*args)

        if violation is None:
            return fill(G, start, images, step)
        values = fill(G, start, images, counted, violation)
        walks.append((G, steps[0] - (G.order() - 1)))
        return values

    monkeypatch.setattr(perm, "_tree_values", recording)
    return walks


def s5_jobs():
    spec = importlib.util.spec_from_file_location("s5_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    state = workloads.WORKLOADS["s5_induce"].inputs()
    return [job for group in workloads.s5_groups(state) for job in group]


def assert_walk_rule_on_irredundant_m(X, walks):
    M = X.M
    gens = M.generators
    for i, g in enumerate(gens):
        assert g not in PermGroup(M.degree, gens[:i])
    assert all("element_map" not in vars(a) for a in X.action)
    steps = [n for G, n in walks if G is M]
    # the boundary and one entry per generator of Q, at least
    assert len(steps) >= 1 + len(X.action)
    assert set(steps) == {M.order() * (len(gens) - 1) + 1}


def test_table_rows_walk_irredundant_generators(monkeypatch):
    from xmodlab.induce import run_table_full

    walks = record_walks(monkeypatch)
    for X, _ in run_table_full():
        assert_walk_rule_on_irredundant_m(X, walks)


def test_s5_jobs_walk_irredundant_generators(monkeypatch):
    walks = record_walks(monkeypatch)
    for job in s5_jobs():
        X, report = job.run({})
        assert job.check((X, report)) == "ok"
        assert_walk_rule_on_irredundant_m(X, walks)


def test_induce_reads_no_boundary_values():
    # the boundary of X and the inclusion are read through their generator
    # images and keys: neither multiplies out a value
    from xmodlab.induce import induce
    from xmodlab.perm import hom

    S5 = symmetric(5)
    P = S5.subgroup([parse_permutation(c, 5) for c in ("(1,2,3,4)", "(1,2)")])
    X = identity_xmod(P)
    iota = hom(P, S5, P.generators)
    Xi, _ = induce(X, iota)
    assert Xi.M.order() == 120
    assert "element_map" not in vars(X.boundary)
    assert "element_map" not in vars(iota)


def test_invariants_build_no_projection(table_results, monkeypatch):
    # pi1, fingerprints and invariant factors read only the quotient group,
    # so no homomorphism is built and proved on the way
    built = []
    init = GroupHom.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    G, A, X6 = gl23(), direct_product(cyclic(4), cyclic(6)), table_results[5][0]
    monkeypatch.setattr(GroupHom, "__init__", counting)
    assert fingerprint(G).abelianization == (2,)
    assert abelian_invariants(A) == [2, 12]
    assert pi1(X6).order() == 2
    assert built == []
