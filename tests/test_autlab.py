"""Stable local automorphisms, affine verdicts, normality, induced maps."""

import hashlib
import random
import sys
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcay import autlab, constructions, structure
from nilcay.autlab import (StableAutomorphisms, enumerate_local_auts,
                           induced_quotient_check, is_affine_on_ball,
                           normality_verdict)
from nilcay.cayley import (Ball, GenerationError, GenSet, check_vertex_map,
                           generate_ball, standard_genset)
from nilcay.cli import _resolve_genset
from nilcay.pcgroup import builtin, from_id
from reference import pairwise_scan, wl_rounds


@pytest.fixture(scope="module")
def z2_setup():
    p = builtin("zn", n=2)
    ball = generate_ball(p, standard_genset(p), 3)
    return p, ball, enumerate_local_auts(ball, 2)


def _closure(auts):
    """The group the generators generate, each map a frozenset of (vertex,
    image) pairs: every product of generators, built by composing maps
    rather than read off the twin quotient."""
    gens = list(auts.generators())
    identity = {v: v for members in auts.classes for v in members}
    seen = {frozenset(identity.items())}
    todo = [identity]
    while todo:
        x = todo.pop()
        for s in gens:
            y = {v: s[w] for v, w in x.items()}
            key = frozenset(y.items())
            if key not in seen:
                seen.add(key)
                todo.append(y)
    return seen


def _closure_maps(auts):
    return [dict(m) for m in _closure(auts)]


def test_z2_has_exactly_the_eight_square_symmetries(z2_setup):
    p, ball, auts = z2_setup
    assert len(auts) == 8
    signed_perms = set()
    for mapping in _closure_maps(auts):
        img_x, img_y = mapping[(1, 0)], mapping[(0, 1)]
        signed_perms.add((img_x, img_y))
    assert signed_perms == {
        ((1, 0), (0, 1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)),
        ((-1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)), ((0, -1), (-1, 0))}


def test_radius_zero_gives_identity_only():
    p = builtin("zn", n=2)
    ball = generate_ball(p, standard_genset(p), 0)
    auts = enumerate_local_auts(ball, 2)
    assert len(auts) == 1


def test_every_enumerated_aut_passes_vertex_map_check(z2_setup):
    p, ball, auts = z2_setup
    for mapping in _closure_maps(auts):
        assert check_vertex_map(ball, ball, mapping)
        assert mapping[p.identity] == p.identity


@pytest.mark.parametrize("gid,gens", [("klein_bottle", "std"), ("zxz2", "fsf")])
def test_auts_come_in_canonical_order(gid, gens):
    """The generators come in one fixed order: the lifts of the strong
    generators in the order found, each mapping a class onto its image
    member by member, then the transpositions of neighbouring members,
    class by class; the classes and their members are in vertex order.
    The base is the classes other than {e} by (distance, least member),
    searched from the last base point up, so each strong generator fixes
    the base points before the first it moves, and that point comes no
    later in the base than the previous generator's."""
    p = from_id(gid)
    ball = generate_ball(p, _resolve_genset(p, gens), 4)
    auts = enumerate_local_auts(ball, 2)
    classes, strong = auts.classes, auts.strong_generators
    assert all(list(c) == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    base = sorted((k for k, c in enumerate(classes) if c != (p.identity,)),
                  key=lambda k: (ball.dist_list[ball.index[classes[k][0]]], k))
    moved = [next(i for i, b in enumerate(base) if images[b] != b)
             for images in strong]
    assert moved == sorted(moved, reverse=True)
    assert len(auts.orbit_lengths) == len(base)
    gens = [sorted(m.items()) for m in auts.generators()]
    assert gens == [sorted(m.items())
                    for m in enumerate_local_auts(ball, 2).generators()]
    lifts = [sorted((v, w) for c, k in zip(classes, images)
                    for v, w in zip(c, classes[k])) for images in strong]
    swaps = [[(u, w), (w, u)] for c in classes for u, w in zip(c, c[1:])]
    assert gens[:len(lifts)] == lifts
    assert [[(v, w) for v, w in m if v != w]
            for m in gens[len(lifts):]] == [sorted(s) for s in swaps]


def test_klein_stable_auts_include_flip_restriction():
    k = builtin("klein_bottle")
    ball = generate_ball(k, standard_genset(k), 4)
    auts = enumerate_local_auts(ball, 2)
    flip = constructions.klein_flip_map(4)
    assert frozenset(flip.mapping.items()) in _closure(auts)
    assert len(auts) == 8  # pulled-back grid symmetries


def test_left_translation_is_affine():
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 3)
    big = generate_ball(p, standard_genset(p), 5)
    g = (1, 1, 0)
    mapping = {v: p.multiply(g, v) for v in ball.vertices}
    # images live in the bigger ball; check multiplicativity via the verdict
    verdict = is_affine_on_ball(ball, big, mapping)
    assert verdict.affine
    assert verdict.translation == g
    assert all(verdict.alpha_on_generators[s] == s
               for s in ball.genset.elements)


def test_flip_map_is_not_affine():
    bm = constructions.klein_flip_map(8)
    verdict = is_affine_on_ball(bm.source, bm.source, bm.mapping)
    assert not verdict.affine
    assert verdict.witness is not None
    # yet it maps the generating set bijectively onto itself
    assert verdict.alpha_on_generators is not None
    assert set(verdict.alpha_on_generators.values()) == set(
        bm.source.genset.elements)


def test_twin_swap_is_not_affine():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    gens = constructions.fsf_generating_set(
        zx, F, GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, gens, 5)
    swap = constructions.twin_swap_map(ball, (3, 0), (3, 1))
    verdict = is_affine_on_ball(ball, ball, swap)
    assert not verdict.affine
    # the swap fixes every generator vertex, so phi is the identity, and
    # (3, 0), at distance 3, is the first vertex the swap moves
    assert verdict.witness == ((3, 0),)
    assert verdict.reason == "the map differs from h phi at this interior vertex"


@pytest.mark.parametrize("image,witness,reason", [
    # b and b^-1 both go to b
    ({(0, -1, 0): (0, 1, 0)}, ((0, -1, 0), (0, 1, 0)),
     "the two generators share an image"),
    ({(0, -1, 0): (1, 1, 0)}, ((0, -1, 0),),
     "the generator's image is outside the target generating set"),
])
def test_generators_not_mapped_bijectively_name_their_witness(image, witness,
                                                              reason):
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 3)
    mapping = {v: image.get(v, v) for v in ball.vertices}
    verdict = is_affine_on_ball(ball, ball, mapping)
    assert not verdict.affine
    assert (verdict.witness, verdict.reason) == (witness, reason)


def test_generating_sets_of_different_sizes_are_not_affine():
    p = builtin("zn", n=2)
    ball = generate_ball(p, standard_genset(p), 2)
    big = GenSet(p, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    verdict = is_affine_on_ball(ball, generate_ball(p, big, 2),
                                {v: v for v in ball.vertices})
    assert not verdict.affine and verdict.witness is None
    assert verdict.reason == ("the generating sets differ in size: 4 source "
                              "and 6 target generators")


def test_affine_composition(z2_setup):
    p, ball, auts = z2_setup
    # B(5) of Z^2 has no twins, so each generator is a strong generator's lift
    m1, m2 = auts.generators()
    v1 = is_affine_on_ball(ball, ball, m1)
    v2 = is_affine_on_ball(ball, ball, m2)
    composed = {v: m2[m1[v]] for v in ball.vertices}
    vc = is_affine_on_ball(ball, ball, composed)
    assert vc.affine
    want_h = p.multiply(v2.translation, v2.alpha_on_generators.get(
        v1.translation, v1.translation)) if v1.translation != p.identity \
        else v2.translation
    assert vc.translation == want_h == p.identity  # e-fixing maps compose


def _heisenberg_automorphism(m, v):
    """(a, b) -> m (a, b), c -> c^det m, on normal forms a^x b^y c^z.

    The built-in product is (x, y, z)(x', y', z') = (x + x', y + y',
    z + z' - x'y); in the coordinates (x, y, z + xy/2) it is the symplectic
    product, which a linear map of determinant d scales by d.
    """
    (p, q), (r, s) = m
    d = p * s - q * r
    x, y, z = v
    x2, y2 = p * x + q * y, r * x + s * y
    return (x2, y2, d * z + (d * x * y - x2 * y2) // 2)


SIGNED_PERMUTATIONS = [m for s in (1, -1) for t in (1, -1)
                       for m in (((s, 0), (0, t)), ((0, s), (t, 0)))]


@pytest.mark.parametrize("m", SIGNED_PERMUTATIONS)
def test_certificate_reports_pc_generator_images(m):
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 6)
    rng = random.Random(repr(m))
    h = tuple(rng.randint(-5, 5) for _ in range(3))
    mapping = {v: p.multiply(h, _heisenberg_automorphism(m, v))
               for v in ball.vertices}
    verdict = is_affine_on_ball(ball, ball, mapping)
    (a, b), (c, d) = m
    assert verdict.affine and verdict.translation == h
    assert verdict.alpha_on_pc_generators == ((a, c, 0), (b, d, 0),
                                              (0, 0, a * d - b * c))
    assert verdict.alpha_on_generators == {
        s: _heisenberg_automorphism(m, s) for s in ball.genset.elements}
    assert "alpha_on_pc_generators" not in verdict.to_witness_dict()


def _stable_cases(gid):
    p = from_id(gid)
    ball = generate_ball(p, standard_genset(p), 4)
    return [(ball, ball, m) for m in _closure_maps(enumerate_local_auts(ball, 2))]


def _klein_flip_case(r):
    flip = constructions.klein_flip_map(r)
    return [(flip.source, flip.source, flip.mapping)]


def _twin_swap_case():
    zx = from_id("zxz2")
    fsf = constructions.fsf_generating_set(
        zx, structure.torsion_subgroup(zx), GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, fsf, 5)
    return [(ball, ball, constructions.twin_swap_map(ball, (3, 0), (3, 1)))]


def _induced_quotient_cases():
    """The quotient balls and maps that ``induced_quotient_check`` hands to
    the affine check, for the twin swap and a fibre permutation of zxz2."""
    zx = from_id("zxz2")
    N = structure.torsion_subgroup(zx)
    fsf = constructions.fsf_generating_set(
        zx, N, GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, fsf, 5)
    lifted = generate_ball(zx, constructions.lift_generating_set(
        zx, [(1,), (-1,)]), 5)
    fibres = {v: (v[0], 1 - v[1]) if v[0] % 3 == 1 else v
              for v in lifted.vertices}
    calls = []

    def capture(qa, qb, qmap):
        calls.append((qa, qb, qmap))
        return is_affine_on_ball(qa, qb, qmap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autlab, "is_affine_on_ball", capture)
        for b, mapping in ((ball, constructions.twin_swap_map(ball, (3, 0), (3, 1))),
                           (lifted, fibres)):
            assert induced_quotient_check(b, b, mapping).verdict == "pass"
    assert len(calls) == 2
    return calls


def _broken_on_last_shell_case():
    """An affine map of Heisenberg B(5) with the images of two vertices of
    the last interior shell exchanged."""
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 5)
    m = ((0, 1), (-1, 0))
    mapping = {v: p.multiply((1, 2, -3), _heisenberg_automorphism(m, v))
               for v in ball.vertices}
    u, w = [v for v in ball.interior_vertices()
            if ball.distance_from_identity(v) == 4][:2]
    mapping[u], mapping[w] = mapping[w], mapping[u]
    return [(ball, ball, mapping)]


ORACLE_CASES = {
    "z2-stable-(4,2)": lambda: _stable_cases("z2"),
    "z3-stable-(4,2)": lambda: _stable_cases("z3"),
    "heisenberg-stable-(4,2)": lambda: _stable_cases("heisenberg"),
    "klein-flip-B4": lambda: _klein_flip_case(4),
    "klein-flip-B5": lambda: _klein_flip_case(5),
    "klein-flip-B6": lambda: _klein_flip_case(6),
    "zxz2-fsf-twin-swap": _twin_swap_case,
    "induced-quotient-maps": _induced_quotient_cases,
    "heisenberg-broken-on-last-shell": _broken_on_last_shell_case,
}


def _verdict_key(v):
    return (v.affine, v.translation, v.alpha_on_generators)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_certificate_agrees_with_pairwise_scan(case):
    """On these maps the certificate and the scan agree on the verdict; the
    witnesses differ, a relation or vertex against a pair."""
    for ball_a, ball_b, mapping in ORACLE_CASES[case]():
        fast = is_affine_on_ball(ball_a, ball_b, mapping)
        scan = pairwise_scan(ball_a, ball_b, mapping)
        assert _verdict_key(fast) == _verdict_key(scan)
        assert scan.affine or not fast.affine
        assert (fast.alpha_on_pc_generators is not None) == fast.affine
        assert fast.affine or fast.witness is not None


# generating sets of torsion-free subgroups of the Heisenberg group, from a
# seeded sweep, whose (2,1) survivors include non-affine maps: set A, every
# first coordinate even, generates a subgroup of index 2; set B generates G
HEISENBERG_SWEEP_SETS = [
    "-2,0,0;-2,1,0;0,-2,-1;0,2,1;2,-1,2;2,0,0",
    "-2,1,1;-2,2,-1;-1,2,1;1,-2,1;2,-2,5;2,-1,1",
]


def _survivor_generator_cases(gid, genset, r, t):
    p = from_id(gid)
    ball = generate_ball(p, _resolve_genset(p, genset), r)
    return [(ball, ball, m) for m in enumerate_local_auts(ball, t).generators()]


# (group, generating set, radius, stability, the certificate's witnesses on
#  the generators the scan passes and the certificate refutes)
SCAN_IS_WEAKER = [
    # the Klein flip: no global affine map extends it
    ("klein_bottle", "std", 2, 2, [("conj", 1, 0)]),
    ("heisenberg", HEISENBERG_SWEEP_SETS[1], 2, 1,
     [("conj", 1, 0), ((-2, 1, 1),)]),
]


@pytest.mark.parametrize("gid,genset,r,t,witnesses", SCAN_IS_WEAKER,
                         ids=["klein-(2,2)", "sweep-set-B-(2,1)"])
def test_certificate_refutes_maps_the_scan_passes(gid, genset, r, t, witnesses):
    """The scan asks only that alpha be multiplicative on interior pairs,
    which these survivor generators are, though no homomorphism of the whole
    group agrees with them on the interior: a relation fails, or alpha
    differs from phi at an interior vertex."""
    refuted = []
    for ball_a, ball_b, mapping in _survivor_generator_cases(gid, genset, r, t):
        fast = is_affine_on_ball(ball_a, ball_b, mapping)
        scan = pairwise_scan(ball_a, ball_b, mapping)
        assert scan.affine or not fast.affine
        if scan.affine and not fast.affine:
            refuted.append(fast.witness)
    assert refuted == witnesses


def test_pc_generator_outside_the_ball_is_certified_through_words():
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 3)
    assert (0, 0, 1) not in ball
    # c = [a, b] = a^-1 b^-1 a b, a word of length 4
    assert [[ball.genset.elements[i] for i in w]
            for w in ball.genset.pc_words()] == [
        [(1, 0, 0)], [(0, 1, 0)],
        [(-1, 0, 0), (0, -1, 0), (1, 0, 0), (0, 1, 0)]]
    mapping = {v: p.multiply((2, -1, 3), v) for v in ball.vertices}
    verdict = is_affine_on_ball(ball, ball, mapping)
    assert verdict.affine
    assert verdict.alpha_on_pc_generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _verdict_key(verdict) == _verdict_key(
        pairwise_scan(ball, ball, mapping))


def test_broken_relation_is_the_witness():
    # the Klein flip: a -> b, b -> a breaks a^-1 b a = b^-1
    flip = constructions.klein_flip_map(4)
    verdict = is_affine_on_ball(flip.source, flip.source, flip.mapping)
    assert not verdict.affine and verdict.alpha_on_pc_generators is None
    assert verdict.witness == ("conj", 1, 0)
    assert verdict.reason == ("the images of the pc generators break the "
                              "relation conj b by a")
    assert not pairwise_scan(flip.source, flip.source, flip.mapping).affine
    # zxz2: x <-> t keeps S = {x, x^-1, t}, but x^2 != e breaks t^2 = e
    zx = from_id("zxz2")
    ball = generate_ball(zx, standard_genset(zx), 3)
    mapping = {v: {(1, 0): (0, 1), (0, 1): (1, 0)}.get(v, v)
               for v in ball.vertices}
    verdict = is_affine_on_ball(ball, ball, mapping)
    assert (verdict.affine, verdict.witness) == (False, ("pow", 1))
    assert verdict.reason == ("the images of the pc generators break the "
                              "relation pow t")


def _swap_a_and_b_case():
    """(x, y, z) -> (y, x, z) on Heisenberg B(4): on S it agrees with the
    automorphism a <-> b, c -> c^-1, which the relations allow, and not
    beyond."""
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 4)
    return ball, {(x, y, z): (y, x, z) for x, y, z in ball.vertices}, \
        (0, 0, 0), ((0, 1), (1, 0)), (-1, -1, -1)


def _shell_broken_case():
    (ball, _, mapping), = _broken_on_last_shell_case()
    return ball, mapping, (1, 2, -3), ((0, 1), (-1, 0)), None


@pytest.mark.parametrize("case", [_swap_a_and_b_case, _shell_broken_case])
def test_first_disagreement_is_the_least_vertex_off_h_phi(case):
    """Against a brute force: h phi(v) for every interior v from phi's
    closed form, and the least v by (distance, vertex) where m differs."""
    ball, mapping, h, m, want = case()
    p = ball.presentation
    verdict = is_affine_on_ball(ball, ball, mapping)
    assert verdict.translation == h
    affine = {v: p.multiply(h, _heisenberg_automorphism(m, v))
              for v in ball.interior_vertices()}
    off = min((ball.distance_from_identity(v), v)
              for v in ball.interior_vertices() if mapping[v] != affine[v])
    assert verdict.witness == (off[1],)
    assert want is None or off[1] == want
    assert verdict.reason == "the map differs from h phi at this interior vertex"


def test_relation_check_reads_the_power_relations():
    zx = from_id("zxz2")
    x, t = zx.generator(0), zx.generator(1)
    assert autlab._broken_relation(zx, zx, (x, t)) is None
    # x commutes with x, but x^2 = t^2 = e fails
    assert autlab._broken_relation(zx, zx, (x, x)) == ("pow", 1)


def test_certificate_costs_linearly_many_products(monkeypatch):
    """B(8) holds c; B(3) does not, and reaches it through its S-word.  The
    words are computed once per generating set, before the count."""
    p = builtin("heisenberg")
    calls = 0
    multiply = p.multiply

    def counting(x, y):
        nonlocal calls
        calls += 1
        return multiply(x, y)

    for r in (8, 3):
        ball = generate_ball(p, standard_genset(p), r)
        mapping = {v: p.multiply((3, -2, 5), v) for v in ball.vertices}
        ball.genset.pc_words()
        calls = 0
        with monkeypatch.context() as mp:
            mp.setattr(p, "multiply", counting)
            verdict = is_affine_on_ball(ball, ball, mapping)
        assert verdict.affine and verdict.alpha_on_pc_generators is not None
        # the scan takes |interior|^2, over a million products at r = 8
        assert calls <= 2 * len(ball)


def test_normality_verdicts():
    z2 = builtin("zn", n=2)
    rep = normality_verdict(z2, standard_genset(z2), 3, 2)
    assert rep.verdict == "normal-at-(3,2)" and rep.ok
    k = builtin("klein_bottle")
    repk = normality_verdict(k, standard_genset(k), 4, 2)
    assert repk.verdict == "non-normal" and repk.witnesses
    zx = from_id("zxz2")
    fsf = constructions.fsf_generating_set(
        zx, structure.torsion_subgroup(zx),
        GenSet(zx, [(1, 0), (-1, 0)])).genset
    repf = normality_verdict(zx, fsf, 4, 2)
    assert repf.verdict == "non-normal"


def test_non_normal_witness_is_the_first_non_affine_generator():
    """zxz2 FSF (4,2): the lifts (identity and x -> x^-1) are affine, and
    so is the swap of the twins (-4,0), (-4,1), which fixes the interior
    B(3); the next swap is the witness."""
    zx = from_id("zxz2")
    rep = normality_verdict(zx, _resolve_genset(zx, "fsf"), 4, 2)
    assert rep.verdict == "non-normal" and rep.ok
    moved = [(v, w) for v, w in rep.witnesses[0]["map"] if v != w]
    assert moved == [((-3, 0), (-3, 1)), ((-3, 1), (-3, 0))]
    assert rep.notes == [
        "the witness is the first non-affine generator: it is not affine on "
        "B(4), and shows a non-affine automorphism of the whole graph only if "
        "it extends beyond B(6)"]


@pytest.mark.parametrize("genset", [
    HEISENBERG_SWEEP_SETS[0],
    pytest.param(HEISENBERG_SWEEP_SETS[1], marks=pytest.mark.xfail(
        strict=True, reason="a non-affine survivor is reported as non-normal "
        "without a certificate that it extends to an automorphism of the "
        "whole graph")),
])
def test_torsion_free_sweep_sets_are_not_non_normal(genset):
    """By the paper every automorphism of a Cayley graph of a torsion-free
    nilpotent group is affine, so no verdict here may be non-normal."""
    p = builtin("heisenberg")
    rep = normality_verdict(p, _resolve_genset(p, genset), 2, 1)
    assert rep.verdict != "non-normal"


def test_a_proper_subgroup_is_inconclusive_before_the_search(monkeypatch):
    """Set A generates a subgroup of index 2, which the exact test finds
    before any ball beyond B(2) is built: the search never runs."""
    p = builtin("heisenberg")
    radii = []

    def recording(presentation, genset, radius, max_vertices=None):
        radii.append(radius)
        return generate_ball(presentation, genset, radius, max_vertices)

    monkeypatch.setattr(autlab, "generate_ball", recording)
    rep = normality_verdict(p, _resolve_genset(p, HEISENBERG_SWEEP_SETS[0]), 2, 1)
    assert (rep.verdict, rep.ok, rep.witnesses) == ("inconclusive", None, [])
    assert radii == [2]
    assert "stable_automorphisms" not in rep.parameters
    assert rep.notes == [
        "the generating set generates a proper subgroup of Heisenberg: pc "
        "generator a is outside <S>[G, G], which has index 2 in G; the affine "
        "check reads the relations of the whole group, so it cannot decide "
        "here"]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_klein_is_non_normal_at_radius_two(t):
    """The Klein flip is a global automorphism that no affine map extends;
    the certificate names the relation it breaks at every window."""
    k = builtin("klein_bottle")
    rep = normality_verdict(k, standard_genset(k), 2, t)
    assert (rep.verdict, rep.ok) == ("non-normal", True)
    assert rep.witnesses[0]["affine_failure"]["witness"] == ("conj", 1, 0)


def test_non_normal_witness_persists_at_larger_radius():
    k = builtin("klein_bottle")
    for r in (3, 4, 5):
        bm = constructions.klein_flip_map(r)
        assert bm.check()
        assert not is_affine_on_ball(bm.source, bm.source, bm.mapping).affine


@pytest.mark.parametrize("r", range(4, 9))
def test_zxz2_fsf_order_has_its_closed_form(r):
    """zxz2 FSF (r,2) has 2 * 2^(2r) stable maps: x -> x^-1 on the twin
    quotient times the bijections of the 2r twin pairs (x^k, x^k t),
    0 < |k| <= r; a swap of one pair is not affine."""
    zx = from_id("zxz2")
    rep = normality_verdict(zx, _resolve_genset(zx, "fsf"), r, 2)
    assert rep.verdict == "non-normal" and rep.ok
    assert rep.parameters["stable_automorphisms"] == 2 ** (2 * r + 1)


# heisenberg_z3 FSF (3,1), past 2^63
HEISENBERG_Z3_FSF_ORDER = 465_570_015_819_704_098_930_448_409_862_964_904_984_576


@pytest.mark.parametrize("gid,r,t,order", [
    ("zn_cross_cyclic:1,3", 3, 1, 186_624),
    ("heisenberg_z3", 3, 1, HEISENBERG_Z3_FSF_ORDER),
])
def test_fsf_orders_are_exact(gid, r, t, order):
    """Twin classes of size 3 make these orders far larger than any list of
    maps; the order is read off the basic orbits and the class sizes."""
    p = from_id(gid)
    ball = generate_ball(p, _resolve_genset(p, "fsf"), r)
    start = time.perf_counter()
    auts = enumerate_local_auts(ball, t)
    assert time.perf_counter() - start < 2.0
    assert auts.order == order


@pytest.mark.parametrize("gid,genset,r,t,order", [
    ("heisenberg", "std", 2, 1, 31_104),
    *(("heisenberg", g, 2, 1, 1_024) for g in HEISENBERG_SWEEP_SETS),
    ("heisenberg_z3", "fsf", 3, 1, HEISENBERG_Z3_FSF_ORDER),
])
def test_order_agrees_with_sympy(gid, genset, r, t, order):
    """sympy's Schreier-Sims order of the group the generators generate, as
    permutations of the ball, against the order from the basic orbits."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    p = from_id(gid)
    ball = generate_ball(p, _resolve_genset(p, genset), r)
    auts = enumerate_local_auts(ball, t)
    perms = [combinatorics.Permutation([ball.index[m[v]] for v in ball.vertices])
             for m in auts.generators()]
    assert combinatorics.PermutationGroup(perms).order() == auts.order == order


def test_aut_e_orbits(z2_setup):
    p, ball, auts = z2_setup
    assert set(auts.orbit((1, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert auts.orbit(p.identity) == (p.identity,)
    with pytest.raises(ValueError, match="element is not in the ball"):
        auts.orbit((ball.radius + 1, 0))
    zx = from_id("zxz2")
    S = GenSet(zx, [(1, 0), (-1, 0), (0, 1)])
    orb = enumerate_local_auts(generate_ball(zx, S, 4), 2).orbit((0, 1))
    assert set(orb) <= {(0, 0), (0, 1)}


def test_orbit_is_stable_under_every_aut(z2_setup):
    p, ball, auts = z2_setup
    orbit = set(auts.orbit((1, 0)))
    for mapping in _closure_maps(auts):
        assert {mapping[v] for v in orbit} == orbit


def test_induced_quotient_check_identity_and_swap():
    zx = from_id("zxz2")
    N = structure.torsion_subgroup(zx)
    fsf = constructions.fsf_generating_set(
        zx, N, GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, fsf, 5)
    ident = {v: v for v in ball.vertices}
    rep = induced_quotient_check(ball, ball, ident)
    assert rep.verdict == "pass"
    swap = constructions.twin_swap_map(ball, (3, 0), (3, 1))
    rep2 = induced_quotient_check(ball, ball, swap)
    assert rep2.verdict == "pass"
    assert "induced translation part: (0,)" in rep2.notes[0]


def test_induced_quotient_check_fiber_permutation():
    # permute torsion fibers independently over each base point
    zx = from_id("zxz2")
    lifted = constructions.lift_generating_set(zx, [(1,), (-1,)])
    ball = generate_ball(zx, lifted, 5)
    mapping = {}
    for v in ball.vertices:
        flip = v[0] % 3 == 1
        mapping[v] = (v[0], 1 - v[1]) if flip and v[0] != 0 else v
    rep = induced_quotient_check(ball, ball, mapping)
    assert rep.verdict == "pass"


def test_induced_quotient_check_catches_coset_breaker():
    zx = from_id("zxz2")
    lifted = constructions.lift_generating_set(zx, [(1,), (-1,)])
    ball = generate_ball(zx, lifted, 5)
    bad = {v: v for v in ball.vertices}
    bad[(2, 0)], bad[(3, 0)] = (3, 0), (2, 0)  # crosses cosets
    rep = induced_quotient_check(ball, ball, bad)
    assert rep.verdict == "fail" and rep.witnesses
    # below radius 2 the containment check still runs: t and x swapped on
    # B(1) send the coset {e, t} to {e, x}
    ball = generate_ball(zx, standard_genset(zx), 1)
    bad = {v: v for v in ball.vertices}
    bad[(0, 1)], bad[(1, 0)] = (1, 0), (0, 1)
    rep = induced_quotient_check(ball, ball, bad)
    assert (rep.verdict, rep.ok) == ("fail", False)
    assert rep.witnesses == [{"coset_of": (0, 0), "offender": (0, 1), "ratio": (1, 0)}]


# (group id, explicit generating set or None, radius, stability)
VF2_CASES = [
    ("z", None, 4, 2),
    ("z2", None, 3, 1),
    ("z2", None, 3, 2),
    ("z2", "1,0;-1,0;0,1;0,-1;1,1;-1,-1", 2, 2),
    ("z3", None, 2, 1),
    ("klein_bottle", None, 3, 1),
    ("klein_bottle", None, 4, 2),
    ("zxz2", None, 3, 1),
    ("zxz2", None, 3, 2),
    # twin-rich: 128, 128 and 512 maps, and 72 maps with classes of size 3
    ("zxz2", "fsf", 3, 1),
    ("zxz2", "fsf", 3, 2),
    ("zxz2", "fsf", 4, 1),
    ("zn_cross_cyclic:1,3", "fsf", 1, 1),
]


def _check_group(ball, auts, maps):
    """The closure of the generators is ``maps``, a set of frozen maps, and
    has the order ``len(auts)``; the orbits are those of the closure; and at
    r >= 2 every generator is affine exactly when every map is."""
    closure = _closure(auts)
    assert closure == maps
    assert len(closure) == len(auts)
    as_dicts = [dict(m) for m in closure]
    for v in ball.vertices:
        assert auts.orbit(v) == tuple(sorted({m[v] for m in as_dicts}))
    if ball.radius >= 2:
        assert all(is_affine_on_ball(ball, ball, m).affine
                   for m in auts.generators()) == all(
            is_affine_on_ball(ball, ball, m).affine for m in as_dicts)


@pytest.mark.parametrize("gid,gens,r,t", VF2_CASES)
def test_local_auts_agree_with_vf2(gid, gens, r, t):
    """The search against a second enumerator: networkx VF2 lists every
    automorphism of the graph on B(r+t) that fixes e, restricted to B(r).
    VF2 runs on the ball itself, with no twin collapse, so the FSF cases
    check the search's twin quotient and the group's generators and order.

    Heisenberg is left out: boundary twins give its B(4) more than 20,000
    such automorphisms, and VF2 lists them one by one, far too slowly for a
    unit test.
    """
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    p = from_id(gid)
    S = _resolve_genset(p, gens)
    big = generate_ball(p, S, r + t)
    graph = nx.Graph()
    for i, d in enumerate(big.dist_list):
        graph.add_node(i, dist=d)
    graph.add_edges_from((i, w) for i in range(len(big)) for w in big.neighbor_ids(i))
    matcher = GraphMatcher(graph, graph, node_match=lambda a, b: a["dist"] == b["dist"])
    small = [i for i, d in enumerate(big.dist_list) if d <= r]
    vf2 = {frozenset((big.vertices[i], big.vertices[m[i]]) for i in small)
           for m in matcher.isomorphisms_iter()}
    ball = generate_ball(p, S, r)
    _check_group(ball, enumerate_local_auts(ball, t), vf2)


def test_twin_quotient_keeps_e_apart_from_its_twins():
    zx = from_id("zxz2")
    big = generate_ball(zx, _resolve_genset(zx, "fsf"), 3)
    classes, nbrs, e_q = autlab._twin_quotient(big)
    assert classes[e_q] == [big.index[zx.identity]]
    assert sorted(tuple(big.vertices[i] for i in c) for c in classes) == sorted(
        [((0, 0),), ((0, 1),)] + [((x, 0), (x, 1)) for x in (-3, -2, -1, 1, 2, 3)])
    # twin_classes keeps e with its twin (0,1), a class of the whole ball
    assert ((0, 0), (0, 1)) in constructions.twin_classes(big)
    # the quotient of a path: x^k joined to x^(k+-1), e and (0,1) to x^+-1
    named = {tuple(big.vertices[i] for i in classes[q]):
             sorted(big.vertices[classes[w][0]] for w in row)
             for q, row in enumerate(nbrs)}
    assert named[((0, 0),)] == named[((0, 1),)] == [(-1, 0), (1, 0)]
    assert named[((2, 0), (2, 1))] == [(1, 0), (3, 0)]


def test_twin_quotient_keeps_class_sizes():
    """A hand-made graph in the shape of a ball: e joined to a and b, a to
    the twins x1, x2 and b to y alone.  On the quotient, A-X and B-Y look
    alike; only the class sizes keep the search from exchanging them."""
    p = builtin("zn", n=1)
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
    # flat rows of width 3, the most neighbours of a vertex, -1 padding
    targets = [-1] * 18
    for u, w in edges:
        targets[targets.index(-1, 3 * u)] = w
        targets[targets.index(-1, 3 * w)] = u
    verts = tuple((i,) for i in range(6))
    graph = Ball(p, None, 2, verts, {v: i for i, v in enumerate(verts)},
                 [0, 1, 1, 2, 2, 2], targets, list(range(6)))
    classes, gens, lengths, _ = autlab._stable_restrictions(graph, 2)
    assert sorted(chain.from_iterable(classes)) == list(range(6))
    assert gens == () and lengths == (1, 1, 1, 1)
    assert _as_tuples(_closure(StableAutomorphisms(classes, gens, lengths))) == [
        (0, 1, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5)]


def _as_tuples(maps):
    """The maps as tuples of images in vertex order, sorted."""
    return sorted(tuple(w for _, w in sorted(m)) for m in maps)


# (group id, generating set, radius, stability, search nodes, order, sha256
#  of the sorted maps of the group, sha256 of the search's (classes,
#  generators, orbit lengths)).  Both digests were measured when the search
#  still took forced vertices by rank from a key heap, at 4597, 1155, 17,
#  292, 2581, 7542 and 11984 nodes.
SEARCH_PINS = [
    ("heisenberg", "std", 5, 2, 3070, 8,
     "9b807fc5475df6a103344bfc1086216b554c0bd10f7c3a4287266d8b5789b070",
     "add79ea5355b26055568d7828f8450238b54da57ab30c11e619f42573354f6c9"),
    ("z3", "std", 4, 2, 1131, 48,
     "75c388cdfb7e458fbebeb6de20792b42c907e1dc73d98970ab52093dae4aa74d",
     "dba839db740a713204f2fbf1343ea80d3b06d6a4f0e1c72368a855dc4f0157e0"),
    ("zxz2", "fsf", 6, 2, 17, 8192,
     "1d7554555cc151017b9c974d16a31c5c7aead57b62fa6c4ba20cd8ce77bc86c6",
     "c7c8c8954bebe6364de37279a795b281117200eb7b498df3e81f5ab8a86c811b"),
    ("klein_bottle", "std", 6, 2, 289, 8,
     "e2e4c601675968fb31d5124f230e69cd854bc7d4110ea7d6e3aeaf8c36463420",
     "27e1317c286207b8e231f62285ef36254e9a331e1809f75748ce1620094f11a7"),
    ("heisenberg_z3", "std", 3, 2, 1976, 16,
     "a89bb380d584ea9df5511112fd9b4e9774fa421f6ce9cc8acc71799cd149fcec",
     "15de1be31d6c064655cb77780d909603104ab9eb6a23beacf57d317c2a7f65e2"),
    # above acceptance
    ("heisenberg", "std", 6, 2, 5400, 8,
     "e109504bcbc0f479cb2414ade3e9094e47e6beb0e2348b3ad97ccc59bb4b6aa7",
     "0e5227b843cbe6177b4e6c71c4462a861dca9ac2022c5ddce169596feefc2207"),
    ("heisenberg", "std", 7, 2, 9023, 8,
     "3224185ad3f7e20c324affee5c1ac5af9e3338846cd543df33b86e287770c0b8",
     "13dc8dbb16dbca43ae3fbae446275756ecb85336619f47d5eafa6943cf69d1d4"),
]


@pytest.mark.parametrize("gid,gens,r,t,nodes,count,digest,search_digest",
                         SEARCH_PINS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in SEARCH_PINS])
def test_search_nodes_and_order_are_pinned(gid, gens, r, t, nodes, count,
                                           digest, search_digest):
    """The search's node count, the group its generators generate, and the
    generators themselves.  The group digest is over the group's maps as
    tuples of vertex ids, sorted, so it pins the group whatever generators
    the search finds; the search digest pins the generators."""
    p = from_id(gid)
    big = generate_ball(p, _resolve_genset(p, gens), r + t)
    classes, gens, lengths, visited = autlab._stable_restrictions(big, r)
    assert sorted(chain.from_iterable(classes)) == [
        i for i, d in enumerate(big.dist_list) if d <= r]
    assert hashlib.sha256(repr((classes, gens, lengths)).encode()
                          ).hexdigest() == search_digest
    auts = StableAutomorphisms(classes, gens, lengths)
    found = _as_tuples(_closure(auts))
    assert visited == nodes
    assert len(found) == count == auts.order
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


def _same_partition(a, b):
    """Whether the two colourings split the vertices alike, up to renaming."""
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def _is_equitable(colors, nbr):
    """Whether any two vertices of a colour have as many neighbours of each
    colour."""
    profile = {}
    for c, row in zip(colors, nbr):
        counts = sorted(colors[w] for w in row)
        if profile.setdefault(c, counts) != counts:
            return False
    return True


@st.composite
def _seeded_graphs(draw):
    """An undirected graph without loops as neighbour rows, and seed keys
    from a few values, so that cells of several vertices are common."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rows = [set() for _ in range(n)]
    for u, w in pairs:
        if u != w:
            rows[u].add(w)
            rows[w].add(u)
    seed = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return seed, [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(_seeded_graphs())
def test_splitter_refinement_matches_wl_rounds(graph):
    seed, nbr = graph
    colors = autlab._wl_colors(seed, nbr)
    assert _same_partition(colors, wl_rounds(seed, nbr))
    assert _is_equitable(colors, nbr)
    assert len(set(zip(seed, colors))) == len(set(colors))   # finer than the seed


def test_splitter_refinement_matches_wl_rounds_on_the_search_balls(monkeypatch):
    """On the twin quotient of every pinned search ball, with the seed keys
    ``_stable_restrictions`` gives it, the splitter refinement reaches the
    partition of the round-based refinement."""
    calls = []

    def spy(seed, nbr):
        colors = refine(seed, nbr)
        calls.append((seed, nbr, colors))
        return colors

    refine = autlab._wl_colors
    monkeypatch.setattr(autlab, "_wl_colors", spy)
    for gid, gens, r, t, *_ in SEARCH_PINS:
        p = from_id(gid)
        big = generate_ball(p, _resolve_genset(p, gens), r + t)
        autlab._stable_restrictions(big, r)
        (seed, nbr, colors), = calls
        calls.clear()
        classes, nbrs, _ = autlab._twin_quotient(big)
        assert nbr == nbrs and len(seed) == len(classes)
        assert _same_partition(colors, wl_rounds(seed, nbr)), (gid, gens, r, t)
        assert _is_equitable(colors, nbr)


def test_twin_quotient_groups_equal_neighbour_sets():
    """The classes are the vertices of B(r + t) with equal sets of
    neighbours in the ball, e alone, sorted by least member, and each class
    row names the classes of its members' neighbours."""
    for gid, gens, r, t in (("zxz2", "fsf", 4, 2), ("heisenberg_z3", "fsf", 2, 1),
                            ("heisenberg", "std", 3, 2)):
        p = from_id(gid)
        big = generate_ball(p, _resolve_genset(p, gens), r + t)
        classes, nbrs, e_q = autlab._twin_quotient(big)
        e_id = big.index[p.identity]
        by_set = {}
        for v in range(len(big)):
            key = "e" if v == e_id else frozenset(big.neighbor_ids(v))
            by_set.setdefault(key, []).append(v)
        assert classes == sorted(by_set.values()) and classes[e_q] == [e_id]
        cls = {v: q for q, members in enumerate(classes) for v in members}
        for q, members in enumerate(classes):
            for v in members:
                assert set(nbrs[q]) == {cls[w] for w in big.neighbor_ids(v)}
            assert len(set(nbrs[q])) == len(nbrs[q])


@pytest.mark.parametrize("r,t,nodes,branchings",
                         [(5, 2, 3070, 7), (2, 1, 238, 55)],
                         ids=["heisenberg-5-2", "heisenberg-2-1"])
def test_the_search_branches_only_at_a_fixpoint(monkeypatch, r, t, nodes,
                                                branchings):
    """The pick that scans the frontier chooses a vertex with two or more
    candidates only when no domain of size 0 or 1 is pending.  On
    Heisenberg (2,1) the scan also meets one-candidate domains left from
    the state a completion starts from, and must take those first.  Forced
    picks are nearly all the search: (5,2) branches 7 times in 3070 nodes."""
    made = []

    def spy(frontier, rank, suffix, n):
        v = pick(frontier, rank, suffix, n)
        if len(frontier[v]) >= 2:
            assert all(len(dom) >= 2 for dom in frontier.values())
            made.append(v)
        return v

    pick = autlab._fixpoint_pick
    monkeypatch.setattr(autlab, "_fixpoint_pick", spy)
    p = builtin("heisenberg")
    big = generate_ball(p, standard_genset(p), r + t)
    assert autlab._stable_restrictions(big, r)[3] == nodes
    assert len(made) == branchings


def test_search_leaves_the_recursion_limit_alone():
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 4)
    before = sys.getrecursionlimit()
    # the search assigns all 593 vertices of B(6), one level each; an
    # explicit stack needs no interpreter frames for that depth
    sys.setrecursionlimit(250)
    try:
        auts = enumerate_local_auts(ball, 2)
        assert sys.getrecursionlimit() == 250
    finally:
        sys.setrecursionlimit(before)
    assert len(auts) == 8


@pytest.mark.parametrize("r,t", [(3, 1), (3, 2)])
def test_heisenberg_local_auts_agree_with_twin_quotient_vf2(r, t):
    """VF2 on the twin quotient of the Heisenberg ball B(r+t).

    Twins (equal neighbour sets) are permuted freely by automorphisms, which
    makes VF2 on the ball itself list far too many maps. Collapsing each
    twin class to one vertex labelled (distance, class size) leaves a graph
    whose distance-preserving automorphisms are those of the ball modulo
    twin permutations. B(r) holds only singleton classes, so each quotient
    automorphism restricts to one map on B(r).
    """
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    p = builtin("heisenberg")
    S = standard_genset(p)
    big = generate_ball(p, S, r + t)
    nbrs = [frozenset(big.neighbor_ids(i)) for i in range(len(big))]
    classes = {}
    for i, ns in enumerate(nbrs):
        classes.setdefault(ns, []).append(i)
    cls = {i: members[0] for members in classes.values() for i in members}
    assert all(len(classes[nbrs[i]]) == 1
               for i, d in enumerate(big.dist_list) if d <= r)
    quotient = nx.Graph()
    for members in classes.values():
        quotient.add_node(members[0], label=(big.dist_list[members[0]], len(members)))
    quotient.add_edges_from((cls[i], cls[w]) for i, ns in enumerate(nbrs) for w in ns)
    matcher = GraphMatcher(quotient, quotient,
                           node_match=lambda a, b: a["label"] == b["label"])
    small = [i for i, d in enumerate(big.dist_list) if d <= r]
    vf2 = {frozenset((big.vertices[i], big.vertices[m[i]]) for i in small)
           for m in matcher.isomorphisms_iter()}
    ball = generate_ball(p, S, r)
    auts = enumerate_local_auts(ball, t)
    assert len(auts) == 8
    _check_group(ball, auts, vf2)
