"""Bi-order comparators, convex segments, distortion."""

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from nilcay import cayley, order, pcgroup
from nilcay.cayley import GenSet, generate_ball, standard_genset
from nilcay.order import (BiOrder, BiOrderUnavailable, NotAGeneratorError,
                          classify_distorted, convexity_check,
                          distortion_profile, max_generator)
from nilcay.pcgroup import builtin, from_id
from reference import (HEISENBERG_ONE_BLOCK_SOURCE, UT4_SOURCE,
                       isolator_closed_form)

FILIFORM = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "filiform4.pc"


@pytest.fixture(scope="module")
def z2_order():
    return BiOrder(builtin("zn", n=2))


@pytest.fixture(scope="module")
def heis_order():
    return BiOrder(builtin("heisenberg"))


def test_lex_comparisons(z2_order):
    assert z2_order.compare((0, 1), (1, 0)) == order.LESS
    assert z2_order.compare((0, 0), (1, 0)) == order.LESS
    assert z2_order.compare((2, 5), (2, 5)) == order.EQUAL


def test_heisenberg_block_order(heis_order):
    c, b, a = (0, 0, 1), (0, 1, 0), (1, 0, 0)
    assert heis_order.compare(c, b) == order.LESS
    assert heis_order.compare(b, a) == order.LESS
    assert heis_order.compare(heis_order.presentation.identity, c) == order.LESS


def test_refusals():
    with pytest.raises(BiOrderUnavailable):
        BiOrder(builtin("klein_bottle"))
    with pytest.raises(BiOrderUnavailable):
        BiOrder(from_id("zxz2"))


def _block_rule(p, x, y):
    """The comparison as the filtration defines it: the first block, then
    the first coordinate in it, where x^-1 y is nonzero decides; x^-1 y
    comes from the collector, not from the compiled product."""
    d = p._collect_product(p._collect_inverse(x), y)
    for block in p.blocks:
        for i in block:
            if d[i] > 0:
                return order.LESS
            if d[i] < 0:
                return order.GREATER
    return order.EQUAL


# blocks b / a / c, admissible weights b = 1, a = 2, c = 3: the scan is
# b, a, c, not the index order, so compare computes x^-1 y
HEISENBERG_BAC_SOURCE = """\
group HeisenbergBAC
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen c order inf
conj b by a = b*c^-1
conjinv b by a = b*c
block b
block a
block c
genset a a^-1 b b^-1
"""


def _comparison_case(name):
    one_block = re.sub(r"(?m)^block .*\n", "", FILIFORM.read_text()) + "block a b c d\n"
    sources = {"filiform": FILIFORM.read_text(), "ut4": UT4_SOURCE,
               "heisenberg_one_block": HEISENBERG_ONE_BLOCK_SOURCE,
               "heisenberg_bac": HEISENBERG_BAC_SOURCE,
               # no admissible weights, and collection is not linear: no
               # compiled path at all
               "filiform_one_block": one_block,
               # a scan out of index order that no weights give
               "heisenberg_one_block_cab": HEISENBERG_ONE_BLOCK_SOURCE.replace(
                   "block a b c", "block c a b")}
    return (pcgroup.parse_presentation(sources[name]) if name in sources
            else from_id(name))


@pytest.mark.parametrize("name", ["z3", "heisenberg", "filiform", "ut4",
                                  "heisenberg_one_block", "heisenberg_bac",
                                  "filiform_one_block", "heisenberg_one_block_cab"])
def test_compare_is_the_block_rule_on_seeded_pairs(name):
    """Where the scan is the index order compare reads x and y and computes
    no product; otherwise it computes x^-1 y.  Pairs share a prefix, or are
    x and x*g with g 0 on a prefix of the scan, so late coordinates decide
    too."""
    p = _comparison_case(name)
    o = BiOrder(p)
    out_of_order = name.endswith(("_bac", "_cab"))
    assert (o._scan != tuple(range(p.n))) == out_of_order
    products = []

    def counted(x, y):
        products.append((x, y))
        return p._collect_product(x, y)

    p.multiply = counted
    rng = random.Random(f"compare:{name}")
    for _ in range(3000):
        x = tuple(rng.randint(-3, 3) for _ in range(p.n))
        keep = rng.randint(0, p.n)
        y = x[:keep] + tuple(rng.randint(-3, 3) for _ in range(p.n - keep))
        g = dict(zip(o._scan, [0] * keep + [rng.randint(-3, 3) for _ in range(p.n - keep)]))
        z = p._collect_product(x, tuple(g[i] for i in range(p.n)))
        assert o.compare(x, y) == _block_rule(p, x, y)
        assert o.compare(x, z) == _block_rule(p, x, z)
    assert bool(products) == out_of_order


def _scan_rule(p, scan, x, y):
    """The sign rule of ``comparator(scan)``, on the collector's x^-1 y."""
    d = p._collect_product(p._collect_inverse(x), y)
    return next((-1 if d[i] > 0 else 1 for i in scan if d[i]), 0)


def test_the_lexicographic_rule_needs_its_conditions():
    """In the scan c, a, b of the Heisenberg group with one block, some x
    and y differ first at a but x^-1 y is nonzero at c: the comparator must
    compute x^-1 y there."""
    p = _comparison_case("heisenberg_one_block_cab")
    x, y = (1, -1, 0), (2, -1, 0)
    read = [(v[2], v[0], v[1]) for v in (x, y)]
    assert read[0] < read[1]
    assert p._collect_product(p._collect_inverse(x), y)[2] != 0
    assert BiOrder(p).compare(x, y) == _block_rule(p, x, y) == order.GREATER


@pytest.mark.parametrize("name", ["heisenberg", "filiform", "heisenberg_z3"])
def test_only_the_index_order_of_a_torsion_free_group_is_lexicographic(name):
    """Every scan of the first three coordinates gets the lexicographic
    comparator only when it is the index order and the group is torsion
    free, though the Heisenberg weights (1, 1, 2) are admissible; each
    comparator is the sign rule and is kept per scan.  In the Heisenberg
    groups (1, -1, 0) is below (2, -1, 0) in the index order but above it
    in the scan c, a, b."""
    p = _comparison_case(name)
    rng = random.Random(f"scans:{name}")
    for head in itertools.permutations(range(3)):
        scan = head + tuple(range(3, p.n))
        compare = p.comparator(scan)
        assert p.comparator(scan) is compare
        assert (compare is pcgroup._lexicographic) == (
            scan == tuple(range(p.n)) and not p.torsion_len)
        pairs = [((1, -1, 0) + (0,) * (p.n - 3), (2, -1, 0) + (0,) * (p.n - 3))]
        pairs += [tuple(tuple(rng.randrange(m) if m else rng.randint(-3, 3)
                              for m in p.orders) for _ in "xy") for _ in range(300)]
        for x, y in pairs:
            assert compare(x, y) == _scan_rule(p, scan, x, y)
    x, y = pairs[0]
    assert p.comparator((0, 1, 2) + tuple(range(3, p.n)))(x, y) == -1
    assert p.comparator((2, 0, 1) + tuple(range(3, p.n)))(x, y) == (
        1 if name.startswith("heisenberg") else -1)


@pytest.mark.parametrize("name", ["heisenberg", "heisenberg_bac",
                                  "heisenberg_one_block_cab"])
def test_compare_through_the_class_binds_nothing(name):
    """``BiOrder.compare(o, x, y)``, the call a tracer's class wrapper
    makes, gives ``o.compare(x, y)`` and stores nothing on o; both routes
    use the one comparator the presentation keeps for the scan."""
    p = _comparison_case(name)
    o, bound = BiOrder(p), BiOrder(p)
    kept = p.comparator(o._scan)
    rng = random.Random(f"class route:{name}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-3, 3) for _ in range(p.n)) for _ in "xy")
        assert BiOrder.compare(o, x, y) == bound.compare(x, y)
    assert "compare" not in vars(o) and "compare" in vars(bound)
    assert p.comparator(o._scan) is kept and bound.compare is kept


def test_totality_and_antisymmetry(heis_order):
    p = heis_order.presentation
    rng = random.Random(21)
    for _ in range(2000):
        x = tuple(rng.randint(-10, 10) for _ in range(3))
        y = tuple(rng.randint(-10, 10) for _ in range(3))
        c1, c2 = heis_order.compare(x, y), heis_order.compare(y, x)
        if x == y:
            assert c1 == c2 == order.EQUAL
        else:
            assert c1 == -c2 != order.EQUAL


def test_bi_invariance_sampled(heis_order):
    p = heis_order.presentation
    rng = random.Random(22)
    for _ in range(2000):
        a, b, x, y = (tuple(rng.randint(-8, 8) for _ in range(3))
                      for _ in range(4))
        c = heis_order.compare(x, y)
        if c == order.EQUAL:
            continue
        lhs = p.multiply(p.multiply(a, x), b)
        rhs = p.multiply(p.multiply(a, y), b)
        assert heis_order.compare(lhs, rhs) == c


def test_product_monotonicity(z2_order):
    p = z2_order.presentation
    rng = random.Random(23)
    for _ in range(2000):
        a, b, c, d = (tuple(rng.randint(-9, 9) for _ in range(2))
                      for _ in range(4))
        if z2_order.compare(a, b) == order.GREATER:
            a, b = b, a
        if z2_order.compare(c, d) == order.GREATER:
            c, d = d, c
        ac, bd = p.multiply(a, c), p.multiply(b, d)
        got = z2_order.compare(ac, bd)
        if a == b and c == d:
            assert got == order.EQUAL
        else:
            assert got == order.LESS


def test_max_generator(z2_order, heis_order):
    z2 = z2_order.presentation
    assert max_generator(z2_order, standard_genset(z2)) == (1, 0)
    h = heis_order.presentation
    assert max_generator(heis_order, standard_genset(h)) == (1, 0, 0)
    singleton = GenSet(z2, [(0, 1), (0, -1)])
    assert max_generator(z2_order, singleton) == (0, 1)


def test_max_generator_checks_its_result_without_assert(monkeypatch, z2_order):
    """An order whose maximum of S does not exceed e is refused, also under
    ``python -O``."""
    z2 = z2_order.presentation
    monkeypatch.setattr(BiOrder, "max_element", lambda self, elements: min(elements))
    with pytest.raises(BiOrderUnavailable, match=re.escape(
            "the declared filtration is not a bi-order, its largest generator "
            "-1,0 does not exceed the identity")):
        max_generator(z2_order, standard_genset(z2))


def test_convexity_checks():
    z2 = builtin("zn", n=2)
    ball = generate_ball(z2, standard_genset(z2), 6)
    assert convexity_check(ball, (1, 0), 5).verdict == "pass"
    h = builtin("heisenberg")
    bh = generate_ball(h, standard_genset(h), 6)
    assert convexity_check(bh, (1, 0, 0), 5).verdict == "pass"
    with pytest.raises(NotAGeneratorError):
        convexity_check(ball, (1, 1), 3)
    # no power is checked below k = 1, so there is nothing to certify
    for kmax in (0, -3):
        with pytest.raises(ValueError, match="kmax must be at least 1"):
            convexity_check(ball, (1, 0), kmax)
    # a torsion generator fails convexity: its square is the identity
    zx = from_id("zxz2")
    bz = generate_ball(zx, standard_genset(zx), 4)
    rep = convexity_check(bz, (0, 1), 4)
    assert rep.verdict == "fail" and rep.witnesses


def test_convexity_fail_with_many_geodesics_is_a_report():
    # (2,0) = (1,0)^2 has five geodesics: (1,0)(1,0) and (1,j)(1,-j), j = +-1, +-2
    z2 = builtin("zn", n=2)
    S = GenSet(z2, [(a * x, a * y) for a in (1, -1)
                    for x, y in ((1, 0), (1, 1), (1, -1), (1, 2), (1, -2))])
    rep = convexity_check(generate_ball(z2, S, 2), (1, 0), 2)
    assert rep.verdict == "fail"
    assert rep.witnesses == [{"k": 2, "count": 5,
                              "paths": [((1, -2), (1, 2)), ((1, -1), (1, 1))]}]


def test_distortion_profile_pinned_values():
    h = builtin("heisenberg")
    S = standard_genset(h)
    prof = distortion_profile(h, S, (0, 0, 1), 16)
    assert prof.ks == [1, 2, 4, 8, 16]
    assert prof.dists == [4, 6, 8, 12, 16]
    assert prof.ratios[0] == Fraction(4)
    assert prof.ratios[-1] == Fraction(1)


def test_abelianized_bound_reaches_twice_the_radius(monkeypatch):
    # dist(e, g^8) = 48 in Z^3 is certified from the sphere of the image
    # ball B(32), without growing it to B(48)
    radii = []
    grow = cayley.DistanceBall.grow

    def spy(grown, radius):
        radii.append(radius)
        return grow(grown, radius)

    monkeypatch.setattr(cayley.DistanceBall, "grow", spy)
    z3 = builtin("zn", n=3)
    prof = distortion_profile(z3, standard_genset(z3), (1, 2, 3), 8)
    assert prof.dists == [6, 12, 24, 48]
    assert max(radii) == 32


def _grown_case(name):
    p = (pcgroup.parse_presentation(FILIFORM.read_text()) if name == "filiform4.pc"
         else from_id(name))
    return p, standard_genset(p)


def _ball_sphere(ball):
    """The vertices of a Ball at distance ``radius``, read from its dist_list."""
    return [v for v, d in zip(ball.vertices, ball.dist_list) if d == ball.radius]


def _sphere_distance(ball, x):
    """dist(e, x) met in the middle on the Ball's sphere, None past 2R."""
    d = ball.distance_from_identity(x)
    if d is not None:
        return d
    p = ball.presentation
    within = [ball.distance_from_identity(p.multiply(y, x)) for y in _ball_sphere(ball)]
    best = min((r for r in within if r is not None), default=None)
    return None if best is None else ball.radius + best


@pytest.mark.parametrize("name,radii", [
    ("heisenberg", (4, 8, 16)), ("klein_bottle", (4, 8, 16)), ("zxz2", (4, 8, 16)),
    ("filiform4.pc", (4, 8)),
    # C3 is all of B(1): the shell comes out empty and stays so
    ("zn_cross_cyclic:0,3", (4, 8, 16)),
])
def test_grown_ball_matches_generate_ball_at_each_radius(name, radii):
    """After each growth the distances and the sphere are those of
    ``generate_ball`` at that radius, and the sphere certificate agrees with
    meeting in the middle on the Ball's sphere: exactly up to 2R on all of B(2R + 1) at R = 4, and
    on seeded words of length R to 2R + 1 above it."""
    p, S = _grown_case(name)
    grown = cayley.DistanceBall(S, cayley.vertex_budget())
    rng = random.Random(f"grown:{name}")
    for R in radii:
        grown.grow(R)
        assert grown.radius == R
        ball = generate_ball(p, S, R)
        assert grown.dists == {v: ball.dist_list[i] for v, i in ball.index.items()}
        assert sorted(grown.shell) == sorted(_ball_sphere(ball))
        assert bool(grown.shell) == (max(ball.dist_list) == R)
        if R == 4:
            big = generate_ball(p, S, 2 * R + 1)
            xs = dict(zip(big.vertices, big.dist_list))
        else:
            xs = {}
            for _ in range(100):
                x = p.identity
                for _ in range(rng.randint(R, 2 * R + 1)):
                    x = p.multiply(x, rng.choice(S.elements))
                xs[x] = None
        for x, d in xs.items():
            got = grown.distance_via_sphere(x)
            assert got == _sphere_distance(ball, x), (x, R)
            if d is not None:
                assert got == (d if d <= 2 * R else None), (x, d)


def test_grown_ball_of_a_finite_subgroup_stops_growing():
    # <t> = C2 in Z x Z/2: B(4) is all of it, so (1, 0) is outside <S>
    zx = from_id("zxz2")
    grown = cayley.DistanceBall(GenSet(zx, [(0, 1)]), cayley.vertex_budget())
    assert grown.dist((0, 1), None) == 1 and grown.radius == 4
    assert grown.shell == [] and grown.dist((1, 0), None) is None
    assert grown.radius == 4 and grown.failed_radius is None


def test_a_growth_past_the_budget_leaves_the_ball_as_it_was():
    # |B(4)| = 135 and |B(8)| = 1,793 in the Heisenberg group
    h = builtin("heisenberg")
    S = standard_genset(h)
    grown = cayley.DistanceBall(S, 1000)
    grown.grow(4)
    dists, shell = dict(grown.dists), list(grown.shell)
    # |B(7)| = 1,069 is the first ball past 1,000
    with pytest.raises(cayley.BallBudgetError,
                       match="^ball exceeded vertex budget 1000 at radius 7$"):
        grown.grow(8)
    assert (grown.dists, grown.shell, grown.radius) == (dists, shell, 4)
    assert list(grown.dists) == list(dists)
    # B(4) still certifies distances up to 8, and none beyond
    assert grown.distance_via_sphere((0, 0, 4)) == 8
    assert grown.distance_via_sphere((0, 0, 16)) is None
    first = cayley.DistanceBall(S, 50)
    with pytest.raises(cayley.BallBudgetError, match="at radius 3$"):   # |B(3)| = 53
        first.grow(4)
    assert (first.dists, first.shell, first.radius) == ({h.identity: 0}, [h.identity], 0)


def test_the_profile_expands_each_vertex_once(monkeypatch):
    # the kmax-64 profile of c grows B(4), B(8) and B(16): every vertex of
    # B(15) is multiplied by S once, and B(3) and B(7) are not rebuilt
    h = builtin("heisenberg")
    S = standard_genset(h)
    calls = [0]
    right_multiplier = h.right_multiplier

    def spy(elements):
        step = right_multiplier(elements)

        def counted(u):
            calls[0] += 1
            return step(u)

        return counted

    monkeypatch.setattr(h, "right_multiplier", spy)
    prof = distortion_profile(h, S, (0, 0, 1), 64)
    assert prof.dists == [4, 6, 8, 12, 16, 24, 32]
    monkeypatch.undo()
    assert calls[0] == len(generate_ball(h, S, 15))


def test_classification_matches_analytic_table():
    h = builtin("heisenberg")
    S = standard_genset(h)
    assert classify_distorted(h, S, (0, 0, 1), kmax=16)[0] == "distorted"
    assert classify_distorted(h, S, (1, 0, 0), kmax=16)[0] == "undistorted"
    assert classify_distorted(h, S, (0, 1, 0), kmax=16)[0] == "undistorted"
    # B(16) (27,905 vertices) certifies dist(c^64) = 32 from its sphere
    verdict, prof, _ = classify_distorted(h, S, (0, 0, 1), kmax=64, max_vertices=30000)
    assert verdict == "distorted"
    assert prof.dists == [4, 6, 8, 12, 16, 24, 32]
    z2 = builtin("zn", n=2)
    S2 = standard_genset(z2)
    assert classify_distorted(z2, S2, (1, 0), kmax=64)[0] == "undistorted"
    assert classify_distorted(z2, S2, (0, 1), kmax=64)[0] == "undistorted"
    # b lies in the isolator of [K, K] = <b^2> but spans a coordinate of the
    # index-2 subgroup <a^2, b> = Z^2, so it is undistorted: Klein is not
    # nilpotent
    k = builtin("klein_bottle")
    for g in ((1, 0), (0, 1)):
        verdict, prof, _ = classify_distorted(k, standard_genset(k), g, kmax=64)
        assert verdict == "undistorted"
        assert prof.dists == [1, 2, 4, 8, 16, 32, 64]
    # user presentations: the profile's shape alone would say the opposite
    # verdict; the rational abelianization overrides it
    heis = pcgroup._HEISENBERG_SOURCE
    every_coordinate = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1)]
    cases = [
        ("gen x order inf\nblock x\ngenset x^3 x^-3 x^5 x^-5\n", None, (1,), 64,
         "undistorted", [3, 2, 4, 2, 4, 8, 14], "certified undistorted"),
        (heis, every_coordinate, (0, 0, 1), 16,
         "inconclusive", [1, 2, 4, 8, 16], "so it is distorted (Osin)"),
        (heis, None, (0, 0, 1), 1, "inconclusive", [4], "so it is distorted (Osin)"),
    ]
    for source, genset, g, kmax, want, dists, note in cases:
        p = pcgroup.parse_presentation(source)
        S = standard_genset(p) if genset is None else GenSet(p, genset)
        verdict, prof, rep = classify_distorted(p, S, g, kmax=kmax)
        assert (verdict, prof.dists) == (want, dists)
        assert len(rep.notes) == 1 and note in rep.notes[0]
    # dist(e, 1) = 11 > 4 * |1|: the ball grows until its sphere reaches it
    z = builtin("zn", n=1)
    verdict, prof, rep = classify_distorted(z, GenSet(z, [(11,), (-11,), (13,), (-13,)]),
                                            (1,), kmax=4)
    assert (verdict, prof.dists) == ("undistorted", [11, 2, 4])
    assert "certified undistorted" in rep.notes[0]


# every element of B(2) other than e in each of these built-ins, at each kmax
SWEEP_IDS = ("z", "z2", "z3", "zn:4", "heisenberg", "klein_bottle", "zxz2",
             "heisenberg_z3", "zn_cross_cyclic:0,3", "zn_cross_cyclic:1,4")
SWEEP_KMAX = (1, 2, 3, 4, 8)
# elements of finite order whose profile at this kmax is a run of equal
# ratios >= 1, so it looks undistorted
FINITE_ORDER_LOOKALIKES = {
    ("zxz2", (0, 1), 1),
    ("heisenberg_z3", (0, 0, 0, 1), 1),
    ("heisenberg_z3", (0, 0, 0, 2), 1),
    ("zn_cross_cyclic:0,3", (1,), 1),
    ("zn_cross_cyclic:0,3", (2,), 1),
    ("zn_cross_cyclic:1,4", (0, 1), 1),
    ("zn_cross_cyclic:1,4", (0, 1), 2),
    ("zn_cross_cyclic:1,4", (0, 2), 1),
    ("zn_cross_cyclic:1,4", (0, 3), 1),
    ("zn_cross_cyclic:1,4", (0, 3), 2),
}


def test_distortion_verdicts_agree_with_the_closed_form_isolator():
    calls, lookalikes = 0, set()
    for gid in SWEEP_IDS:
        p = from_id(gid)
        S = standard_genset(p)
        in_isolator = isolator_closed_form(gid)
        for g in generate_ball(p, S, 2).vertices:
            if g == p.identity:
                continue
            # outside the isolator g is undistorted in any group, inside it
            # distorted in a nilpotent group (Osin); the Klein bottle has both
            want = ("undistorted" if not in_isolator(g)
                    else "distorted" if p.nilpotent else None)
            for kmax in SWEEP_KMAX:
                calls += 1
                verdict, _, rep = classify_distorted(p, S, g, kmax=kmax)
                assert verdict in ("inconclusive", want) or want is None, \
                    (gid, g, kmax, verdict)
                if any("g has finite order" in note for note in rep.notes):
                    lookalikes.add((gid, g, kmax))
    assert calls == 770
    assert lookalikes == FINITE_ORDER_LOOKALIKES


def test_abelianized_bound_certifies_user_presentations():
    # B(8) of the filiform group exceeds the budget; the abelianized bound
    # |a^16| >= 16 certifies the last distance without it
    p = pcgroup.parse_presentation(FILIFORM.read_text())
    verdict, prof, rep = classify_distorted(p, standard_genset(p), (1, 0, 0, 0),
                                            kmax=16, max_vertices=1000)
    assert (verdict, prof.dists) == ("undistorted", [1, 2, 4, 8, 16])
    assert rep.notes == []


def test_distortion_budget_exhaustion_is_inconclusive():
    h = builtin("heisenberg")
    S = standard_genset(h)
    verdict, prof, rep = classify_distorted(h, S, (0, 0, 1), kmax=16,
                                            max_vertices=50)
    assert verdict == "inconclusive"
    assert any(r is None for r in prof.ratios)
    assert rep.ok is None
    # B(4) has 135 vertices, so no ball is built
    assert any(re.fullmatch(r"vertex budget 50 exceeded building B\(4\); no ball was "
                            r"built, so no distance is certified from one", n)
               for n in rep.notes)
    # B(4) fits in 1,000 vertices and B(8) (1,793) does not
    verdict, prof, rep = classify_distorted(h, S, (0, 0, 1), kmax=16,
                                            max_vertices=1000)
    assert verdict == "inconclusive"
    assert prof.dists == [4, 6, 8, None, None]
    assert any(re.fullmatch(r"vertex budget 1000 exceeded building B\(8\); "
                            r"B\(4\) certifies distances up to 8", n)
               for n in rep.notes)


def test_distortion_rejects_identity():
    h = builtin("heisenberg")
    with pytest.raises(ValueError):
        distortion_profile(h, standard_genset(h), h.identity, 4)
