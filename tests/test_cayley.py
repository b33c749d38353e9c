"""Ball generation, word metrics, geodesics, and vertex-map checks."""

import math
import random
from itertools import combinations, islice
from pathlib import Path

import pytest

from nilcay import cayley, constructions, pcgroup, structure
from nilcay.cayley import (GenerationError, GenSet, GeodesicCapError,
                           GeodesicPath,
                           check_vertex_map, count_geodesics,
                           enumerate_geodesics,
                           export_distances, export_graph,
                           generate_ball, insert_torsion_edge, standard_genset,
                           torsion_label_bound)
from nilcay.pcgroup import builtin, from_id
from reference import SOL_SOURCE, lattice_span_index


@pytest.fixture(scope="module")
def z2_ball8():
    p = builtin("zn", n=2)
    return generate_ball(p, standard_genset(p), 8)


def lattice_count(r):
    """Oracle: enumerate lattice points with |x| + |y| <= r."""
    return sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1)
               if abs(x) + abs(y) <= r)


def test_z2_ball_counts_match_lattice_enumeration():
    p = builtin("zn", n=2)
    S = standard_genset(p)
    for r in range(0, 21):
        ball = generate_ball(p, S, r)
        assert len(ball) == lattice_count(r) == 2 * r * r + 2 * r + 1


def test_ball_counts_monotone_in_radius():
    for fid in ("heisenberg", "klein_bottle", "zxz2"):
        p = from_id(fid)
        S = standard_genset(p)
        sizes = [len(generate_ball(p, S, r)) for r in range(0, 5)]
        assert sizes == sorted(sizes)


def test_radius_zero_and_klein_radius_one():
    p = builtin("heisenberg")
    assert len(generate_ball(p, standard_genset(p), 0)) == 1
    k = builtin("klein_bottle")
    assert len(generate_ball(k, standard_genset(k), 1)) == 5


def test_vertex_budget_enforced():
    p = builtin("zn", n=2)
    with pytest.raises(cayley.BallBudgetError):
        generate_ball(p, standard_genset(p), 10, max_vertices=20)


def test_genset_rules():
    p = builtin("zn", n=2)
    with pytest.raises(ValueError):
        GenSet(p, [(0, 0), (1, 0)])
    asym = GenSet(p, [(1, 0), (0, 1)])
    assert not asym.symmetric
    with pytest.raises(ValueError):
        asym.require_symmetric()


def test_distances(z2_ball8):
    assert z2_ball8.distance((0, 0), (3, 4)) == 7
    assert z2_ball8.distance((0, 0), (0, 0)) == 0
    assert z2_ball8.distance((2, 1), (2, 1)) == 0
    assert z2_ball8.distance((0, 0), (9, 9)) is None  # unknown, never wrong
    with pytest.raises(ValueError):
        z2_ball8.distance((9, 9), (0, 0))


def test_heisenberg_central_distance():
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 4)
    assert ball.distance_from_identity((0, 0, 1)) == 4


def test_bfs_matches_brute_force_words():
    # exhaustive words up to length 4, multiplied out literally
    for fid in ("z2", "klein_bottle", "zxz2", "heisenberg"):
        p = from_id(fid)
        S = standard_genset(p)
        ball = generate_ball(p, S, 4)
        best = {p.identity: 0}
        words = [p.identity]
        for d in range(1, 5):
            words = sorted({p.multiply(u, s) for u in words for s in S.elements})
            for w in words:
                best.setdefault(w, d)
        assert ball.vertices == tuple(sorted(best))
        for v, d in best.items():
            assert ball.distance_from_identity(v) == d
        # every neighbour entry, the boundary shell's included, against a
        # recomputation: the id of v*s, or -1 outside the ball
        index = {v: i for i, v in enumerate(sorted(best))}
        assert ball.width == len(S)
        assert ball.targets == [index.get(p.multiply(v, s), -1)
                                for v in ball.vertices for s in S.elements]
        boundary = {i // len(S) for i, w in enumerate(ball.targets) if w < 0}
        assert boundary and all(ball.dist_list[i] == 4 for i in boundary)


FILIFORM = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "filiform4.pc"


def _plain_bfs(p, S, radius):
    """Oracle: element -> distance from the identity, shell by shell."""
    dist = {p.identity: 0}
    shell = {p.identity}
    for d in range(1, radius + 1):
        shell = {p.multiply(u, s) for u in shell for s in S.elements} - dist.keys()
        dist.update(dict.fromkeys(shell, d))
    return dist


def _sphere_case(name):
    if name == "zxz2 fsf":
        p = from_id("zxz2")
        base = GenSet(p, structure.nontrivial_in_quotient(p, standard_genset(p).elements))
        return p, constructions.fsf_generating_set(
            p, structure.torsion_subgroup(p), base).genset
    p = pcgroup.parse_presentation(FILIFORM.read_text()) if name == "filiform" \
        else from_id(name)
    return p, standard_genset(p)


@pytest.mark.parametrize("name,R", [("heisenberg", 4), ("z3", 4), ("klein_bottle", 4),
                                    ("zxz2 fsf", 3), ("filiform", 3)])
def test_distance_via_sphere_matches_bfs_to_twice_the_radius(name, R):
    """The sphere certificate of the distortion profile's growing ball."""
    p, S = _sphere_case(name)
    grown = cayley.DistanceBall(S, cayley.vertex_budget())
    grown.grow(R)
    oracle = _plain_bfs(p, S, 2 * R + 1)
    assert max(oracle.values()) == 2 * R + 1
    for x, d in oracle.items():
        assert grown.distance_via_sphere(x) == (d if d <= 2 * R else None), (x, d)


@pytest.mark.parametrize("gid,genset,radii", [
    ("z3", "std", (0, 1, 5, 9)),
    ("heisenberg_z3", "fsf", (0, 2, 4)),
    ("klein_bottle", "std", (0, 3, 7, 12)),
    ("filiform4.pc", "std", (1, 4, 7)),
    # <t> = C2 in Z x Z/2: every ball from B(1) on is the whole subgroup
    ("zxz2", "0,1", (0, 1, 6)),
])
def test_distance_ball_counts_and_measures_as_generate_ball(gid, genset, radii):
    """The distance-only BFS against the edge-building one: the same count,
    the same distance for every element and the same lexicographic listing,
    and ``distance`` agrees on seeded pairs, both inside and outside."""
    from nilcay.cli import _resolve_genset
    p = pcgroup.parse_presentation(FILIFORM.read_text()) if gid == "filiform4.pc" \
        else from_id(gid)
    S = _resolve_genset(p, genset)
    rng = random.Random(f"distance ball:{gid}")
    for r in radii:
        ball = generate_ball(p, S, r)
        dball = cayley.distance_ball(S, r)
        assert len(dball) == len(ball) and dball.radius == r
        assert dball.dists == {v: ball.dist_list[i] for v, i in ball.index.items()}
        assert list(dball.sorted_distances()) == list(ball.sorted_distances())
        for _ in range(30):
            u = rng.choice(ball.vertices)
            v = tuple(rng.randint(-r, r) if m is None else rng.randrange(m)
                      for m in p.orders)
            assert dball.distance(u, v) == ball.distance(u, v)
        outside = tuple(2 * r + 3 if m is None else 0 for m in p.orders)
        if outside not in ball:
            for b in (ball, dball):
                with pytest.raises(ValueError, match="start vertex is not in the ball"):
                    b.distance(outside, p.identity)


def test_distance_ball_keeps_the_checks_of_generate_ball():
    """A negative radius, an asymmetric set even at radius 0, and the budget
    error naming the shell that broke it, as generate_ball raises them."""
    p = builtin("zn", n=2)
    S = standard_genset(p)
    for build in (lambda *a, **k: generate_ball(p, *a, **k), cayley.distance_ball):
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            build(S, -1)
        with pytest.raises(ValueError, match="^generating set is not symmetric"):
            build(GenSet(p, [(1, 0), (0, 1)]), 0)
        # |B(1)| = 5 and |B(2)| = 13
        with pytest.raises(cayley.BallBudgetError,
                           match="^ball exceeded vertex budget 10 at radius 2$"):
            build(S, 10, max_vertices=10)


@pytest.mark.parametrize("fid,radius,depth", [
    ("heisenberg", 4, 4), ("klein_bottle", 5, 5), ("zxz2", 3, 3),
    # C3 is all of B(1), so a ball of radius 4 stops at depth 1
    ("zn_cross_cyclic:0,3", 4, 1)])
def test_shell_order_and_depth_are_recorded_at_build(fid, radius, depth):
    p = from_id(fid)
    ball = generate_ball(p, standard_genset(p), radius)
    assert sorted(ball.shell_order) == list(range(len(ball)))
    assert [ball.dist_list[i] for i in ball.shell_order] == sorted(ball.dist_list)
    assert max(ball.dist_list) == depth


def test_generate_ball_multiplies_once_per_vertex_and_generator():
    """One step-kernel call per vertex, each giving one product per
    generator, on the polynomial path, the compiled collector's and the
    collector's."""
    h = builtin("heisenberg")
    zx = from_id("zxz2")
    kb = from_id("klein_bottle")
    sol = pcgroup.parse_presentation(SOL_SOURCE)
    fsf = constructions.fsf_generating_set(
        zx, structure.torsion_subgroup(zx), standard_genset(zx)).genset
    for p, S in ((h, standard_genset(h)), (zx, fsf), (kb, standard_genset(kb)),
                 (sol, standard_genset(sol))):
        calls = []
        right_multiplier = p.right_multiplier

        def counted(elements):
            step = right_multiplier(elements)

            def kernel(u):
                products = step(u)
                calls.append(len(products))
                return products

            return kernel

        p.right_multiplier = counted
        ball = generate_ball(p, S, 4)
        assert calls == [len(S)] * len(ball)


def test_geodesic_enumeration(z2_ball8):
    paths = enumerate_geodesics(z2_ball8, (0, 0), (1, 1))
    assert len(paths) == 2
    assert sorted(p.labels for p in paths) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert len(enumerate_geodesics(z2_ball8, (0, 0), (2, 0))) == 1
    single = enumerate_geodesics(z2_ball8, (0, 0), (1, 0))
    assert len(single) == 1 and len(single[0]) == 1


def test_geodesic_count(z2_ball8):
    assert count_geodesics(z2_ball8, (0, 0), (2, 1)) == 3
    assert count_geodesics(z2_ball8, (3, 3), (3, 3)) == 1
    assert count_geodesics(z2_ball8, (1, 0), (0, 1)) == 2


def test_count_agrees_with_enumeration_on_random_pairs():
    for fid in ("z2", "klein_bottle", "zxz2"):
        p = from_id(fid)
        ball = generate_ball(p, standard_genset(p), 4)
        rng = random.Random(f"pairs:{fid}")
        checked = 0
        while checked < 200:
            u = rng.choice(ball.vertices)
            v = rng.choice(ball.vertices)
            w = p.multiply(p.inverse(u), v)
            if ball.distance_from_identity(w) is None:
                continue
            checked += 1
            assert count_geodesics(ball, u, v) == \
                len(enumerate_geodesics(ball, u, v))


def test_geodesic_cap(z2_ball8):
    with pytest.raises(GeodesicCapError) as exc:
        enumerate_geodesics(z2_ball8, (0, 0), (4, 4), cap=3)
    assert exc.value.count == 70  # binomial(8, 4)


def test_geodesic_counts_are_multinomials_on_z3():
    """Closed form: in Z^3 with S = {+-e_i} the geodesics from e to v are the
    orderings of |v_i| steps of sign(v_i) e_i, (|v_1|+|v_2|+|v_3|)! / prod |v_i|!
    of them; every listing has that many distinct paths, in sorted order."""
    p = builtin("zn", n=3)
    ball = generate_ball(p, standard_genset(p), 8)
    assert len(ball) == 833
    listed = 0
    for v in ball.vertices:
        parts = [abs(x) for x in v]
        count = math.factorial(sum(parts))
        for x in parts:
            count //= math.factorial(x)
        assert count_geodesics(ball, p.identity, v) == count
        if count <= 10**4:
            labels = [g.labels for g in enumerate_geodesics(ball, p.identity, v)]
            assert len(labels) == count
            assert labels == sorted(set(labels))
            listed += 1
    assert listed == len(ball)


def test_iter_geodesics_builds_only_the_paths_asked_for(monkeypatch):
    """Two paths taken from the 756,756 geodesics e -> (5,5,5) in Z^3 B(16)
    build two GeodesicPath objects, the two lexicographically first."""
    p = builtin("zn", n=3)
    ball = generate_ball(p, standard_genset(p), 16)
    e = p.identity
    assert count_geodesics(ball, e, (5, 5, 5)) == 756756
    built = []

    class Counted(GeodesicPath):
        def __init__(self, start, labels):
            built.append(labels)
            super().__init__(start, labels)

    monkeypatch.setattr(cayley, "GeodesicPath", Counted)
    first = list(islice(cayley.iter_geodesics(ball, e, (5, 5, 5)), 2))
    assert len(built) == 2
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)    # S sorted: ... < c < b < a
    assert [g.labels for g in first] == [
        (c,) * 5 + (b,) * 5 + (a,) * 5,
        (c,) * 5 + (b,) * 4 + (a, b) + (a,) * 4]


def _geodesic_words(p, S, radius):
    """Oracle: for each d <= radius, the words of length d over S (as tuples
    of generator indices) grouped by their product, from all |S|^d words."""
    words = [((), p.identity)]
    levels = [{p.identity: [()]}]
    for _ in range(radius):
        words = [(word + (sid,), p.multiply(g, s))
                 for word, g in words for sid, s in enumerate(S.elements)]
        by_product = {}
        for word, g in words:
            by_product.setdefault(g, []).append(word)
        levels.append(by_product)
    return levels


@pytest.mark.parametrize("fid", ["z2", "klein_bottle", "zxz2", "heisenberg",
                                 "heisenberg_z3", "zn_cross_cyclic:1,4"])
def test_geodesic_engine_matches_word_enumeration(fid):
    # zn_cross_cyclic:1,4 is Z x Z4 with only the generators of Z4 in S, so
    # (0,2) has the geodesics t.t and t^3.t^3 with two torsion labels each
    p = from_id(fid)
    S = standard_genset(p)
    ball = generate_ball(p, S, 4)
    levels = _geodesic_words(p, S, 4)
    labels_in = set(structure.torsion_subgroup(p).elements) - {p.identity}
    first_bad = None
    for w in ball.vertices:
        geodesics = sorted(levels[ball.distance_from_identity(w)][w])
        assert count_geodesics(ball, p.identity, w) == len(geodesics)
        assert [g.labels for g in enumerate_geodesics(ball, p.identity, w)] == \
            [tuple(S.elements[i] for i in word) for word in geodesics]
        bad = [word for word in geodesics
               if sum(S.elements[i] in labels_in for i in word) > 1]
        if bad and first_bad is None:
            first_bad = {"endpoint": w,
                         "labels": [S.elements[i] for i in bad[0]]}
    rep = torsion_label_bound(ball, structure.torsion_subgroup(p).elements)
    if first_bad is None:
        assert rep.verdict == "pass"
    else:
        assert rep.verdict == "fail" and rep.witnesses == [first_bad]
    assert (first_bad is not None) == (fid == "zn_cross_cyclic:1,4")


def test_left_translation_is_isometric():
    p = builtin("heisenberg")
    S = standard_genset(p)
    big = generate_ball(p, S, 5)
    g = (1, 1, 0)
    dg = big.distance_from_identity(g)
    small = generate_ball(p, S, 5 - dg)
    rng = random.Random(17)
    verts = list(small.vertices)
    for _ in range(200):
        u, v = rng.choice(verts), rng.choice(verts)
        du = small.distance(u, v)
        if du is None:
            continue
        assert big.distance(p.multiply(g, u), p.multiply(g, v)) == du


def test_torsion_label_bound_passes():
    zx = from_id("zxz2")
    S = GenSet(zx, [(1, 0), (-1, 0), (1, 1), (-1, 1), (0, 1)])
    ball = generate_ball(zx, S, 4)
    rep = torsion_label_bound(ball, [(0, 0), (0, 1)])
    assert rep.verdict == "pass"


def test_torsion_label_bound_trivial_subgroup():
    p = builtin("zn", n=2)
    ball = generate_ball(p, standard_genset(p), 3)
    rep = torsion_label_bound(ball, [p.identity])
    assert rep.verdict == "pass"


def test_torsion_label_bound_negative_control():
    # fault injection: corrupting one distance lets a two-torsion-edge path
    # register as a geodesic, which the checker must catch with a witness
    zx = from_id("zxz2")
    ball = generate_ball(zx, standard_genset(zx), 3)
    ball.dist_list[ball.index[(1, 0)]] = 3
    rep = torsion_label_bound(ball, [(0, 0), (0, 1)])
    assert rep.verdict == "fail"
    assert rep.witnesses


def test_torsion_label_bound_rejects_non_normal_set():
    p = builtin("heisenberg")
    ball = generate_ball(p, standard_genset(p), 3)
    with pytest.raises(ValueError, match="not conjugation-stable"):
        torsion_label_bound(ball, [(0, 0, 0), (1, 0, 0)])


def test_insert_torsion_edge():
    zx = from_id("zxz2")
    N = [(0, 0), (0, 1)]
    ball = generate_ball(zx, standard_genset(zx), 5)
    geo = GeodesicPath((0, 0), ((0, 1), (1, 0), (1, 0)))
    paths = insert_torsion_edge(ball, geo, N)
    assert len(paths) == 3
    assert all(len(path) == 3 for path in paths)
    assert len({path.labels for path in paths}) == 3
    end = geo.end(zx)
    assert all(path.end(zx) == end for path in paths)
    # k = 0 returns only the original
    assert len(insert_torsion_edge(ball, GeodesicPath((0, 0), ((0, 1),)), N)) == 1


def test_insert_torsion_edge_flags_non_normal_set():
    h = builtin("heisenberg")
    ball = generate_ball(h, standard_genset(h), 3)
    fake = [(0, 0, 0), (1, 0, 0)]  # not conjugation-stable
    geo = GeodesicPath(h.identity, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="not normal"):
        insert_torsion_edge(ball, geo, fake)


def test_insert_torsion_edge_checks_the_endpoints_without_assert(monkeypatch):
    """A conjugation that leaves the subgroup's members but not the path's
    endpoint raises, also under ``python -O``."""
    zx = from_id("zxz2")
    ball = generate_ball(zx, standard_genset(zx), 5)
    geo = GeodesicPath((0, 0), ((0, 1), (1, 0), (1, 0)))
    monkeypatch.setattr(zx, "conjugate",
                        lambda n, g: n if g == zx.identity else zx.identity)
    with pytest.raises(ValueError, match=r"inserted path \(\(1, 0\), \(0, 0\), "
                       r"\(1, 0\)\) ends at \(2, 0\), not at \(2, 1\)"):
        insert_torsion_edge(ball, geo, [(0, 0), (0, 1)])


def test_insert_torsion_edge_heisenberg_product():
    h2 = from_id("heisenberg_z2")
    N = [(0, 0, 0, 0), (0, 0, 0, 1)]
    ball = generate_ball(h2, standard_genset(h2), 2)
    n = (0, 0, 0, 1)
    labels = (n, (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    paths = insert_torsion_edge(ball, GeodesicPath(h2.identity, labels), N)
    assert len(paths) == 4
    assert len({p.labels for p in paths}) == 4


def test_exports_are_deterministic(tmp_path):
    p = builtin("zn", n=1)
    ball = generate_ball(p, standard_genset(p), 2)
    out = tmp_path / "ball.tsv"
    export_graph(ball, out)
    text = out.read_text()
    assert text == (
        "# presentation: Z^1\n"
        "# genset: -1 1\n"
        "# radius: 2\n"
        "-2\t1\t-1\n"
        "-1\t-1\t-2\n"
        "-1\t1\t0\n"
        "0\t-1\t-1\n"
        "0\t1\t1\n"
        "1\t-1\t0\n"
        "1\t1\t2\n"
        "2\t-1\t1\n")
    dout = tmp_path / "dist.tsv"
    export_distances(ball, dout)
    assert "0\t0" in dout.read_text().splitlines()[4]


def test_check_vertex_map_cases(z2_ball8):
    ident = {v: v for v in z2_ball8.vertices}
    assert check_vertex_map(z2_ball8, z2_ball8, ident)
    shear = {v: (v[0], v[1] + v[0]) for v in z2_ball8.vertices}
    res = check_vertex_map(z2_ball8, z2_ball8, shear)
    assert not res and res.witness is not None
    with pytest.raises(cayley.MapError):
        check_vertex_map(z2_ball8, z2_ball8, {(0, 0): (0, 0)})
    p = builtin("zn", n=2)
    other = generate_ball(p, standard_genset(p), 3)
    with pytest.raises(cayley.MapError):
        check_vertex_map(z2_ball8, other, ident)


# -- generation: S-words for the pc generators ---------------------------------


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


# G/[G, G] of each family as Z^k modulo its torsion: the projection of a
# normal form, and the vectors that the relations add (t^2 = e in zxz2)
ABELIANIZATION_CLOSED_FORM = {
    "z2": (lambda v: list(v), []),
    "z3": (lambda v: list(v), []),
    "heisenberg": (lambda v: list(v[:2]), []),   # [G, G] = <c>
    "zxz2": (lambda v: list(v), [[0, 2]]),
    "klein_bottle": None,
}


def _index_closed_form(gid, vectors):
    """[G : <S>[G, G]] as the gcd of the maximal minors of the projected
    vectors and the torsion relations, None when they have lower rank."""
    project, extra = ABELIANIZATION_CLOSED_FORM[gid]
    rows = [project(v) for v in vectors] + extra
    k = len(rows[0])
    g = 0
    for minor in combinations(rows, k):
        g = math.gcd(g, _det([list(r) for r in minor]))
    return g or None


@pytest.mark.parametrize("gid,vectors,index,missing", [
    # sweep set A: every first coordinate is even
    ("heisenberg", "-2,0,0;-2,1,0;0,-2,-1;0,2,1;2,-1,2;2,0,0", 2, 0),
    ("z2", "2,1;0,3;-2,-1;0,-3", 6, 0),
    ("zxz2", "1,0;-1,0", 2, 1),                  # <x> < Z x Z2
    ("z3", "1,0,0;-1,0,0;0,1,0;0,-1,0", None, 2),
    ("heisenberg", "1,0,0;-1,0,0;0,1,0;0,-1,0", 1, None),
])
def test_generation_test_has_closed_forms(gid, vectors, index, missing):
    p = from_id(gid)
    S = GenSet(p, [tuple(map(int, v.split(","))) for v in vectors.split(";")])
    assert p.abelianization.span_index(S.elements) == (index, missing)
    assert lattice_span_index(p, S.elements) == (index, missing)
    assert _index_closed_form(gid, S.elements) == index
    if missing is None:
        S.pc_words()
    else:
        with pytest.raises(GenerationError, match=f"pc generator "
                           f"{p.gens[missing]} is outside <S>"):
            S.pc_words()


def _check_words(S):
    """Each word multiplies out to its pc generator and is a geodesic."""
    p = S.presentation
    words = S.pc_words()
    ball = generate_ball(p, S, max(map(len, words)))
    for i, word in enumerate(words):
        x = p.identity
        for sid in word:
            x = p.multiply(x, S.elements[sid])
        assert x == p.generator(i)
        assert len(word) == ball.distance_from_identity(x)


def _sweep_sets(seed, count):
    """Seeded symmetric sets: 2-4 nonzero elements with free coordinates in
    [-2, 2], plus their inverses, over the closed-form families."""
    rng = random.Random(seed)
    families = ["z2", "z3", "heisenberg", "zxz2"]
    for k in range(count):
        p = from_id(families[k % len(families)])
        vectors = []
        for _ in range(rng.randint(2, 4)):
            v = p.identity
            while v == p.identity:
                v = tuple(rng.randrange(m) if m else rng.randint(-2, 2)
                          for m in p.orders)
            vectors += [v, p.inverse(v)]
        yield families[k % len(families)], GenSet(p, vectors)


def test_generation_test_agrees_with_closed_forms_and_the_bfs():
    """On a seeded sweep: the index against the minors, and whenever the
    test says S generates G, the BFS reaches every pc generator."""
    outcomes = set()
    for gid, S in _sweep_sets(0, 52):
        p = S.presentation
        index, missing = p.abelianization.span_index(S.elements)
        assert (index, missing) == lattice_span_index(p, S.elements)
        assert index == _index_closed_form(gid, S.elements)
        assert (index == 1) == (missing is None)
        if missing is None:
            _check_words(S)
        else:
            with pytest.raises(GenerationError):
                S.pc_words()
        outcomes.add((gid, missing is None))
    # the sweep reaches both answers on every family but z3
    assert outcomes >= {("z2", True), ("z2", False), ("heisenberg", True),
                        ("heisenberg", False), ("zxz2", True),
                        ("zxz2", False), ("z3", False)}


@pytest.mark.parametrize("gid,genset", [
    (gid, genset) for gid in pcgroup.ACCEPTANCE_FAMILY_IDS
    for genset in ("std", "fsf", "lifted")
    if genset == "std" or from_id(gid).torsion_len])
def test_acceptance_sets_generate_and_reach_every_pc_generator(gid, genset):
    from nilcay.cli import _resolve_genset
    p = from_id(gid)
    S = _resolve_genset(p, genset)
    if p.nilpotent:
        assert p.abelianization.span_index(S.elements) == (1, None)
    _check_words(S)


def test_words_are_computed_once_per_generating_set(monkeypatch):
    p = builtin("heisenberg")
    S = standard_genset(p)
    words = S.pc_words()
    monkeypatch.setattr(cayley, "_pc_words", None)
    assert S.pc_words() is words


S3_SOURCE = """group S3
nilpotent false
torsion_prefix 2
gen a order 2
gen b order 3
pow a = 1
pow b = 1
conj b by a = b^2
conjinv b by a = b^2
genset a b b^2
"""


def test_a_finite_subgroup_ends_the_bfs():
    """Without ``nilpotent true`` passing the abelianization test does not
    prove that S generates G, and the BFS decides.  <a> in S3 fills G^ab
    and is finite: a shell comes out empty.  <a, b^3> in the Klein bottle
    fills G^ab yet has index 3: the BFS runs into the vertex budget."""
    s3 = pcgroup.parse_presentation(S3_SOURCE)
    S = GenSet(s3, [(1, 0)])
    assert s3.abelianization.span_index(S.elements) == (1, None)
    assert lattice_span_index(s3, S.elements) == (1, None)
    with pytest.raises(GenerationError, match="finite proper subgroup of "
                       "S3, of order 2: pc generator b is outside it"):
        S.pc_words()
    k = builtin("klein_bottle")
    S = GenSet(k, [(1, 0), (-1, 0), (0, 3), (0, -3)])
    assert k.abelianization.span_index(S.elements) == (1, None)
    assert lattice_span_index(k, S.elements) == (1, None)
    with pytest.raises(cayley.BallBudgetError, match="before reaching every "
                       "pc generator"):
        S.pc_words(max_vertices=100)


def test_the_abelianization_test_refutes_in_any_group():
    """A pc generator outside <S>[G, G] shows <S> != G whether or not the
    presentation is nilpotent; the budget of 10 vertices shows that no BFS
    ran.  <t> in C2 x Z misses x at infinite index; <a^2, b> in the Klein
    bottle, whose G^ab is Z x C2, misses a at index 2."""
    c2xz = pcgroup.parse_presentation("""group C2xZ
nilpotent false
torsion_prefix 1
gen x order inf
gen t order 2
pow t = 1
genset x x^-1 t
""")
    klein = builtin("klein_bottle")
    for p, vectors, message in [
            (c2xz, [(0, 1)], "C2xZ: pc generator x is outside <S>[G, G], "
                             "which has infinite index in G"),
            (klein, [(2, 0), (-2, 0), (0, 1), (0, -1)],
             "KleinBottle: pc generator a is outside <S>[G, G], which has "
             "index 2 in G")]:
        assert not p.nilpotent
        assert lattice_span_index(p, vectors) == p.abelianization.span_index(vectors)
        with pytest.raises(GenerationError) as exc:
            GenSet(p, vectors).pc_words(max_vertices=10)
        assert str(exc.value) == ("the generating set generates a proper "
                                  "subgroup of " + message)
