"""Wreath products, FSF and lifted generating sets, twins, Klein-bottle maps."""

import random
import warnings

import pytest

from nilcay import constructions as cn
from nilcay import structure
from nilcay.cayley import GenSet, check_vertex_map, generate_ball, standard_genset
from nilcay.pcgroup import builtin, from_id


def make_graph(vertices, edge_pairs):
    edges = frozenset(frozenset((u, v)) for u, v in edge_pairs if u != v)
    return cn.LabeledGraph(tuple(vertices), edges)


def test_wreath_identity_case():
    x1 = make_graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    w = cn.wreath_product(x1, cn.edgeless_graph(1))
    assert len(w.vertices) == 3 and w.edge_count() == 2


def test_wreath_path_times_edgeless():
    p2 = make_graph([0, 1], [(0, 1)])
    w = cn.wreath_product(p2, cn.edgeless_graph(2))
    assert len(w.vertices) == 4 and w.edge_count() == 4


def test_wreath_of_edgeless_is_edgeless():
    w = cn.wreath_product(cn.edgeless_graph(2), cn.edgeless_graph(2))
    assert len(w.vertices) == 4 and w.edge_count() == 0


def test_edgeless_graph_rules():
    assert len(cn.edgeless_graph(1).vertices) == 1
    assert cn.edgeless_graph(3).edge_count() == 0
    with pytest.raises(ValueError):
        cn.edgeless_graph(0)


def random_graph(rng, nmax=6):
    n = rng.randint(1, nmax)
    verts = list(range(n))
    edges = [(u, v) for u in verts for v in verts if u < v and rng.random() < 0.5]
    return make_graph(verts, edges)


def test_wreath_counts_formula_on_random_graphs():
    # |V| = |V1||V2| and |E| = |E1||V2|^2 + |V1||E2|, checked by recount
    rng = random.Random(31)
    for _ in range(50):
        x1, x2 = random_graph(rng), random_graph(rng)
        w = cn.wreath_product(x1, x2)
        assert len(w.vertices) == len(x1.vertices) * len(x2.vertices)
        want = (x1.edge_count() * len(x2.vertices) ** 2
                + len(x1.vertices) * x2.edge_count())
        assert w.edge_count() == want
        # definition-level recount
        recount = 0
        for a in w.vertices:
            for b in w.vertices:
                if a < b and b in w.neighbor_set(a):
                    recount += 1
        assert recount == want


def test_lift_generating_set():
    zx = from_id("zxz2")
    lift = cn.lift_generating_set(zx, [(1,), (-1,)])
    assert set(lift.elements) == {(1, 0), (-1, 0), (1, 1), (-1, 1)}
    z2 = builtin("zn", n=2)
    same = cn.lift_generating_set(z2, [(1, 0), (-1, 0)])
    assert set(same.elements) == {(1, 0), (-1, 0)}
    h2 = from_id("heisenberg_z2")
    lifted = cn.lift_generating_set(
        h2, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
    assert len(lifted.elements) == 8
    with pytest.raises(ValueError):
        cn.lift_generating_set(zx, [(0,), (1,)])


def test_fsf_generating_set():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0)])
    res = cn.fsf_generating_set(zx, F, S)
    assert set(res.genset.elements) == {(1, 0), (-1, 0), (1, 1), (-1, 1)}
    assert res.genset.symmetric and not res.removed_identity
    trivial = structure.trivial_subgroup(zx)
    assert cn.fsf_generating_set(zx, trivial, S).genset.elements == S.elements
    h2 = from_id("heisenberg_z2")
    F2 = structure.torsion_subgroup(h2)
    S2 = GenSet(h2, [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0)])
    assert len(cn.fsf_generating_set(h2, F2, S2).genset.elements) == 8


def test_fsf_identity_removal_reported():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0), (0, 1)])  # t in S makes f*s*f hit e
    res = cn.fsf_generating_set(zx, F, S)
    assert res.removed_identity
    assert zx.identity not in res.genset.elements


def test_fsf_requires_closed_subgroup():
    zx = from_id("zxz2")
    notgroup = structure.SubgroupWitness(zx, elements=((0, 0), (1, 0)))
    with pytest.raises(structure.SubgroupError):
        cn.fsf_generating_set(zx, notgroup, GenSet(zx, [(1, 0), (-1, 0)]))


def test_twin_classes_are_fsf_cosets():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0)])
    gens = cn.fsf_generating_set(zx, F, S).genset
    ball = generate_ball(zx, gens, 5)
    classes = cn.twin_classes(ball)
    assert classes == tuple(sorted(
        ((x, 0), (x, 1)) for x in range(-4, 5)))


def test_twin_classes_degenerate_cases():
    z2 = builtin("zn", n=2)
    ball = generate_ball(z2, standard_genset(z2), 4)
    assert all(len(c) == 1 for c in cn.twin_classes(ball))


def test_twin_swap_map():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    gens = cn.fsf_generating_set(zx, F, GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, gens, 5)
    swap = cn.twin_swap_map(ball, (3, 0), (3, 1))
    assert check_vertex_map(ball, ball, swap)
    ident = cn.twin_swap_map(ball, (3, 0), (3, 0))
    assert all(ident[v] == v for v in ball.vertices)
    for s in gens.elements:
        assert swap[s] == s
    assert swap[zx.identity] == zx.identity
    with pytest.raises(ValueError):
        cn.twin_swap_map(ball, (3, 0), (2, 1))
    with warnings.catch_warnings(record=True) as wlog:
        warnings.simplefilter("always")
        cn.twin_swap_map(ball, (1, 0), (1, 1))  # touches the generating set
    assert wlog


def test_klein_grid_map_passes():
    bm = cn.klein_grid_map(8)
    assert bm.check()
    assert set(bm.source.vertices) == set(bm.target.vertices)


def test_klein_flip_map_is_automorphism_but_naive_form_is_not():
    bm = cn.klein_flip_map(8)
    assert bm.check()
    assert bm.mapping[(0, 0)] == (0, 0)
    assert bm.mapping[(1, 0)] == (0, 1)  # sends the vertex a to the vertex b
    # rewriting the paper-style image b^i a^j into normal form gives
    # a^((-1)^i j) b^i, which breaks right-multiplication adjacency
    naive = {v: ((1 if v[0] % 2 == 0 else -1) * v[1], v[0])
             for v in bm.source.vertices}
    assert not check_vertex_map(bm.source, bm.source, naive)


def test_wreath_lift_comparison():
    zx = from_id("zxz2")
    for r in (3, 5):
        bm = cn.wreath_lift_comparison(zx, [(1,), (-1,)], r)
        assert bm.check()
    h2 = from_id("heisenberg_z2")
    bm = cn.wreath_lift_comparison(
        h2, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], 4)
    assert bm.check()


def test_lift_and_fsf_agree_for_torsion_with_compatible_set():
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0)])
    lifted = cn.lift_generating_set(zx, [(1,), (-1,)])
    fsf = cn.fsf_generating_set(zx, F, S).genset
    assert lifted.elements == fsf.elements
