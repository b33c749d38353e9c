"""Explicit graph and generating-set constructions: wreath products, FSF sets,
torsion-lifted generating sets, twin classes, and the Klein-bottle maps.

In the built-in Klein bottle a inverts b (a^-1 b a = b^-1), so the vertex
a^x b^y has the neighbours a^(x+-1) b^(-y) and a^x b^(y+-1).  The map
g(x, y) = (x, (-1)^x y) sends them to (x+-1, (-1)^x y) and
(x, (-1)^x y +- 1), the grid neighbours of g(x, y); g is a bijection of Z^2
that keeps |x| + |y|, so it is an isomorphism of the whole Cayley graph onto
the grid, and of each ball onto the grid ball.  Swapping the grid
coordinates is a grid automorphism, so the flip g^-1 . swap . g, which
sends a^x b^y to a^((-1)^x y) b^((-1)^y x), is an automorphism of the whole
Cayley graph.  It fixes e and exchanges the vertices a and b, which no group
automorphism can do: a^2 is central and b^2 is not.
"""

from __future__ import annotations

import warnings

from . import cayley, structure
from .cayley import Ball, GenSet, check_vertex_map, generate_ball
from .pcgroup import builtin
from .structure import SubgroupWitness


class LabeledGraph:
    """A finite undirected graph; vertices are arbitrary hashables.  Equal
    and hashed by its vertices and edges."""

    def __init__(self, vertices: tuple, edges: frozenset):
        nbrs = {v: set() for v in vertices}
        for e in edges:
            if len(e) != 2:
                raise ValueError("self-loops are not allowed")
            if not e <= nbrs.keys():
                raise ValueError("edge endpoint outside the vertex set")
            u, w = e
            nbrs[u].add(w)
            nbrs[w].add(u)
        self.vertices = vertices
        self.edges = edges        # frozenset of 2-element frozensets
        self._nbrs = {v: frozenset(ws) for v, ws in nbrs.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def vertex_set(self):
        return self._nbrs.keys()

    def neighbor_set(self, v):
        return self._nbrs[v]

    def edge_count(self):
        return len(self.edges)


def edgeless_graph(n) -> LabeledGraph:
    if n < 1:
        raise ValueError("edgeless graph needs at least one vertex")
    return LabeledGraph(tuple(range(n)), frozenset())


def wreath_product(x1: LabeledGraph, x2: LabeledGraph) -> LabeledGraph:
    """Lexicographic product: fibers of x2 over x1, full cross edges along x1-edges."""
    vertices = tuple((v1, v2) for v1 in x1.vertices for v2 in x2.vertices)
    edges = set()
    for e in x1.edges:
        u1, w1 = tuple(e)
        for u2 in x2.vertices:
            for w2 in x2.vertices:
                edges.add(frozenset(((u1, u2), (w1, w2))))
    for v1 in x1.vertices:
        for e in x2.edges:
            u2, w2 = tuple(e)
            edges.add(frozenset(((v1, u2), (v1, w2))))
    return LabeledGraph(vertices, frozenset(edges))


def graph_from_ball(ball: Ball) -> LabeledGraph:
    edges = set()
    for u, _s, w in ball.edges():
        if u != w:
            edges.add(frozenset((u, w)))
    return LabeledGraph(tuple(ball.vertices), frozenset(edges))


# -- generating sets --------------------------------------------------------


def lift_generating_set(presentation, quotient_genset) -> GenSet:
    """Full preimage in G of a quotient generating set under the torsion map."""
    p = presentation
    free = p.n - p.torsion_len
    elements = list(quotient_genset.elements
                    if isinstance(quotient_genset, GenSet) else quotient_genset)
    for v in elements:
        if len(v) != free:
            raise ValueError("quotient generating set has elements of the wrong length")
        if not any(v):
            raise ValueError("quotient generating set contains the identity")
    torsion = structure.torsion_subgroup(p)
    lifted = []
    for v in elements:
        for w in torsion.elements:
            lifted.append(p.collect_word(
                tuple((i, e) for i, e in enumerate(tuple(v) + tuple(w[free:])) if e)))
    return GenSet(p, lifted)


class FsfResult:
    def __init__(self, genset: GenSet, removed_identity: bool):
        self.genset = genset
        self.removed_identity = removed_identity


def fsf_generating_set(presentation, finite_subgroup: SubgroupWitness,
                       genset: GenSet) -> FsfResult:
    """The products F*s*F over a verified finite subgroup F and symmetric S."""
    p = presentation
    finite_subgroup.check_closed()
    genset.require_symmetric()
    products = set()
    for f1 in finite_subgroup.elements:
        for s in genset.elements:
            fs = p.multiply(f1, s)
            for f2 in finite_subgroup.elements:
                products.add(p.multiply(fs, f2))
    removed = p.identity in products
    products.discard(p.identity)
    out = GenSet(p, products)
    if not out.symmetric:
        raise AssertionError("F*S*F must be symmetric when F and S are")
    return FsfResult(genset=out, removed_identity=removed)


# -- twins -------------------------------------------------------------------


def twin_classes(ball: Ball):
    """Partition of the ball's interior vertices by exact neighborhood
    equality."""
    partition = cayley.twin_partition(ball.interior_vertices(), ball.neighbor_set)
    return tuple(sorted(tuple(members) for members in partition))


def twin_swap_map(ball: Ball, g, h):
    """The transposition of a twin pair, as a vertex map on the ball."""
    interior = set(ball.interior_vertices())
    if g not in interior or h not in interior:
        raise ValueError("both vertices must be interior")
    if g != h and ball.neighbor_set(g) != ball.neighbor_set(h):
        raise ValueError("vertices are not twins (neighborhoods differ)")
    danger = set(ball.genset.elements) | {ball.presentation.identity}
    if g in danger or h in danger:
        warnings.warn("twin swap touches the generating set or the identity; "
                      "the map is constructed but will not fix the generators")
    mapping = {v: v for v in ball.vertices}
    mapping[g], mapping[h] = h, g
    return mapping


# -- Klein bottle maps --------------------------------------------------------


class BallMap:
    def __init__(self, source: Ball, target, mapping: dict, notes: list | None = None):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.notes = [] if notes is None else notes

    def check(self):
        return check_vertex_map(self.source, self.target, self.mapping)


def klein_grid_map(r) -> BallMap:
    """Vertex map a^x b^y -> (x, (-1)^x y) from the Klein-bottle ball to the
    grid ball (the module docstring proves it an isomorphism)."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    klein = builtin("klein_bottle")
    z2 = builtin("zn", n=2)
    bk = generate_ball(klein, cayley.standard_genset(klein), r)
    bz = generate_ball(z2, cayley.standard_genset(z2), r)
    mapping = {(x, y): (x, -y if x & 1 else y) for x, y in bk.vertices}
    return BallMap(bk, bz, mapping,
                   notes=["a^x b^y is sent to the grid point (x, (-1)^x y)"])


def klein_flip_map(r) -> BallMap:
    """The generator-swapping automorphism of the Klein-bottle ball.

    Sends the vertex a^x b^y to the vertex a^((-1)^x y) b^((-1)^y x), the
    grid swap read through ``klein_grid_map`` (proof in the module
    docstring).  The naive target b^x a^y = a^y b^((-1)^y x), the word with
    its letters swapped, fails right-multiplication adjacency and is
    rejected by check_vertex_map.
    """
    if r < 1:
        raise ValueError("radius must be at least 1")
    klein = builtin("klein_bottle")
    bk = generate_ball(klein, cayley.standard_genset(klein), r)
    mapping = {(x, y): (-y if x & 1 else y, -x if y & 1 else x)
               for x, y in bk.vertices}
    return BallMap(bk, bk, mapping,
                   notes=["vertex a^x b^y is sent to a^((-1)^x y) b^((-1)^y x); "
                          "fixes the identity",
                          "b^x a^y rewrites to a^y b^((-1)^y x) in normal form"])


# -- wreath comparison for torsion lifts --------------------------------------


def wreath_lift_comparison(presentation, quotient_genset, r):
    """The natural vertex map from the lifted-genset ball to the wreath product
    of the quotient ball with an edgeless fiber of size |torsion|."""
    p = presentation
    torsion = structure.torsion_subgroup(p)
    quotient = structure.quotient_by_torsion(p)
    free = p.n - p.torsion_len
    lifted = lift_generating_set(p, quotient_genset)
    ball = generate_ball(p, lifted, r)
    qgens = GenSet(quotient, quotient_genset.elements
                   if isinstance(quotient_genset, GenSet) else quotient_genset)
    qball = generate_ball(quotient, qgens, r)
    fiber_index = {w[free:]: i for i, w in enumerate(torsion.elements)}
    wreath = wreath_product(graph_from_ball(qball), edgeless_graph(len(torsion.elements)))
    mapping = {v: (v[:free], fiber_index[v[free:]]) for v in ball.vertices}
    return BallMap(ball, wreath, mapping,
                   notes=["vertex splits into quotient part and torsion fiber index"])
