"""Ball-restricted automorphism enumeration and affine-bijection detection.

A stable local automorphism of B(r) is the restriction to B(r) of a distance
preserving, identity-fixing automorphism of the induced graph on B(r+t); the
margin t filters out maps that exist only because of boundary truncation.
The filter is one-sided.  The restriction of every automorphism of the
infinite Cayley graph survives it, but a survivor need not be such a
restriction.  So when every survivor is affine, every automorphism of the
whole graph is affine on the window, and the "normal" verdict is qualified
only by the checked (r, t); a non-affine survivor shows a non-affine map of
the whole graph only once it is known to extend beyond B(r+t).  Below radius
2 the interior of B(r) is {e}, where the affine check checks nothing, so
``normality_verdict`` answers inconclusive there.

The affine check splits a map as m(x) = h alpha(x) with h = m(e) and
certifies alpha in time linear in the ball.  If the images of the source's
pc generators satisfy every relation of the source presentation, von Dyck's
theorem gives a homomorphism phi that extends them, and one product per
interior vertex, along a BFS parent edge, confirms alpha = phi on the
interior.  Only when a pc generator is outside the map's domain or the
certificate fails does the quadratic scan over interior pairs run, to name
the failing pair.

The survivors form a group: an automorphism of X, the induced graph on
B(r+t), that fixes e keeps distances from e, hence B(r), and restriction to
B(r) is a homomorphism whose image is the survivors.  ``StableAutomorphisms``
holds the group, never as a list of maps, as the twin classes inside B(r)
and a base and strong generating set for its action on them, which a
backtracking search on the twin quotient of X (``_stable_restrictions``)
finds with one completion per candidate image of each base point.  Its
order is the product of the basic orbit lengths times prod |C|! over the
classes C, exact however large, and the lifts of the strong generators with
the transpositions of neighbouring twins generate it.  A map affine on the
interior keeps the interior, so composites of such maps are affine there:
every survivor is affine exactly when every generator is, and
``normality_verdict`` checks the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from . import structure
from .cayley import (Ball, check_vertex_map, generate_ball, require_total,
                     twin_partition)
from .reporting import Report

#: search nodes the stable-restriction backtracking may visit before giving up
SEARCH_NODE_GUARD = 10**8


class EnumerationCapError(RuntimeError):
    """The search visited more than ``SEARCH_NODE_GUARD`` nodes."""


def _orbit(points, maps):
    """The images of the points under the group the maps generate, each map
    a sequence indexed by point."""
    seen, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        new = {m[x] for m in maps} - seen
        seen |= new
        todo += new
    return seen


@dataclass(frozen=True)
class StableAutomorphisms:
    """The stable local automorphisms of B(r), as one group.

    ``classes`` are the twin classes inside B(r), each a tuple of vertices in
    lexicographic order.  ``strong_generators`` generate the group's action
    on the classes, each giving the index of every class's image class, and
    ``orbit_lengths`` are the action's basic orbit lengths |Delta_i|.
    """

    classes: tuple
    strong_generators: tuple
    orbit_lengths: tuple

    @property
    def order(self):
        """The order, exact: prod |Delta_i| * prod |C|!."""
        return prod(self.orbit_lengths) * prod(
            factorial(len(members)) for members in self.classes)

    def __len__(self):
        return self.order

    def generators(self):
        """The lift of each strong generator, in order, then the swap of
        each pair of neighbouring members of a class; each is a survivor."""
        for images in self.strong_generators:
            yield {v: w for members, k in zip(self.classes, images)
                   for v, w in zip(members, self.classes[k])}
        identity = {v: v for members in self.classes for v in members}
        for members in self.classes:
            for u, w in zip(members, members[1:]):
                yield {**identity, u: w, w: u}

    def orbit(self, g):
        """The members of the classes in the orbit of g's class, sorted."""
        k = next(k for k, members in enumerate(self.classes) if g in members)
        return tuple(sorted(v for j in _orbit({k}, self.strong_generators)
                            for v in self.classes[j]))


@dataclass
class AffineVerdict:
    affine: bool
    translation: tuple
    alpha_on_generators: dict | None
    witness: tuple | None = None
    reason: str = ""
    #: the images of the source pc generators when the certificate holds
    alpha_on_pc_generators: tuple | None = None

    def __bool__(self):
        return self.affine

    def to_witness_dict(self):
        return {
            "affine": self.affine,
            "h": self.translation,
            "alpha_on_generators": None if self.alpha_on_generators is None else
                sorted(self.alpha_on_generators.items()),
            "witness": self.witness,
            "reason": self.reason,
        }


def _wl_colors(seed, nbr):
    """Stable Weisfeiler-Leman colours refined from the seed keys.

    Any automorphism of the graph that keeps the seed keys keeps these
    colours, so colour classes are sound candidate pools.
    """
    n = len(seed)

    def canon(raw):
        palette = {}
        out = [0] * n
        for i in range(n):
            key = raw[i]
            if key not in palette:
                palette[key] = len(palette)
            out[i] = palette[key]
        return out

    cur = canon(seed)
    while True:
        new = canon([(cur[i], tuple(sorted(cur[j] for j in nbr[i])))
                     for i in range(n)])
        if len(set(new)) == len(set(cur)):
            return new
        cur = new


def _twin_quotient(big: Ball):
    """The twin classes of the induced graph on the big ball, with e split
    off into a class of its own, sorted by least member; the quotient's
    neighbour rows, in class indices; and the index of e's class."""
    e_id = big.index[big.presentation.identity]
    nbr_sets = [frozenset(w for _, w in row) for row in big.adjacency]
    classes = twin_partition([i for i in range(len(big.vertices)) if i != e_id],
                             nbr_sets.__getitem__)
    classes.append([e_id])
    classes.sort()
    cls = [0] * len(big.vertices)
    for q, members in enumerate(classes):
        for v in members:
            cls[v] = q
    # adjacency between two classes is all or nothing: any member stands in
    nbrs = [tuple(dict.fromkeys(cls[w] for _, w in big.adjacency[members[0]]))
            for members in classes]
    return classes, nbrs, cls[e_id]


def _stable_restrictions(big: Ball, small_radius):
    """A base and strong generating set for the restrictions to
    B(small_radius) of the distance-preserving automorphisms of the induced
    graph X on the big ball that fix the identity.

    Returns (small classes, generators, orbit lengths, search nodes): the
    twin classes inside B(small_radius) as id lists sorted by least member,
    and the strong generators, each the image class index of each class.

    The search runs on the twin quotient Q of X (``_twin_quotient``): one
    vertex per class of vertices with equal neighbour sets, e in a class of
    its own and e's twins in another.  A class is an independent set, since
    u ~ v with N(u) = N(v) would make v its own neighbour, and adjacency
    between two classes is all or nothing.  So an automorphism of Q that
    fixes {e} and keeps distances and class sizes, with any bijection from
    each class onto its image, is one of X, and every automorphism of X
    fixing e arises so: Aut(X)_e = (prod_C Sym(C)) semidirect Aut(Q)_{e}.
    Twins other than e share their distance, so every class lies wholly
    inside B(small_radius) or wholly outside it.

    The restrictions of Aut(Q)_e form a group H on the small classes.  Its
    base b_1, ..., b_k is the small classes other than {e}, in scan order;
    only 1 fixes it, so |H| = prod |Delta_i|, where Delta_i is the orbit of
    b_i under H_i, the stabiliser of b_1, ..., b_{i-1} (Seress, *Permutation
    Group Algorithms*, 2003).  With every b_j assigned to itself, from the
    last base point up, b_i is unassigned and each candidate c in its domain
    gets one search for a completion with b_i -> c, which adds a generator.
    The generators so far lie in H_i, and c is skipped in their orbit of b_i
    or of a failed candidate (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).  So the generators found from b_i on generate H_i.

    Candidates come from stable WL colours seeded with (distance, class
    size, degree).  The frontier holds every unassigned vertex with an
    assigned neighbour, with its domain: the unused vertices of its WL
    colour adjacent to the images of all its assigned neighbours.
    Assigning u -> c updates only u's unassigned neighbours, and drops c
    from the domains of the neighbours of the preimages of c's used
    neighbours, the only domains that can hold c; a trail undoes both on
    backtrack.  The next vertex is the lowest-ranked frontier vertex with
    at most one candidate (a dead end when it has none), else the frontier
    vertex of least (domain size, rank), small-ball vertices first, where
    rank is the (distance, least member) scan order.  Each frontier entry
    carries a key whose order is that rule, so one min() picks.
    """
    classes, nbrs, _ = _twin_quotient(big)
    n = len(classes)
    nbr_sets = [frozenset(row) for row in nbrs]
    dist = [big.dist_list[members[0]] for members in classes]
    colors = _wl_colors([(dist[q], len(classes[q]), len(nbrs[q]))
                         for q in range(n)], nbr_sets)
    is_small = [d <= small_radius for d in dist]
    small_q = [q for q in range(n) if is_small[q]]
    slot = {q: k for k, q in enumerate(small_q)}
    scan_order = sorted(range(n), key=lambda i: (dist[i], i))
    rank = [0] * n
    for k, v in enumerate(scan_order):
        rank[v] = k
    # keys: rank below n for at most one candidate, then small-ball vertices
    # by (size, rank), then the rest; a domain holds at most n vertices
    suffix = [0 if s else n for s in is_small]
    img = [-1] * n
    pre = [-1] * n                        # image -> preimage, -1 while unused
    frontier = {}                         # vertex -> domain
    keys = {}                             # vertex -> pick key
    trail = []                            # (vertex, previous domain or None)
    nodes = 0

    def put(v, dom):
        frontier[v] = dom
        size = len(dom)
        keys[v] = rank[v] if size <= 1 else (size + suffix[v]) * n + rank[v]

    def assign(u, c):
        img[u] = c
        pre[c] = u
        if u in frontier:
            trail.append((u, frontier.pop(u)))
            del keys[u]
        c_nbrs = nbr_sets[c]
        for v in nbrs[u]:
            if img[v] >= 0:
                continue
            old = frontier.get(v)
            if old is None:
                cv = colors[v]
                dom = {x for x in nbrs[c] if pre[x] < 0 and colors[x] == cv}
            else:
                dom = old & c_nbrs
                if len(dom) == len(old):
                    continue
            trail.append((v, old))
            put(v, dom)
        for x in nbrs[c]:
            w = pre[x]
            if w < 0:
                continue
            for v in nbrs[w]:
                old = frontier.get(v)
                if old is not None and c in old:
                    trail.append((v, old))
                    put(v, old - {c})

    def unassign(u, mark):
        while len(trail) > mark:
            v, old = trail.pop()
            if old is None:
                del frontier[v], keys[v]
            else:
                put(v, old)
        pre[img[u]] = -1
        img[u] = -1

    def consistent(u, c):
        """Every used neighbour of c is the image of a neighbour of u; with
        c in u's domain this is the two-way adjacency test."""
        u_nbrs = nbr_sets[u]
        for x in nbrs[c]:
            w = pre[x]
            if w >= 0 and w not in u_nbrs:
                return False
        return True

    def complete(u, cands):
        """The first completion of the assignment with u sent to one of the
        candidates, as a map of Q, or None; the assignment is left as is."""
        nonlocal nodes
        stack = [(u, iter(cands), len(trail))]    # vertex, candidates, mark
        while stack:
            u, todo, mark = stack[-1]
            if img[u] >= 0:
                unassign(u, mark)
            c = next((c for c in todo if consistent(u, c)), None)
            if c is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > SEARCH_NODE_GUARD:
                raise EnumerationCapError("search node guard exceeded")
            assign(u, c)
            if not frontier:              # the ball is connected: all assigned
                found = img[:]
                for u, _, mark in reversed(stack):
                    unassign(u, mark)
                return found
            v = scan_order[min(keys.values()) % n]
            stack.append((v, iter(sorted(frontier[v])), len(trail)))
        return None

    marks = {}                            # small class -> trail mark, e first
    for b in sorted(small_q, key=rank.__getitem__):
        marks[b] = len(trail)
        assign(b, b)
    gens, lengths = [], []
    for b in reversed(list(marks)[1:]):   # the base, from its last point
        unassign(b, marks[b])
        reached, dead = {b}, set()
        for c in sorted(frontier[b]):
            if c in reached or c in dead:
                continue
            found = complete(b, [c])
            if found is None:
                dead = _orbit(dead | {c}, gens)
            else:
                gens.append(found)
                reached, dead = _orbit({b}, gens), _orbit(dead, gens)
        lengths.append(len(reached))
    return ([classes[q] for q in small_q],
            tuple(tuple(slot[g[q]] for q in small_q) for g in gens),
            tuple(reversed(lengths)), nodes)


def enumerate_local_auts(ball: Ball, stability,
                         max_vertices=None) -> StableAutomorphisms:
    """The stable local automorphisms of the ball, as one group.

    B(r + stability) is built within the vertex budget ``max_vertices``.
    """
    if stability < 1:
        raise ValueError("stability margin must be at least 1")
    big = generate_ball(ball.presentation, ball.genset,
                        ball.radius + stability, max_vertices=max_vertices)
    classes, gens, lengths, _ = _stable_restrictions(big, ball.radius)
    # vertex ids follow the lexicographic order of the vertices
    return StableAutomorphisms(tuple(tuple(big.vertices[i] for i in members)
                                     for members in classes), gens, lengths)


def _split_translation(ball_a, ball_b, mapping):
    """(h, alpha on S, failure): h = m(e), alpha(s) = h^{-1} m(s) for s in S,
    and the verdict when alpha does not map S bijectively onto S'."""
    e, pb = ball_a.presentation.identity, ball_b.presentation
    if e not in mapping:
        raise ValueError("map must be defined at the identity")
    h = mapping[e]
    hinv = pb.inverse(h)
    gens_a = ball_a.genset.elements
    gens_b = set(ball_b.genset.elements)
    alpha_gens = {}
    for s in gens_a:
        if s not in mapping:
            return h, None, AffineVerdict(
                False, h, None, reason=f"generator {s} outside the map domain")
        alpha_gens[s] = pb.multiply(hinv, mapping[s])
    images = set(alpha_gens.values())
    if not images <= gens_b or len(images) != len(gens_b):
        bad = next((s for s in gens_a if alpha_gens[s] not in gens_b), gens_a[0])
        return h, alpha_gens, AffineVerdict(
            False, h, alpha_gens, witness=(bad,),
            reason="generators are not mapped bijectively onto the target "
                   "generating set")
    return h, alpha_gens, None


def _evaluate(pb, imgs, word):
    """The product of imgs[i]^k over the factors (i, k) of a word."""
    x = pb.identity
    for i, k in word:
        x = pb.multiply(x, pb.power(imgs[i], k))
    return x


def _pc_homomorphism(pa, pb, mapping, hinv):
    """The images alpha(g_i) of the source pc generators when they satisfy
    every relation of the source presentation, collected in the target;
    None when one fails or some g_i is outside the map's domain."""
    imgs = []
    for i in range(pa.n):
        g = pa.generator(i)
        if g not in mapping:
            return None
        imgs.append(pb.multiply(hinv, mapping[g]))
    for j, gj in enumerate(imgs):
        gj_inv = pb.inverse(gj)
        for l in range(j + 1, pa.n):
            fixed = ((l, 1),)             # a missing entry: the pair commutes
            if (pb.multiply(pb.multiply(gj_inv, imgs[l]), gj)
                    != _evaluate(pb, imgs, pa.conj.get((l, j), fixed))):
                return None
            if (pb.multiply(pb.multiply(gj, imgs[l]), gj_inv)
                    != _evaluate(pb, imgs, pa.conjinv.get((l, j), fixed))):
                return None
        m = pa.orders[j]
        if m is not None and pb.power(gj, m) != _evaluate(
                pb, imgs, pa.power_words.get(j, ())):
            return None
    return tuple(imgs)


def _agrees_on_interior(ball_a, pb, mapping, imgs):
    """m(u s) = m(u) phi(s) along one BFS parent edge into each interior
    vertex; with m(e) = h this gives m = h phi on the interior, by induction
    on the distance."""
    phi = [_evaluate(pb, imgs, tuple((i, k) for i, k in enumerate(s) if k))
           for s in ball_a.genset.elements]
    verts, dist, adjacency = ball_a.vertices, ball_a.dist_list, ball_a.adjacency
    cut = ball_a.radius - 1
    reached = [False] * len(verts)
    for u in ball_a.interior_ids():
        d = dist[u] + 1
        if d > cut:
            continue
        mu = mapping.get(verts[u])
        if mu is None:
            return False
        for sid, w in adjacency[u]:
            if dist[w] != d or reached[w]:
                continue
            reached[w] = True
            if mapping.get(verts[w]) != pb.multiply(mu, phi[sid]):
                return False
    return True


def _pairwise_scan(ball_a: Ball, ball_b: Ball, mapping) -> AffineVerdict:
    """The quadratic check: alpha(xy) = alpha(x) alpha(y) on every pair of
    interior vertices with xy interior.  ``is_affine_on_ball`` falls back to
    it, for its witness, when the certificate fails; the tests use it as the
    certificate's oracle."""
    h, alpha_gens, failure = _split_translation(ball_a, ball_b, mapping)
    if failure is not None:
        return failure
    pa, pb = ball_a.presentation, ball_b.presentation
    hinv = pb.inverse(h)
    alpha = {x: pb.multiply(hinv, mx) for x, mx in mapping.items()}
    interior = ball_a.interior_vertices()
    iset = set(interior)
    for x in interior:
        ax = alpha[x]
        for y in interior:
            xy = pa.multiply(x, y)
            if xy not in iset:
                continue
            if alpha[xy] != pb.multiply(ax, alpha[y]):
                return AffineVerdict(False, h, alpha_gens, witness=(x, y),
                                     reason="alpha is not multiplicative")
    return AffineVerdict(True, h, alpha_gens)


def is_affine_on_ball(ball_a: Ball, ball_b: Ball, mapping) -> AffineVerdict:
    """Split the map as translation * alpha and certify alpha on the window.

    alpha(x) = m(e)^{-1} m(x) must map the source generating set bijectively
    onto the target generating set, and must be multiplicative on every
    in-ball pair with x, y, xy all interior.

    Multiplicativity is certified in linear time.  The images alpha(g_i) of
    the source pc generators, read wherever g_i is in the map's domain, are
    checked against every relation of the source presentation (``conj`` and
    ``conjinv`` of each pair, ``pow`` of each finite-order g_i), collected in
    the target.  By von Dyck's theorem they then define a homomorphism phi
    with phi(g_i) = alpha(g_i) (Sims, *Computation with Finitely Presented
    Groups*, 1994, ch. 9).  One product per interior vertex, along a BFS
    parent edge, confirms alpha = phi on the interior, and then every
    interior pair is multiplicative.  The certified verdict carries the
    images in ``alpha_on_pc_generators``.  When some g_i is outside the
    domain, a relation fails or alpha differs from phi, the quadratic
    ``_pairwise_scan`` decides instead, with its witness pair.
    """
    h, alpha_gens, failure = _split_translation(ball_a, ball_b, mapping)
    if failure is not None:
        return failure
    pb = ball_b.presentation
    imgs = _pc_homomorphism(ball_a.presentation, pb, mapping, pb.inverse(h))
    if imgs is not None and _agrees_on_interior(ball_a, pb, mapping, imgs):
        return AffineVerdict(True, h, alpha_gens, alpha_on_pc_generators=imgs)
    return _pairwise_scan(ball_a, ball_b, mapping)


def normality_verdict(presentation, genset, r, t, max_vertices=None) -> Report:
    """Run the affine check over the generators of the stable local
    automorphisms of B(r), in order, up to the first that fails; every
    survivor is affine exactly when every generator is.

    Below radius 2 the interior of B(r) is {e}, where the affine check
    checks nothing, so the verdict is inconclusive.
    """
    if t < 1:
        raise ValueError("stability margin must be at least 1")
    ball = generate_ball(presentation, genset, r, max_vertices=max_vertices)
    params = {"group": presentation.name, "radius": r, "stability": t,
              "genset": list(genset.elements)}
    claim = "every stable local automorphism is an affine bijection"
    if r < 2:
        return Report(claim, "inconclusive", parameters=params,
                      notes=[f"radius {r} is below 2: the interior of B({r}) is "
                             "{e}, so the affine check would check nothing"])
    try:
        auts = enumerate_local_auts(ball, t, max_vertices=max_vertices)
    except EnumerationCapError as exc:
        return Report(claim, "inconclusive", parameters=params, notes=[str(exc)])
    params["stable_automorphisms"] = auts.order
    for mapping in auts.generators():
        verdict = is_affine_on_ball(ball, ball, mapping)
        if not verdict.affine:
            return Report(
                claim, "non-normal", True, parameters=params,
                witnesses=[{"map": sorted(mapping.items()),
                            "affine_failure": verdict.to_witness_dict()}],
                notes=[f"the witness is the first non-affine generator: it is "
                       f"not affine on B({r}), and shows a non-affine "
                       f"automorphism of the whole graph only if it extends "
                       f"beyond B({r + t})"])
    return Report(claim, f"normal-at-({r},{t})", True, parameters=params,
                  notes=["verdict is qualified by the checked radius and stability; "
                         "it is evidence, not a proof for the infinite graph"])


def aut_e_orbit(ball: Ball, g, stability, max_vertices=None):
    """The orbit of a vertex under the stable local automorphisms.  It
    contains the vertex's orbit under the automorphisms of the whole graph
    that fix e, and may be larger: a survivor need not extend beyond
    B(r + stability)."""
    if g not in ball.index:
        raise ValueError("element is not in the ball")
    return enumerate_local_auts(ball, stability,
                                max_vertices=max_vertices).orbit(g)


def induced_quotient_check(ball_a: Ball, ball_b: Ball, mapping,
                           n1: structure.SubgroupWitness,
                           n2: structure.SubgroupWitness) -> Report:
    """Coset containment m(g N1) inside N2 m(g), then the induced quotient map.

    On success the induced map on torsion quotients is extracted and run
    through the adjacency and affine checks on the quotient balls.  Below
    radius 2 the interior of the quotient ball is at most {e}, where the
    affine check checks nothing, so after the containment check the verdict
    is inconclusive.
    """
    pa, pb = ball_a.presentation, ball_b.presentation
    params = {"radius": ball_a.radius, "n1": len(n1.elements), "n2": len(n2.elements)}
    n2set = set(n2.elements)
    interior = ball_a.interior_vertices()
    require_total(mapping, interior)
    dom = set(mapping)
    for g in interior:
        mg = mapping[g]
        for n in n1.elements:
            gn = pa.multiply(g, n)
            if gn not in dom:
                continue
            co = pb.multiply(mapping[gn], pb.inverse(mg))
            if co not in n2set:
                return Report(claim="the map sends torsion cosets into torsion cosets",
                              verdict="fail", ok=False, parameters=params,
                              witnesses=[{"coset_of": g, "offender": gn,
                                          "ratio": co}])
    r = ball_a.radius
    if r < 2:
        return Report("the map induces a well-defined affine bijection on "
                      "torsion quotients", "inconclusive", parameters=params,
                      notes=[f"radius {r} is below 2: the interior of B({r}) is "
                             "at most {e}, so the affine check would check nothing"])
    qa = structure.quotient_by_torsion(pa)
    qb = structure.quotient_by_torsion(pb)
    qmap = {}
    for g in interior:
        pg = structure.project_to_quotient(pa, g)
        img = structure.project_to_quotient(pb, mapping[g])
        if pg in qmap and qmap[pg] != img:
            return Report(claim="the map sends torsion cosets into torsion cosets",
                          verdict="fail", ok=False, parameters=params,
                          witnesses=[{"coset": pg, "images": [qmap[pg], img]}])
        qmap[pg] = img
    from .cayley import GenSet
    qgens_a = GenSet(qa, structure.quotient_generators(pa, ball_a.genset.elements))
    qgens_b = GenSet(qb, structure.quotient_generators(pb, ball_b.genset.elements))
    qball_a = generate_ball(qa, qgens_a, ball_a.radius)
    qball_b = generate_ball(qb, qgens_b, ball_b.radius)
    for v in qball_a.interior_vertices():
        if v not in qmap:
            return Report(claim="the map sends torsion cosets into torsion cosets",
                          verdict="inconclusive", ok=None, parameters=params,
                          notes=[f"induced map does not cover quotient vertex {v}"])
    adjacency = check_vertex_map(qball_a, qball_b, qmap)
    if not adjacency:
        return Report(claim="the induced quotient map is a ball isomorphism",
                      verdict="fail", ok=False, parameters=params,
                      witnesses=[{"edge": adjacency.witness,
                                  "reason": adjacency.reason}])
    affine = is_affine_on_ball(qball_a, qball_b, qmap)
    ok = bool(affine)
    return Report(
        claim="the map induces a well-defined affine bijection on torsion quotients",
        verdict="pass" if ok else "fail", ok=ok, parameters=params,
        witnesses=[] if ok else [affine.to_witness_dict()],
        notes=[f"induced translation part: {affine.translation}",
               "affine check ran on the quotient balls"])


def central_translation_check(ball_a: Ball, ball_b: Ball, mapping, z,
                              kmax) -> Report:
    """Power-translation law m(g z^k) = m(g) sigma(z)^k with g-independent sigma.

    Preconditions are reported distinctly: the source must be torsion-free,
    z must lie in the central isolated part Z-dagger of the source, and the
    map must pass the adjacency check.
    """
    pa, pb = ball_a.presentation, ball_b.presentation
    if pa.torsion_len:
        raise ValueError("precondition: source group must be torsion-free")
    zd_a = set(structure.z_dagger(pa, ball_a))
    if z not in zd_a:
        raise ValueError("precondition: z is not in the central isolated part "
                         "(Z-dagger) of the source")
    adjacency = check_vertex_map(ball_a, ball_b, mapping)
    if not adjacency:
        raise ValueError(f"precondition: map fails the adjacency check "
                         f"({adjacency.reason})")
    params = {"z": z, "kmax": kmax, "radius": ball_a.radius}
    dom = set(mapping)
    interior = set(ball_a.interior_vertices())
    sigma_values = {}
    samples = 0
    for g in sorted(interior):
        orbit = [pa.multiply(g, pa.power(z, k)) for k in range(-kmax, kmax + 1)]
        if not all(x in interior and x in dom for x in orbit):
            continue
        samples += 1
        mg = mapping[g]
        sigma = pb.multiply(pb.inverse(mg), mapping[pa.multiply(g, z)])
        for k in range(-kmax, kmax + 1):
            want = pb.multiply(mg, pb.power(sigma, k))
            got = mapping[orbit[kmax + k]]
            if got != want:
                return Report(claim="map translates central powers by a fixed element",
                              verdict="fail", ok=False, parameters=params,
                              witnesses=[{"g": g, "k": k, "expected": want,
                                          "got": got}])
        sigma_values[g] = sigma
    if not sigma_values:
        return Report(claim="map translates central powers by a fixed element",
                      verdict="inconclusive", ok=None, parameters=params,
                      notes=["no interior orbit of length 2*kmax+1 available; "
                             "grow the ball or lower kmax"])
    distinct = sorted(set(sigma_values.values()))
    if len(distinct) != 1:
        return Report(claim="map translates central powers by a fixed element",
                      verdict="fail", ok=False, parameters=params,
                      witnesses=[{"sigmas": distinct}],
                      notes=["sigma depends on the base point"])
    sigma = distinct[0]
    zd_b = set(structure.z_dagger(pb, ball_b))
    in_target = sigma in zd_b
    return Report(
        claim="map translates central powers by a fixed element",
        verdict="pass" if in_target else "fail", ok=in_target,
        parameters=params,
        witnesses=[{"sigma": sigma, "samples": samples}],
        notes=["sigma is independent of the base point"] +
              ([] if in_target else
               ["sigma is outside the central isolated part of the target"]))
