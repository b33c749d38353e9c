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

The affine check splits a map as m(x) = h alpha(x) with h = m(e), and
"affine on B(r)" means one thing: alpha agrees on the interior with a
homomorphism phi of the whole group.  alpha is evaluated on one fixed
S-word for each pc generator, computed once per generating set; if these
images satisfy every relation of the source presentation, von Dyck's
theorem gives phi, and one product per interior vertex, along an edge
toward e, confirms m = h phi on the interior.  The check is linear in the
ball, and a failure names the broken relation or the first interior vertex
where m differs from h phi.  A map multiplicative on every interior pair
can still fail it: the Klein flip on B(2) is, and breaks a relation.

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

The search is nearly all forced moves.  A vertex left with one candidate
is taken next, from a stack; a domain emptied by an assignment ends the
branch at once; and the search branches only at a fixpoint, where no such
vertex is left.  Domains only shrink as the assignment grows, so forced
moves reach the same fixpoint, or a dead end, in any order, and the
generators found do not depend on that order.
"""

from __future__ import annotations

from math import factorial, prod

from . import structure
from .cayley import (Ball, GenerationError, GenSet, check_vertex_map, generate_ball,
                     require_total, twin_partition)
from .reporting import Report

#: search nodes the stable-restriction backtracking may visit before giving up
SEARCH_NODE_GUARD = 10**8


class EnumerationCapError(RuntimeError):
    """The search visited more than ``SEARCH_NODE_GUARD`` nodes; the message
    names the guard, the base point reached and the generators found."""


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


class StableAutomorphisms:
    """The stable local automorphisms of B(r), as one group.

    ``classes`` are the twin classes inside B(r), each a tuple of vertices in
    lexicographic order.  ``strong_generators`` generate the group's action
    on the classes, each giving the index of every class's image class, and
    ``orbit_lengths`` are the action's basic orbit lengths |Delta_i|.
    """

    def __init__(self, classes: tuple, strong_generators: tuple,
                 orbit_lengths: tuple):
        self.classes = classes
        self.strong_generators = strong_generators
        self.orbit_lengths = orbit_lengths

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
        """The members of the classes in the orbit of g's class, sorted.

        It contains g's orbit under the automorphisms of the whole graph
        that fix e, and may be larger: a survivor need not extend beyond
        B(r + stability).
        """
        k = next((k for k, members in enumerate(self.classes) if g in members),
                 None)
        if k is None:
            raise ValueError("element is not in the ball")
        return tuple(sorted(v for j in _orbit({k}, self.strong_generators)
                            for v in self.classes[j]))


class AffineVerdict:
    def __init__(self, affine: bool, translation: tuple,
                 alpha_on_generators: dict | None, witness: tuple | None = None,
                 reason: str = "", alpha_on_pc_generators: tuple | None = None):
        self.affine = affine
        self.translation = translation
        self.alpha_on_generators = alpha_on_generators
        self.witness = witness
        self.reason = reason
        #: the images of the source pc generators when the certificate holds
        self.alpha_on_pc_generators = alpha_on_pc_generators

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
    def canon(raw):
        """Each key's index in order of first appearance, and the count."""
        palette = {}
        return [palette.setdefault(key, len(palette)) for key in raw], \
            len(palette)

    cur, count = canon(seed)
    while True:
        new, new_count = canon([(c, tuple(sorted([cur[j] for j in row])))
                                for c, row in zip(cur, nbr)])
        if new_count == count:
            return new
        cur, count = new, new_count


def _twin_quotient(big: Ball):
    """The twin classes of the induced graph on the big ball, with e split
    off into a class of its own, sorted by least member; the quotient's
    neighbour rows, in class indices; and the index of e's class."""
    e_id = big.index[big.presentation.identity]
    nbr_sets = [frozenset(big.neighbor_ids(v)) for v in range(len(big.vertices))]
    classes = twin_partition([i for i in range(len(big.vertices)) if i != e_id],
                             nbr_sets.__getitem__)
    classes.append([e_id])
    classes.sort()
    cls = [0] * len(big.vertices)
    for q, members in enumerate(classes):
        for v in members:
            cls[v] = q
    # adjacency between two classes is all or nothing: any member stands in
    nbrs = [tuple(dict.fromkeys(cls[w] for w in big.neighbor_ids(members[0])))
            for members in classes]
    return classes, nbrs, cls[e_id]


def _fixpoint_pick(frontier, rank, suffix, n):
    """The frontier vertex of least (domain size + suffix) * n + rank, or
    the least-ranked vertex with one candidate, which a search holds
    outside the forced stack only in the state it started from."""
    def key(v):
        size = len(frontier[v])
        return rank[v] if size <= 1 else (size + suffix[v]) * n + rank[v]
    return min(frontier, key=key)


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
    neighbours, the only domains that can hold c; a trail of old domains
    undoes both on backtrack, one dict store each.

    Almost every pick is forced.  A vertex whose domain shrinks to one
    candidate goes on a stack, and while the stack holds a vertex the next
    pick pops it.  A domain that shrinks to none ends the assignment at
    once: the branch has no completion, and the dead end costs no node.
    Only at a fixpoint, with no forced vertex left, does the pick scan the
    frontier (``_fixpoint_pick``) for the vertex of least (domain size,
    rank), small-ball vertices first, where rank is the (distance, least
    member) scan order; only there does the search branch, over the sorted
    domain.  A backtrack empties the stack: it resumes at a branching
    vertex, whose state was a fixpoint, or at the vertex ``complete``
    started from, whose one-member domains the scan takes first, by rank.
    The order of forced picks does not change the generators found.
    Domains only shrink as the assignment grows, so a forced vertex stays
    forced until it is assigned, and every completion of the branch sends
    it to its one candidate.  So forced propagation from one state reaches
    the same fixpoint, or a dead end, in any order, and the search branches
    at the same fixpoints, by the same rule and over the same sorted
    candidates, as one that takes forced vertices by rank; only the nodes a
    dead end costs differ.
    """
    classes, nbrs, _ = _twin_quotient(big)
    n = len(classes)
    nbr_sets = [frozenset(row) for row in nbrs]
    dist = [big.dist_list[members[0]] for members in classes]
    colors = _wl_colors([(dist[q], len(classes[q]), len(nbrs[q]))
                         for q in range(n)], nbrs)
    is_small = [d <= small_radius for d in dist]
    small_q = [q for q in range(n) if is_small[q]]
    slot = {q: k for k, q in enumerate(small_q)}
    rank = [0] * n
    for k, v in enumerate(sorted(range(n), key=lambda i: (dist[i], i))):
        rank[v] = k
    # small-ball vertices sort before the rest; a domain holds at most n
    suffix = [0 if s else n for s in is_small]
    img = [-1] * n
    pre = [-1] * n                        # image -> preimage, -1 while unused
    frontier = {}                         # vertex -> domain
    forced = []                           # frontier vertices with one candidate
    trail = []                            # (vertex, previous domain or None)
    guard = SEARCH_NODE_GUARD
    nodes = 0

    def put(v, old, dom):
        """Give v the domain dom, recording old on the trail; False when dom
        is empty."""
        trail.append((v, old))
        frontier[v] = dom
        if len(dom) == 1:
            forced.append(v)
        return bool(dom)

    def assign(u, c):
        """Send u to c and update the domains; False at the first domain it
        empties, a dead end, leaving the rest for ``unassign`` to undo."""
        img[u] = c
        pre[c] = u
        if u in frontier:
            trail.append((u, frontier.pop(u)))
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
            if not put(v, old, dom):
                return False
        for x in nbrs[c]:
            w = pre[x]
            if w < 0:
                continue
            for v in nbrs[w]:
                old = frontier.get(v)
                if old is not None and c in old and not put(v, old, old - {c}):
                    return False
        return True

    def unassign(u, mark):
        while len(trail) > mark:
            v, old = trail.pop()
            if old is None:
                del frontier[v]
            else:
                frontier[v] = old
        pre[img[u]] = -1
        img[u] = -1
        forced.clear()

    def complete(u, cands):
        """The first completion of the assignment with u sent to one of the
        candidates, as a map of Q, or None; the assignment is left as is."""
        nonlocal nodes
        stack = [(u, iter(cands), len(trail))]    # vertex, candidates, mark
        while stack:
            u, todo, mark = stack[-1]
            if img[u] >= 0:
                unassign(u, mark)
            # the first candidate c whose used neighbours are all images of
            # neighbours of u; with c in u's domain this is the two-way
            # adjacency test
            u_nbrs = nbr_sets[u]
            for c in todo:
                for x in nbrs[c]:
                    w = pre[x]
                    if w >= 0 and w not in u_nbrs:
                        break
                else:
                    break
            else:
                stack.pop()
                continue
            nodes += 1
            if nodes > guard:
                raise EnumerationCapError
            if not assign(u, c):
                continue                  # a dead end: u takes its next candidate
            if not frontier:              # the ball is connected: all assigned
                found = img[:]
                for u, _, mark in reversed(stack):
                    unassign(u, mark)
                return found
            if forced:
                v = forced.pop()
                stack.append((v, iter(frontier[v]), len(trail)))
            else:
                v = _fixpoint_pick(frontier, rank, suffix, n)
                stack.append((v, iter(sorted(frontier[v])), len(trail)))
        return None

    marks = {}                            # small class -> trail mark, e first
    for b in sorted(small_q, key=rank.__getitem__):
        marks[b] = len(trail)
        assign(b, b)
    base = list(marks)[1:]
    gens, lengths = [], []
    for i in reversed(range(len(base))):  # the base, from its last point
        b = base[i]
        unassign(b, marks[b])
        reached, dead = {b}, set()
        for c in sorted(frontier[b]):
            if c in reached or c in dead:
                continue
            try:
                found = complete(b, [c])
            except EnumerationCapError:
                raise EnumerationCapError(
                    f"search node guard {guard} exceeded at base point "
                    f"{i + 1} of {len(base)} (the base is processed from its "
                    f"last point); strong generators found so far: "
                    f"{len(gens)}") from None
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
    and the verdict when alpha does not map S bijectively onto S'.  The
    failure names a generator whose image is outside S', or two generators
    that share an image."""
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
    if len(gens_a) != len(gens_b):
        return h, alpha_gens, AffineVerdict(
            False, h, alpha_gens,
            reason=f"the generating sets differ in size: {len(gens_a)} source "
                   f"and {len(gens_b)} target generators")
    source_of = {}                        # image -> the first generator sent there
    for s in gens_a:
        image = alpha_gens[s]
        if image not in gens_b:
            return h, alpha_gens, AffineVerdict(
                False, h, alpha_gens, witness=(s,),
                reason="the generator's image is outside the target "
                       "generating set")
        if image in source_of:
            return h, alpha_gens, AffineVerdict(
                False, h, alpha_gens, witness=(source_of[image], s),
                reason="the two generators share an image")
        source_of[image] = s
    return h, alpha_gens, None


def _evaluate(pb, imgs, word):
    """The product of imgs[i]^k over the factors (i, k) of a word."""
    x = pb.identity
    for i, k in word:
        x = pb.multiply(x, pb.power(imgs[i], k))
    return x


def _broken_relation(pa, pb, imgs):
    """The first relation of the source presentation that the images of its
    pc generators break, collected in the target, as ("conj", l, j),
    ("conjinv", l, j) or ("pow", j); None when they satisfy every one."""
    for j, gj in enumerate(imgs):
        gj_inv = pb.inverse(gj)
        for l in range(j + 1, pa.n):
            fixed = ((l, 1),)             # a missing entry: the pair commutes
            if (pb.multiply(pb.multiply(gj_inv, imgs[l]), gj)
                    != _evaluate(pb, imgs, pa.conj.get((l, j), fixed))):
                return ("conj", l, j)
            if (pb.multiply(pb.multiply(gj, imgs[l]), gj_inv)
                    != _evaluate(pb, imgs, pa.conjinv.get((l, j), fixed))):
                return ("conjinv", l, j)
        m = pa.orders[j]
        if m is not None and pb.power(gj, m) != _evaluate(
                pb, imgs, pa.power_words.get(j, ())):
            return ("pow", j)
    return None


def _first_disagreement(ball_a, pb, mapping, imgs):
    """The first interior vertex v, in (distance, lexicographic) order, with
    m(v) != h phi(v), or None.

    Each vertex w at distance d >= 1 is checked along one edge to a vertex
    u = w s at distance d - 1, as m(w) = m(u) phi(s)^-1.  Vertices nearer
    to e come first, so m(u) = h phi(u) is already confirmed, and the check
    fails exactly when m(w) != h phi(w).
    """
    phi_inv = []
    for s in ball_a.genset.elements:
        phi_s = _evaluate(pb, imgs, tuple((i, k) for i, k in enumerate(s) if k))
        phi_inv.append(pb.inverse(phi_s))
    verts, dist = ball_a.vertices, ball_a.dist_list
    # vertex ids are lexicographic, and the sort is stable
    for w in sorted((w for w in ball_a.interior_ids() if dist[w]),
                    key=dist.__getitem__):
        d = dist[w]
        # an interior vertex has every neighbour in the ball, so no -1 here
        sid, u = next((sid, u) for sid, u in enumerate(ball_a.row(w))
                      if dist[u] == d - 1)
        if mapping.get(verts[w]) != pb.multiply(mapping[verts[u]], phi_inv[sid]):
            return verts[w]
    return None


def is_affine_on_ball(ball_a: Ball, ball_b: Ball, mapping) -> AffineVerdict:
    """Split the map as m(x) = h alpha(x) and certify that alpha agrees on
    the interior B(r - 1) with a homomorphism phi of the whole group.

    h = m(e), and alpha(s) = h^{-1} m(s) must map the source generating set
    S bijectively onto the target's.  alpha(g_i) is then alpha evaluated on
    the fixed S-word of each source pc generator g_i (``GenSet.pc_words``),
    so only S needs to be in the map's domain.  These images are checked
    against every relation of the source presentation (``conj`` and
    ``conjinv`` of each pair, ``pow`` of each finite-order g_i), collected in
    the target.  By von Dyck's theorem they then define a homomorphism phi
    with phi(g_i) = alpha(g_i) (Sims, *Computation with Finitely Presented
    Groups*, 1994, ch. 9).  One product per interior vertex, along an edge
    toward e, confirms m = h phi on the interior, so m agrees there with the
    global affine map x -> h phi(x).  The cost is linear in the ball.

    A failure names its witness: the relation the images break, as
    ("conj", l, j), ("conjinv", l, j) or ("pow", j) in pc generator indices,
    or the first interior vertex where m differs from h phi.  The certified
    verdict carries the images in ``alpha_on_pc_generators``.  Raises
    GenerationError when S does not generate the source group, whose pc
    relations then say nothing about the map.
    """
    h, alpha_gens, failure = _split_translation(ball_a, ball_b, mapping)
    if failure is not None:
        return failure
    pa, pb = ball_a.presentation, ball_b.presentation
    gens = ball_a.genset.elements
    imgs = []
    for word in ball_a.genset.pc_words():
        x = pb.identity
        for sid in word:
            x = pb.multiply(x, alpha_gens[gens[sid]])
        imgs.append(x)
    broken = _broken_relation(pa, pb, imgs)
    if broken is not None:
        kind, *at = broken
        names = " by ".join(pa.gens[i] for i in at)
        return AffineVerdict(False, h, alpha_gens, witness=broken,
                             reason=f"the images of the pc generators break "
                                    f"the relation {kind} {names}")
    v = _first_disagreement(ball_a, pb, mapping, imgs)
    if v is not None:
        return AffineVerdict(False, h, alpha_gens, witness=(v,),
                             reason="the map differs from h phi at this "
                                    "interior vertex")
    return AffineVerdict(True, h, alpha_gens, alpha_on_pc_generators=tuple(imgs))


def normality_verdict(presentation, genset, r, t, max_vertices=None) -> Report:
    """Run the affine check over the generators of the stable local
    automorphisms of B(r), in order, up to the first that fails; every
    survivor is affine exactly when every generator is.

    Below radius 2 the interior of B(r) is {e}, where the affine check
    checks nothing, so the verdict is inconclusive.  So it is when S
    generates a proper subgroup, which is found before the search, from the
    S-words of the pc generators (``GenSet.pc_words``).
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
        genset.pc_words(max_vertices)
    except GenerationError as exc:
        return Report(claim, "inconclusive", parameters=params,
                      notes=[f"{exc}; the affine check reads the relations of "
                             f"the whole group, so it cannot decide here"])
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


def induced_quotient_check(ball_a: Ball, ball_b: Ball, mapping) -> Report:
    """Coset containment m(g N1) inside N2 m(g), then the induced quotient map.

    N1 and N2 are the torsion subgroups of the two balls' presentations.

    On success the induced map on torsion quotients is extracted and run
    through the adjacency and affine checks on the quotient balls.  Below
    radius 2 the interior of the quotient ball is at most {e}, where the
    affine check checks nothing, so after the containment check the verdict
    is inconclusive.  So it is when the quotient generating set generates a
    proper subgroup of the source quotient.
    """
    pa, pb = ball_a.presentation, ball_b.presentation
    n1, n2 = structure.torsion_subgroup(pa), structure.torsion_subgroup(pb)
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
    claim = "the map induces a well-defined affine bijection on torsion quotients"
    r = ball_a.radius
    if r < 2:
        return Report(claim, "inconclusive", parameters=params,
                      notes=[f"radius {r} is below 2: the interior of B({r}) is "
                             "at most {e}, so the affine check would check nothing"])
    qa = structure.quotient_by_torsion(pa)
    qb = structure.quotient_by_torsion(pb)
    # well defined: containment put m(gn) in N2 m(g), and projection kills N2
    qmap = {structure.project_to_quotient(pa, g):
            structure.project_to_quotient(pb, mapping[g]) for g in interior}
    qgens_a = GenSet(qa, structure.quotient_generators(pa, ball_a.genset.elements))
    qgens_b = GenSet(qb, structure.quotient_generators(pb, ball_b.genset.elements))
    qball_a = generate_ball(qa, qgens_a, ball_a.radius)
    qball_b = generate_ball(qb, qgens_b, ball_b.radius)
    # qmap covers the quotient interior: its words lift letter by letter to S
    adjacency = check_vertex_map(qball_a, qball_b, qmap)
    if not adjacency:
        return Report(claim="the induced quotient map is a ball isomorphism",
                      verdict="fail", ok=False, parameters=params,
                      witnesses=[{"edge": adjacency.witness,
                                  "reason": adjacency.reason}])
    try:
        affine = is_affine_on_ball(qball_a, qball_b, qmap)
    except GenerationError as exc:
        return Report(claim, "inconclusive", parameters=params, notes=[str(exc)])
    ok = bool(affine)
    return Report(
        claim=claim,
        verdict="pass" if ok else "fail", ok=ok, parameters=params,
        witnesses=[] if ok else [affine.to_witness_dict()],
        notes=[f"induced translation part: {affine.translation}",
               "affine check ran on the quotient balls"])

