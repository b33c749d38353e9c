"""Finite balls of Cayley graphs: word metrics, labelled edges, geodesics.

A ball ``B(r)`` of ``Cay(G;S)`` holds every element at distance at most ``r``
from the identity, with exact BFS distances.  It is built in one BFS pass
that calls the generating set's step kernel
(``PcPresentation.right_multiplier``) once per vertex, which gives the
vertex's products by all of S in one compiled call: they discover the next
shell and fill the vertex's slice of one flat neighbour list, the last
shell's products outside the ball as -1.  The vertices are then relabelled
once into lexicographic order on exponent vectors, so all derived artifacts
are deterministic; the BFS dict, re-valued in place, becomes the index, and
the relabel list, the lexicographic ids in BFS order, is kept as the shell
order.  Distance queries answer ``None`` ("unknown") rather than ever
returning a wrong number: ``dist(u,v)`` is certified exactly when
``u^{-1}v`` lies in the ball.

The module has two balls, and a reader takes the cheaper one that holds
what it reads:

- ``Ball`` (``generate_ball``), the ball above, with edge rows, vertex ids
  and the shell order.  The graph export, geodesics, the automorphism
  search, ``structure``, ``order.convexity_check`` and the suites read it.
- ``DistanceBall`` (``distance_ball``) is the same BFS keeping only
  element -> distance and the last sphere, grown in place.  Vertex counts,
  distance queries and the distance export read it (the CLI's ``ball``
  without ``--out`` and ``distance``), and so does distortion
  (``order.distortion_profile``), which grows it until its sphere certifies
  the distance asked for.

Geodesics are paths in the ball's BFS DAG, whose edges ``u -> u*s`` go one
shell outward: ``targets[u * width + sid] = w`` with ``dist[w] = dist[u] + 1``.
A query from ``u`` to ``v`` runs on the translated problem from the
identity to ``u^{-1}v``, as label sequences are invariant under left
translation.  Every geodesic routine is a loop over these arrays, with no
per-edge generator.  The first query caches the geodesic counts from the
identity, pushed along the forward edges in shell order, and a count is
then a lookup; the torsion-label check makes the same push with a label
count capped at 2.  Listing collects the target's ancestors one shell at a
time backward over the ``targets`` rows, then walks forward through them on
an explicit stack, lazily and in label order.
"""

from __future__ import annotations

from .reporting import Report
from .structure import conjugation_stable

DEFAULT_VERTEX_BUDGET = 5 * 10**6
DEFAULT_GEODESIC_CAP = 10**6


class BallBudgetError(RuntimeError):
    """Vertex budget exceeded while generating a ball."""


class GeodesicCapError(RuntimeError):
    """Geodesic enumeration cap exceeded; carries the exact geodesic count."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class MapError(ValueError):
    """Vertex map violates a structural precondition (totality, bijectivity, radius)."""


class GenerationError(ValueError):
    """The generating set generates a proper subgroup; names a pc generator
    outside it."""


def require_normal_form(presentation, v, what):
    """Raise ValueError, naming the vector as ``what`` and the coordinate,
    unless v has one coordinate per generator and each finite-order
    coordinate lies in [0, order)."""
    if len(v) != presentation.n:
        raise ValueError(f"{what} {presentation.element_to_str(v)} has length "
                         f"{len(v)}, expected {presentation.n}")
    for i, m in enumerate(presentation.orders):
        if m is not None and not 0 <= v[i] < m:
            raise ValueError(
                f"{what} {presentation.element_to_str(v)} is not a normal "
                f"form: coordinate {i} ({presentation.gens[i]}) must lie in "
                f"[0, {m})")


class GenSet:
    """A deduplicated, identity-free generating set over one presentation."""

    def __init__(self, presentation, elements):
        self.presentation = presentation
        canon = sorted(set(tuple(v) for v in elements))
        for v in canon:
            require_normal_form(presentation, v, "generating-set element")
        if presentation.identity in canon:
            raise ValueError("generating set must not contain the identity")
        self.elements = tuple(canon)
        inv = {presentation.inverse(s) for s in self.elements}
        self.symmetric = inv == set(self.elements)
        self._pc_words = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def require_symmetric(self):
        if not self.symmetric:
            raise ValueError("generating set is not symmetric (closed under inverses)")
        return self

    def pc_words(self, max_vertices=None):
        """One S-word for each pc generator g_i, a tuple of indices into
        ``elements``, computed on the first call and kept.

        Each word spells the path from e to g_i along BFS parents in
        B_S(R), for the least R whose ball holds every g_i, so it is a
        geodesic; the BFS runs within the vertex budget ``max_vertices``.
        Every presentation first gets the abelianization test
        (``Abelianization.span_index``): a pc generator outside <S>[G, G]
        shows <S> != G in any group.  On a nilpotent presentation passing it
        proves that S generates G, so the BFS is sure to stop; otherwise
        the BFS may still find <S> finite, or run to the budget when <S> is
        an infinite proper subgroup that the test cannot see.  Raises
        GenerationError, naming a pc generator outside <S>, when the test
        fails or the BFS exhausts a finite <S>, and BallBudgetError past the
        budget.
        """
        if self._pc_words is None:
            self._pc_words = _pc_words(self.require_symmetric(),
                                       vertex_budget(max_vertices))
        return self._pc_words

    def __repr__(self):
        return f"GenSet({list(self.elements)})"


def _pc_words(genset, budget):
    p = genset.presentation
    index, missing = p.abelianization.span_index(genset.elements)
    if missing is not None:
        where = "infinite index" if index is None else f"index {index}"
        raise GenerationError(
            f"the generating set generates a proper subgroup of {p.name}: "
            f"pc generator {p.gens[missing]} is outside <S>[G, G], which "
            f"has {where} in G")
    gens = [p.generator(i) for i in range(p.n)]
    step = p.right_multiplier(genset.elements)
    parent = {p.identity: None}           # element -> (BFS parent, sid)
    shell, d = [p.identity], 0
    while not all(g in parent for g in gens):
        if not shell:
            missing = next(i for i, g in enumerate(gens) if g not in parent)
            raise GenerationError(
                f"the generating set generates a finite proper subgroup of "
                f"{p.name}, of order {len(parent)}: pc generator "
                f"{p.gens[missing]} is outside it")
        d += 1
        last, shell = shell, []
        for u in last:
            for sid, w in enumerate(step(u)):
                if w in parent:
                    continue
                parent[w] = (u, sid)
                shell.append(w)
                if len(parent) > budget:
                    raise BallBudgetError(
                        f"ball exceeded vertex budget {budget} at radius {d} "
                        f"before reaching every pc generator")
    words = []
    for g in gens:
        word = []
        while parent[g] is not None:
            g, sid = parent[g]
            word.append(sid)
        words.append(tuple(reversed(word)))
    return tuple(words)


def standard_genset(presentation) -> GenSet:
    if not presentation.genset:
        raise ValueError(f"presentation {presentation.name!r} has no attached generating set")
    return GenSet(presentation, presentation.genset)


def vertex_budget(explicit=None):
    return DEFAULT_VERTEX_BUDGET if explicit is None else explicit


class GeodesicPath:
    """A path given by its start vertex and ordered edge labels; equal and
    hashed by value."""

    def __init__(self, start: tuple, labels: tuple):
        self.start = start
        self.labels = labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.labels) == (other.start, other.labels)

    def __hash__(self):
        return hash((self.start, self.labels))

    def end(self, presentation):
        x = self.start
        for s in self.labels:
            x = presentation.multiply(x, s)
        return x

    def __len__(self):
        return len(self.labels)


class Ball:
    """The radius-r metric ball with oriented labelled edges, as flat lists
    over lexicographic vertex ids.

    ``targets[u * width + sid]`` is the id of u * s_sid, or -1 when that
    product lies outside the ball (only for u on the last shell); ``width``
    is |S|.  ``shell_order`` lists the ids in BFS order, so by distance.
    """

    def __init__(self, presentation, genset, radius, vertices, index, dist_list,
                 targets, shell_order):
        self.presentation = presentation
        self.genset = genset
        self.radius = radius
        self.vertices = vertices          # tuple of elements, lexicographic
        self.index = index                # element -> vid
        self.dist_list = dist_list        # vid -> distance
        self.targets = targets            # vid * width + sid -> vid of v*s, or -1
        self.width = len(targets) // len(vertices)
        self.shell_order = shell_order    # vids in BFS order
        self._nbr_sets = None
        self._interior_ids = None
        self._geo_counts = None           # vid -> geodesics from e, built lazily

    def __contains__(self, v):
        return v in self.index

    def __len__(self):
        return len(self.vertices)

    def distance_from_identity(self, v):
        i = self.index.get(v)
        return None if i is None else self.dist_list[i]

    def distance(self, u, v):
        """Exact dist_S(u, v), or None when not certifiable inside the ball."""
        return _distance(self, u, v)

    def sorted_distances(self):
        """(vertex, distance) pairs in lexicographic vertex order."""
        return zip(self.vertices, self.dist_list)

    def row(self, vid):
        """The id of v*s for each s in S, in order, -1 where it lies outside
        the ball."""
        k = self.width
        return self.targets[vid * k:vid * k + k]

    def neighbor_ids(self, vid):
        """The ids of the vertex's neighbours v*s inside the ball, in the
        order of S."""
        return [w for w in self.row(vid) if w >= 0]

    def neighbor_set(self, v):
        if self._nbr_sets is None:
            verts = self.vertices
            self._nbr_sets = [frozenset(verts[w] for w in self.neighbor_ids(i))
                              for i in range(len(verts))]
        return self._nbr_sets[self.index[v]]

    def vertex_set(self):
        return self.index.keys()

    def interior_ids(self):
        if self._interior_ids is None:
            cut = self.radius - 1
            self._interior_ids = tuple(i for i, d in enumerate(self.dist_list) if d <= cut)
        return self._interior_ids

    def interior_vertices(self):
        return [self.vertices[i] for i in self.interior_ids()]

    def edges(self):
        """Oriented labelled edges (u, s, u*s) in canonical order."""
        gens, verts = self.genset.elements, self.vertices
        for uid, u in enumerate(verts):
            for sid, vid in enumerate(self.row(uid)):
                if vid >= 0:
                    yield (u, gens[sid], verts[vid])


def generate_ball(presentation, genset, radius, max_vertices=None) -> Ball:
    """BFS ball of Cay(G;S); raises BallBudgetError past the vertex budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    genset.require_symmetric()
    budget = vertex_budget(max_vertices)
    step = presentation.right_multiplier(genset.elements)
    k = len(genset)
    outside = (-1,) * k
    index = {presentation.identity: 0}    # element -> BFS id, until the relabel
    get = index.get
    order = [presentation.identity]       # BFS id -> element
    dist = [0]                            # BFS id -> distance
    flat = []                             # BFS id * k + sid -> BFS id of u*s, or -1
    for bid, u in enumerate(order):    # order grows while it is walked
        d = dist[bid] + 1
        if d > radius:
            # the last shell: every product is in the ball already or outside
            flat.extend(map(get, step(u), outside))
            continue
        for w in step(u):
            wid = get(w)
            if wid is None:
                wid = index[w] = len(order)
                order.append(w)
                dist.append(d)
                if len(order) > budget:
                    raise BallBudgetError(
                        f"ball exceeded vertex budget {budget} at radius {d}")
            flat.append(wid)
    # the BFS ids' int objects, the index's values in BFS order, serve again
    # as the lexicographic ids, so the ball allocates one int per vertex, not three
    ids = list(index.values())
    lex = sorted(ids, key=order.__getitem__)
    relabel = [0] * len(lex)              # BFS id -> lexicographic id
    for i, b in zip(ids, lex):
        relabel[b] = index[order[b]] = i
    relabel.append(-1)                    # so that -1, outside the ball, stays -1
    targets = [relabel[w] for b in lex for w in flat[b * k:b * k + k]]
    relabel.pop()
    return Ball(presentation, genset, radius, tuple(order[b] for b in lex), index,
                [dist[b] for b in lex], targets, relabel)


def _distance(ball, u, v):
    """dist_S(u, v) read from the ball's distances from e, None outside it;
    ValueError when u is not in the ball."""
    if u not in ball:
        raise ValueError("start vertex is not in the ball")
    p = ball.presentation
    return ball.distance_from_identity(p.multiply(p.inverse(u), v))


class DistanceBall:
    """The ball of one generating set without edges, grown in place.

    It holds the BFS distance of every element within ``radius`` of e and
    the last shell, the sphere S(radius), which is all that counts,
    distances and ``distance_via_sphere`` read: a ball of radius R
    certifies any distance up to 2R.  ``grow`` extends the last shell
    outward, so every vertex is multiplied by S once over all the growths;
    a growth past the vertex budget is undone, and the ball answers as it
    did before it.  ``dist`` is distortion's policy: radii go 0, 4, 8, 16,
    ..., capped at the proven upper bound, each growth made only when the
    ball cannot certify the distance asked for.
    """

    def __init__(self, genset, budget):
        self.genset = genset
        self.presentation = genset.presentation
        self.budget = budget
        e = self.presentation.identity
        self.dists = {e: 0}               # element -> BFS distance, insertion order
        self.shell = [e]                  # the elements at distance radius
        self.radius = 0
        self.failed_radius = None         # radius of the growth that broke the budget

    def __contains__(self, v):
        return v in self.dists

    def __len__(self):
        return len(self.dists)

    def distance_from_identity(self, v):
        return self.dists.get(v)

    def distance(self, u, v):
        """Exact dist_S(u, v), or None when u^-1 v is outside the ball."""
        return _distance(self, u, v)

    def sorted_distances(self):
        """(vertex, distance) pairs in lexicographic vertex order."""
        return sorted(self.dists.items())

    def distance_via_sphere(self, x):
        """Exact dist(e, x) for any x within twice the radius, else None.

        Inside B(R) this is the BFS distance.  Outside it, write d = dist(e, x)
        and let S(R) be the sphere of radius R.  If d <= 2R, the vertex y at
        distance R on a geodesic from e to x lies in S(R), and y^-1 x lies in
        B(R) with |y^-1 x| = d - R; every y in S(R) with y^-1 x in B(R) gives
        d <= R + |y^-1 x| by the triangle inequality.  So d is R plus the
        least |y^-1 x| over those y.  If d > 2R, no y in S(R) has y^-1 x in
        B(R), as that would give d <= 2R, and the answer is None ("unknown").
        As the generating set is symmetric, |y^-1| = |y|, so y^-1 ranges over
        S(R) itself and no inverse is computed.
        """
        d = self.dists.get(x)
        if d is not None:
            return d
        multiply, dists = self.presentation.multiply, self.dists
        within = (dists.get(multiply(y_inv, x)) for y_inv in self.shell)
        best = min((r for r in within if r is not None), default=None)
        return None if best is None else self.radius + best

    def dist(self, x, upper):
        """dist(e, x) or None; ``upper`` is a proven upper bound, or None."""
        while True:
            d = self.distance_via_sphere(x)
            if d is not None:
                return d
            if not self.shell:
                return None               # the ball is all of <S>, and x is outside it
            if self.failed_radius is not None or (
                    upper is not None and 2 * self.radius >= upper):
                return None
            want = max(4, self.radius * 2)
            if upper is not None:
                want = min(upper, want)
            try:
                self.grow(want)
            except BallBudgetError:
                self.failed_radius = want
                return None

    def grow(self, radius):
        """Extend the ball to ``radius`` one shell at a time.  Past the
        budget it raises BallBudgetError, naming the shell that broke it,
        with the ball as it was."""
        step = self.presentation.right_multiplier(self.genset.require_symmetric().elements)
        dists, budget, kept = self.dists, self.budget, len(self.dists)
        shell = self.shell
        for d in range(self.radius + 1, radius + 1):
            last, shell = shell, []
            append = shell.append
            for u in last:
                for w in step(u):
                    if w not in dists:
                        dists[w] = d
                        append(w)
                if len(dists) > budget:
                    while len(dists) > kept:   # the new vertices were inserted last
                        dists.popitem()
                    raise BallBudgetError(
                        f"ball exceeded vertex budget {budget} at radius {d}")
        self.shell, self.radius = shell, radius


def distance_ball(genset, radius, max_vertices=None) -> DistanceBall:
    """B(radius) of Cay(G;S) as distances only, with the checks and the
    budget error of ``generate_ball``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ball = DistanceBall(genset.require_symmetric(), vertex_budget(max_vertices))
    ball.grow(radius)
    return ball


# -- geodesics -----------------------------------------------------------


class UncertifiedDistanceError(ValueError):
    """The ball does not certify the distance between the endpoints of a
    geodesic query: ``u^{-1}v`` lies outside it."""

    def __init__(self, radius):
        super().__init__(f"distance between the endpoints is not certifiable "
                         f"in the ball of radius {radius}")
        self.radius = radius


def _remainder_id(ball, u, v):
    """The id of ``u^{-1}v``, raising when it lies outside the ball."""
    p = ball.presentation
    wid = ball.index.get(p.multiply(p.inverse(u), v))
    if wid is None:
        raise UncertifiedDistanceError(ball.radius)
    return wid


def _geodesic_counts(ball):
    """Geodesics from the identity to each vertex, cached on the ball."""
    counts = ball._geo_counts
    if counts is None:
        dist, targets, k, radius = ball.dist_list, ball.targets, ball.width, ball.radius
        counts = [0] * len(dist)
        counts[ball.shell_order[0]] = 1
        for u in ball.shell_order:
            du = dist[u] + 1
            if du > radius:
                continue          # the last shell has no forward edges
            c = counts[u]
            for w in targets[u * k:u * k + k]:
                if dist[w] == du and w >= 0:
                    counts[w] += c
        ball._geo_counts = counts
    return counts


def _walk(ball, u, wid):
    """The geodesics from u to u * vertices[wid], lazily, in sid order, which
    is lexicographic order of labels as ``GenSet.elements`` is sorted.

    The ancestors of wid are found one shell at a time, backward: the
    neighbours x*s one shell closer are exactly x's DAG predecessors, as S
    is symmetric.  The walk then runs forward from the identity through the
    ancestors only, on an explicit stack, so every path it starts reaches
    wid and it holds one frame whatever the length.
    """
    dist, targets, k = ball.dist_list, ball.targets, ball.width
    gens = ball.genset.elements
    d = dist[wid]
    if d == 0:
        yield GeodesicPath(u, ())
        return
    level = {wid}
    children = {}        # ancestor -> [(label, child)], the children in sid order
    for j in range(d - 1, -1, -1):
        above = level
        level = {y for x in above for y in targets[x * k:x * k + k]
                 if y >= 0 and dist[y] == j}
        for x in level:
            children[x] = [(gens[sid], y)
                           for sid, y in enumerate(targets[x * k:x * k + k])
                           if y in above]
    labels = []
    stack = [iter(children[ball.shell_order[0]])]
    while stack:
        for s, y in stack[-1]:
            if y == wid:
                yield GeodesicPath(u, (*labels, s))
            else:
                labels.append(s)
                stack.append(iter(children[y]))
                break
        else:
            stack.pop()
            if labels:
                labels.pop()


def iter_geodesics(ball, u, v):
    """Geodesic segments from u to v, lazily, in lexicographic order of labels.

    The query runs on the translated problem from the identity to
    ``u^{-1}v``.  The walk first collects that target's ancestors in the
    BFS DAG, shell by shell backward, then lists paths forward through them
    on an explicit stack, building each path only when it is asked for.
    Raises UncertifiedDistanceError when ``u^{-1}v`` is outside the ball.
    """
    return _walk(ball, u, _remainder_id(ball, u, v))


def enumerate_geodesics(ball, u, v, cap=DEFAULT_GEODESIC_CAP):
    """All geodesic segments from u to v, as label sequences in canonical order."""
    wid = _remainder_id(ball, u, v)
    count = _geodesic_counts(ball)[wid]
    if count > cap:
        raise GeodesicCapError(f"geodesic cap {cap} exceeded", count)
    return list(_walk(ball, u, wid))


def count_geodesics(ball, u, v):
    """Number of geodesic segments from u to v, a lookup in the cached counts."""
    p = ball.presentation
    wid = ball.index.get(p.multiply(p.inverse(u), v))
    if wid is None:
        raise UncertifiedDistanceError(ball.radius)
    return (ball._geo_counts or _geodesic_counts(ball))[wid]


# -- torsion-label checks (geodesics through a finite normal subgroup) ----


def torsion_label_bound(ball, subgroup_elements) -> Report:
    """Verify that no in-ball geodesic carries two edges labelled in the subgroup."""
    p = ball.presentation
    members = set(subgroup_elements)
    if p.identity not in members:
        members.add(p.identity)
    if not all(conjugation_stable(p, n, members) for n in members):
        raise ValueError("subgroup is not conjugation-stable under the generators")
    labels_in = members - {p.identity}
    params = {"radius": ball.radius, "subgroup_order": len(members)}
    in_n = [s in labels_in for s in ball.genset.elements]
    dist, targets, k, radius = ball.dist_list, ball.targets, ball.width, ball.radius
    # most subgroup labels on a geodesic from e, capped at 2; -1 if unreached
    hits = [-1] * len(dist)
    hits[ball.shell_order[0]] = 0
    for u in ball.shell_order:
        du = dist[u] + 1
        if du > radius:
            continue
        h = hits[u]
        for w, t in zip(targets[u * k:u * k + k], in_n):
            if dist[w] == du and w >= 0 and h + t > hits[w]:
                hits[w] = min(2, h + t)
    if 2 in hits:
        w = ball.vertices[hits.index(2)]
        path = next(g for g in iter_geodesics(ball, p.identity, w)
                    if sum(s in labels_in for s in g.labels) > 1)
        return Report(
            claim="every geodesic in the ball has at most one subgroup-labelled edge",
            verdict="fail", ok=False, parameters=params,
            witnesses=[{"endpoint": w, "labels": list(path.labels)}])
    return Report(
        claim="every geodesic in the ball has at most one subgroup-labelled edge",
        verdict="pass", ok=True, parameters=params,
        notes=["checked on geodesic segments from the identity inside the ball; "
               "statements about bi-infinite homogeneous lines are out of desk reach"])


def insert_torsion_edge(ball, geo: GeodesicPath, subgroup_elements):
    """Slide the leading subgroup-labelled edge through the path.

    For geo = (n, s_1..s_k) with n in the finite normal subgroup, returns the
    k+1 pairwise-distinct equal-length paths obtained by inserting the
    conjugated subgroup element at each position.
    """
    p = ball.presentation
    members = set(subgroup_elements)
    if not geo.labels:
        raise ValueError("path is empty")
    n0 = geo.labels[0]
    if n0 not in members:
        raise ValueError("first label of the path is not in the subgroup")
    rest = geo.labels[1:]
    k = len(rest)
    paths = []
    prefix = p.identity
    for i in range(k + 1):
        ni = p.conjugate(n0, prefix)
        if ni not in members:
            raise ValueError(
                "conjugated element left the subgroup; the subgroup is not normal")
        paths.append(GeodesicPath(geo.start, rest[:i] + (ni,) + rest[i:]))
        if i < k:
            prefix = p.multiply(prefix, rest[i])
    seen = {path.labels for path in paths}
    if len(seen) != k + 1:
        raise ValueError("inserted paths are not pairwise distinct "
                         "(a non-subgroup label coincides with a subgroup element)")
    end = geo.end(p)
    for path in paths:
        if path.end(p) != end:
            raise ValueError(
                f"inserted path {path.labels} ends at {path.end(p)}, not at "
                f"{end}; the presentation's conjugation is inconsistent")
    return paths


# -- exports ---------------------------------------------------------------


def _fmt(element):
    return ",".join(str(e) for e in element)


def export_graph(ball, path):
    """TSV edge list `src<TAB>label<TAB>dst` with a commented header."""
    lines = [
        f"# presentation: {ball.presentation.name}",
        f"# genset: {' '.join(_fmt(s) for s in ball.genset.elements)}",
        f"# radius: {ball.radius}",
    ]
    for u, s, w in ball.edges():
        lines.append(f"{_fmt(u)}\t{_fmt(s)}\t{_fmt(w)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_distances(ball, path):
    """TSV `vertex<TAB>dist` in canonical vertex order, from a Ball or a
    DistanceBall."""
    lines = [
        f"# presentation: {ball.presentation.name}",
        f"# radius: {ball.radius}",
    ]
    for v, d in ball.sorted_distances():
        lines.append(f"{_fmt(v)}\t{d}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_vertex_map(mapping, path):
    lines = [f"{_fmt(u)}\t{_fmt(v)}" for u, v in sorted(mapping.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_vertex_map(path, source, target):
    """The map in a TSV file of `vertex<TAB>image` lines; every vertex must
    be a normal form of the ``source`` presentation and every image one of
    ``target``, else ValueError.  A line of any other shape is a ValueError
    naming its line number."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                src, dst = (tuple(int(x) for x in part.split(","))
                            for part in line.split("\t"))
            except ValueError:
                raise ValueError(
                    f"map line {line_no}: expected vertex<TAB>image, each a "
                    f"comma-separated list of integers, got {line!r}") from None
            require_normal_form(source, src, "map vertex")
            require_normal_form(target, dst, "map image")
            mapping[src] = dst
    return mapping


# -- vertex-map adjacency check -------------------------------------------


class MapVerdict:
    def __init__(self, ok: bool, reason: str = "", witness: tuple | None = None):
        self.ok = ok
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.ok


def twin_partition(items, neighbours):
    """The items grouped by equal neighbour set, ``neighbours(v)`` being v's
    set: each group in item order, the groups in the order of their first
    items.  A group is an independent set, since u ~ v with N(u) = N(v)
    would put v in its own neighbour set."""
    groups = {}
    for v in items:
        groups.setdefault(neighbours(v), []).append(v)
    return list(groups.values())


def require_total(mapping, interior):
    """Raise MapError unless the map has an image for every interior vertex."""
    missing = next((u for u in interior if u not in mapping), None)
    if missing is not None:
        raise MapError(f"map is not total on interior vertices (missing {missing})")


def check_vertex_map(ball_a, target, mapping) -> MapVerdict:
    """Adjacency preservation in both directions on interior vertices.

    ``target`` is a Ball or anything exposing ``vertex_set``/``neighbor_set``
    (e.g. a constructed labelled graph).  Interior is taken on the source
    ball: vertices at distance <= r-1, whose neighborhoods are complete.
    """
    if isinstance(target, Ball) and target.radius != ball_a.radius:
        raise MapError("radius mismatch between source and target balls")
    interior = ball_a.interior_vertices()
    dom = set(interior)
    require_total(mapping, interior)
    images = {u: mapping[u] for u in interior}
    if len(set(images.values())) != len(images):
        raise MapError("map is not injective on interior vertices")
    tverts = target.vertex_set()
    for u in interior:
        mu = images[u]
        if mu not in tverts:
            return MapVerdict(False, "image is not a vertex of the target", (u, mu))
    back = {mu: u for u, mu in images.items()}
    for u in interior:
        mu = images[u]
        tn = target.neighbor_set(mu)
        for w in ball_a.neighbor_set(u):
            if w in dom and images[w] not in tn:
                return MapVerdict(False, "edge not preserved", (u, w))
        for mw in tn:
            w = back.get(mw)
            if w is not None and w not in ball_a.neighbor_set(u):
                return MapVerdict(False, "non-edge mapped onto an edge", (u, w))
    return MapVerdict(True)
