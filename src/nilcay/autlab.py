"""Ball-restricted automorphism enumeration and affine-bijection detection.

A stable local automorphism of B(r) is the restriction of a distance
preserving, identity-fixing automorphism of the induced graph on B(r+t);
the extra margin t filters maps that only exist because of boundary
truncation.  Restrictions of genuine automorphisms of the infinite Cayley
graph always survive this filter, so non-affine witnesses found here are
conclusive, while "all affine" verdicts are qualified by (r, t).

The backtracking search assigns images in (distance, lexicographic) vertex
order, pruning candidates by distance, degree, and neighbor-distance
signature, and checking adjacency against all previously assigned vertices
in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import structure
from .cayley import Ball, check_vertex_map, generate_ball, require_total
from .reporting import Report

#: search nodes the stable-restriction backtracking may visit before giving up
SEARCH_NODE_GUARD = 10**8


class EnumerationCapError(RuntimeError):
    def __init__(self, message, found):
        super().__init__(message)
        self.found = found


@dataclass
class LocalAutomorphism:
    """A vertex self-map of B(r) fixing the identity, stable to margin t."""

    mapping: dict

    def key(self, ball: Ball):
        return tuple(self.mapping[v] for v in ball.vertices)


@dataclass
class AffineVerdict:
    affine: bool
    translation: tuple
    alpha_on_generators: dict | None
    witness: tuple | None = None
    reason: str = ""

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


def _wl_colors(big: Ball, nbr):
    """Stable Weisfeiler-Leman colors seeded with (distance, degree).

    Any distance-preserving automorphism of the induced ball graph preserves
    these colors, so color classes are sound candidate pools.
    """
    n = len(big.vertices)

    def canon(raw):
        palette = {}
        out = [0] * n
        for i in range(n):
            key = raw[i]
            if key not in palette:
                palette[key] = len(palette)
            out[i] = palette[key]
        return out

    cur = canon([(big.dist_list[i], len(nbr[i])) for i in range(n)])
    while True:
        new = canon([(cur[i], tuple(sorted(cur[j] for j in nbr[i])))
                     for i in range(n)])
        if len(set(new)) == len(set(cur)):
            return new
        cur = new


def _stable_restrictions(big: Ball, small_radius, cap):
    """Restrictions to B(small_radius) of distance-preserving automorphisms of
    the induced graph on the big ball, fixing the identity.

    Vertices are assigned in (distance, lexicographic) order, so the small
    ball is a prefix of the order: inside it every branch is explored;
    beyond it only one completion per prefix is sought, which prunes the
    factorial freedom among boundary twins of the big ball.
    """
    import sys as _sys
    n = len(big.vertices)
    nbr_ids = [frozenset(w for _, w in row) for row in big.adjacency]
    colors = _wl_colors(big, nbr_ids)
    dist = big.dist_list
    verts = big.vertices
    is_small = [dist[i] <= small_radius for i in range(n)]
    small_ids = tuple(i for i in range(n) if is_small[i])
    img = [-1] * n
    used = [False] * n
    assigned = []
    unassigned = set(range(n))
    results = []
    nodes = 0
    _sys.setrecursionlimit(max(_sys.getrecursionlimit(), 2 * n + 500))

    def cheap_domain(u):
        """Candidates from the intersected neighborhoods of assigned neighbors."""
        ws = [w for w in nbr_ids[u] if img[w] >= 0]
        base = nbr_ids[img[ws[0]]]
        for w in ws[1:]:
            base = base & nbr_ids[img[w]]
        cu = colors[u]
        return [c for c in base if not used[c] and colors[c] == cu]

    def full_ok(u, c):
        u_nbrs = nbr_ids[u]
        c_nbrs = nbr_ids[c]
        for w in assigned:
            if (w in u_nbrs) != (img[w] in c_nbrs):
                return False
        return True

    scan_order = sorted(range(n), key=lambda i: (dist[i], verts[i]))

    def pick():
        """Next vertex to assign: forced singletons first, then the most
        constrained small-ball vertex, then the most constrained suffix one.

        Returns (u, domain) or ("dead", None) when some frontier vertex has an
        empty domain, or (None, None) when nothing is assignable.
        """
        best_small = None
        best_any = None
        for u in scan_order:
            if img[u] >= 0:
                continue
            supported = any(img[w] >= 0 for w in nbr_ids[u])
            if not supported:
                continue
            dom = cheap_domain(u)
            if not dom:
                return "dead", None
            key = (len(dom), dist[u], verts[u])
            if len(dom) == 1:
                return u, dom
            if is_small[u] and (best_small is None or key < best_small[0]):
                best_small = (key, u, dom)
            if best_any is None or key < best_any[0]:
                best_any = (key, u, dom)
        chosen = best_small or best_any
        return (None, None) if chosen is None else (chosen[1], chosen[2])

    def search(small_left):
        """Backtracking with unit propagation and forward checking.

        While unassigned small-ball vertices remain the search is exhaustive;
        afterwards one completion suffices, so the first found unwinds.
        """
        nonlocal nodes
        if not unassigned:
            results.append(tuple(img[i] for i in small_ids))
            if len(results) > cap:
                raise EnumerationCapError(
                    f"automorphism cap {cap} exceeded", found=len(results))
            return True
        u, dom = pick()
        if u == "dead" or u is None:
            return False
        exhaustive = small_left > 0
        left_after = small_left - (1 if is_small[u] else 0)
        found = False
        for c in sorted(dom, key=lambda c: verts[c]):
            if not full_ok(u, c):
                continue
            nodes += 1
            if nodes > SEARCH_NODE_GUARD:
                raise EnumerationCapError("search node guard exceeded", len(results))
            img[u] = c
            used[c] = True
            assigned.append(u)
            unassigned.discard(u)
            done = search(left_after)
            unassigned.add(u)
            assigned.pop()
            img[u] = -1
            used[c] = False
            if done and not exhaustive:
                return True
            found = found or done
        return found

    e_id = big.index[big.presentation.identity]
    img[e_id] = e_id
    used[e_id] = True
    assigned.append(e_id)
    unassigned.discard(e_id)
    search(len(small_ids) - 1)
    return small_ids, results


def enumerate_local_auts(ball: Ball, stability, cap=10**5):
    """All stable local automorphisms of the ball, in canonical order."""
    r = ball.radius
    t = stability
    if r == 0:
        return [LocalAutomorphism({ball.presentation.identity:
                                   ball.presentation.identity})]
    if t < 1:
        raise ValueError("stability margin must be at least 1")
    big = generate_ball(ball.presentation, ball.genset, r + t)
    small_order, prefixes = _stable_restrictions(big, r, cap)
    seen = {}
    for prefix in prefixes:
        mapping = {big.vertices[small_order[k]]: big.vertices[prefix[k]]
                   for k in range(len(small_order))}
        seen.setdefault(prefix, mapping)
    auts = [LocalAutomorphism(m) for m in seen.values()]
    auts.sort(key=lambda a: a.key(ball))
    return auts


def is_affine_on_ball(ball_a: Ball, ball_b: Ball, mapping) -> AffineVerdict:
    """Split the map as translation * alpha and certify alpha on the window.

    alpha(x) = m(e)^{-1} m(x) must be multiplicative on every in-ball pair
    with x, y, xy all interior, and must map the source generating set
    bijectively onto the target generating set.
    """
    pa, pb = ball_a.presentation, ball_b.presentation
    e = pa.identity
    if e not in mapping:
        raise ValueError("map must be defined at the identity")
    h = mapping[e]
    hinv = pb.inverse(h)
    alpha = {}
    for x, mx in mapping.items():
        alpha[x] = pb.multiply(hinv, mx)
    gens_a = ball_a.genset.elements
    gens_b = set(ball_b.genset.elements)
    alpha_gens = {}
    for s in gens_a:
        if s not in alpha:
            return AffineVerdict(False, h, None,
                                 reason=f"generator {s} outside the map domain")
        alpha_gens[s] = alpha[s]
    images = set(alpha_gens.values())
    if not images <= gens_b or len(images) != len(gens_b):
        bad = next((s for s in gens_a if alpha_gens[s] not in gens_b), gens_a[0])
        return AffineVerdict(False, h, alpha_gens, witness=(bad,),
                             reason="generators are not mapped bijectively onto "
                                    "the target generating set")
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


def normality_verdict(presentation, genset, r, t, cap=10**5) -> Report:
    """Run the affine check over every stable local automorphism of B(r)."""
    ball = generate_ball(presentation, genset, r)
    params = {"group": presentation.name, "radius": r, "stability": t,
              "genset": list(genset.elements), "cap": cap}
    try:
        auts = enumerate_local_auts(ball, t, cap=cap)
    except EnumerationCapError as exc:
        return Report(claim="every stable local automorphism is an affine bijection",
                      verdict="inconclusive", ok=None, parameters=params,
                      notes=[str(exc)])
    non_affine = None
    for aut in auts:
        verdict = is_affine_on_ball(ball, ball, aut.mapping)
        if not verdict.affine:
            non_affine = (aut, verdict)
            break
    params["stable_automorphisms"] = len(auts)
    if non_affine is None:
        return Report(
            claim="every stable local automorphism is an affine bijection",
            verdict=f"normal-at-({r},{t})", ok=True, parameters=params,
            notes=["verdict is qualified by the checked radius and stability; "
                   "it is evidence, not a proof for the infinite graph"])
    aut, verdict = non_affine
    return Report(
        claim="every stable local automorphism is an affine bijection",
        verdict="non-normal", ok=True, parameters=params,
        witnesses=[{"map": sorted(aut.mapping.items()),
                    "affine_failure": verdict.to_witness_dict()}],
        notes=["a non-affine stable automorphism is a conclusive witness"])


def aut_e_orbit(ball: Ball, g, stability, cap=10**5):
    """Orbit of a vertex under the enumerated stable local automorphisms."""
    if g not in ball.index:
        raise ValueError("element is not in the ball")
    auts = enumerate_local_auts(ball, stability, cap=cap)
    return tuple(sorted({aut.mapping[g] for aut in auts}))


def induced_quotient_check(ball_a: Ball, ball_b: Ball, mapping,
                           n1: structure.SubgroupWitness,
                           n2: structure.SubgroupWitness) -> Report:
    """Coset containment m(g N1) inside N2 m(g), then the induced quotient map.

    On success the induced map on torsion quotients is extracted and run
    through the adjacency and affine checks on the quotient balls.
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
