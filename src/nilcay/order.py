"""Bi-orders from declared filtrations, convex geodesic lines, distortion.

The comparator reads the difference ``x^{-1} y`` in normal form and scans the
declared filtration blocks in order; the verdict is the sign of the first
nonzero exponent.  This is a bi-invariant total order when the blocks are
adapted to the central series, which holds for the built-in families and is
falsifiable by the sampled bi-invariance property checks.

``BiOrder.compare`` is the presentation's comparator for that scan
(``PcPresentation.comparator``), bound on first access.  Where the scan is
the index order, the first nonzero coordinate of ``x^{-1} y`` is the first
coordinate where x and y differ, with the sign of ``y_i - x_i``, so x and y
are compared lexicographically and no product is computed; the ``pcgroup``
module docstring gives the proof.  Any other scan computes ``x^{-1} y`` and
scans it.

Distortion certification never reports an uncertified distance.  Each value
``dist(e, g^k)`` comes from one of three certificates, cheapest first:

- in-ball: ``g^k`` lies in the ball grown so far and its BFS distance is read;
- abelianized bound, in every presentation: the word length of the image
  of ``g^k`` in the free abelianization (a lower bound, as the map is a
  homomorphism) equals ``k * dist(e, g)`` (an upper bound);
- sphere meet-in-the-middle: ``_GrowingBall.distance_via_sphere`` certifies
  any distance up to twice the radius of the ball grown so far.

Word lengths in G and in the abelianization Z^rank come from one growing
ball (``_GrowingBall``), one instance for each.  It keeps only the BFS
distances and the last shell, and is grown in place to radii 4, 8, 16, ...
until the sphere certifies the distance asked for, and only while the
proven upper bound ``k * dist(e, g)`` exceeds twice the radius; each vertex
is expanded once over all the growths.  Anything uncertified stays unknown
and the classification degrades to "inconclusive", with a note naming the
vertex budget, the radius whose growth exceeded it and the largest distance
still certifiable.

The profile's shape is a heuristic, not a certificate, so the verdict is
guarded by the same abelianization (``structure.Abelianization``): an
element with a nonzero image there is undistorted in any group, and an
element of infinite order without one is distorted in a nilpotent group
(Osin, "Subgroup distortions in nilpotent groups", Comm. Algebra 29, 2001).
An element of finite order is never undistorted: its powers are bounded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import pcgroup
from .cayley import GenSet, count_geodesics, iter_geodesics, vertex_budget
from .reporting import Report

LESS, EQUAL, GREATER = -1, 0, 1

DEFAULT_CLASSIFY_KMAX = 64
CLASSIFY_TOL = Fraction(1, 2)


class BiOrderUnavailable(ValueError):
    """The presentation does not support the filtration bi-order."""


class NotAGeneratorError(ValueError):
    pass


class BiOrder:
    """Block-lexicographic bi-order on a torsion-free nilpotent presentation."""

    def __init__(self, presentation):
        p = presentation
        if p.torsion_len:
            raise BiOrderUnavailable(
                f"{p.name}: bi-order refused, the group has declared torsion")
        if not p.nilpotent:
            raise BiOrderUnavailable(
                f"{p.name}: bi-order refused, presentation is not nilpotent-flagged")
        if not p.blocks:
            raise BiOrderUnavailable(
                f"{p.name}: bi-order refused, no filtration blocks declared")
        covered = sorted(i for b in p.blocks for i in b)
        if covered != list(range(p.n)):
            raise BiOrderUnavailable(
                f"{p.name}: filtration does not cover all generators")
        self.presentation = p
        # coordinates in block order: the first nonzero one of x^-1 y decides
        self._scan = tuple(i for block in p.blocks for i in block)

    @pcgroup._derived
    def compare(self):
        """x, y -> LESS (-1), EQUAL (0) or GREATER (1), comparing x against
        y: the presentation's comparator for the scan order, bound on first
        access as ``PcPresentation.multiply`` is."""
        return self.presentation.comparator(self._scan)

    def max_element(self, elements):
        best = None
        for v in elements:
            if best is None or self.compare(best, v) == LESS:
                best = v
        if best is None:
            raise ValueError("empty element collection")
        return best


def max_generator(order: BiOrder, genset: GenSet):
    """The order-maximum of a symmetric generating set; exceeds the identity."""
    genset.require_symmetric()
    s = order.max_element(genset.elements)
    p = order.presentation
    if order.compare(p.identity, s) != LESS:
        raise BiOrderUnavailable(
            f"{p.name}: the declared filtration is not a bi-order, its largest "
            f"generator {p.element_to_str(s)} does not exceed the identity")
    return s


def convexity_check(ball, s, kmax) -> Report:
    """dist(e, s^k) = k and a unique geodesic for 1 <= k <= kmax."""
    p = ball.presentation
    if s not in set(ball.genset.elements):
        raise NotAGeneratorError(f"{s} is not in the generating set")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if kmax > ball.radius:
        raise ValueError("kmax exceeds the ball radius")
    params = {"generator": s, "kmax": kmax, "radius": ball.radius}
    witnesses = []
    for k in range(1, kmax + 1):
        sk = p.power(s, k)
        d = ball.distance_from_identity(sk)
        if d != k:
            witnesses.append({"k": k, "dist": d})
            break
        count = count_geodesics(ball, p.identity, sk)
        if count != 1:
            first = islice(iter_geodesics(ball, p.identity, sk), 2)
            witnesses.append({"k": k, "count": count, "paths": [g.labels for g in first]})
            break
    if witnesses:
        return Report(claim="powers of the generator form a convex geodesic segment",
                      verdict="fail", ok=False, witnesses=witnesses, parameters=params)
    return Report(claim="powers of the generator form a convex geodesic segment",
                  verdict="pass", ok=True, parameters=params,
                  notes=[f"convexity verified for the segment up to k={kmax}; "
                         "the bi-infinite line is out of checkable reach"])


# -- distortion ------------------------------------------------------------


class _GrowingBall:
    """The ball of one generating set, grown in place to certify distances.

    It holds the BFS distance of every element within ``radius`` of e and
    the last shell, the sphere S(radius), which is all that
    ``distance_via_sphere`` reads: a ball of radius R certifies any
    distance up to 2R.  Radii go 0, 4, 8, 16, ..., capped at the proven
    upper bound, each growth made only when the ball cannot certify the
    distance asked for; it extends the last shell outward, so every vertex
    is multiplied by S once.  A growth past the vertex budget is undone, and
    the ball answers as it did before it.
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
            if not self._grow(want):
                self.failed_radius = want
                return None

    def _grow(self, radius):
        """Extend the ball to ``radius`` one shell at a time; False, with the
        ball as it was, when it would hold more than ``budget`` vertices."""
        step = self.presentation.right_multiplier(self.genset.require_symmetric().elements)
        dists, budget, kept = self.dists, self.budget, len(self.dists)
        shell = self.shell
        for d in range(self.radius + 1, radius + 1):
            last, shell = shell, []
            for u in last:
                for w in step(u):
                    if w not in dists:
                        dists[w] = d
                        shell.append(w)
                if len(dists) > budget:
                    while len(dists) > kept:   # the new vertices were inserted last
                        dists.popitem()
                    return False
        self.shell, self.radius = shell, radius
        return True


class DistortionProfile:
    def __init__(self, element: tuple, ks: list, dists: list, ratios: list,
                 notes: list):
        self.element = element
        self.ks = ks
        self.dists = dists        # int or None per k
        self.ratios = ratios      # Fraction or None per k
        self.notes = notes


def _profile_ks(kmax):
    ks = []
    k = 1
    while k <= kmax:
        ks.append(k)
        k *= 2
    if ks[-1] != kmax:
        ks.append(kmax)
    return ks


def distortion_profile(presentation, genset, g, kmax,
                       max_vertices=None) -> DistortionProfile:
    """Certified ratios dist(e, g^k)/k at k = 1, 2, 4, ..., kmax."""
    p = presentation
    if g == p.identity:
        raise ValueError("distortion profile of the identity is undefined")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    budget = vertex_budget(max_vertices)
    ks = _profile_ks(kmax)
    grown = _GrowingBall(genset, budget)
    # the abelianization is a homomorphism, so the distance of an image is a
    # lower bound on the distance of the element, in every presentation
    ab = p.abelianization
    images = {ab.image(s) for s in genset.elements} - {(0,) * ab.rank}
    image_ball = (_GrowingBall(GenSet(pcgroup.builtin("zn", n=ab.rank), images), budget)
                  if images else None)
    notes = []

    def dist_of(x, upper):
        """dist(e, x) or None; ``upper`` is a proven upper bound, or None."""
        d = grown.dists.get(x)
        if d is not None:
            return d
        if upper is not None and image_ball is not None \
                and image_ball.dist(ab.image(x), upper) == upper:
            return upper
        return grown.dist(x, upper)

    d1 = dist_of(g, upper=None)
    if d1 is None:
        notes.append("dist(e, g) itself could not be certified within budget"
                     if grown.failed_radius is not None else
                     "g is not in the subgroup generated by the generating set")
    dists = []
    for k in ks:
        gk = p.power(g, k)
        upper = d1 * k if d1 is not None else None
        d = dist_of(gk, upper) if upper is not None else None
        dists.append(d)
    if grown.failed_radius is not None:
        reach = (f"B({grown.radius}) certifies distances up to {2 * grown.radius}"
                 if grown.radius
                 else "no ball was built, so no distance is certified from one")
        notes.append(f"vertex budget {budget} exceeded building "
                     f"B({grown.failed_radius}); " + reach)
    ratios = [None if d is None else Fraction(d, k) for k, d in zip(ks, dists)]
    return DistortionProfile(element=g, ks=ks, dists=dists, ratios=ratios, notes=notes)


def classify_distorted(presentation, genset, g, kmax=DEFAULT_CLASSIFY_KMAX,
                       max_vertices=None):
    """Three-valued distortion verdict, guarded by the rational abelianization.

    The profile's verdict is overridden, with a note, where a certified fact
    contradicts it: "distorted" becomes "undistorted" for g outside the
    isolator of [G, G]; "undistorted" becomes "inconclusive" for g of finite
    order, and for g inside that isolator in a nilpotent-flagged
    presentation.  An element whose infinite-order coordinates are all 0 has
    finite order, as G/N is poly-Z and so torsion-free.

    Returns (verdict, profile, report); verdict is one of "distorted",
    "undistorted", "inconclusive".
    """
    p = presentation
    profile = distortion_profile(p, genset, g, kmax, max_vertices=max_vertices)
    ratios = profile.ratios
    verdict = "inconclusive"
    if all(r is not None for r in ratios) and ratios:
        first, last = ratios[0], ratios[-1]
        monotone = all(a >= b for a, b in zip(ratios, ratios[1:]))
        if monotone and last < CLASSIFY_TOL * first:
            verdict = "distorted"
        elif all(r == first for r in ratios) and first >= 1:
            verdict = "undistorted"
    guard = []
    rational = p.abelianization.in_isolator(g)
    if verdict == "distorted" and not rational:
        verdict = "undistorted"
        guard.append("certified undistorted: g has a nonzero image in the rational "
                     "abelianization of the presentation, so |g^k| grows linearly")
    elif verdict == "undistorted" and not any(g[:p.n - p.torsion_len]):
        verdict = "inconclusive"
        guard.append("the profile looks undistorted, but g has finite order, so "
                     "its powers are bounded; kmax is too small to show it")
    elif verdict == "undistorted" and rational and p.nilpotent:
        verdict = "inconclusive"
        guard.append("the profile looks undistorted, but g has infinite order and "
                     "lies in the isolator of the derived subgroup of a "
                     "nilpotent-flagged presentation, so it is distorted (Osin); "
                     "kmax is too small to show it")
    report = Report(
        claim="power distortion classification of the element",
        verdict=verdict,
        ok=None if verdict == "inconclusive" else True,
        parameters={"element": g, "kmax": kmax, "tol": str(CLASSIFY_TOL),
                    "ks": profile.ks, "dists": profile.dists,
                    "ratios": [None if r is None else str(r) for r in profile.ratios]},
        notes=profile.notes + guard)
    return verdict, profile, report

