"""Acceptance suites: one callable per acceptance criterion, shared by the
`verify` CLI subcommand and the test suite.

Each suite returns a Report that is deterministic for a fixed seed.
`run_verify` runs suites one after another and keeps their wall-clock times
apart from the envelope, so report bytes are reproducible across runs.

The seeded suites draw random elements from one ``random.Random`` per suite
and family, named by the seed.  ``_random_elements`` draws them through
``getrandbits`` with the standard library's own rejection rule and yields
exactly the elements that one ``randint(-span, span)`` or ``randrange(m)``
call per coordinate would, leaving the generator in the same state.

It relies on the word layout of CPython's Mersenne Twister:
``getrandbits(k)`` for k <= 32 is one 32-bit output shifted right by
32 - k, and ``getrandbits(32 * w)`` is w successive outputs, the first in
the least significant word.  So byte 4i + 3 of that number in little-endian
order is the top byte of the i-th output, and for k <= 8 its top k bits are
the i-th ``getrandbits(k)`` draw.  When every coordinate has one bound of at
most 8 bits whose values fit a signed byte (span <= 127, order <= 128),
each pass over a round of elements draws every raw value it still needs in
one ``getrandbits`` call, whose top bytes one ``bytes.translate`` filters and
maps to values; mixed or larger bounds take one ``getrandbits(k)`` call per
value.  ``tests/test_suites.py`` compares both with the running standard
library.
"""

from __future__ import annotations

import random
import time
from itertools import chain

from . import __version__, autlab, constructions, order, pcgroup, structure
from .cayley import (GenSet, count_geodesics, generate_ball, standard_genset)
from .reporting import Report, json_bytes


# elements per round of ``_random_elements``, which holds one round's draws
_CHUNK = 256


def _random_elements(presentation, rng, count, span=20):
    """Return an iterator over ``count`` random elements, coordinate i
    uniform in [-span, span] at infinite order and in [0, m_i) at order m_i.

    The elements, and the state ``rng`` is left in, are those of ``count``
    successive ``tuple(rng.randint(-span, span) if m is None else
    rng.randrange(m) for m in orders)``: randint and randrange(b) draw
    ``getrandbits(b.bit_length())`` until the value is below b, and so does
    this.  When every coordinate has one bound b with ``b.bit_length() <= 8``
    and values that fit a signed byte, the elements come in rounds of at
    most ``_CHUNK``: a round takes the raw draws it still needs as the top
    bytes of one ``getrandbits(32 * need)`` (the word layout is in the module
    docstring), drops the rejected ones and adds the offset with one
    ``bytes.translate``, and repeats until it has them all, so it never draws
    past its last element.  Otherwise, with mixed bounds or a bound that
    needs more than a byte, each value takes its own ``getrandbits`` loop."""
    coords = [(2 * span + 1, -span) if m is None else (m, 0)
              for m in presentation.orders]
    (bound, offset), n = coords[0], len(coords)
    # values in [offset, bound + offset) fit a signed byte iff the largest
    # does: span <= 127 or m <= 128, and then bound < 256 has at most 8 bits
    if len(set(coords)) == 1 and bound + offset <= 128:
        return chain.from_iterable(_byte_rounds(rng, count, n, bound, offset))
    return _one_by_one(rng, count, coords)


def _byte_rounds(rng, count, n, bound, offset):
    getrandbits = rng.getrandbits
    shift = 8 - bound.bit_length()
    table = bytes((r + offset) & 0xFF for r in (b >> shift for b in range(256)))
    reject = bytes(b for b in range(256) if b >> shift >= bound)
    while count:
        size = min(count, _CHUNK)
        count -= size
        need = size * n
        values = b""
        while need:
            drawn = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            drawn = drawn.translate(table, reject)
            values += drawn
            need -= len(drawn)
        yield zip(*[iter(memoryview(values).cast("b"))] * n)


def _one_by_one(rng, count, coords):
    getrandbits = rng.getrandbits
    coords = [(bound, bound.bit_length(), offset) for bound, offset in coords]
    for _ in range(count):
        v = []
        for bound, k, offset in coords:
            r = getrandbits(k)
            while r >= bound:
                r = getrandbits(k)
            v.append(r + offset)
        yield tuple(v)


def _families(group_filter):
    if group_filter is None:
        return pcgroup.ACCEPTANCE_FAMILY_IDS
    wanted = {g.strip() for g in group_filter.split(",")}
    out = tuple(f for f in pcgroup.ACCEPTANCE_FAMILY_IDS if f in wanted)
    if not out:
        raise ValueError(f"no acceptance family matches {group_filter!r}")
    return out


# -- criterion 1 -------------------------------------------------------------


def group_laws(seed=0, samples=10**4, group_filter=None) -> Report:
    families = _families(group_filter)
    failures = []
    hashes = {}
    for fid in families:
        p = pcgroup.from_id(fid)
        hashes[fid] = p.sha256()
        rng = random.Random(f"{seed}:laws:{fid}")
        e = p.identity
        mul, inv = p.multiply, p.inverse
        draws = _random_elements(p, rng, 3 * samples)
        for x, y, z in zip(draws, draws, draws):
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                failures.append({"family": fid, "law": "associativity",
                                 "triple": [x, y, z]})
                break
            if mul(x, e) != x or mul(e, x) != x:
                failures.append({"family": fid, "law": "identity", "x": x})
                break
            if mul(x, inv(x)) != e:
                failures.append({"family": fid, "law": "inverse", "x": x})
                break
    return Report(
        claim="group laws hold on seeded random triples in every built-in family",
        verdict="pass" if not failures else "fail", ok=not failures,
        witnesses=failures,
        parameters={"samples": samples, "families": list(families),
                    "seed": seed, "presentations": hashes})


# -- criterion 2 -------------------------------------------------------------


def metric_oracle(group_filter=None, radius=4) -> Report:
    families = _families(group_filter)
    mismatches = []
    sizes = {}
    for fid in families:
        p = pcgroup.from_id(fid)
        S = standard_genset(p)
        ball = generate_ball(p, S, radius)
        oracle = _brute_force_word_distances(p, S, radius)
        if set(oracle) != set(ball.vertices):
            mismatches.append({"family": fid, "reason": "vertex sets differ",
                               "ball": len(ball), "oracle": len(oracle)})
            continue
        for v in ball.vertices:
            if oracle[v] != ball.distance_from_identity(v):
                mismatches.append({"family": fid, "vertex": v,
                                   "bfs": ball.distance_from_identity(v),
                                   "oracle": oracle[v]})
                break
        sizes[fid] = len(ball)
    return Report(
        claim="BFS ball distances equal exhaustive word-enumeration distances",
        verdict="pass" if not mismatches else "fail", ok=not mismatches,
        witnesses=mismatches,
        parameters={"radius": radius, "ball_sizes": sizes,
                    "families": list(families)})


def _brute_force_word_distances(presentation, genset, radius):
    """Literal word enumeration: min length over all generator words <= radius.

    Level d holds the products of all |S|^d words of length d, duplicates
    included, so no step relies on the BFS the oracle checks.
    """
    p = presentation
    best = {p.identity: 0}
    products = [p.identity]
    for d in range(1, radius + 1):
        products = [p.multiply(u, s) for u in products for s in genset.elements]
        for w in products:
            best.setdefault(w, d)
    return best


# -- criterion 3 -------------------------------------------------------------


def klein_pair(radius=8) -> Report:
    problems = []
    flip = constructions.klein_flip_map(radius)
    if not flip.check():
        problems.append("flip map failed the adjacency check")
    verdict = autlab.is_affine_on_ball(flip.source, flip.source, flip.mapping)
    if verdict.affine or verdict.witness is None:
        problems.append("flip map was not rejected by the affine check "
                        "with a witness")
    grid = constructions.klein_grid_map(radius)
    if not grid.check():
        problems.append("grid map failed the adjacency check")
    klein = pcgroup.builtin("klein_bottle")
    rep = autlab.normality_verdict(klein, standard_genset(klein), 4, 2)
    if rep.verdict != "non-normal":
        problems.append(f"normality verdict was {rep.verdict}")
    ok = not problems
    return Report(
        claim="the Klein-bottle ball is grid-isomorphic and admits a "
              "non-affine generator-swapping automorphism",
        verdict="pass" if ok else "fail", ok=ok,
        witnesses=[{"flip_affine_witness": verdict.to_witness_dict(),
                    "normality": rep.verdict}] + problems,
        parameters={"radius": radius, "normality_radius": 4, "stability": 2,
                    "presentations": {"klein_bottle": klein.sha256()}})


# -- criterion 4 -------------------------------------------------------------


def fsf_construction(radius=5) -> Report:
    problems = []
    zx = pcgroup.from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0)])
    fsf = constructions.fsf_generating_set(zx, F, S)
    gens = fsf.genset
    if not gens.symmetric:
        problems.append("FSF set is not symmetric")
    ball = generate_ball(zx, gens, radius)
    expected = {(x, t) for x in range(-radius, radius + 1) for t in (0, 1)}
    if not expected <= set(ball.vertices):
        problems.append("FSF set does not generate the expected ball")
    classes = constructions.twin_classes(ball)
    want = tuple(sorted(tuple(sorted([(x, 0), (x, 1)]))
                        for x in range(-(radius - 1), radius)))
    if classes != want:
        problems.append(f"twin classes differ from the F-cosets: {classes}")
    g, h = (3, 0), (3, 1)
    swap = constructions.twin_swap_map(ball, g, h)
    from .cayley import check_vertex_map
    if not check_vertex_map(ball, ball, swap):
        problems.append("twin swap failed the adjacency check")
    fixed = set(gens.elements) | {zx.identity}
    if any(swap[v] != v for v in fixed):
        problems.append("twin swap moved a generator or the identity")
    verdict = autlab.is_affine_on_ball(ball, ball, swap)
    if verdict.affine:
        problems.append("twin swap passed the affine check")
    rep = autlab.normality_verdict(zx, gens, 4, 2)
    if rep.verdict != "non-normal":
        problems.append(f"normality verdict was {rep.verdict}")
    ok = not problems
    return Report(
        claim="the FSF generating set yields twin cosets and a non-affine "
              "twin-swap automorphism",
        verdict="pass" if ok else "fail", ok=ok,
        witnesses=[{"swap_pair": [g, h],
                    "affine_failure": verdict.to_witness_dict(),
                    "normality": rep.verdict}] + problems,
        parameters={"radius": radius, "genset": list(gens.elements),
                    "presentations": {"zxz2": zx.sha256()}})


# -- criterion 5 -------------------------------------------------------------


def affine_shadow(r=3, t=2) -> Report:
    problems = []
    counts = {}
    for fid in ("z2", "z3", "heisenberg"):
        p = pcgroup.from_id(fid)
        ball = generate_ball(p, standard_genset(p), r)
        auts = autlab.enumerate_local_auts(ball, t)
        counts[fid] = auts.order
        for mapping in auts.generators():
            verdict = autlab.is_affine_on_ball(ball, ball, mapping)
            if not verdict.affine:
                problems.append({"family": fid,
                                 "witness": verdict.to_witness_dict()})
                break
    if counts.get("z2") != 8:
        problems.append({"family": "z2", "expected_count": 8,
                         "got": counts.get("z2")})
    ok = not problems
    return Report(
        claim="every stable local automorphism of the torsion-free "
              "families is affine on the ball",
        verdict="pass" if ok else "fail", ok=ok, witnesses=problems,
        parameters={"r": r, "t": t, "counts": counts})


# -- criterion 6 -------------------------------------------------------------


def biorder_shadow(seed=0, samples=10**4, kmax=6) -> Report:
    problems = []
    details = {}
    for fid in ("z", "z2", "z3", "heisenberg"):
        p = pcgroup.from_id(fid)
        o = order.BiOrder(p)
        S = standard_genset(p)
        s = order.max_generator(o, S)
        ball = generate_ball(p, S, kmax)
        rep = order.convexity_check(ball, s, kmax)
        details[fid] = {"max_generator": s, "convexity": rep.verdict}
        if rep.verdict != "pass":
            problems.append({"family": fid, "convexity": rep.witnesses})
        rng = random.Random(f"{seed}:biorder:{fid}")
        mul, compare = p.multiply, o.compare
        draws = _random_elements(p, rng, 4 * samples, span=10)
        for a, b, x, y in zip(draws, draws, draws, draws):
            cmp_xy = compare(x, y)
            if cmp_xy == order.EQUAL:
                continue
            if compare(mul(mul(a, x), b), mul(mul(a, y), b)) != cmp_xy:
                problems.append({"family": fid, "quadruple": [a, x, y, b]})
                break
    ok = not problems
    return Report(
        claim="the filtration bi-order is bi-invariant and its maximal "
              "generator spans a convex geodesic segment",
        verdict="pass" if ok else "fail", ok=ok, witnesses=problems,
        parameters={"samples": samples, "kmax": kmax, "seed": seed,
                    "details": details})


# -- criterion 7 -------------------------------------------------------------


def distortion(kmax=16) -> Report:
    problems = []
    p = pcgroup.builtin("heisenberg")
    S = standard_genset(p)
    verdict_c, prof_c, _ = order.classify_distorted(p, S, (0, 0, 1), kmax=kmax)
    if verdict_c != "distorted":
        problems.append({"element": "c", "verdict": verdict_c})
    if prof_c.ratios[0] != 4:
        problems.append({"element": "c", "ratio1": str(prof_c.ratios[0])})
    if prof_c.ratios[-1] is None or prof_c.ratios[-1] > 1:
        problems.append({"element": "c", "ratio16": str(prof_c.ratios[-1])})
    for name, g in (("a", (1, 0, 0)), ("b", (0, 1, 0))):
        v, prof, _ = order.classify_distorted(p, S, g, kmax=kmax)
        if v != "undistorted" or any(r != 1 for r in prof.ratios):
            problems.append({"element": name, "verdict": v,
                             "ratios": [str(r) for r in prof.ratios]})
    in_isolator = p.abelianization.in_isolator
    agree = {
        "c": in_isolator((0, 0, 1)),
        "a": not in_isolator((1, 0, 0)),
        "b": not in_isolator((0, 1, 0)),
    }
    if not all(agree.values()):
        problems.append({"isolator": agree})
    ok = not problems
    return Report(
        claim="central commutator powers are distorted and the standard "
              "generators are not, matching the isolator of the derived subgroup",
        verdict="pass" if ok else "fail", ok=ok, witnesses=problems,
        parameters={"kmax": kmax,
                    "profile_c": [(k, d) for k, d in
                                  zip(prof_c.ks, prof_c.dists)]})


# -- criterion 8 -------------------------------------------------------------


def torsion_geodesics(seed=0, radius=4, pairs=100) -> Report:
    problems = []
    from .cayley import torsion_label_bound
    zx = pcgroup.from_id("zxz2")
    N = structure.torsion_subgroup(zx)
    S = GenSet(zx, list(standard_genset(zx).elements))  # std already = S u N
    ball = generate_ball(zx, S, radius)
    rep = torsion_label_bound(ball, N.elements)
    if rep.verdict != "pass":
        problems.append({"torsion_label_bound": rep.witnesses})
    from .cayley import GeodesicPath, insert_torsion_edge
    for k in range(0, 5):
        geo = GeodesicPath((0, 0), ((0, 1),) + ((1, 0),) * k)
        try:
            paths = insert_torsion_edge(ball, geo, N.elements)
        except ValueError as exc:
            problems.append({"insert_torsion_edge": str(exc), "k": k})
            continue
        if len(paths) != k + 1:
            problems.append({"k": k, "paths": len(paths)})
    rng = random.Random(f"{seed}:geocount")
    sized = len(S.elements)
    checked = 0
    attempts = 0
    while checked < pairs and attempts < pairs * 50:
        attempts += 1
        u = rng.choice(ball.vertices)
        v = rng.choice(ball.vertices)
        w = zx.multiply(zx.inverse(u), v)
        d = ball.distance_from_identity(w)
        if d is None:
            continue
        checked += 1
        if count_geodesics(ball, u, v) > sized ** d:
            problems.append({"pair": [u, v], "count_exceeds": sized ** d})
    orbit = autlab.enumerate_local_auts(ball, 2).orbit((0, 1))
    if not set(orbit) <= set(N.elements):
        problems.append({"orbit": orbit})
    ok = not problems
    return Report(
        claim="torsion labels appear at most once on geodesics, inserted "
              "torsion edges multiply geodesics, and the identity-fixing "
              "orbit of a torsion generator stays in the torsion subgroup",
        verdict="pass" if ok else "fail", ok=ok, witnesses=problems,
        parameters={"radius": radius, "pairs_checked": checked,
                    "seed": seed, "orbit": orbit})


# -- criterion 9 -------------------------------------------------------------


def induced_and_wreath(radius=5) -> Report:
    problems = []
    zx = pcgroup.from_id("zxz2")
    N = structure.torsion_subgroup(zx)
    S = GenSet(zx, [(1, 0), (-1, 0)])
    fsf = constructions.fsf_generating_set(zx, N, S).genset
    ball = generate_ball(zx, fsf, radius)
    swap = constructions.twin_swap_map(ball, (3, 0), (3, 1))
    rep = autlab.induced_quotient_check(ball, ball, swap)
    if rep.verdict != "pass":
        problems.append({"induced_quotient_check": rep.witnesses})
    if "induced translation part: (0,)" not in rep.notes[0]:
        problems.append({"induced_translation": rep.notes})
    wc = constructions.wreath_lift_comparison(zx, [(1,), (-1,)], radius)
    check = wc.check()
    if not check:
        problems.append({"wreath_map": [check.reason, check.witness]})
    r1 = structure.rank_report(zx, N)
    h3 = pcgroup.from_id("heisenberg_z3")
    r2 = structure.rank_report(h3, structure.torsion_subgroup(h3))
    if not (r1.ok and r1.parameters["rank_G"] == 1):
        problems.append({"rank_zxz2": r1.parameters})
    if not (r2.ok and r2.parameters["rank_G"] == 3):
        problems.append({"rank_heisenberg_z3": r2.parameters})
    ok = not problems
    return Report(
        claim="the twin swap induces the identity on the torsion quotient, "
              "the lifted ball matches the wreath product, and Hirsch "
              "ranks are additive",
        verdict="pass" if ok else "fail", ok=ok, witnesses=problems,
        parameters={"radius": radius,
                    "ranks": {"zxz2": r1.parameters, "heisenberg_z3":
                              r2.parameters}})


# -- criterion 10 ------------------------------------------------------------

DETERMINISM_SUBSET = ("klein_pair", "fsf_construction", "induced_and_wreath")


def determinism(seed=0) -> Report:
    forward = run_verify(DETERMINISM_SUBSET, seed=seed)[0]
    backward = run_verify(reversed(DETERMINISM_SUBSET), seed=seed)[0]
    blob = json_bytes(forward)
    identical = blob == json_bytes(backward)
    return Report(
        claim="verify reports are byte-identical across repeated runs in "
              "forward and reverse suite order",
        verdict="pass" if identical else "fail", ok=identical,
        parameters={"suites": list(DETERMINISM_SUBSET), "seed": seed,
                    "bytes": len(blob)})


# -- driver ------------------------------------------------------------------

SUITES = {
    "group_laws": group_laws,
    "metric_oracle": metric_oracle,
    "klein_pair": klein_pair,
    "fsf_construction": fsf_construction,
    "affine_shadow": affine_shadow,
    "biorder_shadow": biorder_shadow,
    "distortion": distortion,
    "torsion_geodesics": torsion_geodesics,
    "induced_and_wreath": induced_and_wreath,
    "determinism": determinism,
}

_SEEDED = {"group_laws", "biorder_shadow", "torsion_geodesics", "determinism"}
_FILTERED = {"group_laws", "metric_oracle"}


def run_verify(names, seed=0, group_filter=None):
    """Run the named suites one after another into a stable envelope.

    Returns ``(envelope, per_suite_ms)``; the wall-clock times stay out of
    the envelope so that its bytes depend only on the suites and the seed.
    """
    names = list(names)
    for n in names:
        if n not in SUITES:
            raise ValueError(f"unknown suite {n!r}")
    reports = {}
    per_suite_ms = {}
    for n in names:
        kwargs = {}
        if n in _SEEDED:
            kwargs["seed"] = seed
        if n in _FILTERED and group_filter is not None:
            kwargs["group_filter"] = group_filter
        t0 = time.perf_counter()
        reports[n] = SUITES[n](**kwargs)
        per_suite_ms[n] = (time.perf_counter() - t0) * 1000.0
    envelope = {
        "tool": {"name": "nilcay", "version": __version__},
        "seed": seed,
        "suites": {n: reports[n].to_dict() for n in names},
        "all_passed": all(reports[n].ok for n in names),
    }
    return envelope, per_suite_ms
