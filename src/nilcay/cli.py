"""Command-line driver: experiments over built-in or user presentations.

Exit codes: 0 success (including delivered negative verdicts such as
"non-normal"), 1 a checked claim failed or a resource cap was hit,
2 usage or input errors.  Reports are JSON with deterministic bytes for a
fixed seed; wall-clock timings go to stderr and an optional sidecar file so
they never break byte-level reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__, autlab, constructions, order, pcgroup, structure, suites
from .cayley import (DEFAULT_GEODESIC_CAP, DEFAULT_VERTEX_BUDGET,
                     BallBudgetError, GenSet, GeodesicCapError,
                     UncertifiedDistanceError, count_geodesics,
                     enumerate_geodesics, export_distances, export_graph,
                     export_vertex_map, generate_ball, load_vertex_map,
                     standard_genset)
from .pcgroup import PresentationError
from .reporting import json_bytes, json_pretty, jsonable

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


def _load_group(spec):
    if spec.startswith("@") or os.path.exists(spec):
        path = spec[1:] if spec.startswith("@") else spec
        with open(path, encoding="utf-8") as fh:
            return pcgroup.parse_presentation(fh.read())
    return pcgroup.from_id(spec)


def _parse_vectors(text, n):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        v = tuple(int(x) for x in chunk.split(","))
        if len(v) != n:
            raise ValueError(f"vector {chunk!r} has length {len(v)}, expected {n}")
        out.append(v)
    return out


def _resolve_genset(p, selector):
    if selector in (None, "std"):
        return standard_genset(p)
    if selector == "fsf":
        F = structure.torsion_subgroup(p)
        base = GenSet(p, structure.nontrivial_in_quotient(p, standard_genset(p).elements))
        return constructions.fsf_generating_set(p, F, base).genset
    if selector == "lifted":
        qgens = structure.quotient_generators(p, standard_genset(p).elements)
        return constructions.lift_generating_set(p, qgens)
    return GenSet(p, _parse_vectors(selector, p.n))


def _ball(p, args):
    """B(--radius) of ``p`` over the --genset selection, within --budget."""
    return generate_ball(p, _resolve_genset(p, args.genset), args.radius,
                         max_vertices=args.budget)


def _envelope(p, command, params, payload):
    return {
        "tool": {"name": "nilcay", "version": __version__},
        "command": command,
        "presentation": {"name": p.name, "sha256": p.sha256()},
        "parameters": jsonable(params),
        "result": jsonable(payload),
    }


def _emit(obj, args, exported=False):
    """Write the report to ``--out``, or to stdout when there is no ``--out``
    or it already holds the command's export."""
    text = json_pretty(obj) if getattr(args, "pretty", False) else \
        json_bytes(obj).decode("utf-8")
    _write(text, None if exported else getattr(args, "out", None))


def _write(text, path):
    """Write the text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def cmd_ball(args):
    p = _load_group(args.group)
    ball = _ball(p, args)
    if args.out:
        export_graph(ball, args.out)
    if args.distances:
        export_distances(ball, args.distances)
    payload = {"vertices": len(ball), "radius": args.radius,
               "genset_size": len(ball.genset.elements)}
    if not args.out and not args.distances:
        _emit(_envelope(p, "ball", vars_of(args), payload), args)
    else:
        print(json.dumps(jsonable(payload)), file=sys.stderr)
    return EXIT_OK


def cmd_distance(args):
    p = _load_group(args.group)
    ball = _ball(p, args)
    u = p.element_from_str(getattr(args, "from"))
    v = p.element_from_str(args.to)
    d = ball.distance(u, v)
    if args.format == "tsv":
        _write(f"{p.element_to_str(u)}\t{p.element_to_str(v)}\t"
               f"{'unknown' if d is None else d}\n", args.out)
    else:
        _emit(_envelope(p, "distance", vars_of(args),
                        {"dist": d, "certified": d is not None}), args)
    return EXIT_OK


def cmd_geodesics(args):
    p = _load_group(args.group)
    ball = _ball(p, args)
    u = p.element_from_str(getattr(args, "from"))
    v = p.element_from_str(args.to)
    count = count_geodesics(ball, u, v)
    payload = {"count": count}
    if not args.count_only:
        paths = enumerate_geodesics(ball, u, v, cap=args.cap)
        payload["paths"] = [[p.element_to_str(s) for s in path.labels]
                            for path in paths]
    if args.format == "tsv":
        _write("".join([f"count\t{count}\n"] + ["\t".join(path) + "\n"
                        for path in payload.get("paths", [])]), args.out)
    else:
        _emit(_envelope(p, "geodesics", vars_of(args), payload), args)
    return EXIT_OK


def cmd_distortion(args):
    p = _load_group(args.group)
    S = _resolve_genset(p, args.genset)
    g = p.element_from_str(args.element)
    verdict, profile, report = order.classify_distorted(
        p, S, g, kmax=args.kmax, max_vertices=args.budget)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write("k\tdist\tratio\n")
            for k, d, r in zip(profile.ks, profile.dists, profile.ratios):
                fh.write(f"{k}\t{'?' if d is None else d}\t"
                         f"{'?' if r is None else r}\n")
    _emit(_envelope(p, "distortion", vars_of(args), report.to_dict()), args)
    return EXIT_OK if verdict != "inconclusive" else EXIT_VERDICT


def cmd_biorder(args):
    p = _load_group(args.group)
    if args.compare:
        o = order.BiOrder(p)
        x, y = (p.element_from_str(t) for t in args.compare)
        c = o.compare(x, y)
        name = {order.LESS: "less", order.EQUAL: "equal",
                order.GREATER: "greater"}[c]
        _emit(_envelope(p, "biorder.compare", vars_of(args), {"verdict": name}),
              args)
        return EXIT_OK
    if args.max:
        o = order.BiOrder(p)
        S = _resolve_genset(p, args.genset)
        s = order.max_generator(o, S)
        _emit(_envelope(p, "biorder.max", vars_of(args),
                        {"max_generator": s}), args)
        return EXIT_OK
    # --convexity
    S = _resolve_genset(p, args.genset)
    s = p.element_from_str(args.convexity)
    ball = generate_ball(p, S, max(args.kmax, 1), max_vertices=args.budget)
    rep = order.convexity_check(ball, s, args.kmax)
    _emit(_envelope(p, "biorder.convexity", vars_of(args), rep.to_dict()), args)
    return EXIT_OK if rep.ok else EXIT_VERDICT


def cmd_structure(args):
    p = _load_group(args.group)
    params = vars_of(args)
    if args.torsion:
        N = structure.torsion_subgroup(p)
        _emit(_envelope(p, "structure.torsion", params,
                        {"elements": list(N.elements), "order": len(N.elements)}),
              args)
        return EXIT_OK
    if args.zdagger:
        zd = structure.z_dagger(p, _ball(p, args))
        _emit(_envelope(p, "structure.zdagger", params,
                        {"elements": list(zd)}), args)
        return EXIT_OK
    if args.conjugator:
        ball = _ball(p, args)
        a, b = (p.element_from_str(t) for t in args.conjugator)
        res = structure.find_conjugator(ball, a, b)
        _emit(_envelope(p, "structure.conjugator", params,
                        res.report.to_dict()), args)
        return EXIT_OK
    if args.rank:
        N = structure.torsion_subgroup(p)
        rep = structure.rank_report(p, N)
        _emit(_envelope(p, "structure.rank", params, rep.to_dict()), args)
        return EXIT_OK if rep.ok else EXIT_VERDICT
    # --isolator
    isolator = structure.isolator(p, _ball(p, args))
    _emit(_envelope(p, "structure.isolator", params,
                    {"elements": list(isolator)}), args)
    return EXIT_OK


def cmd_construct(args):
    p = _load_group(args.group) if args.group else None
    if args.klein_grid is not None:
        bm = constructions.klein_grid_map(args.klein_grid)
        ok = bool(bm.check())
        if args.out:
            export_vertex_map(bm.mapping, args.out)
        _emit(_envelope(bm.source.presentation, "construct.klein_grid",
                        vars_of(args), {"adjacency_ok": ok}), args, exported=True)
        return EXIT_OK if ok else EXIT_VERDICT
    if args.klein_flip is not None:
        bm = constructions.klein_flip_map(args.klein_flip)
        ok = bool(bm.check())
        if args.out:
            export_vertex_map(bm.mapping, args.out)
        _emit(_envelope(bm.source.presentation, "construct.klein_flip",
                        vars_of(args), {"adjacency_ok": ok, "notes": bm.notes}),
              args, exported=True)
        return EXIT_OK if ok else EXIT_VERDICT
    if p is None:
        raise SystemExit2("construct needs --group for this operation")
    if args.fsf:
        F = structure.torsion_subgroup(p)
        S = GenSet(p, structure.nontrivial_in_quotient(p, standard_genset(p).elements))
        res = constructions.fsf_generating_set(p, F, S)
        _emit(_envelope(p, "construct.fsf", vars_of(args),
                        {"genset": list(res.genset.elements),
                         "removed_identity": res.removed_identity}), args)
        return EXIT_OK
    if args.lift:
        quotient = structure.quotient_by_torsion(p)
        qgens = structure.quotient_generators(p, standard_genset(p).elements)
        lifted = constructions.lift_generating_set(p, qgens)
        _emit(_envelope(p, "construct.lift", vars_of(args),
                        {"genset": list(lifted.elements),
                         "quotient": quotient.name}), args)
        return EXIT_OK
    # --wreath-fibers
    g = constructions.graph_from_ball(_ball(p, args))
    w = constructions.wreath_product(
        g, constructions.edgeless_graph(args.wreath_fibers))
    _emit(_envelope(p, "construct.wreath", vars_of(args),
                    {"vertices": len(w.vertices), "edges": w.edge_count()}), args)
    return EXIT_OK


def cmd_autos(args):
    p = _load_group(args.group)
    ball = _ball(p, args)
    g = p.element_from_str(args.orbit) if args.orbit else None
    try:
        auts = autlab.enumerate_local_auts(ball, args.stability,
                                           max_vertices=args.budget)
        if g is None:
            command, result = "autos.enumerate", {"count": auts.order}
        else:
            command, result = "autos.orbit", {"element": g,
                                              "orbit": list(auts.orbit(g))}
    except autlab.EnumerationCapError as exc:
        command, result = "autos", {"error": str(exc)}
    _emit(_envelope(p, command, vars_of(args), result), args)
    return EXIT_VERDICT if "error" in result else EXIT_OK


def cmd_normality(args):
    p = _load_group(args.group)
    S = _resolve_genset(p, args.genset)
    rep = autlab.normality_verdict(p, S, args.radius, args.stability,
                                   max_vertices=args.budget)
    _emit(_envelope(p, "normality", vars_of(args), rep.to_dict()), args)
    return EXIT_OK if rep.verdict != "inconclusive" else EXIT_VERDICT


def cmd_induced(args):
    p = _load_group(args.group)
    q = _load_group(args.target) if args.target else p
    S = _resolve_genset(p, args.genset)
    T = _resolve_genset(q, args.target_genset or args.genset)
    ball_a = generate_ball(p, S, args.radius, max_vertices=args.budget)
    ball_b = generate_ball(q, T, args.radius, max_vertices=args.budget)
    mapping = load_vertex_map(args.map, p, q)
    rep = autlab.induced_quotient_check(ball_a, ball_b, mapping)
    _emit(_envelope(p, "induced", vars_of(args), rep.to_dict()), args)
    return EXIT_OK if rep.ok else EXIT_VERDICT


def cmd_verify(args):
    names = list(suites.SUITES) if args.suite == "all" else \
        [s.strip() for s in args.suite.split(",")]
    envelope, per_suite_ms = suites.run_verify(names, seed=args.seed,
                                               group_filter=args.group)
    for name in names:
        ok = envelope["suites"][name]["ok"]
        ms = per_suite_ms[name]
        print(f"{'PASS' if ok else 'FAIL'} {name} ({ms:.0f} ms)",
              file=sys.stderr)
    _emit(envelope, args)
    if args.timings:
        paths = {fid: pcgroup.from_id(fid).product_path
                 for fid in pcgroup.ACCEPTANCE_FAMILY_IDS}
        with open(args.timings, "w", encoding="utf-8") as fh:
            fh.write(json_pretty({"per_suite_ms": per_suite_ms,
                                  "product_paths": paths}))
    return EXIT_OK if envelope["all_passed"] else EXIT_VERDICT


# -- parser ------------------------------------------------------------------


class SystemExit2(Exception):
    """Usage error carrying exit code 2."""


def vars_of(args):
    skip = {"func", "out", "pretty", "timings", "table", "distances", "map"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


def positive_int(text):
    """An argparse type for caps and budgets: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sp, radius=True):
    sp.add_argument("--group", required=False,
                    help="built-in id (z2, zn:3, heisenberg, klein_bottle, "
                         "zxz2, heisenberg_z3, ...) or a presentation file path")
    sp.add_argument("--genset", default="std",
                    help="std, fsf, lifted, or explicit vectors 'a,b;c,d'")
    if radius:
        sp.add_argument("--radius", type=int, default=4)
    sp.add_argument("--budget", type=positive_int, default=None,
                    help="the most vertices one ball may have "
                         f"(default {DEFAULT_VERTEX_BUDGET:,})")
    sp.add_argument("--out", help="write the JSON report or export here")
    sp.add_argument("--pretty", action="store_true", help="indented JSON")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs milliseconds."""
    ap = argparse.ArgumentParser(prog="nilcay", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ball", help="generate and export a Cayley ball")
    _add_common(sp)
    sp.add_argument("--distances", help="also export vertex distances (TSV)")
    sp.set_defaults(func=cmd_ball)

    sp = sub.add_parser("distance", help="certified word distance")
    _add_common(sp)
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("geodesics", help="enumerate or count geodesics")
    _add_common(sp)
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--cap", type=positive_int, default=DEFAULT_GEODESIC_CAP)
    sp.set_defaults(func=cmd_geodesics)

    sp = sub.add_parser("distortion", help="distortion profile and verdict")
    _add_common(sp, radius=False)
    sp.add_argument("--element", required=True)
    sp.add_argument("--kmax", type=int, default=order.DEFAULT_CLASSIFY_KMAX)
    sp.add_argument("--table", help="write the k/dist/ratio TSV here")
    sp.set_defaults(func=cmd_distortion)

    sp = sub.add_parser("biorder", help="bi-order comparisons and convexity")
    _add_common(sp, radius=False)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compare", nargs=2, metavar=("X", "Y"))
    mode.add_argument("--max", action="store_true")
    mode.add_argument("--convexity", metavar="GEN")
    sp.add_argument("--kmax", type=int, default=6)
    sp.set_defaults(func=cmd_biorder)

    sp = sub.add_parser("structure", help="torsion, isolators, conjugators, ranks")
    _add_common(sp)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--torsion", action="store_true")
    mode.add_argument("--zdagger", action="store_true")
    mode.add_argument("--isolator", action="store_true")
    mode.add_argument("--conjugator", nargs=2, metavar=("A", "B"))
    mode.add_argument("--rank", action="store_true")
    sp.set_defaults(func=cmd_structure)

    sp = sub.add_parser("construct", help="wreath/FSF/lift/Klein constructions")
    _add_common(sp)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--klein-grid", type=int, metavar="R")
    mode.add_argument("--klein-flip", type=int, metavar="R")
    mode.add_argument("--fsf", action="store_true")
    mode.add_argument("--lift", action="store_true")
    mode.add_argument("--wreath-fibers", type=int, metavar="N")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("autos", help="stable local automorphisms and orbits")
    _add_common(sp)
    sp.add_argument("--stability", type=int, default=2)
    sp.add_argument("--orbit", metavar="ELEMENT")
    sp.set_defaults(func=cmd_autos)

    sp = sub.add_parser("normality", help="ball-level normality verdict")
    _add_common(sp)
    sp.add_argument("--stability", type=int, default=2)
    sp.set_defaults(func=cmd_normality)

    sp = sub.add_parser("induced", help="torsion-quotient induced-map check")
    _add_common(sp)
    sp.add_argument("--target", help="target group id (defaults to --group)")
    sp.add_argument("--target-genset")
    sp.add_argument("--map", required=True, help="vertex map TSV (src<TAB>dst)")
    sp.set_defaults(func=cmd_induced)

    sp = sub.add_parser("verify", help="run acceptance suites")
    sp.add_argument("--suite", default="all",
                    help="all or a comma list of: " + ", ".join(suites.SUITES))
    sp.add_argument("--group", help="restrict family-parametric suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, choices=(1,), default=1,
                    help="accepted for compatibility; suites run serially")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument("--timings", help="write wall-clock sidecar JSON here")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "format", None) == "tsv" and args.pretty:
            ap.error("argument --pretty: not allowed with argument --format tsv")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except SystemExit2 as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (BallBudgetError, GeodesicCapError, UncertifiedDistanceError) as exc:
        # before ValueError: a ball too small to certify a query is a cap
        diag = {"error": str(exc), "kind": type(exc).__name__}
        if isinstance(exc, GeodesicCapError):
            diag["count"] = exc.count
        if isinstance(exc, UncertifiedDistanceError):
            diag["radius"] = exc.radius
        print(json.dumps(diag), file=sys.stderr)
        return EXIT_VERDICT
    except (PresentationError, ValueError, OSError,
            structure.SubgroupError, order.BiOrderUnavailable) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
        return EXIT_USAGE
    finally:
        elapsed = (time.perf_counter() - t0) * 1000.0
        print(f"wall_clock_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
