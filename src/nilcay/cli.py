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
                     UncertifiedDistanceError, count_geodesics, distance_ball,
                     enumerate_geodesics, export_distances, export_graph,
                     export_vertex_map, generate_ball, load_vertex_map,
                     standard_genset)
from .pcgroup import PresentationError
from .reporting import json_bytes, json_pretty

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


def _ball(p, args, edges=True):
    """B(--radius) of ``p`` over the --genset selection, within --budget: a
    Ball, or a DistanceBall without edge rows when ``edges`` is false."""
    S = _resolve_genset(p, args.genset)
    if edges:
        return generate_ball(p, S, args.radius, max_vertices=args.budget)
    return distance_ball(S, args.radius, max_vertices=args.budget)


def _envelope(p, command, params, payload):
    return {
        "tool": {"name": "nilcay", "version": __version__},
        "command": command,
        "presentation": {"name": p.name, "sha256": p.sha256()},
        "parameters": params,
        "result": payload,
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
    # only the graph export reads edge rows
    ball = _ball(p, args, edges=bool(args.out))
    if args.out:
        export_graph(ball, args.out)
    if args.distances:
        export_distances(ball, args.distances)
    payload = {"vertices": len(ball), "radius": args.radius,
               "genset_size": len(ball.genset.elements)}
    if not args.out and not args.distances:
        _emit(_envelope(p, "ball", vars_of(args), payload), args)
    else:
        print(json.dumps(payload), file=sys.stderr)
    return EXIT_OK


def cmd_distance(args):
    p = _load_group(args.group)
    ball = _ball(p, args, edges=False)
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
    # Z-dagger, the isolator and the conjugator read vertices and distances
    if args.zdagger:
        zd = structure.z_dagger(p, _ball(p, args, edges=False))
        _emit(_envelope(p, "structure.zdagger", params,
                        {"elements": list(zd)}), args)
        return EXIT_OK
    if args.conjugator:
        ball = _ball(p, args, edges=False)
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
    isolator = structure.isolator(p, _ball(p, args, edges=False))
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


def _ball_args(sp):
    _add_common(sp)
    sp.add_argument("--distances", help="also export vertex distances (TSV)")


def _distance_args(sp):
    _add_common(sp)
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)


def _geodesics_args(sp):
    _distance_args(sp)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--cap", type=positive_int, default=DEFAULT_GEODESIC_CAP)


def _distortion_args(sp):
    _add_common(sp, radius=False)
    sp.add_argument("--element", required=True)
    sp.add_argument("--kmax", type=int, default=order.DEFAULT_CLASSIFY_KMAX)
    sp.add_argument("--table", help="write the k/dist/ratio TSV here")


def _biorder_args(sp):
    _add_common(sp, radius=False)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compare", nargs=2, metavar=("X", "Y"))
    mode.add_argument("--max", action="store_true")
    mode.add_argument("--convexity", metavar="GEN")
    sp.add_argument("--kmax", type=int, default=6)


def _structure_args(sp):
    _add_common(sp)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--torsion", action="store_true")
    mode.add_argument("--zdagger", action="store_true")
    mode.add_argument("--isolator", action="store_true")
    mode.add_argument("--conjugator", nargs=2, metavar=("A", "B"))
    mode.add_argument("--rank", action="store_true")


def _construct_args(sp):
    _add_common(sp)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--klein-grid", type=int, metavar="R")
    mode.add_argument("--klein-flip", type=int, metavar="R")
    mode.add_argument("--fsf", action="store_true")
    mode.add_argument("--lift", action="store_true")
    mode.add_argument("--wreath-fibers", type=int, metavar="N")


def _autos_args(sp):
    _add_common(sp)
    sp.add_argument("--stability", type=int, default=2)
    sp.add_argument("--orbit", metavar="ELEMENT")


def _normality_args(sp):
    _add_common(sp)
    sp.add_argument("--stability", type=int, default=2)


def _induced_args(sp):
    _add_common(sp)
    sp.add_argument("--target", help="target group id (defaults to --group)")
    sp.add_argument("--target-genset")
    sp.add_argument("--map", required=True, help="vertex map TSV (src<TAB>dst)")


def _verify_args(sp):
    sp.add_argument("--suite", default="all",
                    help="all or a comma list of: " + ", ".join(suites.SUITES))
    sp.add_argument("--group", help="restrict family-parametric suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, choices=(1,), default=1,
                    help="accepted for compatibility; suites run serially")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument("--timings", help="write wall-clock sidecar JSON here")


#: subcommand name -> (help, handler, options), in the order --help lists them
COMMANDS = {
    "ball": ("generate and export a Cayley ball", cmd_ball, _ball_args),
    "distance": ("certified word distance", cmd_distance, _distance_args),
    "geodesics": ("enumerate or count geodesics", cmd_geodesics, _geodesics_args),
    "distortion": ("distortion profile and verdict", cmd_distortion,
                   _distortion_args),
    "biorder": ("bi-order comparisons and convexity", cmd_biorder, _biorder_args),
    "structure": ("torsion, isolators, conjugators, ranks", cmd_structure,
                  _structure_args),
    "construct": ("wreath/FSF/lift/Klein constructions", cmd_construct,
                  _construct_args),
    "autos": ("stable local automorphisms and orbits", cmd_autos, _autos_args),
    "normality": ("ball-level normality verdict", cmd_normality, _normality_args),
    "induced": ("torsion-quotient induced-map check", cmd_induced, _induced_args),
    "verify": ("run acceptance suites", cmd_verify, _verify_args),
}


@functools.cache
def build_parser(command=None):
    """The command-line parser, built once per process and per argument:
    parsing leaves it unchanged, and building it costs milliseconds.

    With a subcommand's name it has that subcommand alone, which parses
    that subcommand's arguments, and prints its help and errors, as the
    full parser does: the usage line that its top-level errors print names
    every subcommand, as the full parser's choices do.
    """
    ap = argparse.ArgumentParser(prog="nilcay", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    # the choices' own metavar when every subcommand is built
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, func, add_options = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_options(sp)
        sp.set_defaults(func=func)
    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # a subcommand's parser alone, when argv names one; --help, --version
    # and unknown commands get the full parser
    ap = build_parser(argv[0]) if argv and argv[0] in COMMANDS else build_parser()
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
