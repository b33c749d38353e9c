"""Traced run: spans around each layer's public entry points, from outside.

``Tracer.install`` wraps the entry points listed in ``SPANS`` and rebinds
every name that refers to them in every loaded ``nilcay`` module, including
the names imported with ``from .cayley import generate_ball`` and the
entries of dicts such as ``suites.SUITES``; it then checks that no module
still holds an unwrapped original.  Installing is one-way: a traced pass
owns its process.  Spans are kept in memory and turned into metrics once, at
the end of the run.

The hot methods ``PcPresentation.multiply/inverse/power`` and
``BiOrder.compare`` are patched on their class and record only per-thread
call counts and time, with no span per call.

Self time is a span's duration minus the part of it that child spans on the
same thread cover.  ``verify``'s determinism suite runs suites on worker
threads; their spans count toward each layer's totals, but only spans on
the main thread that are not inside another suite give ``suites.<name>.s``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

from nilcay import autlab, cayley, cli, constructions, order, pcgroup, \
    reporting, structure, suites

perf_counter = time.perf_counter
get_ident = threading.get_ident


def _size(result):
    return len(result)


def _dists(result):
    return (sum(d is not None for d in result.dists), len(result.dists))


# (module, attribute, span name, function of the result kept in the span)
SPANS = (
    (pcgroup, "parse_presentation", "pcgroup.load", None),
    (structure, "torsion_subgroup", "structure.torsion_subgroup", None),
    (cayley, "generate_ball", "cayley.generate_ball", _size),
    (cayley, "count_geodesics", "cayley.count_geodesics", None),
    (cayley, "enumerate_geodesics", "cayley.enumerate_geodesics", _size),
    (cayley, "torsion_label_bound", "cayley.torsion_label_bound", None),
    (cayley, "check_vertex_map", "cayley.check_vertex_map", None),
    (autlab, "enumerate_local_auts", "autlab.enumerate_local_auts", _size),
    (autlab, "is_affine_on_ball", "autlab.is_affine_on_ball", None),
    (autlab, "normality_verdict", "autlab.normality_verdict", None),
    (order, "classify_distorted", "order.classify_distorted", None),
    (order, "distortion_profile", "order.distortion_profile", _dists),
    (order, "convexity_check", "order.convexity_check", None),
    (cli, "main", "cli.main", None),
    (reporting, "json_bytes", "reporting.json_bytes", None),
    (constructions, "fsf_generating_set", "constructions.fsf_generating_set",
     None),
) + tuple((suites, name, f"suites.{name}", None) for name in suites.SUITES)

# (class, method, metric prefix): call counts and time, no spans
AGGREGATES = (
    (pcgroup.PcPresentation, "multiply", "pcgroup.multiply"),
    (pcgroup.PcPresentation, "inverse", "pcgroup.inverse"),
    (pcgroup.PcPresentation, "power", "pcgroup.power"),
    (order.BiOrder, "compare", "order.BiOrder.compare"),
)

# power calls multiply, so its errors are already counted there
ERROR_COUNTED = ("pcgroup.multiply", "pcgroup.inverse")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        # span: [name, start, end, parent span or None, thread id, kept value]
        self.spans = []
        self._stacks = defaultdict(list)          # thread id -> open spans
        self._cells = defaultdict(dict)           # prefix -> thread id -> cell
        self._ball_vertices = {}                  # thread id -> [vertices]
        self._extra = ()
        self._main = get_ident()

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, keep):
        spans = self.spans
        stacks = self._stacks

        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks[tid]
            rec = [name, perf_counter(), None, stack[-1] if stack else None,
                   tid, None]
            stack.append(rec)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep is not None:
                rec[5] = keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _aggregate(self, prefix, fn):
        cells = self._cells[prefix]
        count_errors = int(prefix in ERROR_COUNTED)
        collection_error = pcgroup.CollectionError

        def counted(*args):
            t0 = perf_counter()
            error = 0
            try:
                return fn(*args)
            except collection_error:
                error = count_errors
                raise
            finally:
                cell = cells.get(get_ident())
                if cell is None:
                    cell = cells[get_ident()] = [0, 0.0, 0]
                cell[0] += 1
                cell[1] += perf_counter() - t0
                cell[2] += error

        counted.__wrapped__ = fn
        return counted

    # -- install -------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == "nilcay" or name.startswith("nilcay.")] + \
            list(self._extra)

    def _rebind(self, original, wrapped):
        """Point every name and dict entry that holds ``original`` at ``wrapped``."""
        for module in self._modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped

    def install(self, *extra_modules):
        """Wrap every entry point, in ``nilcay`` and in ``extra_modules``."""
        self._extra = extra_modules
        originals = []
        for module, attr, name, keep in SPANS:
            original = getattr(module, attr)
            originals.append(original)
            self._rebind(original, self._span(name, original, keep))
        for cls, attr, prefix in AGGREGATES:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._aggregate(prefix, original))
        self._wrap_ball_init()
        missed = [f"{m.__name__}.{k}" for m in self._modules()
                  for k, v in vars(m).items()
                  if any(v is o for o in originals)
                  or (isinstance(v, dict)
                      and any(x is o for x in v.values() for o in originals))]
        if missed:
            raise RuntimeError(f"trace shim left names unwrapped: {missed}")
        return self

    def _wrap_ball_init(self):
        """Tally vertices where every ball is made, for the shim self-test."""
        original = cayley.Ball.__init__
        tally = self._ball_vertices

        def init(ball, presentation, genset, radius, vertices, *rest):
            tally.setdefault(get_ident(), [0])[0] += len(vertices)
            original(ball, presentation, genset, radius, vertices, *rest)

        cayley.Ball.__init__ = init

    # -- metrics ---------------------------------------------------------

    def ball_vertices(self):
        """Vertices of every Ball constructed, counted at the class."""
        return sum(c[0] for c in self._ball_vertices.values())

    def metrics(self):
        covered = defaultdict(float)
        for rec in self.spans:
            if rec[3] is not None:
                covered[id(rec[3])] += rec[2] - rec[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        kept = defaultdict(list)
        suite_s = defaultdict(float)
        load_s = 0.0
        for rec in self.spans:
            name, start, end, parent, tid, value = rec
            calls[name] += 1
            self_s[name] += end - start - covered[id(rec)]
            if value is not None:
                kept[name].append(value)
            ancestors = []
            while parent is not None:
                ancestors.append(parent[0])
                parent = parent[3]
            if name == "pcgroup.load" and "pcgroup.load" not in ancestors:
                load_s += end - start
            if (name.startswith("suites.") and tid == self._main
                    and not any(a.startswith("suites.") for a in ancestors)):
                suite_s[name] += end - start

        # prefix -> [calls, seconds, collection errors], summed over threads
        agg = defaultdict(lambda: [0, 0.0, 0])
        for prefix, cells in self._cells.items():
            agg[prefix] = [sum(c[k] for c in cells.values()) for k in range(3)]
        mul_calls, mul_s, mul_err = agg["pcgroup.multiply"]
        ball_sizes = kept["cayley.generate_ball"]
        ball_s = self_s["cayley.generate_ball"]
        dists = kept["order.distortion_profile"]

        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        put("pcgroup.multiply.calls", mul_calls, "count")
        put("pcgroup.multiply.self_s", mul_s, "s")
        put("pcgroup.multiply.us_per_call",
            mul_s / mul_calls * 1e6 if mul_calls else 0.0, "us")
        put("pcgroup.inverse.calls", agg["pcgroup.inverse"][0], "count")
        put("pcgroup.power.calls", agg["pcgroup.power"][0], "count")
        put("pcgroup.collection_errors", mul_err + agg["pcgroup.inverse"][2],
            "count")
        put("pcgroup.load_s", load_s, "s")
        put("structure.torsion_subgroup.self_s",
            self_s["structure.torsion_subgroup"], "s")
        put("cayley.generate_ball.calls", calls["cayley.generate_ball"], "count")
        put("cayley.generate_ball.self_s", ball_s, "s")
        put("cayley.generate_ball.vertices", sum(ball_sizes), "count")
        put("cayley.generate_ball.max_vertices", max(ball_sizes, default=0),
            "count")
        put("cayley.generate_ball.vertices_per_s",
            sum(ball_sizes) / ball_s if ball_s else 0.0, "1/s")
        for name in ("count_geodesics", "enumerate_geodesics"):
            put(f"cayley.{name}.calls", calls[f"cayley.{name}"], "count")
            put(f"cayley.{name}.self_s", self_s[f"cayley.{name}"], "s")
        put("cayley.enumerate_geodesics.paths",
            sum(kept["cayley.enumerate_geodesics"]), "count")
        for name in ("torsion_label_bound", "check_vertex_map"):
            put(f"cayley.{name}.self_s", self_s[f"cayley.{name}"], "s")
        for name in ("enumerate_local_auts", "is_affine_on_ball"):
            put(f"autlab.{name}.calls", calls[f"autlab.{name}"], "count")
            put(f"autlab.{name}.self_s", self_s[f"autlab.{name}"], "s")
        put("autlab.enumerate_local_auts.automorphisms",
            sum(kept["autlab.enumerate_local_auts"]), "count")
        put("autlab.normality_verdict.self_s",
            self_s["autlab.normality_verdict"], "s")
        for name in ("classify_distorted", "distortion_profile",
                     "convexity_check"):
            put(f"order.{name}.self_s", self_s[f"order.{name}"], "s")
        put("order.dists_certified", sum(c for c, _ in dists), "count")
        put("order.dists_requested", sum(r for _, r in dists), "count")
        put("order.BiOrder.compare.calls", agg["order.BiOrder.compare"][0],
            "count")
        for name in suites.SUITES:
            put(f"suites.{name}.s", suite_s[f"suites.{name}"], "s")
        put("cli.main.self_s", self_s["cli.main"], "s")
        put("reporting.json_bytes.self_s", self_s["reporting.json_bytes"], "s")
        put("constructions.fsf_generating_set.self_s",
            self_s["constructions.fsf_generating_set"], "s")
        return m
