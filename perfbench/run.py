"""The nilcay benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``nilcay`` is imported from ``src/``.
Every measurement runs in a fresh child process (``worker.py``), one at a
time, so each pass has its own peak RSS and nothing else competes for the
CPU.

``--trace 0`` runs untraced passes until ``--seconds`` is used (at least
``MIN_PASSES``), each after ``SETUP_PER_PASS`` set-up timings in fresh
processes, and reports the medians of the end-to-end metrics.  The times
are corrected for the host's speed during each measurement (``speed.py``);
the uncorrected medians are printed too, but are not metrics.  ``--trace 1`` runs pairs of an
untraced and a traced pass on the same seed and reports the per-layer
metrics and the tracing overhead, after two shim self-tests.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A check that gets no answer (a cap, a
``CollectionError``, an inconclusive verdict) counts as failed; an output
that disagrees with its expected value also makes ``correct`` false.
See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "reach", "geodesics", "autos")
SETUP_PER_PASS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def child(*args):
    """Run worker.py in a fresh process; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    # set-up is timed with compiled modules cached, as users run it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(map(str, args))} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def repeat(group, seconds, min_groups):
    """Run a group of children again and again, until one more group would
    overrun ``seconds``; at least ``min_groups`` times."""
    runs = []
    start = time.perf_counter()
    durations = []
    while len(runs) < min_groups or \
            time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        runs.append([child(*args) for args in group])
        durations.append(time.perf_counter() - t0)
    return runs


def tally(results, extra_checks):
    """(attempted, failed, wrong) over the passes plus run-level checks."""
    attempted = sum(r["attempted"] for r in results) + len(extra_checks)
    failed = sum(r["failed"] for r in results)
    wrong = [w for r in results for w in r["wrong"]]
    for label, ok in extra_checks:
        if not ok:
            failed += 1
            wrong.append(label)
    return attempted, failed, wrong


def untraced(workload, seed, seconds):
    # set-up samples are spread over the run, between the passes
    group = [("setup", workload)] * SETUP_PER_PASS + [("pass", workload, seed)]
    runs = repeat(group, seconds, MIN_PASSES)
    setups = [r["setup_s"] for run in runs for r in run[:-1]]
    passes = [run[-1] for run in runs]
    extra = []
    if workload == "verify":
        extra.append(("verify report bytes identical across passes",
                      len({p["digest"] for p in passes}) == 1))
    attempted, failed, wrong = tally(passes, extra)
    values = {name: statistics.median(p[name] for p in passes)
              for name, _ in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    rows = [(name, values[name], unit,
             f"median of {len(setups) if name == 'setup_s' else len(passes)}")
            for name, unit in END_TO_END]
    rows.append(("failed_ratio", failed / attempted, "1",
                 f"{failed} of {attempted} checks"))
    # the uncorrected times, for reference; they track the host, not nilcay
    for name, samples in (("raw_wall_s", passes), ("raw_cpu_s", passes),
                          ("raw_setup_s", [r for run in runs for r in run[:-1]])):
        rows.append((name, statistics.median(s[name] for s in samples), "s",
                     "uncorrected"))
    rows.append(("host_speed", statistics.median(p["speed"] for p in passes),
                 "1", "probe speed during the passes, 1 = reference"))
    limited = [item for p in passes for item in p["limited"]]
    return attempted, failed, wrong, limited, metrics, rows


def traced(workload, seed, seconds):
    pairs = repeat([("pass", workload, seed), ("traced", workload, seed)],
                   seconds, 1)
    plain = [u for u, _ in pairs]
    shimmed = [t for _, t in pairs]
    extra = []
    for t in shimmed:
        spans = t["metrics"]["cayley.generate_ball.vertices"]["value"]
        extra.append((f"self-test 1: traced generate_ball vertices {spans} "
                      f"= vertices of every Ball built {t['ball_vertices']}",
                      spans == t["ball_vertices"]))
    if workload == "verify":
        extra.append(("self-test 2: traced verify report bytes = untraced",
                      {u["digest"] for u in plain} == {t["digest"] for t in shimmed}))
    attempted, failed, wrong = tally(plain + shimmed, extra)
    metrics = {}
    for name, entry in shimmed[0]["metrics"].items():
        metrics[name] = {"value": statistics.median(
            t["metrics"][name]["value"] for t in shimmed), "unit": entry["unit"]}
    metrics["trace.overhead"] = {"value": statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in pairs), "unit": "ratio"}
    rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    limited = [item for p in plain + shimmed for item in p["limited"]]
    return attempted, failed, wrong, limited, metrics, rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nilcay" / "__init__.py").is_file():
        sys.exit(f"no nilcay sources under {ROOT / 'src'}; run from a checkout")

    measure = traced if args.trace else untraced
    attempted, failed, wrong, limited, metrics, rows = measure(
        args.workload, args.seed, args.seconds)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} cpu={cpu_model()!r}")
    for name, value, unit, note in rows:
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}")
    for item in limited:
        print(f"# no answer: {item}")
    for item in wrong:
        print(f"# WRONG: {item}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
