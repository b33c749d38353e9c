"""One measurement in a fresh process; ``run.py`` starts it and reads the
JSON object on its last line of output.

    python3 perfbench/worker.py setup  <workload>
    python3 perfbench/worker.py pass   <workload> <seed>
    python3 perfbench/worker.py traced <workload> <seed>

``setup`` times importing ``nilcay`` and loading the workload's
presentations.  ``pass`` runs one pass untraced and reports its wall time,
its CPU time (this process and its children) and the peak RSS of the
process.  ``traced`` runs one pass under the trace shim and reports the
per-layer metrics.

Times are reported raw and corrected for the host's speed during the
measurement (``speed.py``).
"""

import time

import speed

# the host's speed right before set-up, which starts here
BEFORE = speed.sample(speed.BRACKET_S)
START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s():
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def main(mode, workload, seed=None):
    import nilcay
    if not Path(nilcay.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"nilcay was imported from {nilcay.__file__}, not from {SRC}")
    import workloads
    if mode == "setup":
        workloads.load_presentations(workload)
        raw = time.perf_counter() - START
        factor = speed.factor(BEFORE + speed.sample(speed.BRACKET_S))
        return {"setup_s": raw * factor, "raw_setup_s": raw, "speed": factor}

    run = workloads.WORKLOADS[workload]
    seed = int(seed)
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer().install(workloads)
    with speed.Sampler() as sampler:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        checks = run(seed)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    out = {"wall_s": sampler.correct(wall), "cpu_s": sampler.correct(cpu),
           "raw_wall_s": wall, "raw_cpu_s": cpu, "speed": sampler.factor(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": checks.attempted, "failed": checks.failed,
           "wrong": checks.wrong, "limited": checks.limited,
           "digest": checks.digest}
    if tracer is not None:
        # per-layer times get the pass's speed correction too
        scale = {"s": sampler.factor(), "us": sampler.factor(),
                 "1/s": 1 / sampler.factor()}
        out["metrics"] = {
            name: {"value": m["value"] * scale.get(m["unit"], 1),
                   "unit": m["unit"]}
            for name, m in tracer.metrics().items()}
        out["ball_vertices"] = tracer.ball_vertices()
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
