"""Run one benchmark workload of `nonsep` and print its metrics as JSON.

    python3 bench/run.py --workload ns-decide --seed 1 --seconds 15 --trace 0

The inputs are made from the seed.  The operation list is run in whole
passes until `--seconds` have gone by; every output of every pass is
checked against the independent computations in `oracles.py`, outside
the timed region.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (the
median of five fresh processes, each timed from its start until its
inputs are ready), `wall_s` (the mean pass), `op_p50_ms` and
`op_p90_ms` (over the operations of a pass, each at its mean latency
over the passes) and `peak_rss_mb`.  The timings are given at the
reference speed of the host (see `reference_task`); the raw ones go to
standard error.  With `--trace 1`, passes
alternate between untraced and traced, and the metrics are the per-layer
numbers of one traced pass (see `tracing.py`) and the tracing overhead.

The package is imported from `src/` of the checkout this file sits in;
without it the run stops with exit code 2.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, fixed before numpy loads: the reference
# machine has two cores, and thread pools would make timings depend on
# whatever else runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5

# The shared host's speed wanders by half over seconds to minutes (a
# fixed Python loop read 12 to 19 ms), which spreads raw timings of the
# same code by a fifth from run to run.  So a fixed reference task runs
# after every REFERENCE_EVERY_S of operations, and each timing is scaled
# by REFERENCE_S over the reference task's time around it: a timing is
# reported as it would read with the host at its typical speed.
REFERENCE_EVERY_S = 0.25
REFERENCE_S = 0.009  # the reference task's median on the reference machine

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# (function, measure) pairs reported by the traced run; see README.md for
# which end-to-end metric each should move.
TRACED = [
    ("lp.solve", "calls"), ("lp.solve", "self_s"), ("lp.solve", "mean_ms"),
    ("polytope.from_vertices", "calls"), ("polytope.from_vertices", "self_s"),
    ("polytope.from_facets", "calls"), ("polytope.from_facets", "self_s"),
    ("polytope.contains_translate", "calls"), ("polytope.contains_translate", "time_s"),
    ("polytope.genericize", "time_s"),
    ("family.is_wns", "calls"), ("family.is_wns", "self_s"),
    ("family.is_ns", "calls"), ("family.is_ns", "time_s"), ("family.is_ns", "self_s"),
    ("family.is_ns", "lp_per_call"),
    ("family.is_kwip_sampled", "calls"), ("family.is_kwip_sampled", "self_s"),
    ("family.edges_covered", "self_s"),
    ("covering.lambda_min", "calls"), ("covering.lambda_min", "time_s"),
    ("covering.lambda_min", "self_s"), ("covering.weighted_cover", "time_s"),
    ("covering.sigma_cover", "time_s"), ("covering.lutwak_check", "time_s"),
    ("covering.is_summand", "time_s"), ("covering.wip_summand_check", "time_s"),
    ("asymmetry.sigma_lp", "time_s"), ("asymmetry.sigma_bisection", "time_s"),
    ("asymmetry.sigma_bisection", "lp_per_call"),
    ("lattice.covering_radius", "calls"), ("lattice.covering_radius", "self_s"),
    ("lattice.is_ns_lattice", "time_s"),
    ("cubes.exhaustive_max", "calls"), ("cubes.exhaustive_max", "self_s"),
    ("cubes.shadow_normalize", "self_s"),
    ("cubes.hull_metrics", "calls"), ("cubes.hull_metrics", "self_s"),
    ("balls.ball_circumradius", "calls"), ("balls.ball_circumradius", "self_s"),
    ("scenarios.run_scenario", "time_s"), ("cli.main", "self_s"),
]
UNITS = {"calls": "count", "self_s": "s", "time_s": "s", "mean_ms": "ms",
         "lp_per_call": "lp/call"}


def import_package():
    """Put the checkout's `src/` first on the path and load the benchmark."""
    src = ROOT / "src"
    if not (src / "nonsep" / "__init__.py").is_file():
        print(f"bench: no nonsep package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import nonsep

    if Path(nonsep.__file__).resolve().parent != src / "nonsep":
        sys.exit(f"bench: nonsep was imported from {nonsep.__file__}, not {src}")
    import workloads

    return workloads


@functools.cache
def _reference_lp():
    rng = np.random.default_rng(0)
    return rng.standard_normal(5), rng.standard_normal((200, 5)), np.ones(200)


def reference_task() -> float:
    """Seconds taken by a fixed task: an interpreter loop and two small
    HiGHS LPs, standing for the program's mix of interpreted code and
    compiled numerical kernels.  It shares no code with `nonsep`, so no
    change to the program moves it."""
    from scipy.optimize import linprog

    c, a, b = _reference_lp()
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i
    for _ in range(2):
        linprog(c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
    return time.perf_counter() - t0


def run_pass(ops):
    """Call every operation once: (pass seconds, op seconds, outputs,
    errors, op seconds at the reference speed)."""
    times, outputs, errors, scaled = [], [], [], []
    before, since = reference_task(), 0.0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
        since += times[-1]
        if since >= REFERENCE_EVERY_S or i == len(ops) - 1:
            after = reference_task()
            factor = 2 * REFERENCE_S / (before + after)
            scaled += [t * factor for t in times[len(scaled):]]
            before, since = after, 0.0
    return sum(times), times, outputs, errors, scaled


class Tally:
    """Attempted / failed operations, and whether every output checked out."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def check(self, ops, outputs, errors) -> None:
        from oracles import CheckError

        for op, out, err in zip(ops, outputs, errors):
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.report(op, f"raised {err!r}")
                continue
            try:
                op.check(out)
            except CheckError as exc:
                self.failed += 1
                self.correct = False
                self.report(op, str(exc))

    def report(self, op, msg: str) -> None:
        if self.failed <= 10:
            print(f"bench: {op.kind} failed: {msg}", file=sys.stderr)


def warm_up(ops) -> None:
    """One call of each kind of operation, so lazy imports happen untimed."""
    reference_task()
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:
                pass  # the timed passes count and report it


def setup_seconds(args) -> tuple[float, float]:
    """Median time from a fresh process's start until its inputs are ready:
    (at the reference speed, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples, scaled = [], []
    before = reference_task()
    for _ in range(SETUP_PROCESSES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
        after = reference_task()
        scaled.append(samples[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(samples)


def timings(setup: float, passes) -> dict:
    """setup_s, wall_s, op_p50_ms and op_p90_ms from per-pass op seconds."""
    # Means over the passes: a mean follows the share of time the host
    # spent slow, where a median jumps between its fast and slow states.
    op_means = [statistics.fmean(samples) for samples in zip(*passes)]
    return {"setup_s": setup,
            "wall_s": statistics.fmean(sum(times) for times in passes),
            "op_p50_ms": 1e3 * statistics.median(op_means),
            "op_p90_ms": 1e3 * statistics.quantiles(op_means, n=10,
                                                   method="inclusive")[8]}


def untraced(args, ops, tally: Tally) -> dict:
    setup, setup_raw = setup_seconds(args)
    warm_up(ops)
    raw, scaled = [], []
    start = time.perf_counter()
    while True:
        _, times, outputs, errors, at_reference = run_pass(ops)
        raw.append(times)
        scaled.append(at_reference)
        tally.check(ops, outputs, errors)
        if time.perf_counter() - start >= args.seconds:
            break
    print("bench: raw " + json.dumps(timings(setup_raw, raw)), file=sys.stderr)
    values = {**timings(setup, scaled),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced(args, ops, tally: Tally) -> dict:
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    warm_up(ops)
    plain, walls, traced_scaled = [], [], []
    start = time.perf_counter()
    while True:
        _, _, outputs, errors, scaled = run_pass(ops)
        plain.append(sum(scaled))
        tally.check(ops, outputs, errors)
        tracer.install()
        try:
            wall, _, outputs, errors, scaled = run_pass(ops)
        finally:
            tracer.uninstall()
        walls.append(wall)
        traced_scaled.append(sum(scaled))
        tally.check(ops, outputs, errors)
        if time.perf_counter() - start >= args.seconds:
            break
    return layer_metrics(tracer.stats, len(walls), LAYERS, walls, traced_scaled, plain)


def layer_metrics(stats, passes: int, layers, walls, traced, plain) -> dict:
    """Per-pass layer numbers from a tracer's totals over `passes` passes;
    `walls` are the raw traced passes, `traced` and `plain` the traced and
    untraced ones at the reference speed."""
    def value(key, measure):
        st = stats[key]
        if measure == "mean_ms":
            return 1e3 * st.time_s / st.calls if st.calls else 0.0
        if measure == "lp_per_call":
            return st.lp_calls / st.calls if st.calls else 0.0
        return getattr(st, measure) / passes

    out = {f"{key}.{m}": {"value": value(key, m), "unit": UNITS[m]} for key, m in TRACED}
    for layer in layers:
        total = sum(st.self_s for key, st in stats.items() if key.split(".")[0] == layer)
        out[f"{layer}.self_s"] = {"value": total / passes, "unit": "s"}
    out["trace.wall_s"] = {"value": statistics.fmean(walls), "unit": "s"}
    out["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(plain),
                               "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the monotonic clock, exit")
    args = parser.parse_args(argv)
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as out_dir:
        ops = workloads.build(args.workload, args.seed, ROOT, Path(out_dir))
        if args.setup_only:
            print(time.monotonic())
            return 0
        tally = Tally()
        metrics = (traced if args.trace else untraced)(args, ops, tally)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
