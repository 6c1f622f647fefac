"""Steadiness of the benchmark: run a workload k times and summarise.

    python3 bench/steady.py --workload ns-decide --runs 10 --seed 1
    python3 bench/steady.py --workload ns-decide --runs 10 --seed 101 \\
        --save bench/results/ns-b.json --against bench/results/ns-a.json

Each run is a fresh `bench/run.py` process with its own seed (seed,
seed + 1, ...) and the run length of `BENCHMARK.json`.  For every
end-to-end metric the table gives the median, the quartiles of
`statistics.quantiles(values, n=4)`, the spread (q3 - q1) / median and
the metric's bound, and the spread the same runs gave before their timings
were scaled to the host's reference speed (`raw`).  With `--against`, it also gives the shift of the
median from a saved set, as a share of that set's median; a positive
shift is a change for the worse.  The share of failed operations is
printed per set, since it must be the same in every set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    raw = [line for line in proc.stderr.splitlines() if line.startswith("bench: raw ")]
    result["raw"] = json.loads(raw[-1].removeprefix("bench: raw "))
    return result


def summary(results: list[dict], metric: str, raw: bool = False) -> tuple[float, float, float]:
    values = [r["raw"][metric] if raw else r["metrics"][metric]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--against", help="compare medians with a saved set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = []
    for k in range(args.runs):
        start = time.monotonic()
        results.append(run_once(args.workload, args.seed + k, spec["run_seconds"]))
        print(f"run {k + 1}/{args.runs} seed {args.seed + k}: "
              f"correct={results[-1]['correct']} "
              f"failed={results[-1]['failed']}/{results[-1]['attempted']} "
              f"in {time.monotonic() - start:.1f} s", file=sys.stderr)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    base = json.loads(Path(args.against).read_text()) if args.against else None

    print(f"workload {args.workload}: {args.runs} runs, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {spec['run_seconds']} s each")
    print(f"{'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'raw':>8s}" + (f" {'shift':>8s}" if base else ""))
    for m in spec["end_to_end"]:
        q1, med, q3 = summary(results, m["name"])
        line = (f"{m['name']:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / med:8.4f} {m['bound']:6.3f}")
        if m["name"] in results[0]["raw"]:
            rq1, rmed, rq3 = summary(results, m["name"], raw=True)
            line += f" {(rq3 - rq1) / rmed:8.4f}"
        else:
            line += f" {'':8s}"
        if base:
            sign = 1 if m["better"] == "lower" else -1
            ref = summary(base, m["name"])[1]
            line += f" {sign * (med - ref) / ref:8.4f}"
        print(line)
    for label, rs in (("this set", results), ("saved set", base or [])):
        if rs:
            failed = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            share = sorted({r["failed"] / r["attempted"] for r in rs})
            print(f"{label}: failed {failed}/{attempted}, per-run shares {share}, "
                  f"all correct: {all(r['correct'] for r in rs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
