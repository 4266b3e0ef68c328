"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload score_stream --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in ``BENCHMARK.json``.  A metric is steady when its spread stays
below a third of its bound (``setup_s`` is exempt from the spread rule).
Runs are sequential, so they never compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    start, _, stop = text.partition("-")
    return list(range(int(start), int(stop or start) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    values = {}
    wall_s = []
    for seed in _seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
        wall_s.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}",
                  flush=True)
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
              + f" wall={wall_s[-1]:.1f}s",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"wall time per run: mean {statistics.mean(wall_s):.1f}s, max {max(wall_s):.1f}s")
    if not values or len(next(iter(values.values()))) < 2:
        return 0
    print(f"{'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        bound = bounds.get(name)
        line = f"{name:<34} {statistics.median(series):>12.6g} "
        line += f"{spread(series):>8.4f} " if statistics.median(series) else f"{'-':>8} "
        line += f"{bound:>6}" if bound is not None else ""
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
