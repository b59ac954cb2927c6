"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
                                [--trace 0|1] [--trajectory LABEL --note TEXT]

Every workload runs for BENCHMARK.json's run_seconds.  For every workload
and metric it prints the median over the runs, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs are sequential, one at a time.  With --trajectory the medians and
quartiles are appended to trajectory.jsonl as one entry.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trajectory", metavar="LABEL")
    p.add_argument("--note", default="")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    entry = {}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            r = results[-1]
            print(f"{workload} seed {seed}: correct {r['correct']} attempted "
                  f"{r['attempted']} failed {r['failed']}", flush=True)
        stats = summarize(results)
        for name, s in stats.items():
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else (
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:28s} median {s['median']:14.6f} {s['unit']:6s} "
                  f"q1 {s['q1']:14.6f} q3 {s['q3']:14.6f} spread {s['spread']:.4f} "
                  f"bound {bound} {flag}", flush=True)
        entry[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {k: {kk: v[kk] for kk in ("median", "q1", "q3", "spread", "unit")}
                        for k, v in stats.items()},
        }

    if args.trajectory:
        import run

        record = {
            "label": args.trajectory,
            "date": datetime.date.today().isoformat(),
            "note": args.note,
            "code": run.code_version(),
            "machine": run.machine(),
            "seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": entry,
        }
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended '{args.trajectory}' to {HERE / 'trajectory.jsonl'}")


if __name__ == "__main__":
    main()
