"""bnbroadcast benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory and nothing is installed.  Workloads (see workloads.py and
README.md): q1_scan, families_exact, large_structural.

With --trace 0 the run measures the end-to-end metrics with tracing off:
passes over the workload's ops, each pass in a fresh child process and
each preceded by a timing of the fixed speed reference (speed.py) and one
probe of a fresh interpreter's set-up time, until --seconds would be
exceeded (at least one pass).  Every op's time is its median over the
passes and set-up time is the median probe; times are reported at the
host's nominal speed and also printed as measured.  q1_scan then makes one
untimed traced pass, whose spans carry the per-order values that are
checked against the references.  With --trace 1 every pass is traced and
the run reports per-layer metrics, as measured.

Every op's output is checked against refs.json.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  Every op that
raises, exits nonzero or prints a wrong value counts in `failed`; `correct`
is false when any of them is not the known failure refs.json records for
that op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("BNB_LOG", None)
    env.pop("PYTHONOPTIMIZE", None)  # assertions stay on; -O is out of scope
    # Bytecode is cached under src/, as for an installed package; compiling
    # on every start would add about a quarter to setup_s.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, workdir, tag, reference=None):
    """Run a child to completion: (wall seconds, exit code, max RSS in MB, stdout, stderr).

    With a `reference` list, a thread times the speed reference while the
    child runs, once per speed.WHILE_WAITING_GAP_S, into that list.
    """
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    stop = threading.Event()

    def sample():
        while not stop.wait(speed.WHILE_WAITING_GAP_S):
            reference.extend(speed.measure(1))

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        sampler = threading.Thread(target=sample) if reference is not None else None
        if sampler is not None:
            sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        finally:
            timer.cancel()
            stop.set()
            if sampler is not None:
                sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def setup_probe(workdir):
    """Seconds for a fresh interpreter to import the package and answer --version."""
    wall, rc, _, out, err = spawn(
        [sys.executable, "-m", "bnbroadcast.cli", "--version"], workdir, "setup")
    if rc != 0:
        raise SystemExit(f"bnbroadcast --version failed: {err.strip()[-500:]}")
    return wall


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """One pass of a workload: per-op records plus the child's wall and RSS."""

    records: list
    wall: float
    rss_mb: float
    spans: list = None
    span_cost: float = 0.0
    reference: tuple = ()

    @property
    def op_seconds(self):
        return sum(r["seconds"] or 0.0 for r in self.records)


def cli_scan_pass(op, workdir):
    """The q1 scan as users run it: the CLI in its own interpreter.  The
    speed reference is timed while it runs (see spawn)."""
    reference = []
    wall, rc, rss, out, err = spawn(
        [sys.executable, "-m", "bnbroadcast.cli", *op["argv"]], workdir, "scan", reference)
    status, detail = "ok", ""
    if rc != 0:
        status, detail = "exit", f"exit code {rc}: {err.strip()[-300:]}"
    else:
        try:
            bad = checks.mismatches(checks.observe("search", out), op["expect"])
        except (ValueError, KeyError, IndexError) as exc:
            bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if bad:
            status, detail = "mismatch", "; ".join(bad)
    return Pass([{"id": op["id"], "seconds": wall, "status": status, "detail": detail}],
                wall, rss, reference=tuple(reference))


def worker_pass(ops, workdir, traced):
    tag = "traced" if traced else "plain"
    ops_path = workdir / "ops.json"
    result_path = workdir / f"{tag}-result.json"
    spans_path = workdir / f"{tag}-spans.jsonl"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(result_path)]
    if traced:
        argv.append(str(spans_path))
    wall, rc, rss, out, err = spawn(argv, workdir, tag)
    if rc != 0 or not result_path.exists():
        detail = f"worker exit code {rc}: {err.strip()[-500:]}"
        records = [{"id": op["id"], "seconds": None, "status": "crash", "detail": detail}
                   for op in ops]
        return Pass(records, wall, rss)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not traced:
        return Pass(result["ops"], wall, rss, reference=tuple(result["reference"]))
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    return Pass(result["ops"], wall, rss, spans, result["span_cost"])


def run_passes(workload, ops, workdir, seconds, traced):
    """Passes until the next one would overrun `seconds` (at least one).

    Untraced runs time the speed reference and probe set-up time before
    every pass, so that these, like the passes, are spread over the whole
    run; (passes, probe seconds, reference seconds).  The reference seconds
    include those the worker timed between ops.
    """
    passes, probes, reference = [], [], []
    start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        if not traced:
            reference.append(speed.measure())
            probes.append(setup_probe(workdir))
        if workload == "q1_scan" and not traced:
            passes.append(cli_scan_pass(ops[0], workdir))
        else:
            passes.append(worker_pass(ops, workdir, traced))
        last = perf_counter() - t0
    while not traced and len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workdir))
    reference += [list(p.reference) for p in passes if p.reference]
    return passes, probes, reference


# ---------------------------------------------------------------------------
# metrics


def op_seconds(passes):
    """Each op's time: its median over the passes, or inf when it failed in any pass.

    On a shared host the speed of single passes swings by a third either way
    within seconds; the median of passes spread over the whole run moves
    less with that than their fastest or slowest.
    """
    by_op = {}
    for p in passes:
        for r in p.records:
            t = r["seconds"] if r["status"] == "ok" else float("inf")
            by_op.setdefault(r["id"], []).append(t)
    return {k: statistics.median(v) if max(v) < float("inf") else float("inf")
            for k, v in by_op.items()}


def op_latencies_ms(workload, passes):
    """One latency per op: per scan for q1_scan, else each op's median over passes."""
    if workload == "q1_scan":
        return [p.wall * 1000.0 if p.records[0]["status"] == "ok" else float("inf")
                for p in passes]
    return [t * 1000.0 for t in op_seconds(passes).values()]


def smoothed_percentile(values, q):
    """Mean of the 2k+1 values nearest the q-th percentile's rank, k = n // 25
    (4 for about 100 ops); below 25 values, the plain percentile.

    One op's latency carries that op's noise; the mean of its neighbours in
    rank carries less.  An inf value (a failed op) shows when it falls in
    the window.
    """
    k = len(values) // 25
    if k == 0:
        return tracing.percentile(values, q)
    data = sorted(values)
    c = round((len(data) - 1) * q / 100.0)
    window = data[max(0, c - k):c + k + 1]
    return sum(window) / len(window)


def tally(records):
    """(failed records, correct): every failure but a known one makes the run incorrect."""
    failed = [r for r in records if r["status"] != "ok"]
    return failed, all(r["status"] == "known_failure" for r in failed)


def pass_seconds(passes):
    """Time of one pass: each op's median over the passes, summed over the ops.

    Per-op medians drop an op's slow and fast passes, so a stretch of a run
    in which the machine ran at another speed moves this less than it moves
    the median of pass totals.  An op that fails counts with the time it
    took to fail.
    """
    by_op = {}
    for p in passes:
        for r in p.records:
            if r["seconds"] is not None:
                by_op.setdefault(r["id"], []).append(r["seconds"])
    return sum(statistics.median(v) for v in by_op.values())


def speed_factor(reference):
    """Nominal over median time of the run's reference computations (see speed.py)."""
    return speed.REFERENCE_NOMINAL_S / statistics.median(t for ts in reference for t in ts)


def end_to_end(workload, passes, probes, factor):
    """(metrics with times at the nominal host speed, times as measured, samples)."""
    lat = op_latencies_ms(workload, passes)
    measured = {
        "wall_s": pass_seconds(passes),
        "op_ms.p50": smoothed_percentile(lat, 50),
        "op_ms.p90": smoothed_percentile(lat, 90),
        "setup_s": statistics.median(probes),
    }
    metrics = {k: v * factor for k, v in measured.items()}
    metrics["peak_rss_mb"] = statistics.median(p.rss_mb for p in passes)
    return metrics, measured, len(lat)


def per_layer(passes, workdir):
    rows = [tracing.layer_metrics(p.spans, p.op_seconds, p.span_cost)
            for p in passes if p.spans]
    if not rows:
        raise SystemExit(f"no traced pass finished; see traced.err in {workdir}")
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# provenance


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "cpu": cpu or platform.processor() or None,
    }


def code_version():
    """Git commit of the checkout when it is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bnbroadcast" / "__init__.py").is_file():
        print(f"error: no bnbroadcast sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = workloads.load_refs()
    ops = workloads.build_ops(args.workload, args.seed, refs, workdir)

    t0 = perf_counter()
    passes, probes, reference = run_passes(args.workload, ops, workdir, args.seconds,
                                           bool(args.trace))
    elapsed = perf_counter() - t0
    checked = []
    if args.workload == "q1_scan" and not args.trace:
        checked = [worker_pass(ops, workdir, traced=True)]

    records = [r for p in passes + checked for r in p.records]
    failed, correct = tally(records)
    factor, measured = None, None
    if args.trace:
        metrics, samples = per_layer(passes, workdir), None
    else:
        factor = speed_factor(reference)
        metrics, measured, samples = end_to_end(args.workload, passes, probes, factor)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed,
        "passes": len(passes), "check_passes": len(checked),
        "latency_samples": samples,
        "attempted": len(records), "failed": len(failed),
        "error_rate": len(failed) / len(records),
        "failures": sorted({f"{r['id']}: {r['status']}: {r['detail']}" for r in failed}),
        "pass_seconds": [p.op_seconds for p in passes],
        "setup_probes": probes,
        "reference_seconds": reference,
        "op_seconds": {r["id"]: [q["seconds"] for p in passes for q in p.records
                                 if q["id"] == r["id"]] for r in passes[0].records},
        "assertions": __debug__, "machine": machine(), "code": code_version(),
        "speed_factor": factor, "measured": measured,
        "metrics": metrics,
    }
    (HERE / ".work" / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}+{len(checked)}  elapsed {elapsed:.1f} s")
    print(f"machine {json.dumps(report['machine'], sort_keys=True)}")
    print(f"code {json.dumps(report['code'], sort_keys=True)}  assertions {__debug__}")
    print(f"ops attempted {len(records)}  failed {len(failed)}  "
          f"error_rate {report['error_rate']:.4f}"
          + (f"  latency samples {samples}" if samples else ""))
    for line in report["failures"]:
        print(f"  failed: {line}")
    if measured is not None:
        print(f"host speed factor {factor:.4f}; times as measured: "
              + "  ".join(f"{k} {v:.6f}" for k, v in measured.items()))
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
