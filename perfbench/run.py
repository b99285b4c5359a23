"""grippertool benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload interactive|surface|sizing \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run

1. replays the five golden CLI commands and aborts on any byte mismatch;
2. writes the workload's seeded design files and request list to a
   temporary directory under .perfbench-tmp/;
3. with --trace 0, runs a fixed number of cycles of the workload,
   sized so that they take about --seconds at the seed commit, untraced
   in a fresh process, which also times fresh-interpreter cold starts,
   one after each cycle and more after the loop until five of them were
   calm (steady.py) or thirty ran;
   with --trace 1, runs it in a fresh process alternating untraced and
   traced cycles, for the per-layer metrics;
4. writes the result set with its environment record (and, traced, the
   spans) to .perfbench-out/, prints a summary, and prints one JSON line
   last: {"correct", "attempted", "failed", "metrics"}.

Standard library only: the program under test runs in child processes.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import steady
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
TMP_DIR = ROOT / ".perfbench-tmp"
REQUIRED = ("src/grippertool/cli.py", "tests/test_cli.py", "tests/golden",
            "designs/example_tool.ini")
LADDER = (50, 75, 90, 95, 99, 99.9)  # percentiles the record lists
CHILD_TIMEOUT_S = 170
# numpy's OpenBLAS starts a thread per core at import; one client and no
# extra threads means none of them, and they made cold starts jitter.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

END_TO_END = {  # name -> unit
    "setup_s": "s", "requests_per_s": "1/s", "request_p50_ms": "ms",
    "request_tail_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child(args: list, timeout=CHILD_TIMEOUT_S) -> str:
    """Run a Python child in the checkout; return its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} timed out after {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def _percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _environment(seed: int, requests: list, numpy_version: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    mix = {}
    for request in requests:
        key = f"{request['kind']} exit {request['expect']}"
        mix[key] = mix.get(key, 0) + 1
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": commit, "src_lines": src_lines, "seed": seed,
            "requests_per_cycle": len(requests), "cycle_mix": mix}


def _defect_note(requests: list) -> dict:
    pose = [r for r in requests if r["kind"] == "pose-sweep"]
    hits = [r["check"]["samples"] for r in pose if workloads.hits_pose_defect(r)]
    return {
        "defect": "gamma_sweep's last sample pi/2*(n-1)/(n-1) rounds one ulp above "
                  "pi/2 for some n; torque_margin raises DomainError and pose-sweep "
                  "exits 1. Requests keep n drawn uniformly; the failures count.",
        "pose_requests_per_cycle": len(pose),
        "affected_per_cycle": len(hits),
        "affected_share_of_pose": len(hits) / len(pose) if pose else 0.0,
        "affected_share_of_all": len(hits) / len(requests),
        "affected_n": sorted(hits),
    }


def bench(args) -> tuple[dict, dict]:
    config = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        requests = workloads.generate(args.workload, args.seed, Path(tmp))
        spec = Path(tmp) / "requests.json"
        spec.write_text(json.dumps({"requests": requests, "warmup": config["warmup"],
                                    "batch": config["batch"]}), encoding="utf-8")
        cycles = max(2, round(args.seconds / config["cycle_s"]))
        if args.trace:  # pairs of an untraced and a traced cycle
            cycles = max(1, cycles // 3)
        run = [HERE / "worker.py", "run", "--spec", spec, "--cycles", cycles,
               "--trace", args.trace, "--spans", OUT_DIR / f"{stem}-spans.csv"]
        if not args.trace:
            run += ["--setup", requests[0]["argv"][1]]
        worker = json.loads(_child(run))
    try:
        TMP_DIR.rmdir()
    except OSError:
        pass  # another run still uses it

    record = {"workload": args.workload, "why": config["why"],
              "environment": _environment(args.seed, requests, worker.pop("numpy")),
              "notes": _defect_note(requests)}
    positions = worker.pop("position_latencies_s")
    latencies = worker.pop("latencies_s")
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in worker.pop("per_layer").items()}
    else:
        pct = config["tail_pct"]
        tail = _percentile(positions, pct)
        values = {
            "setup_s": worker["setup_s"],
            "requests_per_s": len(positions) / sum(positions),
            "request_p50_ms": statistics.median(positions) * 1e3,
            "request_tail_ms": tail * 1e3,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        beyond = sum(x > tail for x in positions)
        record["tail"] = {"percentile": pct, "positions": len(positions),
                          "positions_beyond": beyond,
                          "requests_beyond": beyond * worker["cycles"]}
        record["latency_ms_by_percentile"] = {
            f"p{p:g}": _percentile(latencies, p) * 1e3 for p in LADDER}
        record["setup_starts"] = {
            "elapsed_probe_before_after_s": worker.pop("setup_starts"),
            "used": worker["setup_used"]}
        record["position_latency_ms"] = [x * 1e3 for x in positions]
        record["cells_per_s"] = worker["rows_per_s"]
    record["failed_ratio"] = worker["failed"] / worker["attempted"]
    record["worker"] = worker
    result = {"correct": worker["wrong"] == 0, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    record["result"] = result
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    return result, record


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name == "cells_per_s":
        return "1/s"
    if name.endswith(("ratio", "max_residual")):
        return "ratio"
    return "count"


def _summary(args, result: dict, record: dict) -> None:
    env = record["environment"]
    worker = record["worker"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {record['why']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['commit'][:12]}, src lines {env['src_lines']}")
    cycles = f"{worker['cycles']} untraced + {worker['cycles']} traced" if args.trace \
        else f"{worker['cycles']}"
    print(f"  cycle of {env['requests_per_cycle']} requests {env['cycle_mix']}; "
          f"{cycles} cycles, {result['attempted']} attempted")
    notes = record["notes"]
    print(f"  failed {result['failed']} (ratio {record['failed_ratio']:.6f}), of which "
          f"{worker['defect_failures']} from the pose-sweep pi/2 defect "
          f"({notes['affected_per_cycle']} of {notes['pose_requests_per_cycle']} "
          f"pose sweeps per cycle); wrong outputs {worker['wrong']}")
    print(f"  probe floor {worker['probe_floor_s'] * 1e6:.0f} us; {worker['settled_share']:.0%} "
          f"of batches started within {steady.CALM:g}x of it")
    for example in worker["failure_examples"]:
        print(f"    {' '.join(example['argv'])}: {example['reason']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        tail = record["tail"]
        print(f"  request_tail_ms is p{tail['percentile']:g} of the cycle's "
              f"{tail['positions']} requests: {tail['positions_beyond']} beyond it, "
              f"{tail['requests_beyond']} requests sent")
        print(f"  cells_per_s (not bounded) {record['cells_per_s']:.6g} 1/s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grippertool benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        missing = [p for p in REQUIRED if not (ROOT / p).exists()]
        if missing:
            raise BenchError("not a grippertool checkout; missing " + ", ".join(missing))
        gate = json.loads(_child([HERE / "worker.py", "gate"]))
        if gate["mismatches"]:
            print("perfbench: golden output mismatch: " + ", ".join(gate["mismatches"]),
                  file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": gate["checked"],
                              "failed": len(gate["mismatches"]), "metrics": {}}))
            return 1
        result, record = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _summary(args, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
