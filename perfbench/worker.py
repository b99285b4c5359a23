"""Runs the golden gate or one workload, each in a fresh process.

    python perfbench/worker.py gate
    python perfbench/worker.py run --spec requests.json --cycles N --trace 0|1 \
        [--spans spans.csv] [--setup DESIGN_FILE]

Every request is a grippertool.cli.run(argv, out, err) call in this one
process: a closed loop with one client and no extra threads. The loop
replays a fixed number of whole cycles of the request list, so every
count repeats exactly for a seed. Each batch of requests starts on the
least disturbed CPU (steady.py). Each output is checked right after its
batch, outside the timed region, and then dropped, so the process's peak
RSS is the program's own. With --setup, the cold starts for setup_s run
from here too. The last stdout line is a JSON object for
perfbench/run.py.
"""

import argparse
import ast
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from grippertool import cli  # noqa: E402

import checks  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SAMPLE = ROOT / "designs" / "example_tool.ini"
GOLDEN_DIR = ROOT / "tests" / "golden"
WALL_CAP_S = 120.0  # a much slower program still ends within the time limit
SETUP_CALM = 5
SETUP_MAX = 30


def golden_commands() -> dict:
    """GOLDEN_COMMANDS from tests/test_cli.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "GOLDEN_COMMANDS" for t in node.targets)):
            def arg(element):
                if isinstance(element, ast.Name) and element.id == "SAMPLE":
                    return str(SAMPLE)
                return ast.literal_eval(element)
            return {ast.literal_eval(key): [arg(e) for e in value.elts]
                    for key, value in zip(node.value.keys, node.value.values)}
    raise RuntimeError("tests/test_cli.py has no GOLDEN_COMMANDS")


def gate() -> dict:
    """Run the golden commands; every one must match its file byte for byte."""
    mismatches = []
    commands = golden_commands()
    for name, argv in commands.items():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out=out, err=err)
        expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        if code != 0 or err.getvalue() or out.getvalue() != expected:
            mismatches.append(name)
    return {"checked": len(commands), "mismatches": mismatches}


def serve(request, tracer=None):
    """One request through cli.run; returns (seconds, code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        # argparse reports usage errors on sys.stderr, not on err
        with contextlib.redirect_stderr(err):
            code = cli.run(request["argv"], out, err)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return elapsed, code, out.getvalue(), err.getvalue()


class Tally:
    """Failure accounting over every timed request."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.defect_failures = 0
        self.optimize = 0
        self.optimize_solved = 0
        self.examples = []

    def add(self, request, code, out, err) -> int:
        """Check one outcome; returns its result rows."""
        self.attempted += 1
        if request["kind"] == "optimize":
            self.optimize += 1
            self.optimize_solved += code == 0
        found = checks.failure(request, code, out, err)
        if found is not None:
            reason, wrong = found
            self.failed += 1
            self.wrong += wrong
            if (workloads.hits_pose_defect(request) and code == 1
                    and "outside [0, pi/2]" in err):
                self.defect_failures += 1
            if len(self.examples) < 5:
                self.examples.append({"argv": request["argv"][:1] + request["argv"][2:],
                                      "reason": reason})
        return checks.result_rows(request, code, out)


def run_cycle(requests, batch, tally, batches, core, tracer=None):
    """Send every request once, in batches of `batch`, each on the least
    disturbed CPU (steady.Core).

    Outcomes are checked after each batch, outside the timed region.
    Appends (positions, latencies_s, probe_s) to batches; returns
    (busy_s, result_rows)."""
    busy, rows = 0.0, 0
    for first in range(0, len(requests), batch):
        chunk = requests[first:first + batch]
        before = core.settle()
        outcomes = []
        for offset, request in enumerate(chunk):
            if tracer is not None:
                tracer.request = first + offset
            outcomes.append(serve(request, tracer))
        latencies = [outcome[0] for outcome in outcomes]
        batches.append((range(first, first + len(chunk)), latencies, before))
        busy += sum(latencies)
        for request, (_, code, out, err) in zip(chunk, outcomes):
            rows += tally.add(request, code, out, err)
    return busy, rows


def cold_start(design: str, batches: list) -> tuple:
    """(elapsed, probe before, probe after) of one fresh-interpreter start,
    which waits briefly for a calm moment by the probes of `batches`."""
    floor = steady.floor([b[2] for b in batches])
    proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), design, str(floor)],
                          capture_output=True, text=True, check=True, timeout=60)
    return tuple(float(x) for x in proc.stdout.split())


def setup_s(starts: list, fastest: float) -> tuple[float, int]:
    """The median of the calm cold starts, or of the three fastest when
    fewer than three were calm; returns it and how many it took."""
    calm = [t for t, before, after in starts if steady.is_calm(before, after, fastest)]
    if len(calm) < 3:
        calm = sorted(start[0] for start in starts)[:3]
    return statistics.median(calm), len(calm)


def measure(requests, warmup, batch, cycles, traced, spans_path, setup_design=None):
    """Replay `cycles` whole cycles (untraced), or with tracing that many
    pairs of an untraced and a traced cycle; stop early, after a whole
    cycle, only if the loop has run longer than WALL_CAP_S.

    With setup_design, one cold start follows each cycle, so that they
    sample the whole run, and more follow the loop until SETUP_CALM were
    calm or SETUP_MAX ran."""
    for request in requests[:warmup]:
        serve(request)
    tally = Tally()
    batches, busy, rows, done = [], 0.0, 0, 0
    tracer = tracing.Tracer() if traced else None
    core = steady.Core()
    passes, traced_batches, first_spans, starts = [], [], None, []
    start = time.perf_counter()
    while done < cycles and time.perf_counter() - start < WALL_CAP_S:
        plain_busy, cycle_rows = run_cycle(requests, batch, tally, batches, core)
        busy += plain_busy
        rows += cycle_rows
        done += 1
        if setup_design is not None:
            starts.append(cold_start(setup_design, batches))
        if not traced:
            continue
        run_cycle(requests, batch, tally, traced_batches, core, tracer)
        passes.append(tracer.summary())
        if first_spans is None:
            first_spans = list(tracer.spans)
        tracer.reset()
    fastest = steady.floor([b[2] for b in batches])
    values = steady.best_per_position(batches)
    result = {
        "cycles": done, "cut_short": done < cycles, "attempted": tally.attempted,
        "failed": tally.failed, "wrong": tally.wrong,
        "defect_failures": tally.defect_failures, "failure_examples": tally.examples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "position_latencies_s": values,
        "latencies_s": [x for b in batches for x in b[1]],
        "probe_floor_s": fastest,
        "settled_share": sum(b[2] <= fastest * steady.CALM for b in batches) / len(batches),
        "busy_s": busy, "rows_per_s": rows / busy,
    }
    if setup_design is not None:
        while (len(starts) < SETUP_MAX and sum(
                steady.is_calm(b, a, fastest) for _, b, a in starts) < SETUP_CALM):
            starts.append(cold_start(setup_design, batches))
        result["setup_s"], result["setup_used"] = setup_s(starts, fastest)
        result["setup_starts"] = starts
    if traced:
        tracing.write_spans(spans_path, first_spans)
        # counts repeat exactly from cycle to cycle; times take the median
        layers = {key: statistics.median(p[key] for p in passes)
                  if key.endswith(("_ms", "_us")) else value
                  for key, value in passes[0].items()}
        traced_values = steady.best_per_position(traced_batches)
        layers["trace.overhead_ratio"] = sum(traced_values) / sum(values)
        layers["cells_per_s"] = result["rows_per_s"]
        layers["failed_ratio"] = tally.failed / tally.attempted
        layers["sizing.solve_feasible_ratio"] = (
            tally.optimize_solved / tally.optimize if tally.optimize else 0.0)
        result["per_layer"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("gate")
    p = sub.add_parser("run")
    p.add_argument("--spec", required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans", help="where the traced run writes its spans")
    p.add_argument("--setup", help="design file the cold starts parse")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running cold start is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.mode == "gate":
        result = gate()
    else:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        result = measure(spec["requests"], spec["warmup"], spec["batch"], args.cycles,
                         bool(args.trace), args.spans, args.setup)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
