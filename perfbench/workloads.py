"""Seeded inputs for the benchmark workloads.

Each workload is one fixed list of requests (a cycle) built from the seed.
The benchmark replays whole cycles, so every count it reports repeats
exactly for a given seed. A request is a dict:

    argv    the argument list handed to grippertool.cli.run
    expect  the exit code a correct program returns
    kind    request type, used by the checks and the summary
    check   data the independent checks need (design parameters, etc.)

Only the standard library is used here: the generator never asks the
program under test what a valid input is.
"""

import math
import random
from pathlib import Path

DEG = math.pi / 180.0  # the parser's factor for the 'deg' suffix

# Why each workload exists and which tail percentile it reports. The
# tail is taken over the cycle's requests, each at its smallest latency
# over the run's cycles (steady.py); the percentile is the highest on the
# ladder 75/90/99 that keeps at least ten requests sent in a run beyond
# it. It is fixed here so that a faster program is compared at the same
# percentile rather than a higher one. `batch` is how many requests share
# one probe (steady.py), about 20 ms of work on interactive. `cycle_s` is
# the full-speed time of one cycle at the seed commit (2-core x86-64 VM);
# a run replays round(seconds / cycle_s) cycles, so its work is fixed.
WORKLOADS = {
    "interactive": {
        "why": "thousands of small validate/analyze/sweep requests: the fixed "
               "per-request cost (argparse, parse_design, scalar closed forms) "
               "dominates",
        "tail_pct": 99.0,
        "warmup": 40,
        "batch": 20,
        "cycle_s": 1.0,
    },
    "surface": {
        "why": "~8,000-cell payload sweeps and ~10,000-sample pose sweeps: "
               "per-cell compute in payload/pose and CSV formatting dominate",
        "tail_pct": 90.0,
        "warmup": 3,
        "batch": 1,
        "cycle_s": 1.8,
    },
    "sizing": {
        "why": "optimize requests: the 241x241x64 coarse grid and grip_demand "
               "refinement take nearly all time and memory",
        "tail_pct": 75.0,
        "warmup": 1,
        "batch": 1,
        "cycle_s": 2.3,
    },
}

CONFIGS = ("backward_base", "forward_base")


def _finish(rng: random.Random, p: dict) -> dict:
    """Convert the degree angles and add the clearances and open width.

    Angles are drawn in degrees with four decimals and kept as deg * DEG,
    which is exactly what the parser computes from 'NNdeg'. p and h get
    2-20% and 2-15% above their interference limits.
    """
    for key, deg in p["deg"].items():
        p[key] = deg * DEG
    te = p["theta_end"]
    qc = p["d_axis"] + 2.0 * p["r_edge"]
    p["p"] = round(p["k"] * math.sin(te) * rng.uniform(1.02, 1.2), 6)
    p["h"] = round((p["r"] * math.cos(te) + math.tan(te) * qc)
                   * rng.uniform(1.02, 1.15), 6)
    p["w_init"] = p["m"] + 2.0 * p["r"] * math.sin(p["theta_init"])
    return p


def _design(rng: random.Random, feasible: bool = True) -> dict:
    """Parameters of one design variant, in SI units and radians.

    A feasible design clears every interference constraint by a margin;
    an infeasible one sits 1-3 degrees below the theta_end limit and
    clears all the others.
    """
    p = {}
    p["d_axis"] = round(rng.uniform(0.003, 0.005), 5)
    p["r_edge"] = round(rng.uniform(0.0008, 0.0012), 6)
    qc = p["d_axis"] + 2.0 * p["r_edge"]
    p["q"] = round(qc, 6)
    p["r"] = round(rng.uniform(0.025, 0.04), 5)
    p["m"] = round(rng.uniform(qc + 0.002, 0.02), 5)
    te_limit = math.asin(qc / p["r"]) / DEG
    if feasible:
        te_deg = round(te_limit + rng.uniform(1.0, 4.0), 4)
    else:
        te_deg = round(te_limit - rng.uniform(1.0, 3.0), 4)
    ti_deg = round(rng.uniform(max(45.0, te_deg + 10.0), 75.0), 4)
    p["k"] = round(rng.uniform(0.04, 0.06), 5)
    p["v"] = round(rng.uniform(0.8, 1.2), 3)
    p["kappa"] = round(rng.uniform(0.3, 0.7), 3)
    p["mu"] = round(rng.uniform(0.4, 0.7), 3)
    p["e"] = round(rng.uniform(0.006, 0.014), 5)
    p["f_n"] = round(rng.uniform(30.0, 60.0), 3)
    p["g_tool"] = round(rng.uniform(6.0, 14.0), 3)
    p["d"] = round(rng.uniform(0.0, 0.02), 5)
    p["d_com"] = round(rng.uniform(0.02, 0.05), 5)
    p["config"] = rng.choice(CONFIGS)
    p["deg"] = {"theta_init": ti_deg, "theta_end": te_deg,
                "beta": round(rng.uniform(10.0, 30.0), 4),
                "alpha": round(rng.uniform(30.0, 85.0), 4),
                "gamma": round(rng.uniform(0.0, 30.0), 4),
                "theta": round(rng.uniform(te_deg + 0.5, ti_deg - 0.5), 4)}
    return _finish(rng, p)


def _sizing_design(rng: random.Random) -> dict:
    """A design near the reference instance, for the optimize requests."""
    p = {"d_axis": 0.004, "r_edge": 0.001, "q": 0.006, "k": 0.05, "v": 1.0,
         "m": round(rng.uniform(0.011, 0.013), 5),
         "r": round(rng.uniform(0.029, 0.031), 5),
         "kappa": round(rng.uniform(0.45, 0.55), 4),
         "mu": 0.5, "e": 0.01, "f_n": 40.0,
         "g_tool": round(rng.uniform(9.0, 11.0), 3),
         "d": 0.0, "d_com": 0.03, "config": "backward_base"}
    te_limit = math.asin(0.006 / p["r"]) / DEG
    p["deg"] = {"theta_init": round(rng.uniform(58.0, 62.0), 4),
                "theta_end": round(te_limit + rng.uniform(0.5, 1.5), 4),
                "beta": round(rng.uniform(18.0, 22.0), 4),
                "alpha": round(rng.uniform(60.0, 75.0), 4),
                "gamma": 0.0,
                "theta": round(rng.uniform(20.0, 40.0), 4)}
    return _finish(rng, p)


def design_text(p: dict) -> str:
    def num(key):
        return f"{p['deg'][key]!r}deg" if key in p["deg"] else repr(p[key])

    sections = (
        ("tool", ("m", "r", "theta_init", "theta_end", "h", "p", "q", "k",
                  "d_axis", "r_edge", "v", "w_init")),
        ("spring", ("kappa", "beta")),
        ("contact", ("mu", "e")),
        ("grasp", ("f_n", "g_tool", "alpha", "gamma", "d", "d_com", "theta")),
    )
    lines = ["# generated benchmark design"]
    for name, keys in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {num(key)}" for key in keys)
        if name == "grasp":
            lines.append(f"config = {p['config']}")
        lines.append("")
    return "\n".join(lines)


def _write_designs(directory: Path, prefix: str, designs: list) -> list:
    paths = []
    for i, params in enumerate(designs):
        path = directory / f"{prefix}{i:02d}.ini"
        path.write_text(design_text(params), encoding="utf-8")
        paths.append(str(path))
    return paths


def _payload(rng, path, params, alpha, d, sample):
    """A payload sweep over the given ranges; the check samples `sample`
    of its feasible cells."""
    d_obj = round(rng.uniform(0.0, 0.1), 4)
    return {
        "argv": ["payload-sweep", path, "--alpha", alpha, "--d", d,
                 "--d-obj", repr(d_obj)],
        "expect": 0, "kind": "payload-sweep",
        "check": {"design": params, "d_obj": d_obj, "sample": sample,
                  "sample_seed": rng.getrandbits(32)},
    }


def _small_payload(rng, path, params):
    """A payload sweep of 2-7 alphas by 2-7 offsets (at most 49 cells)."""
    step_a = rng.choice((5, 10))
    n_a = rng.randint(2, 7)
    start_a = rng.randint(5, 90 - (n_a - 1) * step_a)
    step_d = rng.choice((0.005, 0.01))
    stop_d = round((rng.randint(2, 7) - 1) * step_d, 3)
    return _payload(rng, path, params,
                    f"{start_a}:{start_a + (n_a - 1) * step_a}:{step_a}deg",
                    f"0:{stop_d!r}:{step_d!r}", sample=3)


def _pose(path, params, n):
    return {"argv": ["pose-sweep", path, "--samples", str(n)], "expect": 0,
            "kind": "pose-sweep", "check": {"design": params, "samples": n}}


def interactive(rng: random.Random, directory: Path) -> list:
    """1,000 requests over 32 feasible and 4 infeasible design variants.

    The mix is fixed per cycle (so the seed moves parameters, not the
    share of each request type): 301 validate, 300 analyze, 200 small
    payload sweeps, 169 pose sweeps, one for each n in 13..181 on a
    seeded design (so n is uniform over the range and every cycle has
    the same n), and 30 requests a correct program refuses: 15 validate
    of an infeasible theta_end (exit 1) and 15 reversed alpha ranges
    (exit 2).
    """
    good = [_design(rng) for _ in range(32)]
    bad = [_design(rng, feasible=False) for _ in range(4)]
    good_paths = _write_designs(directory, "interactive_", good)
    bad_paths = _write_designs(directory, "interactive_bad_", bad)

    def pick():
        i = rng.randrange(len(good))
        return good_paths[i], good[i]

    requests = []
    for _ in range(301):
        path, _ = pick()
        requests.append({"argv": ["validate", path], "expect": 0,
                         "kind": "validate", "check": {}})
    for _ in range(300):
        path, _ = pick()
        d_obj = round(rng.uniform(0.0, 0.1), 4)
        requests.append({"argv": ["analyze", path, "--d-obj", repr(d_obj)],
                         "expect": 0, "kind": "analyze", "check": {}})
    for _ in range(200):
        path, params = pick()
        requests.append(_small_payload(rng, path, params))
    for n in range(13, 182):
        path, params = pick()
        requests.append(_pose(path, params, n))
    for _ in range(15):
        i = rng.randrange(len(bad))
        requests.append({"argv": ["validate", bad_paths[i]], "expect": 1,
                         "kind": "validate", "check": {}})
    for _ in range(15):
        path, _ = pick()
        hi = rng.randint(30, 85)
        lo = rng.randint(5, hi - 10)
        requests.append({"argv": ["payload-sweep", path, "--alpha",
                                  f"{hi}:{lo}:5deg", "--d", "0:0.02:0.01"],
                         "expect": 2, "kind": "payload-sweep", "check": {}})
    rng.shuffle(requests)
    return requests


def surface(rng: random.Random, directory: Path) -> list:
    """36 requests over 24 design variants: each design gets one payload
    sweep of the 5:85:1deg x 0:~0.1:0.001 grid and half of them a pose
    sweep of ~10,000 samples, so two of every three requests are payload
    sweeps. A design of its own per payload sweep keeps the spread of
    sweep costs alike from seed to seed."""
    designs = [_design(rng) for _ in range(24)]
    paths = _write_designs(directory, "surface_", designs)
    # one d stop in each 1/24 of 0.09-0.11, so every seed gets the same
    # spread of grid sizes
    stops = [round(0.09 + 0.02 * (k + rng.random()) / 24, 3) for k in range(24)]
    rng.shuffle(stops)
    requests = [_payload(rng, path, params, "5:85:1deg", f"0:{stop!r}:0.001", sample=20)
                for path, params, stop in zip(paths, designs, stops)]
    # likewise one sample count in each 1/12 of 9,000-11,000: n stays
    # uniform over the range, and the spread of sweep lengths is alike
    samples = [9000 + int(2001 * (k + rng.random()) / 12) for k in range(12)]
    rng.shuffle(samples)
    requests += [_pose(path, params, n)
                 for path, params, n in zip(paths[:12], designs[:12], samples)]
    rng.shuffle(requests)
    return requests


def sizing(rng: random.Random, directory: Path) -> list:
    """12 optimize requests, each on its own design near the reference.

    Ten have bounds around the reference problem and a budget of 32-42 N,
    and must solve (exit 0). Two must be refused (exit 1) with a known
    binding constraint: a 1-2 N grip budget, below the spring preload
    alone, and an r upper bound of 12 mm, shorter than any r the width tie
    allows.
    """
    designs = [_sizing_design(rng) for _ in range(12)]
    paths = _write_designs(directory, "sizing_", designs)
    requests = []
    for i, (path, params) in enumerate(zip(paths, designs)):
        m = (round(rng.uniform(0.007, 0.009), 5), round(rng.uniform(0.025, 0.035), 5))
        r = (round(rng.uniform(0.004, 0.006), 5), round(rng.uniform(0.07, 0.09), 5))
        t = (round(rng.uniform(38.0, 42.0), 3), round(rng.uniform(80.0, 85.0), 3))
        budget = round(rng.uniform(32.0, 42.0), 3)
        expect, binding = 0, None
        if i == 10:
            budget, expect, binding = round(rng.uniform(1.0, 2.0), 3), 1, "grip_budget"
        elif i == 11:
            r, expect, binding = (r[0], 0.012), 1, "r_upper_bound"
        requests.append({
            "argv": ["optimize", path, "--m", f"{m[0]!r}:{m[1]!r}",
                     "--r", f"{r[0]!r}:{r[1]!r}",
                     "--theta-init", f"{t[0]!r}:{t[1]!r}deg",
                     "--grip-budget", repr(budget)],
            "expect": expect, "kind": "optimize",
            "check": {"design": params, "budget": budget, "binding": binding},
        })
    rng.shuffle(requests)
    return requests


GENERATORS = {"interactive": interactive, "surface": surface, "sizing": sizing}


def generate(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's design files into directory; return its requests."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, directory)


def hits_pose_defect(request: dict) -> bool:
    """Whether a pose-sweep's sample count trips the pi/2 rounding defect.

    gamma_sweep builds its last sample as pi/2*(n-1)/(n-1), which for
    about 5% of n rounds one ulp above pi/2; torque_margin then rejects
    it and the request exits 1. Used only to explain failures: the
    generator draws n without looking at it.
    """
    if request["kind"] != "pose-sweep":
        return False
    n = request["check"]["samples"]
    return math.pi / 2 * (n - 1) / (n - 1) > math.pi / 2
