"""Timing on a machine whose speed comes and goes.

On a shared host each core this benchmark may run on switches, every few
seconds and independently of the others, between its full speed and
phases in which the same code runs 1.4-1.9x slower (neighbours on the
same physical core; no steal time shows), and the full speed itself
drifts by about 10% over tens of minutes. Which share of a run falls in
slow phases differs from run to run, so a plain median over a run moves
by tens of percent between runs of the same code.

A probe is a fixed pure-Python loop, timed three times, keeping the
fastest. Before each timed batch of requests, Core.settle() probes and,
if the core is slow now, moves the process to the fastest of the CPUs
it may use (its own affinity, nothing else); on a two-CPU VM that raised
the share of full-speed time from 7-69% to about 80%. Each request of
the cycle is then represented by the smallest of its latencies over the
run's cycles (best_per_position): the repetition least disturbed by the
neighbours. On runs cut from one long recording, that gave a spread of
about half that of the median latency of calm batches (both probes
within CALM of the run's floor) and a third of that of the plain median.

Cold starts keep a calm filter: one process per start gives a single
sample, so a start counts when its own probes were calm.
"""

import os
import statistics
import time

CALM = 1.25    # a probe this much slower than the floor is disturbed
FLOOR_PCT = 1.0
PROBE_REPS = 3


def _spin() -> int:
    acc, text = 0.0, ""
    for i in range(300):
        acc += (i % 7) * 0.5
        text = f"{acc:.6g}"
    return len(text)


def probe() -> float:
    """Seconds the probe loop takes now (fastest of PROBE_REPS)."""
    best = float("inf")
    clock = time.perf_counter
    for _ in range(PROBE_REPS):
        start = clock()
        _spin()
        best = min(best, clock() - start)
    return best


class Core:
    """Keeps the process on the least disturbed of its allowed CPUs."""

    def __init__(self, fastest: float = float("inf")):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.current = self.cpus[0]
        os.sched_setaffinity(0, {self.current})
        self.fastest = fastest

    def settle(self) -> float:
        """Probe here; if disturbed, try the other CPUs and stay on the
        fastest. Returns the probe time where the process stays."""
        now = probe()
        self.fastest = min(self.fastest, now)
        if now <= self.fastest * CALM:
            return now
        for cpu in self.cpus:
            if cpu == self.current:
                continue
            os.sched_setaffinity(0, {cpu})
            there = probe()
            if there < now:
                self.current, now = cpu, there
        os.sched_setaffinity(0, {self.current})
        self.fastest = min(self.fastest, now)
        return now


def floor(probes: list) -> float:
    """The undisturbed probe time: the FLOOR_PCT percentile of the probes,
    so that one freak reading does not set it."""
    ordered = sorted(probes)
    return ordered[int(len(ordered) * FLOOR_PCT / 100)]


def is_calm(before: float, after: float, fastest: float) -> bool:
    return max(before, after) <= fastest * CALM


def best_per_position(batches: list) -> list:
    """Smallest latency of each request position over the run's cycles.

    batches holds (positions, latencies, probe) tuples; returns the values
    in position order."""
    best = {}
    for positions, latencies, _ in batches:
        for position, latency in zip(positions, latencies):
            best[position] = min(latency, best.get(position, latency))
    return [best[p] for p in sorted(best)]
