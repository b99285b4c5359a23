"""One cold start: time `import grippertool.cli` plus parsing one design file.

    python perfbench/coldstart.py DESIGN_FILE FLOOR_S

Prints the elapsed seconds and the probe times (steady.py) taken just
before, on the least disturbed CPU, and just after. Before timing, it
waits up to WAIT_S for a probe within steady.CALM of FLOOR_S, the
worker's undisturbed probe time so far. Run in a fresh interpreter each
time.
"""

import sys
import time
from pathlib import Path

import steady

WAIT_S = 0.5


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    floor = float(sys.argv[2])
    core = steady.Core(floor)
    deadline = time.perf_counter() + WAIT_S
    before = core.settle()
    while before > floor * steady.CALM and time.perf_counter() < deadline:
        time.sleep(0.02)
        before = core.settle()
    start = time.perf_counter()
    import grippertool.cli  # noqa: F401
    from grippertool.designfile import parse_design
    with open(sys.argv[1], encoding="utf-8") as fh:
        parse_design(fh.read())
    elapsed = time.perf_counter() - start
    print(elapsed, before, steady.probe())


if __name__ == "__main__":
    main()
