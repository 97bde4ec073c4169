"""Run one hermlift CLI command for the benchmark and report on it.

Usage: clichild.py REPORT_FILE CLI-ARGS...

Without PERFBENCH_SPAWN_NS in the environment this runs ``hermlift.cli``
exactly as ``python -m hermlift.cli CLI-ARGS...`` does, through ``runpy``,
and then writes the process's peak resident memory (VmHWM) to REPORT_FILE.
The parent cannot use ``ru_maxrss`` for that: a child started by vfork
shares the parent's memory until exec, and Linux carries that high-water
mark across the exec.

With PERFBENCH_SPAWN_NS set to the parent's monotonic clock reading just
before the start, it installs the benchmark's layer wrappers, records a
``cli.startup`` span from that reading until ``main`` is entered, calls
``hermlift.cli.main`` and writes the spans and counters to REPORT_FILE.
"""

import json
import os
import runpy
import sys


def peak_kb() -> int:
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def run_plain(report: str, argv: list[str]) -> None:
    sys.argv = [sys.argv[0], *argv]
    try:
        runpy.run_module("hermlift.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(report, "w") as fh:
            json.dump({"peak_kb": peak_kb()}, fh)


def run_traced(report: str, argv: list[str], spawn_ns: int) -> int:
    import time

    import hermlift.cli

    import layers
    import tracer

    tr = tracer.Tracer()
    layers.install(tr)
    tr.add_span("cli.startup", "cli", spawn_ns, time.perf_counter_ns())
    tr.enabled = True
    try:
        return hermlift.cli.main(argv)
    finally:
        tr.enabled = False
        tr.restore()
        tr.dump(report)


if __name__ == "__main__":
    spawn = os.environ.get("PERFBENCH_SPAWN_NS")
    if spawn is None:
        run_plain(sys.argv[1], sys.argv[2:])
    else:
        sys.exit(run_traced(sys.argv[1], sys.argv[2:], int(spawn)))
