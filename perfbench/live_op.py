"""One ``live`` operation: drawn monitor sessions run under live strategies.

Run as a script, it is the process the ``live`` workload times::

    python3 perfbench/live_op.py plan.json

``plan.json`` (written by ``perfbench/harness.py``) lists items of the
form ``{"program", "scale", "watches", "strategy"}``.  For each program
the script compiles the source once; for each item it opens a
:class:`repro.debugger.Debugger` with the item's strategy, installs the
session's watches, runs the program to completion and records the live
``WmsStats``.  It prints the counts of every item, in plan order, as one
JSON list.  The harness compares them with the sessions' phase-2
counting variables.

The traced run imports :func:`run_plan` and passes its span recorder,
so both paths make the same calls.
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import nullcontext
from pathlib import Path


def _no_span(name, **attrs):
    return nullcontext()


def apply_watches(debugger, watches) -> None:
    """Install a session's watches, as built by ``harness.watch_specs``."""
    for watch in watches:
        kind = watch[0]
        if kind == "global":
            debugger.watch_global(watch[1])
        elif kind == "local":
            debugger.watch_local(watch[1], watch[2])
        elif kind == "heap":
            debugger.watch_heap(watch[1], alloc_ordinal=watch[2])
        else:
            raise ValueError(f"unknown watch kind {kind!r}")


def run_plan(items, span=_no_span):
    """Run every item of a plan; return the live counts, in plan order.

    ``span(name, **attrs)`` is a context manager wrapped around each
    layer call (the traced run records spans with it).
    """
    from repro.debugger import Debugger
    from repro.workloads import get_workload

    compiled = {}
    counts = []
    for item in items:
        program, scale, strategy = item["program"], item["scale"], item["strategy"]
        workload = get_workload(program)
        if (program, scale) not in compiled:
            with span("live.compile", program=program):
                compiled[program, scale] = workload.compile(scale)
        with span("debugger.setup", program=program, strategy=strategy):
            debugger = Debugger(compiled[program, scale], strategy=strategy)
            workload.setup(debugger.memory, debugger.image, scale)
            apply_watches(debugger, item["watches"])
        with span(f"core.{strategy}.run", program=program):
            outcome = debugger.run()
        if not outcome.finished:
            raise RuntimeError(f"{program} under {strategy} did not finish")
        # The tracer closes every open monitor window when the program
        # ends; the live session is closed the same way so that installs
        # and removes are compared over the same lifetime.
        debugger.wms.remove_all()
        stats = debugger.wms.stats
        counts.append({
            "installs": stats.installs,
            "removes": stats.removes,
            "hits": stats.hits,
            "checks": stats.checks,
            "instructions": debugger.cpu.instructions,
        })
        # A debugger holds reference cycles and a 32 MB memory image;
        # collecting it here keeps one image alive at a time, so the peak
        # resident set does not depend on when the collector happens to run.
        del debugger, outcome
        with span("live.collect", program=program):
            gc.collect()
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    items = json.loads(Path(argv[0]).read_text())
    print(json.dumps(run_plan(items), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
