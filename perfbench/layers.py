"""The traced run: per-layer metrics from spans around each layer's calls.

``perfbench/run.py --trace 1`` runs the workload's untraced operations
first (their median wall time is ``untraced_wall_s``), then this module:

1. **The traced operation.**  The workload's operation is performed once
   more, in this process, by calling each layer's public functions with
   a span around every call:

   * ``cold``  -- ``run_workload``, ``save_trace``, ``discover_sessions``,
     ``simulate_sessions`` and ``ResultStore.publish_payload`` per
     program on a fresh cache, then ``render_table4_report``;
   * ``resim`` -- ``load_trace``, ``discover_sessions``,
     ``simulate_sessions`` and the store publish per program, then
     ``render_table4_report`` (the serial path the untraced ``table4``
     takes);
   * ``warm``  -- ``ResultStore.load_payload`` per program, then every
     ``render_*_report`` of ``repro-experiments all``;
   * ``live``  -- the sessions of the run's first operation:
     ``Debugger(...)`` and ``Debugger.run`` per session and strategy.

   Each operation also times a fresh-interpreter import of
   ``repro.experiments.cli`` (except ``live``, whose process does not
   import it).  ``traced_wall_s`` is the operation's wall time and
   ``unattributed_s`` is that time minus its layer spans, so the layer
   times of the operation plus ``unattributed_s`` add up to
   ``traced_wall_s``.  ``tracing_overhead_s`` is ``traced_wall_s`` minus
   ``untraced_wall_s``.

2. **Probes.**  Every per-layer metric the operation did not produce is
   measured by the same calls on the same inputs (the five programs at
   the run's scale, from the pre-filled caches; for the debugger, the
   sessions of the seed's first ``live`` operation), outside the traced
   wall time.  Calls that exist only to split a layer are always probes:
   the untraced ``Cpu.run`` (``machine.*``), the bare compile and the
   patch passes (``minic.*``), ``compute_table4`` and the
   ``load_experiment_data`` jobs-1 versus jobs-2 comparison.  The
   shared-memory ``publish_trace`` and handle ``attach``, which only the
   parallel scheduler uses, are probes on every workload.

Spans (name, start, end, parent, run id) stay in memory and are written
to ``.perfbench/spans/<workload>-seed<seed>.json`` when the run ends.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import harness
from harness import PROGRAMS, STATE, STRATEGIES, Op

#: Report targets of ``repro-experiments all``, in its order.
TARGETS = ("table1", "table2", "table3", "table4", "figures", "breakdown",
           "expansion", "hotspots", "whatif")
SECTION_SEPARATOR = "\n\n" + "=" * 72 + "\n\n"


def _per_layer_units() -> Dict[str, str]:
    units = {
        "minic.compile_s": "s", "minic.instrument_s": "s",
        "minic.static_instructions": "count",
        "machine.run_s": "s", "machine.instructions": "count",
        "machine.cycles": "count", "machine.instr_per_s": "1/s",
        "trace.run_s": "s", "trace.events": "count",
        "trace.events_per_s": "1/s", "trace.overhead_ratio": "ratio",
        "trace.save_s": "s", "trace.bytes": "B", "trace.load_s": "s",
        "trace.publish_s": "s", "trace.attach_s": "s",
        "sessions.discover_s": "s", "sessions.count": "count",
        "simulate.run_s": "s", "simulate.events_per_s": "1/s",
        "store.publish_s": "s", "store.load_s": "s", "store.bytes": "B",
        "experiments.serial_s": "s", "experiments.parallel_s": "s",
        "experiments.parallel_speedup": "ratio",
        "experiments.import_s": "s", "models.table4_s": "s",
    }
    units.update({f"experiments.{target}_s": "s" for target in TARGETS})
    units["debugger.setup_s"] = "s"
    for strategy in STRATEGIES:
        units[f"core.{strategy}.run_s"] = "s"
        units[f"core.{strategy}.instr_per_s"] = "1/s"
        units[f"core.{strategy}.hits"] = "count"
        units[f"core.{strategy}.checks"] = "count"
    units.update({"traced_wall_s": "s", "untraced_wall_s": "s",
                  "tracing_overhead_s": "s", "unattributed_s": "s"})
    return units


#: Every per-layer metric, with its unit, in report order.
PER_LAYER_UNITS = _per_layer_units()


class Spans:
    """In-memory span recorder."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records), "name": name, "run_id": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def seconds(record: dict) -> float:
        return record["end"] - record["start"]

    def children(self, record: dict) -> List[dict]:
        return [r for r in self.records if r["parent"] == record["id"]]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records, indent=1) + "\n")


class TracedRun:
    """Layer calls with spans, accumulating per-layer sums."""

    def __init__(self, run: "harness.Run") -> None:
        self.run = run
        self.spans = Spans(uuid.uuid4().hex[:12])
        self.sums: Dict[str, float] = defaultdict(float)
        self.on_path: set = set()
        self.problems: List[str] = []
        self.data: Dict[str, object] = {}
        self.sections: Dict[str, str] = {}
        self.work = run.dir / "traced"
        self.prefilled = run.prefill_dir / run.scale / "cache"

    @contextmanager
    def span(self, name: str, **attrs):
        """A span whose duration adds to the ``<name>_s`` sum."""
        with self.spans.span(name, **attrs) as record:
            yield record
        self.sums[f"{name}_s"] += Spans.seconds(record)

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def need(self, name: str) -> bool:
        return name not in self.on_path

    def config(self, cache: Path, **kwargs):
        return harness.config_for(self.run.scale, cache, **kwargs)

    # -- layer calls ------------------------------------------------------

    def fresh_import(self, span: str, modules: str) -> None:
        """Time importing ``modules`` in a fresh interpreter."""
        with self.span(span):
            subprocess.run(
                [sys.executable, "-c", f"import {modules}"],
                env=harness.child_env(self.run.native), cwd=self.work, check=True,
            )

    def import_cli(self) -> None:
        self.fresh_import("experiments.import", "repro.experiments.cli")

    def phase2(self, name: str, scale: int, trace, registry, sim_path: Path):
        """Sessions, simulation and store publish for one program."""
        from repro.experiments.pipeline import ProgramData
        from repro.experiments.store import ResultStore
        from repro.sessions import discover_sessions
        from repro.simulate import simulate_sessions

        with self.span("sessions.discover", program=name):
            sessions = discover_sessions(registry)
        self.add("sessions.count", len(sessions))
        with self.span("simulate.run", program=name):
            result = simulate_sessions(
                trace, registry, sessions, self.config(sim_path.parent).page_sizes,
            )
        self.add("simulate.events", len(trace))
        payload = {"meta": trace.meta, "registry": registry, "result": result}
        with self.span("store.publish", program=name):
            ResultStore(sim_path.parent).publish_payload(sim_path, payload, program=name)
        return ProgramData(name=name, scale=scale, **payload)

    def store_load(self, name: str, scale: int, sim_path: Path):
        from repro.experiments.pipeline import ProgramData
        from repro.experiments.store import ResultStore

        with self.span("store.load", program=name):
            payload = ResultStore(sim_path.parent).load_payload(sim_path, program=name)
        self.add("store.bytes", sim_path.stat().st_size)
        return ProgramData(name=name, scale=scale, **payload)

    def render(self, targets) -> str:
        from repro.experiments import cli

        renderers = {
            "table1": cli.render_table1_report, "table2": cli.render_table2_report,
            "table3": cli.render_table3_report, "table4": cli.render_table4_report,
            "figures": cli.render_figures_report,
            "breakdown": cli.render_breakdown_report,
            "expansion": cli.render_code_expansion_report,
            "hotspots": cli.render_hotspots_report,
            "whatif": cli.render_whatif_report,
        }
        for target in targets:
            render = renderers[target]
            with self.span(f"experiments.{target}"):
                text = render() if target == "table2" else render(self.data)
            self.sections[target] = text
        return SECTION_SEPARATOR.join(self.sections[t] for t in targets) + "\n"

    def live_session(self) -> None:
        """The sessions of the run's first ``live`` operation."""
        from live_op import run_plan

        items = self.run.draw(0)
        counts = run_plan([item.plan() for item in items], span=self.span)
        self.problems += harness.live_problems(items, counts)
        instructions: Dict[str, int] = defaultdict(int)
        for item, live in zip(items, counts):
            instructions[item.strategy] += live["instructions"]
            self.add(f"core.{item.strategy}.hits", live["hits"])
            self.add(f"core.{item.strategy}.checks", live["checks"])
        for strategy in STRATEGIES:
            self.add(f"core.{strategy}.instr_per_s",
                     instructions[strategy] / self.sums[f"core.{strategy}.run_s"])

    # -- traced operations ------------------------------------------------

    def op_cold(self) -> None:
        from repro.experiments.pipeline import sim_cache_path, trace_cache_path
        from repro.trace import save_trace
        from repro.workloads import WORKLOADS, run_workload

        config = self.config(self.work / "cold-cache")
        self.import_cli()
        for name in PROGRAMS:
            workload = WORKLOADS[name]
            scale = config.scale_of(workload)
            with self.span("trace.run_workload", program=name):
                run = run_workload(workload, scale)
            self.add("trace.events", len(run.trace))
            path = trace_cache_path(workload, scale, config)
            with self.span("trace.save", program=name):
                save_trace(run.trace, run.registry, path)
            self.add("trace.bytes", path.stat().st_size)
            self.data[name] = self.phase2(
                name, scale, run.trace, run.registry,
                sim_cache_path(workload, scale, config),
            )
            del run
        self.check_output(self.render(["table4"]), "table4.txt")

    def op_resim(self) -> None:
        from repro.experiments.pipeline import sim_cache_path, trace_cache_path
        from repro.trace import load_trace
        from repro.workloads import WORKLOADS

        config = self.config(self.run.cache)
        for stale in self.run.cache.glob("*.pkl"):
            stale.unlink()
        self.import_cli()
        for name in PROGRAMS:
            workload = WORKLOADS[name]
            scale = config.scale_of(workload)
            with self.span("trace.load", program=name):
                trace, registry = load_trace(trace_cache_path(workload, scale, config))
            self.data[name] = self.phase2(
                name, scale, trace, registry, sim_cache_path(workload, scale, config),
            )
            del trace
        self.check_output(self.render(["table4"]), "table4.txt")

    def op_warm(self) -> None:
        from repro.experiments.pipeline import sim_cache_path
        from repro.workloads import WORKLOADS

        config = self.config(self.run.cache)
        self.import_cli()
        for name in PROGRAMS:
            workload = WORKLOADS[name]
            scale = config.scale_of(workload)
            self.data[name] = self.store_load(
                name, scale, sim_cache_path(workload, scale, config)
            )
        self.check_output(self.render(TARGETS), "all.txt")

    def op_live(self) -> None:
        self.fresh_import("live.import", "repro.debugger, repro.workloads")
        self.live_session()

    def check_output(self, text: str, reference: str) -> None:
        self.problems += harness.output_problems(
            text, harness.reference_text(self.run.scale, reference)
        )

    # -- probes -----------------------------------------------------------

    def probe(self) -> None:
        """Measure every per-layer metric the traced operation did not."""
        from repro.experiments.table4 import compute_table4

        self.probe_programs()
        if self.need("experiments.import"):
            self.import_cli()
        self.probe_jobs()
        with self.span("models.table4"):
            compute_table4(self.data)
        missing = [t for t in TARGETS if self.need(f"experiments.{t}")]
        self.render(missing)
        self.check_output(
            SECTION_SEPARATOR.join(self.sections[t] for t in TARGETS) + "\n",
            "all.txt",
        )
        if self.need("debugger.setup"):
            self.live_session()

    def probe_programs(self) -> None:
        from repro.experiments.pipeline import sim_cache_path, trace_cache_path
        from repro.machine.cpu import Cpu
        from repro.machine.loader import load_program
        from repro.machine.memory import Memory
        from repro.minic.compiler import compile_source
        from repro.minic.instrument import apply_code_patch, apply_trap_patch
        from repro.minic.runtime import Runtime
        from repro.trace import load_trace, save_trace
        from repro.trace.shared import publish_trace
        from repro.workloads import WORKLOADS, run_workload

        prefilled = self.config(self.prefilled)
        scratch = self.work / "probe"
        scratch.mkdir(parents=True, exist_ok=True)
        for name in PROGRAMS:
            workload = WORKLOADS[name]
            scale = prefilled.scale_of(workload)
            with self.span("minic.compile", program=name):
                program = compile_source(workload.source(scale), workload.name)
            self.add("minic.static_instructions", program.total_instructions())
            with self.span("minic.instrument", program=name):
                apply_trap_patch(program)
                apply_code_patch(program)

            layout = program.layout
            image = load_program(program, layout)
            memory = Memory(layout)
            cpu = Cpu(memory, layout=layout)
            runtime = Runtime(cpu, layout)
            runtime.install()
            cpu.attach(image)
            workload.setup(memory, image, scale)
            with self.span("machine.run", program=name):
                state = cpu.run("main", ())
            workload.check(state, runtime, scale)
            self.add("machine.instructions", state.instructions)
            self.add("machine.cycles", state.cycles)
            del cpu, memory, runtime, image

            trace = registry = None
            if self.need("trace.run_workload"):
                with self.span("trace.run_workload", program=name):
                    run = run_workload(workload, scale)
                trace, registry = run.trace, run.registry
                self.add("trace.events", len(trace))
                del run
            trace_path = trace_cache_path(workload, scale, prefilled)
            if self.need("trace.load"):
                with self.span("trace.load", program=name):
                    trace, registry = load_trace(trace_path)
            if self.need("trace.save"):
                path = scratch / trace_path.name
                with self.span("trace.save", program=name):
                    save_trace(trace, registry, path)
                self.add("trace.bytes", path.stat().st_size)
                path.unlink()
            if self.need("trace.publish"):
                with self.span("trace.publish", program=name):
                    owner = publish_trace(trace, registry)
                try:
                    with self.span("trace.attach", program=name):
                        attached = owner.handle.attach()
                    attached.close()
                finally:
                    owner.close()
            sim_path = sim_cache_path(workload, scale, prefilled)
            if self.need("sessions.discover"):
                self.phase2(name, scale, trace, registry, scratch / sim_path.name)
            del trace
            if self.need("store.load"):
                self.data[name] = self.store_load(name, scale, sim_path)

    def probe_jobs(self) -> None:
        """The jobs-1 versus jobs-2 split, on the warm trace cache."""
        from repro.experiments.pipeline import load_experiment_data

        cache = self.work / "jobs-cache"
        harness.copy_cache(self.prefilled, cache, with_sim=False)
        for label, jobs in (("serial", 1), ("parallel", 2)):
            for stale in cache.glob("*.pkl"):
                stale.unlink()
            with self.span(f"experiments.{label}"):
                load_experiment_data(self.config(cache, jobs=jobs))

    # -- result -----------------------------------------------------------

    def metrics(self, untraced_wall_s: float, op_record: dict) -> Dict[str, float]:
        sums = self.sums
        traced = Spans.seconds(op_record)
        attributed = sum(Spans.seconds(r) for r in self.spans.children(op_record))
        values = dict(sums)
        values["trace.run_s"] = sums["trace.run_workload_s"] - sums["minic.compile_s"]
        values["machine.instr_per_s"] = sums["machine.instructions"] / sums["machine.run_s"]
        values["trace.events_per_s"] = sums["trace.events"] / values["trace.run_s"]
        values["trace.overhead_ratio"] = values["trace.run_s"] / sums["machine.run_s"]
        values["simulate.events_per_s"] = sums["simulate.events"] / sums["simulate.run_s"]
        values["experiments.parallel_speedup"] = (
            sums["experiments.serial_s"] / sums["experiments.parallel_s"]
        )
        values["traced_wall_s"] = traced
        values["untraced_wall_s"] = untraced_wall_s
        values["tracing_overhead_s"] = traced - untraced_wall_s
        values["unattributed_s"] = traced - attributed
        return {name: values[name] for name in PER_LAYER_UNITS}


def traced_run(run: "harness.Run", ops: List[Op]):
    """Run the traced operation and the probes.

    Returns the traced operation (as an :class:`Op` carrying its output
    problems) and the per-layer metrics.

    ``ops`` are the run's untraced operations.  The traced operation is
    compared with their median wall time; for ``live``, whose operations
    differ by session, with the untraced first operation, whose sessions
    it runs.
    """
    traced = TracedRun(run)
    if not run.live_payloads:
        run.live_payloads = harness.load_sim_payloads(
            run.prefill_dir / "smoke" / "cache", "smoke"
        )
    untraced_wall_s = statistics.median(op.wall_s for op in ops)
    if run.workload == "live":
        untraced_wall_s = ops[0].wall_s
    shutil.rmtree(traced.work, ignore_errors=True)
    traced.work.mkdir(parents=True)
    with traced.spans.span("op", workload=run.workload) as op_record:
        getattr(traced, f"op_{run.workload}")()
    traced.on_path = {r["name"] for r in traced.spans.records if r["name"] != "op"}
    with traced.spans.span("probe"):
        traced.probe()
    metrics = traced.metrics(untraced_wall_s, op_record)

    expected = harness.reference_counts(run.scale)
    for key, metric in (("instructions", "machine.instructions"),
                        ("cycles", "machine.cycles"), ("events", "trace.events")):
        want = sum(counts[key] for counts in expected.values())
        if metrics[metric] != want:
            traced.problems.append(f"{metric} {metrics[metric]:.0f} != reference {want}")

    print(f"perfbench: traced operation {metrics['traced_wall_s']:.3f}s "
          f"(untraced median {untraced_wall_s:.3f}s):")
    by_name: Dict[str, float] = defaultdict(float)
    for record in traced.spans.children(op_record):
        by_name[record["name"]] += Spans.seconds(record)
    for name, seconds in by_name.items():
        print(f"perfbench:   {name:32s} {seconds:10.4f} s")
    print(f"perfbench:   {'unattributed':32s} {metrics['unattributed_s']:10.4f} s")
    traced.spans.write(STATE / "spans" / f"{run.workload}-seed{run.seed}.json")
    op = Op(wall_s=metrics["traced_wall_s"], cpu_s=0.0, rss_mb=0.0,
            problems=traced.problems)
    return op, metrics
