"""Phase-1 tracer: runs an instrumented program and records its trace.

Plays the role of the paper's post-processed assembly: while the program
runs, every store emits a WriteEvent, every function entry/exit emits
Install/RemoveMonitorEvents for that function's automatic variables (all
instantiations of a variable share one ObjectDesc), and the allocator's
listener interface emits events at heap-object boundaries.  Globals and
function statics are installed once at startup.

:func:`trace_program` is the convenience driver: build the machine, run
the program under a tracer, return the trace, the object registry, and
the final CPU state.

When observation is on (:mod:`repro.observe`), :meth:`Tracer.finish`
reports the ``trace.events`` / ``trace.writes`` / ``trace.installs`` /
``trace.removes`` / ``trace.objects_registered`` counters — once per
run, never per event, so the per-store hooks stay uninstrumented.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import observe

from repro.machine.cpu import Cpu, CpuState
from repro.machine.layout import MemoryLayout
from repro.machine.loader import LoadedProgram, load_program
from repro.minic.compiler import CompiledProgram
from repro.trace.events import EventTrace
from repro.trace.objects import ObjectRegistry


class Tracer:
    """Observes one run and builds the event trace."""

    def __init__(self, cpu: Cpu, image: LoadedProgram, program_name: str = "",
                 trace=None) -> None:
        self.cpu = cpu
        self.image = image
        #: Where events go: a fresh :class:`EventTrace` unless the caller
        #: passes another sink with the same ``append_*``/``meta`` surface
        #: (the native tier's :class:`repro.trace.phase1.NativeTraceSink`).
        self.trace = trace if trace is not None else EventTrace(program_name or image.name)
        self.registry = ObjectRegistry()
        #: function index -> [(frame offset, size, object id), ...]; the
        #: native tier emits these on CALL/RET itself.
        self.frame_plans: Dict[int, List[Tuple[int, int, int]]] = {}
        #: live heap blocks: address -> (object id, size)
        self._live_heap: Dict[int, Tuple[int, int]] = {}
        #: (address, size) ranges of globals/statics installed at start.
        self._static_ranges: List[Tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Install global and static objects; hook the CPU and allocator."""
        for var in self.image.global_vars:
            if var.owner_function is None:
                obj = self.registry.global_(var.name, var.size_bytes)
            else:
                obj = self.registry.static(var.owner_function, var.name, var.size_bytes)
            self.trace.append_install(obj.id, var.address, var.address + var.size_bytes)
            self._static_ranges.append((obj.id, var.address, var.size_bytes))
        for func in self.image.functions:
            plan: List[Tuple[int, int, int]] = []
            for var in func.frame_vars():
                obj = self.registry.local(func.name, var.name, var.size_bytes, var.is_param)
                plan.append((var.offset, var.size_bytes, obj.id))
            self.frame_plans[func.index] = plan
        self.cpu.tracer = self

    def finish(self, state: Optional[CpuState] = None) -> EventTrace:
        """Close all open monitor windows and finalize metadata."""
        self._close_windows()
        self._finalize_meta()
        self.trace.validate()
        self._report_counters(len(self.trace))
        return self.trace

    def _close_windows(self) -> None:
        """Emit the closing removes for everything still live, unhook."""
        for address, (object_id, size) in list(self._live_heap.items()):
            self.trace.append_remove(object_id, address, address + size)
        self._live_heap.clear()
        for object_id, address, size in self._static_ranges:
            self.trace.append_remove(object_id, address, address + size)
        self.cpu.tracer = None

    def _finalize_meta(self) -> None:
        self.trace.meta.cycles = self.cpu.cycles
        self.trace.meta.instructions = self.cpu.instructions
        self.trace.meta.stores = self.cpu.stores

    def _report_counters(self, n_events: int) -> None:
        if observe.is_enabled():
            meta = self.trace.meta
            observe.inc("trace.events", n_events)
            observe.inc("trace.writes", meta.n_writes)
            observe.inc("trace.installs", meta.n_installs)
            observe.inc("trace.removes", meta.n_removes)
            observe.inc("trace.objects_registered", len(self.registry))

    # ------------------------------------------------------------------
    # CPU tracer protocol
    # ------------------------------------------------------------------

    def on_enter(self, func, frame_base: int) -> None:
        trace = self.trace
        for offset, size, object_id in self.frame_plans[func.index]:
            begin = frame_base + offset
            trace.append_install(object_id, begin, begin + size)

    def on_exit(self, func, frame_base: int) -> None:
        trace = self.trace
        for offset, size, object_id in self.frame_plans[func.index]:
            begin = frame_base + offset
            trace.append_remove(object_id, begin, begin + size)

    def on_write(self, begin: int, end: int) -> None:
        self.trace.append_write(begin, end)

    # ------------------------------------------------------------------
    # Heap listener protocol
    # ------------------------------------------------------------------

    def on_alloc(self, address: int, size_bytes: int) -> None:
        frames = self.cpu.frames
        function = frames[-1].func.name if frames else "<startup>"
        context = tuple(frame.func.name for frame in frames)
        obj = self.registry.heap(function, context, size_bytes)
        self._live_heap[address] = (obj.id, size_bytes)
        self.trace.append_install(obj.id, address, address + size_bytes)

    def on_free(self, address: int, size_bytes: int) -> None:
        entry = self._live_heap.pop(address, None)
        if entry is None:
            return  # not a traced block (e.g. allocated before begin())
        object_id, size = entry
        self.trace.append_remove(object_id, address, address + size)

    def on_realloc(
        self, old_address: int, old_size: int, new_address: int, new_size: int
    ) -> None:
        # Same ObjectDesc across the move (paper footnote 4).
        entry = self._live_heap.pop(old_address, None)
        if entry is None:
            return
        object_id, _size = entry
        self.trace.append_remove(object_id, old_address, old_address + old_size)
        self.trace.append_install(object_id, new_address, new_address + new_size)
        self._live_heap[new_address] = (object_id, new_size)


def trace_program(
    program: CompiledProgram,
    entry: str = "main",
    args=(),
    layout: Optional[MemoryLayout] = None,
    max_instructions: int = 500_000_000,
) -> Tuple[EventTrace, ObjectRegistry, CpuState]:
    """Compile-to-trace driver for phase 1.

    Loads ``program`` on a fresh machine, runs it under a tracer (on the
    native tier when eligible, see :mod:`repro.trace.phase1`), and
    returns ``(trace, object registry, final cpu state)``.
    """
    from repro.trace.phase1 import run_phase1

    layout = layout or program.layout
    run = run_phase1(
        load_program(program, layout), layout, program.name, entry=entry,
        args=args, max_instructions=max_instructions,
    )
    return run.trace, run.registry, run.state
