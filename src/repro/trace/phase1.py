"""Phase 1 on the fastest eligible tier.

:func:`run_phase1` is the one phase-1 runner: ``trace_program`` and
``run_workload`` (batch and ``--stream``) both go through it.  It runs
the program on the native tier (:class:`repro.machine.native.NativeCpu`,
the compiled tracing interpreter) when the kernel is available and
:func:`~repro.machine.native.phase1_eligible` holds, and on the Python
:class:`~repro.machine.cpu.Cpu` otherwise.

The native tier either reproduces the Python tier exactly or gives up:
when it raises :class:`~repro.machine.native.NativeAbandoned` the whole
run starts again from scratch on the Python Cpu (the programs are
deterministic, so the result, or the exception, is the same), and the
``machine.native.fallbacks`` counter records it.  A streamed run that
abandons after delivering chunks does not deliver them twice: the
re-run checks that its first chunks carry the same checksums and drops
them.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro import observe
from repro.errors import PipelineError, TraceFormatError
from repro.machine.cpu import Cpu, CpuState
from repro.machine.loader import LoadedProgram
from repro.machine.layout import MemoryLayout
from repro.machine.memory import Memory
from repro.minic.runtime import Runtime
from repro.trace.events import EventKind, EventTrace, TraceColumns, TraceMeta
from repro.trace.objects import ObjectRegistry
from repro.trace.tracer import Tracer

class Phase1Run(NamedTuple):
    """What one phase-1 run produces."""

    trace: EventTrace
    registry: ObjectRegistry
    state: CpuState
    runtime: Runtime


class NativeTraceSink:
    """The tracer's event sink on the native tier.

    Events go straight into the kernel's columns, after whatever the
    kernel itself emitted, so Python's begin installs, heap events and
    closing removes land in trace order.  :meth:`seal` turns the columns
    into an :class:`EventTrace` without copying them.
    """

    def __init__(self, cpu, program: str) -> None:
        self._cpu = cpu
        self._meta = TraceMeta(program=program)

    @property
    def meta(self) -> TraceMeta:
        meta = self._meta
        meta.n_writes, meta.n_installs, meta.n_removes = self._cpu.event_counts()
        return meta

    def __len__(self) -> int:
        return self._cpu.n_events

    def append_write(self, begin: int, end: int) -> None:
        self._cpu.emit(EventKind.WRITE, begin, end, 0)

    def append_install(self, object_id: int, begin: int, end: int) -> None:
        self._cpu.emit(EventKind.INSTALL, object_id, begin, end)

    def append_remove(self, object_id: int, begin: int, end: int) -> None:
        self._cpu.emit(EventKind.REMOVE, object_id, begin, end)

    def take_columns(self) -> TraceColumns:
        return TraceColumns(*self._cpu.take_columns())

    def validate(self) -> None:
        meta = self.meta
        expected = meta.n_writes + meta.n_installs + meta.n_removes
        if expected != len(self):
            raise TraceFormatError(
                f"meta counts {expected} disagree with {len(self)} events"
            )

    def seal(self) -> EventTrace:
        """The buffered events as a (replay-only) :class:`EventTrace`."""
        meta = TraceMeta(**vars(self.meta))
        return EventTrace.from_arrays(*self._cpu.release_columns(), meta=meta)


class _SkipDelivered:
    """Chunk sink for the Python re-run of a streamed run the native
    tier abandoned: chunks it already delivered are checked and
    dropped, the rest pass through."""

    def __init__(self, sink: Callable, delivered: List[tuple]) -> None:
        self._sink = sink
        self._delivered = delivered

    def __call__(self, chunk) -> None:
        if chunk.seq >= len(self._delivered):
            self._sink(chunk)
        elif chunk.checksums != self._delivered[chunk.seq]:
            raise PipelineError(
                f"chunk {chunk.seq} differs between the native and Python "
                "phase-1 tiers"
            )


def run_phase1(
    image: LoadedProgram,
    layout: MemoryLayout,
    program_name: str = "",
    *,
    entry: str = "main",
    args=(),
    max_instructions: int = 500_000_000,
    setup: Optional[Callable[[Memory], None]] = None,
    chunk_sink: Optional[Callable] = None,
    chunk_events: Optional[int] = None,
) -> Phase1Run:
    """Run ``image`` under a tracer; see the module docstring.

    ``setup(memory)`` writes the program's inputs before the run.  With
    ``chunk_sink`` a :class:`~repro.trace.stream.ChunkingTracer` emits
    chunks of ``chunk_events`` events to it and the returned trace is
    empty, its ``meta`` holding the run totals.
    """
    from repro.machine.native import NativeAbandoned, NativeCpu, phase1_eligible

    name = program_name or image.name
    delivered: List[tuple] = []
    try:
        cpu = NativeCpu(layout)
    except NativeAbandoned:  # no kernel on this host, or no memory for it
        cpu = None
    if cpu is not None:
        sink = None
        if chunk_sink is not None:
            def sink(chunk) -> None:
                delivered.append(chunk.checksums)
                chunk_sink(chunk)
        try:
            if phase1_eligible(cpu):
                return _run(cpu, image, layout, name, entry, args,
                            max_instructions, setup, sink, chunk_events)
        except NativeAbandoned as exc:
            observe.inc("machine.native.fallbacks")
            observe.emit_event("machine.native.fallback", "WARNING",
                               program=name, reason=str(exc))
        finally:
            cpu.close()
    if delivered:
        chunk_sink = _SkipDelivered(chunk_sink, delivered)
    cpu = Cpu(Memory(layout), layout=layout)
    return _run(cpu, image, layout, name, entry, args, max_instructions,
                setup, chunk_sink, chunk_events)


def _run(cpu, image, layout, name, entry, args, max_instructions, setup,
         chunk_sink, chunk_events) -> Phase1Run:
    native = not isinstance(cpu, Cpu)
    runtime = Runtime(cpu, layout)
    runtime.install()
    cpu.attach(image)
    if setup is not None:
        setup(cpu.memory)
    sink = NativeTraceSink(cpu, name) if native else None
    if chunk_sink is not None:
        from repro.trace.stream import DEFAULT_CHUNK_EVENTS, ChunkingTracer

        chunk_events = DEFAULT_CHUNK_EVENTS if chunk_events is None else chunk_events
        tracer = ChunkingTracer(cpu, image, name, emit=chunk_sink,
                                chunk_events=chunk_events, trace=sink)
        if native:
            cpu.flush_at, cpu.on_flush = chunk_events, tracer._maybe_flush
    else:
        tracer = Tracer(cpu, image, name, trace=sink)
    tracer.begin()
    runtime.heap.listeners.append(tracer)
    state = cpu.run(entry, args, max_instructions)
    trace = tracer.finish(state)
    if native:
        trace = sink.seal()
    return Phase1Run(trace, tracer.registry, state, runtime)
