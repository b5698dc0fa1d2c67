"""Differential tests: the native phase-1 tier against the Python Cpu.

Every run here happens twice, once on the native tier (the compiled
tracing interpreter, ``repro.machine._native``) and once with
``REPRO_NATIVE_DISABLE=1`` on the Python :class:`~repro.machine.cpu.Cpu`,
and everything phase 1 produces must be identical: the event columns,
``TraceMeta``, the object registry with its heap contexts, the final
``CpuState``, the program output, the heap statistics, streamed chunks,
and the exception type and message of a failing run.

Full-scale runs of the five workloads are marked ``slow`` and run only
with ``REPRO_SLOW_TESTS=1``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observe
from repro.errors import MiniCRuntimeError
from repro.machine import Cpu, Memory, isa, load_program
from repro.machine._native import load_machine_library
from repro.machine.native import phase1_eligible
from repro.minic.compiler import compile_source
from repro.observe import profile as observe_profile
from repro.trace import trace_program
from repro.trace.phase1 import run_phase1
from repro.workloads import WORKLOADS
from tests.minic.test_fuzz import _generate

needs_native = pytest.mark.skipif(
    load_machine_library() is None, reason="native machine kernel unavailable"
)
pytestmark = needs_native

PROGRAMS = sorted(WORKLOADS)


@contextmanager
def tier(native: bool):
    """Run the body on the native tier or, with the kernel disabled, on
    the Python Cpu."""
    before = os.environ.pop("REPRO_NATIVE_DISABLE", None)
    if not native:
        os.environ["REPRO_NATIVE_DISABLE"] = "1"
    load_machine_library(refresh=True)
    try:
        yield
    finally:
        os.environ.pop("REPRO_NATIVE_DISABLE", None)
        if before is not None:
            os.environ["REPRO_NATIVE_DISABLE"] = before
        load_machine_library(refresh=True)


@pytest.fixture()
def observing():
    was_enabled = observe.is_enabled()
    observe.reset()
    observe.enable()
    yield
    if not was_enabled:
        observe.disable()
    observe.reset()


def counters():
    return dict(observe.get_registry().snapshot()["counters"])


def run_program(workload, scale, **kwargs):
    program = workload.compile(scale)
    image = load_program(program, program.layout)
    return run_phase1(
        image, program.layout, workload.name,
        setup=lambda memory: workload.setup(memory, image, scale), **kwargs,
    )


def both_tiers(fn):
    """``fn()`` on each tier, with the counters each run reported."""
    results = []
    for native in (True, False):
        observe.reset()
        with tier(native):
            results.append((fn(), counters()))
    return results


def columns(trace):
    return [np.asarray(column) for column in trace.as_arrays()]


def assert_same_trace(a, b):
    for col_a, col_b in zip(columns(a), columns(b)):
        assert np.array_equal(col_a, col_b)
    assert vars(a.meta) == vars(b.meta)


def assert_same_registry(a, b):
    assert [vars(obj) for obj in a.objects] == [vars(obj) for obj in b.objects]


def heap_stats(runtime):
    heap = runtime.heap
    return heap.n_allocs, heap.n_frees, heap.live_bytes(), heap.total_allocated


def outcome(fn):
    """The result of ``fn()``, or the type and message of its error."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared across tiers
        return type(exc), str(exc)


def compare_workload(name, scale):
    workload = WORKLOADS[name]
    (native, native_counts), (python, python_counts) = both_tiers(
        lambda: run_program(workload, scale)
    )
    assert native_counts["machine.native.fallbacks"] == 0
    assert "machine.native.fallbacks" not in python_counts
    assert_same_trace(native.trace, python.trace)
    assert_same_registry(native.registry, python.registry)
    assert native.state == python.state
    assert native.runtime.output == python.runtime.output
    assert heap_stats(native.runtime) == heap_stats(python.runtime)
    # --metrics manifests stay comparable: same cpu.* and trace.* counters.
    shared = {k: v for k, v in native_counts.items()
              if not k.startswith("machine.native.")}
    assert shared == python_counts
    return native


class TestWorkloads:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_smoke_scale_identical(self, name, observing):
        run = compare_workload(name, WORKLOADS[name].smoke_scale)
        assert run.state.instructions > 0

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_streamed_chunks_match_batch(self, name):
        workload = WORKLOADS[name]
        scale = workload.smoke_scale
        streams = []
        for native in (True, False):
            chunks = []
            with tier(native):
                run = run_program(workload, scale, chunk_sink=chunks.append,
                                  chunk_events=4096)
            assert len(run.trace) == 0
            streams.append((chunks, run.trace.meta))
        (native_chunks, native_meta), (python_chunks, python_meta) = streams
        assert vars(native_meta) == vars(python_meta)
        assert [(c.seq, c.n_events, c.checksums) for c in native_chunks] == \
            [(c.seq, c.n_events, c.checksums) for c in python_chunks]
        with tier(True):
            batch = run_program(workload, scale).trace
        for index, column in enumerate(columns(batch)):
            joined = np.concatenate([chunk.columns[index] for chunk in native_chunks])
            assert np.array_equal(joined, column)

    @pytest.mark.slow
    @pytest.mark.skipif(not os.environ.get("REPRO_SLOW_TESTS"),
                        reason="full-scale runs need REPRO_SLOW_TESTS=1")
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_full_scale_identical(self, name, observing):
        compare_workload(name, WORKLOADS[name].default_scale)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzz_programs_identical(data):
    c_source, _py_source = _generate(data.draw)
    program = compile_source(c_source, "fuzz")
    (native, _), (python, _) = both_tiers(
        lambda: trace_program(program, max_instructions=2_000_000)
    )
    assert_same_trace(native[0], python[0])
    assert_same_registry(native[1], python[1])
    assert native[2] == python[2]


def anomaly(body: str, globals_: str = "") -> str:
    return f"""
{globals_}
int deep(int n) {{
  int pad[4096];
  pad[0] = n;
  return deep(n + 1);
}}
int main() {{
  int i; int x; int n; int *p; float f;
{body}
}}
"""


#: (name, MiniC body, whether the native tier must fall back)
ANOMALIES = [
    ("int64 overflow", "x = 1; for (i = 0; i < 70; i++) { x = x * 2; }\n"
     "  return x % 1000;", True),
    ("shift of 64", "n = 64; x = 1 << n; return x % 1000;", True),
    ("shift of 63", "n = 63; x = 1 << n; return x > 0;", True),
    ("negative shift", "n = 0 - 1; x = 8 >> n; return x;", True),
    ("int division by zero", "n = 0; return 5 / n;", False),
    ("int remainder by zero", "n = 0; return 5 % n;", False),
    ("float division by zero", "f = 0.0; f = 1.0 / f; return 1;", False),
    ("math domain error", "f = sqrt(0.0 - 1.0); return 1;", True),
    ("exp overflow", "f = exp(1000.0); return 1;", True),
    ("stack overflow", "return deep(0);", False),
    ("misaligned store", "p = 2; *p = 1; return 0;", False),
    ("store out of range", "p = 0 - 4; *p = 1; return 0;", False),
    ("load out of range", "p = 0 - 4; return *p;", False),
    ("huge float to int", "f = 1e300; x = f; return x % 7;", True),
    ("instruction budget", "while (1) { i = i + 1; } return 0;", False),
]


@pytest.mark.parametrize("name, body, falls_back", ANOMALIES,
                         ids=[a[0] for a in ANOMALIES])
def test_anomalies_match(name, body, falls_back, observing):
    program = compile_source(anomaly(body), "anomaly")
    (native, native_counts), (python, _) = both_tiers(
        lambda: outcome(lambda: trace_program(program, max_instructions=200_000))
    )
    assert native[0] == python[0]
    if native[0] == "ok":
        assert_same_trace(native[1][0], python[1][0])
        assert native[1][2] == python[1][2]
    else:
        assert native[1] == python[1]
    assert native_counts.get("machine.native.fallbacks", 0) == int(falls_back)


def test_float_address_falls_back_with_the_python_error(observing):
    program = compile_source("int g; int main() { g = 1; return g; }", "addr")
    image = load_program(program)
    address = program.globals[0].address
    # The LDI of g's address now loads a float: Python's `addr & 3`
    # raises TypeError, which the native tier must reproduce.
    for pc, instr in enumerate(image.code):
        if instr[0] == isa.LDI and instr[2] == address:
            image.code[pc] = (isa.LDI, instr[1], float(address))
    (native, native_counts), (python, _) = both_tiers(
        lambda: outcome(lambda: run_phase1(image, program.layout))
    )
    assert native == python
    assert native[0] is TypeError
    assert native_counts["machine.native.fallbacks"] == 1


def test_mid_stream_abandon_delivers_each_chunk_once(observing):
    source = anomaly(
        "for (i = 0; i < 3000; i++) { x = i; }\n"
        "  x = 1; for (i = 0; i < 70; i++) { x = x * 2; }\n"
        "  return x % 1000;"
    )
    program = compile_source(source, "midstream")
    streams = []
    for native in (True, False):
        chunks = []
        observe.reset()
        with tier(native):
            run = run_phase1(load_program(program), program.layout,
                             chunk_sink=chunks.append, chunk_events=256)
        streams.append(([(c.seq, c.checksums) for c in chunks], run.trace.meta))
        if native:
            assert counters()["machine.native.fallbacks"] == 1
    assert streams[0][0] == streams[1][0]
    assert len(streams[0][0]) > 2
    assert vars(streams[0][1]) == vars(streams[1][1])


class TestEligibility:
    def test_fresh_cpu_is_eligible(self):
        assert phase1_eligible(Cpu(Memory()))

    @pytest.mark.parametrize("hook", ["check", "enter", "exit", "monitor", "page"])
    def test_hooks_make_cpu_ineligible(self, hook):
        cpu = Cpu(Memory())
        if hook == "check":
            cpu.check_hook = lambda address, pc, c: None
        elif hook == "enter":
            cpu.enter_hooks[0] = [lambda func, fp: None]
        elif hook == "exit":
            cpu.exit_hooks[0] = [lambda func, fp: None]
        elif hook == "monitor":
            cpu.monitor_registers.allocate(0x100, 0x104)
        else:
            cpu.page_table.protect([1])
        assert not phase1_eligible(cpu)

    def test_profiler_keeps_phase1_on_python(self, observing):
        observe_profile.enable_profiling()
        try:
            assert not phase1_eligible(Cpu(Memory()))
            trace_program(compile_source("int main() { return 3; }"))
        finally:
            observe_profile.disable_profiling()
        assert "machine.native.fallbacks" not in counters()
        assert counters()["cpu.runs"] == 1

    def test_math_builtins_stay_native(self, observing):
        source = """
        int main() {
          float f;
          f = sqrt(2.0) + exp(1.5) + log(3.0) + fabs(0.0 - 2.5);
          print_float(f);
          return f * 1000;
        }
        """
        program = compile_source(source)
        (native, counts), (python, _) = both_tiers(lambda: trace_program(program))
        assert native[2] == python[2]
        assert counts["machine.native.fallbacks"] == 0
        assert counts["machine.native.host_exits"] == 1  # print_float only

    def test_runtime_errors_from_host_builtins_match(self):
        program = compile_source("int main() { free(8); return 0; }")
        (native, _), (python, _) = both_tiers(
            lambda: outcome(lambda: trace_program(program))
        )
        assert native == python
        assert native[0] is MiniCRuntimeError
