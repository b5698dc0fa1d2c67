"""Dispatcher matrix: every ``engine`` request × kernel availability.

``resolve_engine`` has two inputs — the request and whether the native
kernel loads on this box.  This suite pins the full matrix:

* ``auto`` runs native when the kernel loads and python otherwise,
  whatever the trace size;
* ``python`` is always honored;
* an explicit ``native`` request is a demand — an unavailable kernel
  raises :class:`PipelineError` rather than substituting;
* an unknown engine name is rejected.

Availability is simulated by monkeypatching the probe function (for
resolution logic) and via ``REPRO_NATIVE_DISABLE`` (for the real
loader's gate), so the matrix runs identically on boxes with and
without a C toolchain.
"""

import pytest

import repro.simulate as sim
from repro import observe
from repro.errors import PipelineError
from repro.sessions.types import ONE_HEAP, SessionDef
from repro.simulate import (
    open_simulation_stream,
    resolve_engine,
    simulate_chunks,
    simulate_sessions,
)
from repro.simulate._native import native_available
from repro.simulate.engine import SimulationStream
from repro.simulate.engine import simulate_sessions as simulate_python
from repro.trace import EventTrace, ObjectRegistry
from repro.trace.events import TraceMeta
from repro.trace.stream import iter_chunks

from test_engine_equivalence import assert_identical, build_random


@pytest.fixture
def disable_native(monkeypatch):
    """Make the real loader report the kernel unavailable."""
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native_available(refresh=True)
    yield
    monkeypatch.delenv("REPRO_NATIVE_DISABLE")
    native_available(refresh=True)  # restore the memoized probe


@pytest.mark.parametrize("kernel", [True, False],
                         ids=["kernel", "no-kernel"])
class TestResolveMatrix:
    """resolve_engine over request × availability."""

    @pytest.fixture(autouse=True)
    def availability(self, monkeypatch, kernel):
        monkeypatch.setattr(sim, "_native_available", lambda: kernel)

    def test_auto(self, kernel):
        expected = "native" if kernel else "python"
        # n_events is accepted and ignored: size never changes the choice.
        for n_events in (None, 1, 4095, 4096, 1 << 20):
            assert resolve_engine("auto", n_events=n_events) == expected
        assert resolve_engine() == expected

    def test_python(self, kernel):
        assert resolve_engine("python") == "python"

    def test_native(self, kernel):
        if kernel:
            assert resolve_engine("native") == "native"
        else:
            with pytest.raises(PipelineError, match="native.*unavailable"):
                resolve_engine("native")

    def test_unknown(self, kernel):
        with pytest.raises(PipelineError, match="unknown engine"):
            resolve_engine("numpy")


def trace_of(n_events):
    """An ``n_events``-long trace: one install, writes inside and
    outside the object, one remove (fewer than two events: writes)."""
    registry = ObjectRegistry()
    registry.heap("f", ("main", "f"), 16)
    trace = EventTrace(TraceMeta(program=f"n{n_events}"))
    bracket = n_events >= 2
    if bracket:
        trace.append_install(0, 0x1000, 0x1010)
    for i in range(n_events - 2 * bracket):
        trace.append_write(0x1000 + 4 * (i % 6), 0x1004 + 4 * (i % 6))
    if bracket:
        trace.append_remove(0, 0x1000, 0x1010)
    assert len(trace) == n_events
    return trace, registry, [SessionDef(0, ONE_HEAP, "s0", (0,))]


class TestTinyTrace:
    """A 50-event trace runs on whichever engine ``auto`` resolves to —
    native when the kernel loads — in batch and as a stream with no
    size hint, and matches the scalar result."""

    n_events = 50

    def backends_of_auto_runs(self):
        trace, registry, sessions = trace_of(self.n_events)
        scalar = simulate_python(trace, registry, sessions, (4096,))
        observe.enable()
        observe.reset()
        try:
            batch = simulate_sessions(trace, registry, sessions, (4096,))
            streamed = simulate_chunks(
                iter_chunks(trace, 7), registry, sessions, (4096,),
                meta=trace.meta,
            )
            notes = observe.get_registry().snapshot()["notes"]
        finally:
            observe.reset()
            observe.disable()
        assert_identical(scalar, batch)
        assert_identical(scalar, streamed)
        return notes["engine.backend"]

    @pytest.mark.skipif(not native_available(),
                        reason="native kernel unavailable")
    def test_runs_native_when_kernel_loads(self):
        assert self.backends_of_auto_runs() == ["native", "native"]

    def test_runs_python_without_kernel(self, disable_native):
        assert self.backends_of_auto_runs() == ["python", "python"]


@pytest.mark.parametrize("n_events", [1, 2, 4095, 4096, 4097])
class TestAroundFormerThreshold(TestTinyTrace):
    """Traces either side of the 4,096 events that once sent ``auto``
    to a different engine: the backend still depends only on whether
    the kernel loads."""

    @pytest.fixture(autouse=True)
    def size(self, n_events):
        self.n_events = n_events


class TestRealLoaderGate:
    """The actual loader's availability gate (not the monkeypatched view)."""

    def test_disable_env_forces_unavailable(self, disable_native):
        assert not native_available()
        trace, registry, sessions = build_random(1)
        with pytest.raises(PipelineError, match="native"):
            simulate_sessions(trace, registry, sessions, (4096,),
                              engine="native")

    def test_auto_degrades_when_disabled(self, disable_native):
        trace, registry, sessions = build_random(1)
        batch = simulate_python(trace, registry, sessions, (4096,))
        result = simulate_sessions(trace, registry, sessions, (4096,),
                                   engine="auto")
        assert_identical(batch, result)

    def test_auto_stream_degrades_when_disabled(self, disable_native):
        trace, registry, sessions = build_random(1)
        stream = open_simulation_stream(registry, sessions, (4096,))
        assert type(stream) is SimulationStream
        stream.feed_chunk(next(iter_chunks(trace, len(trace))))
        assert_identical(
            simulate_python(trace, registry, sessions, (4096,)),
            stream.finish(trace.meta, expected_events=len(trace)),
        )

    @pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable"
    )
    def test_native_stream_raises_when_disabled(self, disable_native):
        from repro.simulate.native_engine import NativeSimulationStream

        trace, registry, sessions = build_random(1)
        with pytest.raises(PipelineError, match="unavailable"):
            NativeSimulationStream(registry, sessions, (4096,))
