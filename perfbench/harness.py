"""The repository benchmark: end-to-end runs of the reproduction.

``perfbench/run.py`` is the entry point.  Usage (from the root of a
checkout)::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload live --seed 7 --seconds 2 --scale smoke

Workloads (each operation is one fresh process, timed from its start to
its exit, so interpreter start-up is included):

* ``cold``  -- ``repro-experiments table4`` at full scale on all five
  programs, serial, with a fresh cache directory for every operation.
  Phase 1 (the machine and the tracer) is most of it; it is also the
  trace *write* path.
* ``resim`` -- ``table4`` at full scale, serial, with the trace cache
  warm from set-up and the simulation cache removed before every
  operation: the trace *read* path, session discovery, the native
  ``simulate`` kernel and the store publish.  It never runs the machine.
  It is serial, like ``cold``: on a small shared host the wall time of
  ``--jobs 2`` follows how much of the second processor other tenants
  leave free (it ranged 1.3-3.1 s on two vCPUs), which is noise to a
  benchmark.  The parallel scheduler and shared-memory publish/attach
  are measured by the traced run (``experiments.parallel_s``,
  ``trace.publish_s``, ``trace.attach_s``).
* ``warm``  -- ``repro-experiments all`` with every cache warm: CLI
  import, the store read path, and the model, analysis and table code.
* ``live``  -- a seeded draw of phase-2 sessions run by
  ``repro.debugger.Debugger`` in one process: for each of the five
  programs (at smoke scale) and each strategy -- ``native``, ``vm``,
  ``trap``, ``code`` -- one session drawn from those the strategy can run
  (``native`` only takes sessions that fit in 4 registers), plus one
  fixed session (:meth:`Run.anchor`).  One operation thus averages over
  twenty-one sessions, which keeps its cost from depending much on the
  seed.  The machine runs with live monitor hooks instead of a tracer.

Only ``live`` depends on ``--seed``; the others are fixed by the five
programs at the chosen scale.  ``--scale smoke`` shrinks ``cold``,
``resim`` and ``warm`` to the programs' smoke scales (for the
benchmark's own tests).

End-to-end metrics (tracing off; the median over the run's operations):
``wall_s``, ``cpu_s`` (user + system over the operation's process tree),
``peak_rss_mb`` (largest resident set of any process of the operation)
and ``setup_s`` (CPU seconds of one set-up, the median of five: building
the native kernel into a fresh benchmark-owned cache and copying in the
caches the workload starts from).  Tracing the programs to fill those
caches is done once per version of ``src/`` (:func:`prefill`) and is not
part of ``setup_s``; its cost is what ``cold`` measures.
``failed_frac`` is printed with them and is the ``failed``/``attempted``
pair of the result line.

An operation fails when it exits non-zero, its rendered output differs
from the reference in ``perfbench/reference/``, its simulated counts
differ from the reference counts, or (``live``) a live ``WmsStats``
counter differs from the session's phase-2 counting variables.

Isolation: everything the benchmark writes lives under ``.perfbench/``
at the root of the checkout (operations get their own cache directory,
runs directory, native-kernel cache, byte-code cache and working
directory).  The committed ``.repro_cache/`` is never read.  The size
and modification time of every other file of the checkout are recorded
when the run starts; a file added, changed or deleted by the end makes
the run incorrect.

Processes: every operation runs in a process group of its own, and the
benchmark adopts every orphaned descendant (a child subreaper on Linux).
Whatever is left of an operation's group when its main process exits is
given a few seconds to end and then killed and reaped; before the
benchmark exits, on every path out of it, it stops the resource tracker
its own shared-memory calls started and kills and reaps any other child.
No process of a run outlives it.

``--trace 1`` adds a traced run (see ``perfbench/layers.py``) and prints
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"

WORKLOADS = ("cold", "resim", "warm", "live")
PROGRAMS = ("gcc", "ctex", "spice", "qcd", "bps")
STRATEGIES = ("native", "vm", "trap", "code")
#: Hardware monitor registers of the paper's machines; ``native`` is only
#: drawn for sessions that never need more.
NH_REGISTERS = 4
#: The debugger's default page size; ``vm`` checks are compared with the
#: phase-2 active-page misses at this size.
LIVE_PAGE_SIZE = 4096
SETUP_REPEATS = 5
#: An operation still running after this long is killed and failed, so a
#: hung program cannot keep the run from ending.
OP_TIMEOUT_S = 150.0
#: How long a process left behind by an operation (or by the benchmark
#: itself) may take to end on its own before it is killed.
STRAGGLER_GRACE_S = 5.0
#: ``prctl`` option that makes this process adopt orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

METRIC_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation and the outcome of its output check."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(native_dir: Path) -> Dict[str, str]:
    """The environment every program process runs with."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    env["XDG_CACHE_HOME"] = str(STATE / "xdg")
    env["REPRO_NATIVE_CACHE"] = str(native_dir)
    return env


#: Process groups of operations still running (killed if the run ends early).
_live_groups = set()


def become_subreaper() -> None:
    """Adopt every orphaned descendant, so that :func:`stop_children` can
    reap it (Linux only; elsewhere orphans go to init)."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_group(pgid: int, grace: float) -> None:
    """Reap what is left of process group ``pgid``, killing it after
    ``grace`` seconds; return once no process of the group is left."""
    deadline = time.monotonic() + grace
    while True:
        try:
            if os.waitpid(-pgid, os.WNOHANG)[0] > 0:
                continue
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0 if time.monotonic() < deadline else signal.SIGKILL)
        except ProcessLookupError:
            _live_groups.discard(pgid)
            return
        time.sleep(0.01)


def child_pids() -> List[int]:
    """Pids of this process's children, zombies and adopted orphans included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started, and wait until each has ended.

    The shared-memory calls of the traced run start multiprocessing's
    resource tracker in this process; it only ends when its pipe closes,
    so it is stopped here rather than left to outlive the run.  Any
    operation still running is killed, and every other child is given
    :data:`STRAGGLER_GRACE_S` to end, then killed, and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and hasattr(tracker._resource_tracker, "_stop"):
        tracker._resource_tracker._stop()
    for pgid in list(_live_groups):
        end_group(pgid, 0.0)
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0 and time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def run_process(cmd: List[str], cwd: Path, env: Dict[str, str]):
    """Run ``cmd``; return (Op, exit code, stdout).

    Output goes to files in ``cwd`` so nothing is read while the clock
    runs.  ``wait4`` reports the CPU time and peak RSS of the process and
    every descendant it waited for.  The process leads a group of its
    own; once it has exited, whatever is left of the group is ended and
    reaped (:func:`end_group`) before this returns.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "op.stdout", cwd / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        _live_groups.add(proc.pid)
        watchdog = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    end_group(proc.pid, STRAGGLER_GRACE_S)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    op = Op(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if code != 0:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        tail = stderr.strip().splitlines()[-1:] or [""]
        op.problems.append(f"exit code {code}: {tail[0][:200]}")
    return op, code, out_path.read_text(encoding="utf-8", errors="replace")


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its waited-for children.

    Set-up is timed in CPU seconds: it is CPU-bound (a C compile, file
    copies, unpickling), and unlike wall time this does not grow when
    other tenants of the host take the processor.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.experiments", *args]


# ---------------------------------------------------------------------------
# Environment record, source digest, isolation
# ---------------------------------------------------------------------------


def _tree_files(base: Path, skip=()):
    for dirpath, dirnames, filenames in os.walk(base):
        here = Path(dirpath)
        dirnames[:] = sorted(
            d for d in dirnames
            if d != "__pycache__" and here / d not in skip
        )
        for name in sorted(filenames):
            yield here / name


def source_digest() -> str:
    """Digest of every file under ``src/``: keys the pre-filled caches."""
    digest = hashlib.sha256()
    for path in _tree_files(SRC):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def snapshot_tree() -> Dict[str, tuple]:
    """Size and modification time of every file of the checkout outside
    the benchmark's own state (and outside git internals, build output
    and byte code).

    A file this process writes its standard output or error to is left
    out: whoever runs the benchmark may keep its log in the checkout.
    """
    skip = {STATE, ROOT / ".git", ROOT / ".bench_build"}
    own_output = set()
    for fd in (1, 2):
        try:
            stat = os.fstat(fd)
        except OSError:
            continue
        own_output.add((stat.st_dev, stat.st_ino))
    snapshot = {}
    for path in _tree_files(ROOT, skip):
        stat = path.lstat()
        if (stat.st_dev, stat.st_ino) not in own_output:
            snapshot[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return snapshot


def tree_changes(before: Dict[str, tuple]) -> List[str]:
    """Files of the checkout the run added, changed or deleted."""
    after = snapshot_tree()
    problems = [f"added: {p}" for p in sorted(after.keys() - before.keys())]
    problems += [f"changed: {p}" for p in before if p in after and after[p] != before[p]]
    problems += [f"deleted: {p}" for p in before if p not in after]
    return problems


def environment_record() -> Dict[str, object]:
    """Host, toolchain and engine record printed with every run.

    ``perfbench/compare.py`` refuses to compare runs whose host or engine
    records differ: a host without a C compiler silently falls back from
    the native kernel to NumPy.
    """
    import numpy

    from repro.simulate import resolve_engine
    from repro.simulate._native import _find_compiler

    compiler = _find_compiler()
    cc_version = "none"
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        cc_version = (proc.stdout.splitlines() or ["unknown"])[0]
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cc": cc_version,
        },
        "engine": resolve_engine("auto", n_events=1 << 20),
        "commit": commit,
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------


def reference_text(scale: str, name: str) -> str:
    return (REFERENCE / scale / name).read_text(encoding="utf-8")


def reference_counts(scale: str) -> Dict[str, Dict[str, int]]:
    return json.loads(reference_text(scale, "counts.json"))


def config_for(scale: str, cache_dir: Path, **kwargs):
    from repro.experiments.pipeline import ExperimentConfig

    return ExperimentConfig(scale=scale, cache_dir=cache_dir, **kwargs)


def load_sim_payloads(cache_dir: Path, scale: str) -> Dict[str, dict]:
    """The verified phase-2 payload of every program in ``cache_dir``."""
    from repro.experiments.pipeline import sim_cache_path
    from repro.experiments.store import ResultStore
    from repro.workloads import WORKLOADS as PROGRAM_WORKLOADS

    config = config_for(scale, cache_dir)
    store = ResultStore(cache_dir)
    payloads = {}
    for name in PROGRAMS:
        workload = PROGRAM_WORKLOADS[name]
        path = sim_cache_path(workload, config.scale_of(workload), config)
        payloads[name] = store.load_payload(path, program=name)
    return payloads


def count_problems(payloads: Dict[str, dict], scale: str) -> List[str]:
    """Simulated counts that differ from the reference counts."""
    problems = []
    expected = reference_counts(scale)
    for name, payload in payloads.items():
        meta = payload["meta"]
        got = {
            "instructions": meta.instructions,
            "cycles": meta.cycles,
            "events": meta.n_writes + meta.n_installs + meta.n_removes,
            "sessions": len(payload["result"].sessions),
        }
        for key, want in expected[name].items():
            if got[key] != want:
                problems.append(f"{name} {key}: {got[key]} != reference {want}")
    return problems


def output_problems(stdout: str, reference: str) -> List[str]:
    if stdout == reference:
        return []
    ours, theirs = stdout.splitlines(), reference.splitlines()
    for number, (a, b) in enumerate(zip(ours, theirs), 1):
        if a != b:
            return [f"output differs from reference at line {number}: {a[:80]!r}"]
    return [f"output has {len(ours)} lines, reference {len(theirs)}"]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def prefill(scale: str) -> Path:
    """Warm trace and sim caches for ``scale`` and for the live sessions.

    Built once per source digest by running the CLI on a fresh cache,
    checked against the reference, and kept under ``.perfbench/`` so
    that each run copies them instead of re-tracing (the cost of building
    them is what ``cold`` measures).
    """
    base = STATE / f"prefill-{source_digest()}"
    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "prefill.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for stale in STATE.glob("prefill-*"):
            if stale != base and stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
        for which in dict.fromkeys((scale, "smoke")):
            done = base / which / "done"
            if done.exists():
                continue
            work = base / which
            shutil.rmtree(work, ignore_errors=True)
            env = child_env(base / "native")
            op, _, stdout = run_process(
                cli("table4", "--scale", which, "--cache-dir", str(work / "cache"),
                    "--runs-dir", str(work / "runs"), "--quiet"),
                work, env,
            )
            problems = op.problems or output_problems(
                stdout, reference_text(which, "table4.txt")
            )
            problems += count_problems(load_sim_payloads(work / "cache", which), which)
            if problems:
                raise BenchError(f"pre-fill at {which} scale failed: {problems[0]}")
            print(f"perfbench: pre-filled {which}-scale caches in {op.wall_s:.1f}s")
            done.write_text("ok\n")
    return base


def build_native(native_dir: Path) -> None:
    from repro.simulate._native import build_native_library

    os.environ["REPRO_NATIVE_CACHE"] = str(native_dir)
    build_native_library()


def copy_cache(source: Path, dest: Path, with_sim: bool) -> None:
    dest.mkdir(parents=True)
    for path in sorted(source.iterdir()):
        if path.suffix == ".npz" or (with_sim and path.suffix == ".pkl"):
            shutil.copy2(path, dest / path.name)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def watch_specs(registry, session) -> List[list]:
    """Translate a phase-2 session into debugger watches."""
    from repro.sessions.types import ALL_HEAP_IN_FUNC, ONE_HEAP
    from repro.trace.objects import GLOBAL, HEAP

    if session.kind == ALL_HEAP_IN_FUNC:
        return [["heap", session.label.split("@", 1)[1], None]]
    if session.kind == ONE_HEAP:
        obj = registry.get(session.member_ids[0])
        ordinal = sum(
            1 for other in registry.objects[: obj.id]
            if other.kind == HEAP and obj.function in other.context
        )
        return [["heap", obj.function, ordinal]]
    specs = []
    for member in session.member_ids:
        obj = registry.get(member)
        if obj.kind == GLOBAL:
            specs.append(["global", obj.name])
        else:
            specs.append(["local", obj.function, obj.name])
    return specs


def expected_live(counts, strategy: str) -> Dict[str, int]:
    """What a live strategy must count for a session (phase-2 variables)."""
    expected = {"installs": counts.installs, "removes": counts.removes,
                "hits": counts.hits}
    if strategy in ("trap", "code"):
        expected["checks"] = counts.hits + counts.misses
    elif strategy == "vm":
        expected["checks"] = (
            counts.hits + counts.vm[LIVE_PAGE_SIZE].active_page_misses
        )
    return expected


def live_work(counts, strategy: str) -> int:
    """Events a live strategy handles beyond running the program: monitor
    installs and hits, and for ``vm`` the faults on active pages."""
    work = counts.installs + counts.hits
    if strategy == "vm":
        work += counts.vm[LIVE_PAGE_SIZE].active_page_misses
    return work


def live_problems(items: List["LiveItem"], live: List[Dict[str, int]]) -> List[str]:
    """Live counters that differ from the sessions' counting variables."""
    if len(live) != len(items):
        return [f"live run returned {len(live)} results for {len(items)} sessions"]
    problems = []
    for item, got in zip(items, live):
        for counter, want in expected_live(item.counts, item.strategy).items():
            if got[counter] != want:
                problems.append(
                    f"{item.describe()} counter={counter} "
                    f"live={got[counter]} simulated={want}"
                )
    return problems


@dataclass
class LiveItem:
    """One drawn session of one program, to run under one strategy."""

    program: str
    scale: int
    session: object
    counts: object
    watches: List[list]
    strategy: str

    def describe(self) -> str:
        return (f"program={self.program} session={self.session.kind}:"
                f"{self.session.label} strategy={self.strategy}")

    def plan(self) -> dict:
        return {"program": self.program, "scale": self.scale,
                "watches": self.watches, "strategy": self.strategy}


class Run:
    """One invocation: set-up, then operations of one workload."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.dir = STATE / f"run-{os.getpid()}"
        self.setup_times: List[float] = []
        self.prefill_dir: Optional[Path] = None
        self.cache: Optional[Path] = None
        self.native: Optional[Path] = None
        self.env: Dict[str, str] = {}
        self.payloads: Dict[str, dict] = {}
        self.live_payloads: Dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.prefill_dir = prefill(self.scale)
        for repeat in range(SETUP_REPEATS):
            start = cpu_seconds()
            self._setup_once(self.dir / f"setup{repeat}")
            self.setup_times.append(cpu_seconds() - start)
        self.env = child_env(self.native)

    def _setup_once(self, where: Path) -> None:
        self.native = where / "native"
        build_native(self.native)
        full = self.prefill_dir / self.scale / "cache"
        self.cache = where / "cache"
        if self.workload == "resim":
            copy_cache(full, self.cache, with_sim=False)
        elif self.workload == "warm":
            copy_cache(full, self.cache, with_sim=True)
            self.payloads = load_sim_payloads(self.cache, self.scale)
        elif self.workload == "live":
            copy_cache(self.prefill_dir / "smoke" / "cache", self.cache, with_sim=True)
            self.live_payloads = load_sim_payloads(self.cache, "smoke")

    def check_setup(self) -> List[str]:
        if self.workload == "warm":
            return count_problems(self.payloads, self.scale)
        if self.workload == "live":
            return count_problems(self.live_payloads, "smoke")
        return []

    # -- operations -----------------------------------------------------

    def op(self, index: int) -> Op:
        """Operation number ``index`` of this run (``live`` draws by index)."""
        where = self.dir / f"op{index}"
        try:
            if self.workload == "live":
                return self._op_live(where, self.draw(index))
            return getattr(self, f"_op_{self.workload}")(where)
        finally:
            shutil.rmtree(where, ignore_errors=True)

    def _op_cold(self, where: Path) -> Op:
        cache = where / "cache"
        op, code, stdout = run_process(
            cli("table4", "--scale", self.scale, "--cache-dir", str(cache),
                "--runs-dir", str(where / "runs"), "--quiet"),
            where, self.env,
        )
        if code == 0:
            op.problems += output_problems(stdout, reference_text(self.scale, "table4.txt"))
            op.problems += count_problems(load_sim_payloads(cache, self.scale), self.scale)
            traces = sorted(p.name for p in cache.glob("*.npz"))
            if len(traces) != len(PROGRAMS):
                op.problems.append(f"cold run wrote {len(traces)} trace entries")
        return op

    def _op_resim(self, where: Path) -> Op:
        for stale in self.cache.glob("*.pkl"):
            stale.unlink()
        op, code, stdout = run_process(
            cli("table4", "--scale", self.scale, "--cache-dir", str(self.cache),
                "--runs-dir", str(where / "runs"), "--quiet"),
            where, self.env,
        )
        if code == 0:
            op.problems += output_problems(stdout, reference_text(self.scale, "table4.txt"))
            op.problems += count_problems(load_sim_payloads(self.cache, self.scale), self.scale)
        return op

    def _op_warm(self, where: Path) -> Op:
        before = sorted(p.name for p in self.cache.iterdir())
        op, code, stdout = run_process(
            cli("all", "--scale", self.scale, "--cache-dir", str(self.cache),
                "--runs-dir", str(where / "runs"), "--quiet"),
            where, self.env,
        )
        if code == 0:
            op.problems += output_problems(stdout, reference_text(self.scale, "all.txt"))
            if sorted(p.name for p in self.cache.iterdir()) != before:
                op.problems.append("warm run changed the cache directory")
        return op

    def draw(self, index: int) -> List[LiveItem]:
        """The sessions of live operation ``index``.

        For every program and strategy, one session is drawn from those
        the strategy can run.  The draw is stratified: a program's
        candidate sessions are split into quartiles of their expected live
        work (:func:`live_work`), and its four strategies draw from four
        different quartiles (which strategy gets which quartile turns with
        the seed and the operation).  Every session can be drawn, and one
        operation's cost varies little from seed to seed.  The
        :meth:`anchor` session comes last.
        """
        rng = random.Random(self.seed * 1_000_003 + index)
        items = []
        for p, program in enumerate(PROGRAMS):
            result = self.live_payloads[program]["result"]
            for s, strategy in enumerate(STRATEGIES):
                eligible = sorted(
                    (i for i, counts in enumerate(result.counts)
                     if strategy != "native" or counts.max_concurrent <= NH_REGISTERS),
                    key=lambda i: (live_work(result.counts[i], strategy), i),
                )
                quartile = (p + s + self.seed + index) % 4
                pick = rng.choice(eligible[quartile * len(eligible) // 4:
                                           (quartile + 1) * len(eligible) // 4])
                items.append(self.live_item(program, pick, strategy))
        return items + [self.anchor()]

    def anchor(self) -> LiveItem:
        """The session with the most monitor hits that ``native`` can run,
        under ``native``; every ``live`` operation runs it.

        The debugger keeps every hit event, so an operation's peak resident
        set is set by its session with the most hits.  With this session
        in every operation that peak no longer depends on what the seed
        draws (over ten seeds it varied from 69 to 83 MB without it).
        """
        _, program, pick = max(
            (counts.hits, program, i)
            for program in PROGRAMS
            for i, counts in enumerate(self.live_payloads[program]["result"].counts)
            if counts.max_concurrent <= NH_REGISTERS
        )
        return self.live_item(program, pick, "native")

    def live_item(self, program: str, pick: int, strategy: str) -> LiveItem:
        """Session number ``pick`` of ``program``, to run under ``strategy``."""
        from repro.workloads import WORKLOADS as PROGRAM_WORKLOADS

        payload = self.live_payloads[program]
        result = payload["result"]
        return LiveItem(
            program=program,
            scale=PROGRAM_WORKLOADS[program].smoke_scale,
            session=result.sessions[pick],
            counts=result.counts[pick],
            watches=watch_specs(payload["registry"], result.sessions[pick]),
            strategy=strategy,
        )

    def _op_live(self, where: Path, items: List[LiveItem]) -> Op:
        where.mkdir(parents=True)
        plan = where / "plan.json"
        plan.write_text(json.dumps([item.plan() for item in items]))
        op, code, stdout = run_process(
            [sys.executable, str(BENCH / "live_op.py"), str(plan)], where, self.env,
        )
        if code == 0:
            op.problems += live_problems(items, json.loads(stdout.splitlines()[-1]))
        return op

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float) -> List[Op]:
    """Operations back to back until ``seconds`` have passed (at least one)."""
    ops: List[Op] = []
    start = time.perf_counter()
    while True:
        op = run.op(len(ops))
        ops.append(op)
        status = "ok" if op.ok else "FAILED"
        print(f"perfbench: op {len(ops)} {status} wall {op.wall_s:.3f}s "
              f"cpu {op.cpu_s:.3f}s rss {op.rss_mb:.1f}MB")
        for problem in op.problems:
            print(f"perfbench:   {problem}")
        if op.wall_s >= OP_TIMEOUT_S or time.perf_counter() - start >= seconds:
            return ops


def end_to_end(run: Run, ops: List[Op]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "setup_s": statistics.median(run.setup_times),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="program scale of cold/resim/warm (default full)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = str(STATE / "xdg")

    become_subreaper()
    # A run that is told to stop still ends its processes (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    before = snapshot_tree()
    run = Run(args.workload, args.seed, args.scale)
    try:
        run.setup()
        env = environment_record()
        print("perfbench-run " + json.dumps({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace, "env": env,
        }, sort_keys=True))
        problems = run.check_setup()
        ops = measure(run, args.seconds)
        metrics = end_to_end(run, ops)
        units = dict(METRIC_UNITS)
        if args.trace:
            import layers

            traced_op, metrics = layers.traced_run(run, ops)
            ops.append(traced_op)
            for problem in traced_op.problems:
                print(f"perfbench:   traced: {problem}")
            units = layers.PER_LAYER_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        run.close()
    problems += tree_changes(before)
    for problem in problems:
        print(f"perfbench: {problem}")
    failed = sum(1 for op in ops if not op.ok)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"ops={len(ops)} failed_frac={failed / len(ops):.4f}")
    for name, value in metrics.items():
        print(f"perfbench:   {name:32s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
