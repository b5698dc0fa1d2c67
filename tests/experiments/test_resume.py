"""Crash-safe runs, certified the hard way: kill the process at a
faultpoint, then prove ``--resume`` converges.

``--resume NAME`` is a plain rerun against the verified store: every
trace and simulation entry is content-addressed and published
atomically, so the store alone decides what a rerun can skip.  Each
scenario runs the real CLI in a subprocess with a deterministic fault
plan that SIGKILLs (or signals) the run mid-flight, checks which
simulation entries the store holds, then resumes and asserts the
invariants of the recovery design:

* the resumed run exits 0 and its report is **bit-identical** to an
  uninterrupted run's;
* the ``resume.tasks_skipped`` / ``resume.tasks_replayed`` gauges equal
  the ``cache.sim.hits`` / ``cache.sim.misses`` counters — they report
  what the rerun really did;
* ``store verify`` finds **zero corrupt entries** — atomic publishes
  mean a kill never tears a cache entry.

Graceful-shutdown scenarios additionally pin the exit code
(``128 + signum``) and the black box dump.  The in-process tests at the
bottom pin the run record and the skip/replay decision on prepared
stores.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.pipeline import ExperimentConfig, sim_cache_path
from repro.experiments.store import ResultStore
from repro.workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"
PROGRAMS = ("gcc", "qcd")


def run_cli(cache_dir, extra, check=False, env=None):
    proc = subprocess.run(
        cli_command(cache_dir, extra),
        capture_output=True, text=True, timeout=120,
        env=cli_env(env),
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def cli_command(cache_dir, extra):
    return [sys.executable, "-m", "repro.experiments", "table4",
            "--scale", "smoke", "--programs", *PROGRAMS,
            "--cache-dir", str(cache_dir), "--quiet"] + extra


def cli_env(env=None):
    return {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}


def sim_entry(cache_dir, program) -> str:
    """The name of ``program``'s smoke-scale simulation entry."""
    config = ExperimentConfig(scale="smoke", cache_dir=Path(cache_dir))
    workload = WORKLOADS[program]
    return sim_cache_path(workload, config.scale_of(workload), config).name


def sim_entry_ok(cache_dir, program) -> bool:
    return ResultStore(Path(cache_dir)).entry_ok(sim_entry(cache_dir, program))


def counters_match_gauges(manifest):
    """The resume gauges must report what the rerun's cache really did."""
    gauges, counters = manifest["gauges"], manifest["counters"]
    assert gauges["resume.tasks_skipped"] \
        == counters.get("cache.sim.hits", 0), (gauges, counters)
    assert gauges["resume.tasks_replayed"] \
        == counters.get("cache.sim.misses", 0), (gauges, counters)


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """The reference report of an uninterrupted run (own cache)."""
    tmp = tmp_path_factory.mktemp("clean")
    out = tmp / "clean.txt"
    run_cli(tmp / "cache", ["--out", str(out)], check=True)
    return out.read_bytes()


def assert_resume_converges(tmp_path, cache, run_id, clean_report):
    """Resume ``run_id``, then check all three recovery invariants."""
    out = tmp_path / "resumed.txt"
    manifest_path = tmp_path / "resumed.json"
    resumed = run_cli(cache, ["--resume", run_id, "--out", str(out),
                              "--manifest", str(manifest_path)])
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_bytes() == clean_report
    manifest = json.loads(manifest_path.read_text())
    gauges = manifest["gauges"]
    assert gauges["resume.tasks_skipped"] >= 1
    assert gauges["resume.tasks_skipped"] + gauges["resume.tasks_replayed"] \
        == len(PROGRAMS)
    counters_match_gauges(manifest)
    verify = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "store", "verify",
         "--cache-dir", str(cache), "--json"],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert json.loads(verify.stdout)["counts"]["corrupt"] == 0
    return gauges


class TestKillAndResume:
    @pytest.mark.parametrize("fault", [
        # 2nd trace save = qcd's: gcc's entries are published, qcd has
        # neither a trace nor a simulation entry.
        "trace.save:crash@2",
        # 2nd sim publish = qcd's: gcc's entry is on disk, qcd's is not.
        "store.publish:crash@2",
    ])
    def test_sigkill_mid_run_then_resume(self, fault, tmp_path,
                                         clean_report):
        cache = tmp_path / "cache"
        crashed = run_cli(cache, ["--run-id", "r1", "--retries", "0",
                                  "--inject-faults", fault])
        assert crashed.returncode == -signal.SIGKILL
        assert sim_entry_ok(cache, "gcc")
        assert not sim_entry_ok(cache, "qcd")
        gauges = assert_resume_converges(tmp_path, cache, "r1", clean_report)
        assert gauges["resume.tasks_skipped"] == 1

    def test_sigkill_on_warm_load_then_resume(self, tmp_path, clean_report):
        # Crash while *reading* a verified entry: the second run dies on
        # qcd's warm load, which leaves both entries intact, so the
        # resumed run loads both.
        cache = tmp_path / "cache"
        run_cli(cache, ["--run-id", "r1"], check=True)
        crashed = run_cli(cache, ["--run-id", "r2", "--retries", "0",
                                  "--inject-faults", "store.load:crash@2"])
        assert crashed.returncode == -signal.SIGKILL
        assert sim_entry_ok(cache, "gcc") and sim_entry_ok(cache, "qcd")
        gauges = assert_resume_converges(tmp_path, cache, "r2", clean_report)
        assert gauges["resume.tasks_skipped"] == 2
        assert gauges["resume.tasks_replayed"] == 0

    def test_resume_gauges_equal_sim_cache_counters(self, tmp_path):
        # The gauges must report what the resumed run did, not what an
        # earlier run managed to record: after a crash on qcd's warm
        # load, both programs load from the store.
        cache = tmp_path / "cache"
        run_cli(cache, ["--run-id", "r1"], check=True)
        run_cli(cache, ["--run-id", "r2", "--retries", "0",
                        "--inject-faults", "store.load:crash@2"])
        manifest_path = tmp_path / "m.json"
        run_cli(cache, ["--resume", "r2", "--manifest", str(manifest_path)],
                check=True)
        manifest = json.loads(manifest_path.read_text())
        counters_match_gauges(manifest)
        assert manifest["counters"]["cache.sim.hits"] == 2

    def test_hard_worker_kill_poisons_siblings_but_resume_converges(
            self, tmp_path, clean_report):
        # A straight SIGKILL breaks the whole pool: with retries
        # exhausted *both* in-flight programs fail and the run exits 6.
        # gcc's worker published its entry before it died, so resume
        # loads gcc and re-executes only what is missing.
        cache = tmp_path / "cache"
        failed = run_cli(cache, ["--run-id", "r1", "--jobs", "2",
                                 "--retries", "0",
                                 "--inject-faults", "worker.mid:crash@gcc"])
        assert failed.returncode == 6, failed.stderr
        assert sim_entry_ok(cache, "gcc")
        assert_resume_converges(tmp_path, cache, "r1", clean_report)

    def test_watchdog_worker_kill_then_resume(self, tmp_path, clean_report):
        # The deterministic hard-worker-kill: gcc's worker hangs after
        # publishing its entry, qcd completes, then the watchdog SIGKILLs
        # the hung worker and retries are exhausted.  Both entries
        # verify, so the resumed run loads both.
        cache = tmp_path / "cache"
        failed = run_cli(
            cache,
            ["--run-id", "r1", "--jobs", "2", "--retries", "0",
             "--worker-timeout", "2",
             "--inject-faults", "worker.mid:hang@gcc"],
            env={"REPRO_FAULT_HANG_S": "6"},
        )
        assert failed.returncode == 4, failed.stderr
        assert "WorkerTimeoutError" in failed.stderr
        assert sim_entry_ok(cache, "gcc") and sim_entry_ok(cache, "qcd")
        gauges = assert_resume_converges(tmp_path, cache, "r1", clean_report)
        assert gauges["resume.tasks_skipped"] == 2


class TestGracefulShutdown:
    def test_sigint_serial(self, tmp_path, clean_report):
        cache = tmp_path / "cache"
        manifest = tmp_path / "m.json"
        proc = run_cli(cache, ["--run-id", "r1", "--retries", "0",
                               "--manifest", str(manifest),
                               "--inject-faults",
                               "store.publish:sigint@qcd"])
        assert proc.returncode == 128 + signal.SIGINT
        assert "exiting 130" in proc.stderr
        # The black box landed next to the manifest on the way out.
        blackbox = tmp_path / "m.blackbox.jsonl"
        assert blackbox.exists()
        categories = {json.loads(line)["category"]
                      for line in blackbox.read_text().splitlines()}
        assert "run.interrupted" in categories
        assert sim_entry_ok(cache, "gcc")
        assert not sim_entry_ok(cache, "qcd")
        assert_resume_converges(tmp_path, cache, "r1", clean_report)

    def test_sigterm_parallel(self, tmp_path, clean_report):
        # SIGTERM the parent while its --jobs 2 pool is live: qcd's
        # worker hangs, and the signal lands once gcc's entry is in the
        # store.  The scheduler's finally must kill the hung worker on
        # the way out to exit 143.
        cache = tmp_path / "cache"
        proc = subprocess.Popen(
            cli_command(cache, ["--run-id", "r1", "--jobs", "2",
                                "--retries", "0", "--inject-faults",
                                "worker.mid:hang@qcd"]),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=cli_env({"REPRO_FAULT_HANG_S": "60"}),
        )
        try:
            deadline = time.monotonic() + 90
            while not sim_entry_ok(cache, "gcc"):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "gcc never published"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert "exiting 143" in stderr
        assert_resume_converges(tmp_path, cache, "r1", clean_report)


def run_main(cache_dir, *extra):
    return main(["table4", "--scale", "smoke", "--programs", *PROGRAMS,
                 "--cache-dir", str(cache_dir), "--quiet", *extra])


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A cache warmed by run ``r1``: both programs' entries verify."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    assert run_main(cache, "--run-id", "r1") == 0
    return cache


class TestResumePlanning:
    """The skip/replay decision, in-process, on prepared stores."""

    @staticmethod
    def shred(cache, program):
        (cache / sim_entry(cache, program)).write_bytes(b"shredded")

    @staticmethod
    def unwrap(cache, program):
        # A bare pre-envelope pickle of the real payload: no digest.
        path = cache / sim_entry(cache, program)
        payload = ResultStore(cache).load_payload(path)
        path.write_bytes(pickle.dumps(payload))

    @staticmethod
    def remove(cache, program):
        (cache / sim_entry(cache, program)).unlink()

    @pytest.mark.parametrize("damage, extra, skipped", [
        ({}, [], ["gcc", "qcd"]),
        ({"qcd": "remove"}, [], ["gcc"]),
        ({"gcc": "remove", "qcd": "remove"}, [], []),
        ({"gcc": "shred"}, [], ["qcd"]),
        ({"gcc": "unwrap"}, [], ["qcd"]),
        ({}, ["--no-cache"], []),
    ], ids=["all-verified", "entry-missing", "all-missing", "corrupt-entry",
            "bare-pickle-entry", "cache-off"])
    def test_gauges_follow_the_store(self, damage, extra, skipped,
                                     warm_store, tmp_path, capsys):
        cache = tmp_path / "cache"
        shutil.copytree(warm_store, cache)
        for program, how in damage.items():
            getattr(self, how)(cache, program)
        manifest_path = tmp_path / "m.json"
        code = run_main(cache, "--resume", "r1", "--manifest",
                        str(manifest_path), *extra)
        capsys.readouterr()
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        gauges = manifest["gauges"]
        assert gauges["resume.tasks_skipped"] == len(skipped)
        assert gauges["resume.tasks_replayed"] \
            == len(PROGRAMS) - len(skipped)
        counters_match_gauges(manifest)
        assert sorted(manifest["cache"]["sim"]["used"]) \
            == sorted(sim_entry(cache, p) for p in skipped)

    def test_resume_event_carries_the_split(self, warm_store, tmp_path,
                                            capsys):
        cache = tmp_path / "cache"
        shutil.copytree(warm_store, cache)
        self.remove(cache, "qcd")
        log = tmp_path / "run.events.jsonl"
        assert run_main(cache, "--resume", "r1", "--events", str(log)) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        (resume,) = [e for e in events if e["category"] == "run.resume"]
        assert resume["data"] == {"run": "r1", "skipped": 1, "replayed": 1}
        assert not any(e["category"].startswith("journal.")
                       for e in events)


class TestResumeCli:
    def test_run_id_writes_one_small_record(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert run_main(cache, "--run-id", "r1") == 0
        capsys.readouterr()
        runs = cache / "runs"
        assert sorted(p.name for p in runs.iterdir()) == ["r1.run.json"]
        assert json.loads((runs / "r1.run.json").read_text()) == {"run": "r1"}

    def test_resume_leaves_the_record_alone(self, warm_store, tmp_path,
                                            capsys):
        cache = tmp_path / "cache"
        shutil.copytree(warm_store, cache)
        record = cache / "runs" / "r1.run.json"
        before = record.read_bytes()
        assert run_main(cache, "--resume", "r1") == 0
        capsys.readouterr()
        assert record.read_bytes() == before
        assert sorted(p.name for p in record.parent.iterdir()) \
            == ["r1.run.json"]

    def test_resume_unknown_run_is_a_usage_error(self, tmp_path, capsys):
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "never-ran", "--quiet"])
        assert code == 2
        assert "no run named 'never-ran'" in capsys.readouterr().err
        assert not (tmp_path / "cache" / "runs" / "never-ran.run.json").exists()

    @pytest.mark.parametrize("content", [
        b"\x80\x04 not json",
        b'{"run": "r1"',
        b'["r1"]',
        b'{"run": "someone-else"}',
        None,
    ], ids=["binary", "torn", "not-an-object", "other-run", "directory"])
    def test_unreadable_run_record_is_a_usage_error(self, content, tmp_path,
                                                    capsys):
        record = tmp_path / "cache" / "runs" / "r1.run.json"
        record.parent.mkdir(parents=True)
        if content is None:
            record.mkdir()
        else:
            record.write_bytes(content)
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "r1", "--quiet"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_runs_dir_is_a_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the runs dir should be")
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-id", "r1", "--runs-dir", str(blocker),
                     "--quiet"])
        assert code == 2
        assert "cannot write run record" in capsys.readouterr().err

    def test_resume_and_run_id_conflict(self, tmp_path):
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "a", "--run-id", "b", "--quiet"])
        assert code == 2

    def test_runs_dir_override(self, tmp_path, capsys):
        runs = tmp_path / "elsewhere"
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-id", "r1", "--runs-dir", str(runs), "--quiet"])
        capsys.readouterr()
        assert code == 0
        assert sorted(p.name for p in runs.iterdir()) == ["r1.run.json"]
        assert not (tmp_path / "cache" / "runs").exists()
        # The record is looked up under --runs-dir only.
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "r1", "--quiet"])
        assert code == 2
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "r1", "--runs-dir", str(runs), "--quiet"])
        capsys.readouterr()
        assert code == 0
