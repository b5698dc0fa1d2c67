"""CLI surface of the flight recorder: --events, the events subcommand,
the black-box dump, and the graceful trend/diff degenerate cases."""

from __future__ import annotations

import json

import pytest

from repro import faults, observe
from repro.experiments.cli import (
    EXIT_OK,
    EXIT_PIPELINE,
    main as cli_main,
)
from repro.observe.history import HistoryRecord


@pytest.fixture(autouse=True)
def restore_observe_state():
    """CLI runs flip process-global observation; put it all back."""
    was_observing = observe.is_enabled()
    yield
    faults.clear_plan()
    observe.reset()
    observe.disable_events()
    if was_observing:
        observe.enable()
    else:
        observe.disable()


def _run_cli(tmp_path, *extra):
    argv = [
        "table4", "--scale", "smoke", "--programs", "gcc",
        "--cache-dir", str(tmp_path / "cache"), "--quiet",
    ]
    argv.extend(extra)
    return cli_main(argv)


class TestEventsFlag:
    def test_events_log_validates_and_correlates(self, tmp_path, capsys):
        log = tmp_path / "run.events.jsonl"
        manifest_path = tmp_path / "run.json"
        code = _run_cli(tmp_path, "--events", str(log),
                        "--manifest", str(manifest_path))
        assert code == EXIT_OK
        capsys.readouterr()

        events = observe.load_event_log(log, allow_multiple_runs=False)
        categories = [e["category"] for e in events]
        assert categories[0] == "run.start"
        assert categories[-1] == "run.done"
        assert "program.start" in categories
        assert "program.done" in categories
        assert {"cache.hit", "cache.miss"} & set(categories)

        manifest = observe.load_manifest(manifest_path)
        assert manifest.events is not None
        assert manifest.events["run_id"] == events[0]["run_id"]
        assert manifest.events["log"] == str(log)
        # run.done lands after the manifest snapshot, hence the >=.
        assert manifest.events["emitted"] >= len(events) - 1

    def test_observing_without_events_flag_still_arms_recorder(
            self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        code = _run_cli(tmp_path, "--manifest", str(manifest_path))
        assert code == EXIT_OK
        capsys.readouterr()
        manifest = observe.load_manifest(manifest_path)
        assert manifest.events is not None
        assert manifest.events["log"] is None

    def test_plain_run_keeps_events_off(self, tmp_path, capsys):
        observe.disable_events()
        assert _run_cli(tmp_path) == EXIT_OK
        capsys.readouterr()
        assert not observe.events_enabled()


class TestBlackBox:
    def test_written_next_to_manifest_on_failure_exit(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        code = _run_cli(
            tmp_path, "--manifest", str(manifest_path),
            "--retries", "0",
            "--inject-faults", "cache.write:fatal@gcc",
        )
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        blackbox = tmp_path / "run.blackbox.jsonl"
        assert blackbox.exists()
        assert "black box" in err
        events = observe.load_event_log(blackbox, allow_multiple_runs=False)
        categories = [e["category"] for e in events]
        assert "fault.triggered" in categories
        assert "program.failed" in categories
        assert categories[-1] == "run.done"
        (done,) = [e for e in events if e["category"] == "run.done"]
        assert done["data"]["code"] == EXIT_PIPELINE

    def test_named_after_events_log_without_manifest(self, tmp_path, capsys):
        log = tmp_path / "chaos.jsonl"
        code = _run_cli(
            tmp_path, "--events", str(log), "--retries", "0",
            "--inject-faults", "cache.write:fatal@gcc",
        )
        assert code == EXIT_PIPELINE
        capsys.readouterr()
        assert (tmp_path / "chaos.blackbox.jsonl").exists()

    @pytest.mark.parametrize("runs_dir", [None, "runs-here"])
    def test_fallback_lands_in_runs_dir_not_cwd(self, tmp_path, capsys,
                                                monkeypatch, runs_dir):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        extra = ["--metrics", "--retries", "0",
                 "--inject-faults", "cache.write:fatal@gcc"]
        if runs_dir:
            extra += ["--runs-dir", str(tmp_path / runs_dir)]
        assert _run_cli(tmp_path, *extra) == EXIT_PIPELINE
        capsys.readouterr()
        assert list(cwd.iterdir()) == []
        runs = tmp_path / runs_dir if runs_dir else tmp_path / "cache" / "runs"
        assert (runs / "repro.blackbox.jsonl").exists()

    def test_not_written_on_success(self, tmp_path, capsys):
        log = tmp_path / "ok.jsonl"
        assert _run_cli(tmp_path, "--events", str(log)) == EXIT_OK
        capsys.readouterr()
        assert not (tmp_path / "ok.blackbox.jsonl").exists()


class TestEventsSubcommand:
    @pytest.fixture()
    def event_log(self, tmp_path, capsys):
        log = tmp_path / "run.events.jsonl"
        assert _run_cli(tmp_path, "--events", str(log)) == EXIT_OK
        capsys.readouterr()
        return log

    def test_plain_listing(self, event_log, capsys):
        assert cli_main(["events", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out and "run.done" in out
        assert "event(s)" in out

    def test_severity_filter(self, event_log, capsys):
        assert cli_main(["events", str(event_log),
                         "--severity", "WARNING"]) == 0
        out = capsys.readouterr().out
        assert "run.start" not in out  # INFO filtered away

    def test_category_prefix_and_tail(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--category", "cache",
                         "--tail", "1"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(body) == 1
        assert "cache." in body[0]

    def test_worker_filter_selects_parent(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--worker", ""]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out

    def test_json_output_roundtrips(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--json"]) == 0
        out = capsys.readouterr().out
        parsed = [json.loads(line) for line in out.splitlines() if line]
        assert parsed and all("category" in e for e in parsed)

    def test_time_range_filter(self, event_log, capsys):
        assert cli_main(["events", str(event_log),
                         "--since", "0", "--until", "1e9"]) == 0
        assert "run.start" in capsys.readouterr().out

    def test_missing_log_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["events", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_log_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "an event"}\n{"v": 1}\n', encoding="utf-8")
        assert cli_main(["events", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_log_is_friendly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["events", str(empty)]) == 0
        assert "empty" in capsys.readouterr().out


def _history_record(digest, seconds):
    return HistoryRecord(
        timestamp="2026-08-08T00:00:00+00:00", target="table4",
        manifest_digest=digest, env_digest="e",
        headline={"total_stage_seconds": seconds},
    )


def _write_history(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


class TestGracefulTrendAndDiff:
    def test_trend_empty_history(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert cli_main(["trend", "--history", str(missing)]) == 0
        assert "history is empty" in capsys.readouterr().out

    def test_trend_single_record_notes_it(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        _write_history(path, [_history_record("abc", 1.5)])
        assert cli_main(["trend", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "only one run recorded" in out

    def test_diff_history_empty_and_single_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        path.write_text("", encoding="utf-8")
        assert cli_main(["diff", "--history", str(path)]) == 0
        assert "nothing to compare" in capsys.readouterr().out
        _write_history(path, [_history_record("abc", 1.5)])
        assert cli_main(["diff", "--history", str(path)]) == 0
        assert "only one record" in capsys.readouterr().out

    def test_diff_history_compares_last_two(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        _write_history(path, [
            _history_record("aaa", 1.0),
            _history_record("bbb", 1.5),
            _history_record("ccc", 3.0),
        ])
        assert cli_main(["diff", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bbb -> ccc" in out
        assert "+100.0%" in out

    def test_diff_hints_when_given_a_history_file(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        _write_history(path, [_history_record("abc", 1.5)])
        assert cli_main(["diff", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert "hint" in err and "--history" in err

    def test_diff_needs_two_manifests_or_history(self, capsys):
        assert cli_main(["diff"]) == 2
        assert "two manifest files" in capsys.readouterr().err

    def test_diff_rejects_mixing_history_and_manifests(self, tmp_path, capsys):
        assert cli_main(["diff", "a.json", "b.json",
                         "--history", "h.json"]) == 2
        assert "one or the other" in capsys.readouterr().err
