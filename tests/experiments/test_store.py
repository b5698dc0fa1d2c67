"""Result store: envelope integrity, one entry format, verify/gc surface.

Every simulation payload travels inside a v3 envelope carrying a
SHA-256 of its pickled bytes; these tests pin the publish/load contract
(atomic, self-verifying, and nothing else loads: a bare pre-envelope
pickle is corrupt) and the maintenance surface behind ``store verify`` /
``store gc``.
"""

from __future__ import annotations

import pickle
import zipfile

import numpy as np
import pytest

from repro import observe
from repro.errors import StoreCorruptError
from repro.experiments.store import (
    STATUS_CORRUPT,
    STATUS_NPZ,
    STATUS_OTHER,
    STATUS_TMP,
    STATUS_V3,
    ResultStore,
    payload_digest,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path)


def publish(store, name="entry.pkl", payload=None):
    payload = payload if payload is not None else {"stats": {"a": 1}}
    digest = store.publish_payload(store.root / name, payload, program="gcc")
    return store.root / name, payload, digest


class TestPublishLoad:
    def test_roundtrip_and_digest(self, store):
        path, payload, digest = publish(store)
        assert store.load_payload(path, program="gcc") == payload
        assert digest == payload_digest(pickle.dumps(payload))

    def test_envelope_on_disk_names_its_entry(self, store):
        path, _, digest = publish(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        assert envelope["format"] == "repro-store"
        assert envelope["version"] == 3
        assert envelope["algo"] == "sha256"
        assert envelope["entry"] == path.name
        assert envelope["digest"] == digest

    def test_tampered_payload_detected(self, store):
        path, _, _ = publish(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["payload"] = pickle.dumps({"stats": {"a": 2}})
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(StoreCorruptError, match="digest mismatch"):
            store.load_payload(path)

    def test_misplaced_blob_detected(self, store):
        # An entry copied under another entry's name must not pass for it.
        path, _, _ = publish(store, name="a.pkl")
        moved = store.root / "b.pkl"
        moved.write_bytes(path.read_bytes())
        with pytest.raises(StoreCorruptError, match="different entry"):
            store.load_payload(moved)

    def test_bare_payload_reads_as_corrupt(self, store):
        # A pickle written before the envelope existed carries no digest,
        # so it is not a store entry: loading it fails like a torn blob
        # and the pipeline recomputes it as a miss.
        path = store.root / "bare.pkl"
        path.write_bytes(pickle.dumps({"stats": {"b": 2}}))
        with pytest.raises(StoreCorruptError, match="not a store envelope"):
            store.load_payload(path)

    @pytest.mark.parametrize("obj", [
        ["format", "repro-store"],
        {"format": "something-else", "payload": b""},
        None,
    ], ids=["list", "foreign-format", "none"])
    def test_non_envelope_pickles_read_as_corrupt(self, store, obj):
        path = store.root / "odd.pkl"
        path.write_bytes(pickle.dumps(obj))
        with pytest.raises(StoreCorruptError, match="not a store envelope"):
            store.load_payload(path)
        assert not store.entry_ok("odd.pkl")

    def test_unsupported_envelope_version_detected(self, store):
        path, _, _ = publish(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["version"] = 2
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(StoreCorruptError, match="envelope version"):
            store.load_payload(path)

    def test_load_counts_only_verified_entries(self, store):
        path, payload, _ = publish(store)
        bare = store.root / "bare.pkl"
        bare.write_bytes(pickle.dumps(payload))
        observe.reset()
        observe.enable()
        try:
            store.load_payload(path)
            with pytest.raises(StoreCorruptError):
                store.load_payload(bare)
            counters = observe.get_registry().snapshot()["counters"]
        finally:
            observe.disable()
            observe.reset()
        assert counters["store.loaded"] == 1
        assert not any("legacy" in name for name in counters)

    def test_publish_leaves_no_temp_droppings(self, store):
        publish(store)
        assert not list(store.root.glob("*.tmp"))


class TestVerify:
    def test_statuses(self, store, tmp_path):
        publish(store, name="good.pkl")
        (tmp_path / "bare.pkl").write_bytes(pickle.dumps({"stats": {}}))
        (tmp_path / "torn.pkl").write_bytes(b"\x80\x04 torn mid-write")
        (tmp_path / "drop.pkl.abc123.tmp").write_bytes(b"half")
        (tmp_path / "README").write_text("not a store entry")
        np.savez(tmp_path / "trace.npz", col=np.arange(4))
        report = store.verify()
        by_name = {entry.name: entry.status for entry in report.entries}
        assert by_name["good.pkl"] == STATUS_V3
        assert by_name["bare.pkl"] == STATUS_CORRUPT
        assert by_name["torn.pkl"] == STATUS_CORRUPT
        assert by_name["drop.pkl.abc123.tmp"] == STATUS_TMP
        assert by_name["README"] == STATUS_OTHER
        assert by_name["trace.npz"] == STATUS_NPZ
        assert report.count(STATUS_CORRUPT) == 2
        assert [entry.name for entry in report.corrupt] \
            == ["bare.pkl", "torn.pkl"]
        assert "legacy" not in report.to_dict()["counts"]

    def test_truncated_npz_is_corrupt(self, store, tmp_path):
        np.savez(tmp_path / "trace.npz", col=np.arange(1000))
        blob = (tmp_path / "trace.npz").read_bytes()
        (tmp_path / "trace.npz").write_bytes(blob[: len(blob) // 2])
        (report_entry,) = store.verify().entries
        assert report_entry.status == STATUS_CORRUPT

    def test_flipped_bit_inside_npz_is_corrupt(self, store, tmp_path):
        np.savez(tmp_path / "trace.npz", col=np.zeros(4096, dtype=np.int64))
        blob = bytearray((tmp_path / "trace.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip inside the member data
        (tmp_path / "trace.npz").write_bytes(bytes(blob))
        (report_entry,) = store.verify().entries
        assert report_entry.status == STATUS_CORRUPT
        # ... and the container agrees it is damaged.
        with pytest.raises(Exception):
            with zipfile.ZipFile(tmp_path / "trace.npz") as archive:
                if archive.testzip() is not None:
                    raise ValueError("CRC failure")
                np.load(tmp_path / "trace.npz")["col"]

    def test_runs_subdir_left_alone(self, store, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "r1.run.json").write_text('{"run": "r1"}\n')
        assert store.verify().entries == []

    def test_entry_ok(self, store, tmp_path):
        path, _, _ = publish(store, name="good.pkl")
        (tmp_path / "bare.pkl").write_bytes(pickle.dumps({"stats": {}}))
        (tmp_path / "torn.pkl").write_bytes(b"torn")
        assert store.entry_ok("good.pkl")
        assert not store.entry_ok("bare.pkl")
        assert not store.entry_ok("torn.pkl")
        assert not store.entry_ok("absent.pkl")


class TestGc:
    def fill(self, store, tmp_path):
        publish(store, name="good.pkl")
        (tmp_path / "torn.pkl").write_bytes(b"torn")
        (tmp_path / "drop.pkl.abc123.tmp").write_bytes(b"half")

    def test_dry_run_removes_nothing(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc(dry_run=True)
        assert sorted(result["removed"]) == ["drop.pkl.abc123.tmp", "torn.pkl"]
        assert (tmp_path / "torn.pkl").exists()

    def test_gc_removes_tmp_and_corrupt_only(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc()
        assert sorted(result["removed"]) == ["drop.pkl.abc123.tmp", "torn.pkl"]
        assert result["kept"] == ["good.pkl"]
        assert (tmp_path / "good.pkl").exists()
        assert not (tmp_path / "torn.pkl").exists()
        assert not (tmp_path / "drop.pkl.abc123.tmp").exists()

    def test_gc_removes_bare_pickles(self, store, tmp_path):
        publish(store, name="good.pkl")
        (tmp_path / "bare.pkl").write_bytes(pickle.dumps({"stats": {}}))
        result = store.gc()
        assert result["removed"] == ["bare.pkl"]
        assert result["kept"] == ["good.pkl"]
