"""Tests for the snapshot file and for slicing it into shard stores."""

import enum
import json
import zipfile

import numpy as np
import pytest

from repro.exceptions import TransportError, ValidationError
from repro.serving import (
    DistanceService,
    ServiceSnapshot,
    load_snapshot,
    save_snapshot,
    shard_of,
    spawn_shard_process,
)
from repro.serving.transport.server import _shard_store_from_snapshot


def make_snapshot(ids, dimension=3, seed=0) -> ServiceSnapshot:
    rng = np.random.default_rng(seed)
    return ServiceSnapshot(
        ids=list(ids),
        outgoing=rng.random((len(ids), dimension)),
        incoming=rng.random((len(ids), dimension)),
        landmark_ids=list(ids)[:2],
    )


def write_raw(path, ids, outgoing, incoming, landmark_ids=()):
    """A hand-written archive, bypassing every check of save_snapshot."""
    header = {
        "format_version": 1,
        "ids": ids,
        "landmark_ids": list(landmark_ids),
    }
    np.savez(
        path,
        header=np.array(json.dumps(header)),
        outgoing=outgoing,
        incoming=incoming,
    )
    return path


class _Color(enum.IntEnum):
    RED = 7


class _Name(str):
    pass


class TestFormat:
    def test_members_are_stored_not_deflated(self, tmp_path):
        snapshot = make_snapshot(range(50))
        path = save_snapshot(snapshot, tmp_path / "s.npz")
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {member.filename for member in members} == {
            "header.npy",
            "outgoing.npy",
            "incoming.npy",
        }
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
        loaded = load_snapshot(path)
        assert loaded.ids == snapshot.ids
        assert loaded.landmark_ids == snapshot.landmark_ids
        np.testing.assert_array_equal(loaded.outgoing, snapshot.outgoing)
        np.testing.assert_array_equal(loaded.incoming, snapshot.incoming)

    def test_accepts_str_and_int_subclasses(self, tmp_path):
        ids = ["a", 3, True, _Color.RED, _Name("n")]
        path = save_snapshot(make_snapshot(ids), tmp_path / "s.npz")
        assert load_snapshot(path).ids == ["a", 3, True, 7, "n"]

    @pytest.mark.parametrize("bad", [1.5, None], ids=repr)
    def test_rejects_other_ids_by_name(self, bad, tmp_path):
        snapshot = ServiceSnapshot(
            ids=["a", bad, "c"],
            outgoing=np.zeros((3, 2)),
            incoming=np.zeros((3, 2)),
            landmark_ids=["a"],
        )
        with pytest.raises(ValidationError, match="ids contains"):
            save_snapshot(snapshot, tmp_path / "s.npz")
        assert not (tmp_path / "s.npz").exists()


class TestOneRowPerHost:
    """A snapshot names each host once: save, load, the service and a
    shard's boot all refuse a repeated id."""

    def test_saving_a_repeated_id_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicates"):
            save_snapshot(make_snapshot([1, 2, 1]), tmp_path / "s.npz")
        assert not (tmp_path / "s.npz").exists()

    def test_loading_a_repeated_id_raises(self, tmp_path):
        path = write_raw(
            tmp_path / "dup.npz", [1, 2, 1], np.eye(3), np.eye(3), [1]
        )
        with pytest.raises(ValidationError, match="duplicates"):
            load_snapshot(path)
        with pytest.raises(ValidationError, match="duplicates"):
            DistanceService.load(path)

    def test_a_shard_refuses_to_boot_from_a_repeated_id(self, tmp_path):
        path = write_raw(
            tmp_path / "dup.npz", [1, 2, 1], np.eye(3), np.eye(3), [1]
        )
        with pytest.raises(TransportError, match="died during startup"):
            spawn_shard_process(0, 1, snapshot_path=str(path))


class TestShardBoot:
    """Each shard keeps exactly the hosts shard_of maps to it, in
    snapshot order, so its rows (and k-NN tie order) follow the file."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_slices_partition_the_snapshot_in_order(self, n_shards, tmp_path):
        ids = [f"h{i}" for i in range(40)] + list(range(20))
        snapshot = make_snapshot(ids)
        path = save_snapshot(snapshot, tmp_path / "s.npz")
        seen = []
        for shard in range(n_shards):
            store = _shard_store_from_snapshot(str(path), shard, n_shards)
            kept, outgoing, incoming = store.export()
            rows = [
                row for row, i in enumerate(ids) if shard_of(i, n_shards) == shard
            ]
            assert kept == [ids[row] for row in rows]
            np.testing.assert_array_equal(outgoing, snapshot.outgoing[rows])
            np.testing.assert_array_equal(incoming, snapshot.incoming[rows])
            seen.extend(kept)
        assert sorted(map(repr, seen)) == sorted(map(repr, ids))

    def test_a_shard_with_no_hosts_boots_empty(self, tmp_path):
        path = save_snapshot(make_snapshot(["a", "b"]), tmp_path / "s.npz")
        empty = next(
            shard
            for shard in range(8)
            if shard not in {shard_of("a", 8), shard_of("b", 8)}
        )
        store = _shard_store_from_snapshot(str(path), empty, 8)
        assert len(store) == 0 and store.dimension == 3
