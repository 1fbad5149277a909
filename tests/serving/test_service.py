"""Tests for the DistanceService facade (end-to-end serving layer)."""

import json

import numpy as np
import pytest

from repro.core import FactoredDistanceModel, ServiceHealth
from repro.exceptions import ValidationError
from repro.ides import HostVectors, IDESSystem, InformationServer
from repro.serving import DistanceService, load_snapshot

from ..conftest import make_low_rank_matrix


@pytest.fixture
def fitted_system():
    """IDES fitted on an exact rank-3 world: 8 landmarks + 12 hosts."""
    matrix = make_low_rank_matrix(20, 20, 3, seed=5)
    landmark_matrix = matrix[:8, :8]
    out_distances = matrix[8:, :8]
    in_distances = matrix[:8, 8:]
    system = IDESSystem(dimension=3, method="svd")
    system.fit_landmarks(landmark_matrix)
    system.place_hosts(out_distances, in_distances)
    return matrix, system


@pytest.fixture
def service(fitted_system):
    _, system = fitted_system
    return system.to_service(host_ids=[f"h{i}" for i in range(12)])


class TestConstruction:
    def test_from_ides_imports_landmarks_and_hosts(self, service):
        assert service.n_hosts == 20
        assert len(service.landmark_ids) == 8
        assert "h3" in service and 0 in service

    def test_from_ides_rejects_id_mismatch(self, fitted_system):
        _, system = fitted_system
        with pytest.raises(ValidationError):
            system.to_service(host_ids=["only-one"])

    def test_from_ides_rejects_id_collision(self, fitted_system):
        _, system = fitted_system
        with pytest.raises(ValidationError):
            system.to_service(host_ids=list(range(12)))  # collides with 0..7

    def test_from_server(self):
        landmark_matrix = make_low_rank_matrix(6, 6, 3, seed=1)
        server = InformationServer(dimension=3)
        server.fit_landmarks(landmark_matrix)
        server.register_host("extra", HostVectors(np.ones(3), np.ones(3)))
        service = server.to_service()
        assert service.n_hosts == 7
        assert service.landmark_ids == list(range(6))

    def test_needs_a_dimension(self):
        with pytest.raises(TypeError):
            DistanceService()

    def test_duplicate_host_ids_rejected(self):
        with pytest.raises(ValidationError):
            DistanceService.from_vectors(
                ["a", "a"], np.ones((2, 3)), np.ones((2, 3))
            )


class TestBatchedEqualsPairwise:
    """Acceptance: batched predictions match the factored model exactly."""

    def test_many_to_many_matches_model_pairwise(self, fitted_system, service):
        _, system = fitted_system
        host_out, host_in = system.host_vectors()
        model = FactoredDistanceModel(outgoing=host_out, incoming=host_in)
        ids = [f"h{i}" for i in range(12)]
        block = service.query_many_to_many(ids, ids)
        for i in range(12):
            for j in range(12):
                assert block[i, j] == pytest.approx(model.predict(i, j), abs=1e-9)

    def test_many_to_many_matches_predict_between(self, fitted_system, service):
        _, system = fitted_system
        rows, cols = [0, 5, 11], [2, 3]
        block = service.query_many_to_many(
            [f"h{i}" for i in rows], [f"h{j}" for j in cols]
        )
        np.testing.assert_array_equal(block, system.predict_between(rows, cols))

    def test_point_query_matches_batch(self, service):
        block = service.query_many_to_many(["h1"], ["h2"])
        assert service.query("h1", "h2") == pytest.approx(block[0, 0])


class TestIncrementalRegistration:
    """Acceptance: hosts registered after the fit are served without
    refactoring the landmark matrix."""

    def test_late_host_matches_batch_placement(self, fitted_system):
        matrix, system = fitted_system
        # Service starts with landmarks only.
        service = IDESSystem(dimension=3, method="svd")
        service.fit_landmarks(matrix[:8, :8])
        online = service.to_service()
        assert online.n_hosts == 8

        # Register the 12 ordinary hosts one at a time from measurements.
        for i in range(12):
            online.register_host(
                f"h{i}", matrix[8 + i, :8], matrix[:8, 8 + i]
            )
        assert online.n_hosts == 20

        # Predictions equal the batch-placed system's, pair by pair.
        ids = [f"h{i}" for i in range(12)]
        incremental = online.query_many_to_many(ids, ids)
        batch = system.predict_matrix()
        np.testing.assert_allclose(incremental, batch, rtol=1e-8, atol=1e-8)

    def test_registration_against_ordinary_references(self, fitted_system):
        matrix, system = fitted_system
        service = system.to_service(host_ids=[f"h{i}" for i in range(12)])
        # Relaxed architecture: measure a mixed reference pool, not
        # necessarily the landmarks.
        references = [0, 1, 2, "h0", "h1", "h2"]
        ref_out, ref_in = service.store.gather(references)
        truth_out = matrix[3, [0, 1, 2, 8, 9, 10]]  # pretend new host = host 3's row
        truth_in = matrix[[0, 1, 2, 8, 9, 10], 3]
        vectors = service.register_host(
            "late", truth_out, truth_in, reference_ids=references
        )
        assert vectors.dimension == 3
        assert "late" in service
        assert np.isfinite(service.query("late", "h5"))

    def test_register_requires_references(self):
        service = DistanceService(dimension=3)
        with pytest.raises(ValidationError):
            service.register_host("a", np.ones(4), np.ones(4))

    def test_self_reference_rejected(self, service):
        with pytest.raises(ValidationError):
            service.register_host("h0", np.ones(3), reference_ids=["h0", 0, 1])

    def test_symmetric_default_in_distances(self, fitted_system):
        matrix, _ = fitted_system
        service = DistanceService(dimension=3)
        model = IDESSystem(dimension=3)
        model.fit_landmarks(matrix[:8, :8])
        warm = model.to_service()
        vectors = warm.register_host("sym", matrix[8, :8])
        both = warm.register_host("asym", matrix[8, :8], matrix[8, :8])
        np.testing.assert_allclose(vectors.outgoing, both.outgoing)


class TestCacheIntegration:
    def test_point_queries_hit_cache(self, service):
        first = service.query("h0", "h1")
        second = service.query("h0", "h1")
        assert first == second
        stats = service.cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert service.engine.pairs_evaluated == 1  # second hit never reached engine

    def test_reregistration_invalidates_cached_pairs(self, service):
        stale = service.query("h0", "h1")
        service.register_vectors(
            "h0", HostVectors(np.zeros(3), np.zeros(3))
        )
        fresh = service.query("h0", "h1")
        assert fresh == pytest.approx(0.0)
        assert fresh != stale

    def test_populate_cache_from_batch(self, service):
        ids = [f"h{i}" for i in range(1, 6)]
        values = service.query_one_to_many("h0", ids, populate_cache=True)
        for host_id, value in zip(ids, values):
            assert service.query("h0", host_id) == pytest.approx(float(value))
        assert service.cache.stats().hits == len(ids)


class TestEviction:
    def test_evict_ordinary_host(self, service):
        assert service.evict_host("h7") is True
        assert "h7" not in service
        assert service.evict_host("h7") is False
        with pytest.raises(ValidationError):
            service.query("h7", "h0")

    def test_evicted_pairs_leave_cache(self, service):
        service.query("h7", "h0")
        service.evict_host("h7")
        assert ("h7", "h0") not in service.cache

    def test_landmarks_cannot_be_evicted(self, service):
        with pytest.raises(ValidationError):
            service.evict_host(0)


class TestSnapshot:
    def test_save_load_roundtrip(self, service, tmp_path):
        path = service.save(tmp_path / "svc.npz")
        reloaded = DistanceService.load(path)
        assert reloaded.n_hosts == service.n_hosts
        assert sorted(map(str, reloaded.landmark_ids)) == sorted(
            map(str, service.landmark_ids)
        )
        ids = [f"h{i}" for i in range(12)]
        np.testing.assert_allclose(
            reloaded.query_many_to_many(ids, ids),
            service.query_many_to_many(ids, ids),
        )

    def test_loads_snapshots_that_carry_a_shard_count(self, service, tmp_path):
        """Older writers added the store's shard count to the header;
        such files still load, and new ones no longer carry the key."""
        ids, outgoing, incoming = service.store.export()
        header = {
            "format_version": 1,
            "ids": ids,
            "landmark_ids": service.landmark_ids,
            "n_shards": 4,
        }
        path = tmp_path / "with-shards.npz"
        np.savez_compressed(
            path,
            header=np.array(json.dumps(header)),
            outgoing=outgoing,
            incoming=incoming,
        )
        snapshot = load_snapshot(path)
        assert snapshot.ids == ids
        np.testing.assert_array_equal(snapshot.outgoing, outgoing)
        np.testing.assert_array_equal(snapshot.incoming, incoming)
        reloaded = DistanceService.load(path)
        reloaded_ids, reloaded_out, reloaded_in = reloaded.store.export()
        assert reloaded_ids == ids
        np.testing.assert_array_equal(reloaded_out, outgoing)
        np.testing.assert_array_equal(reloaded_in, incoming)
        assert reloaded.landmark_ids == service.landmark_ids
        assert reloaded.k_nearest("h3", 5) == service.k_nearest("h3", 5)

        saved = service.save(tmp_path / "new.npz")
        with np.load(saved) as archive:
            assert "n_shards" not in json.loads(str(archive["header"]))

    def test_snapshot_rejects_unserializable_ids(self, tmp_path):
        service = DistanceService(dimension=2)
        service.register_vectors(("tuple", "id"), HostVectors(np.ones(2), np.ones(2)))
        with pytest.raises(ValidationError):
            service.save(tmp_path / "bad.npz")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            DistanceService.load(tmp_path / "nope.npz")

    def test_load_rejects_non_snapshot_file(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_text("not an archive")
        with pytest.raises(ValidationError):
            DistanceService.load(junk)

    def test_save_without_npz_suffix_reports_real_path(self, service, tmp_path):
        # A stale file at the extension-less name must not confuse save().
        (tmp_path / "snap").write_text("stale")
        path = service.save(tmp_path / "snap")
        assert path.name == "snap.npz"
        assert DistanceService.load(path).n_hosts == service.n_hosts

    def test_registration_survives_reload(self, fitted_system, tmp_path):
        matrix, _ = fitted_system
        system = IDESSystem(dimension=3)
        system.fit_landmarks(matrix[:8, :8])
        service = system.to_service()
        path = service.save(tmp_path / "landmarks.npz")
        reloaded = DistanceService.load(path)
        reloaded.register_host("new", matrix[8, :8], matrix[:8, 8])
        assert np.isfinite(reloaded.query("new", 0))


class TestHealth:
    def test_health_reports_counters(self, service):
        service.query("h0", "h1")
        service.query("h0", "h1")
        service.query_many_to_many(["h0", "h1"], ["h2", "h3"])
        health = service.health()
        assert isinstance(health, ServiceHealth)
        assert health.n_hosts == 20
        assert health.n_landmarks == 8
        assert health.queries_served == 2  # cache absorbed the repeat
        assert health.pairs_evaluated == 1 + 4
        assert health.cache_hit_rate == pytest.approx(0.5)
        assert health.n_shards == 0 and health.shard_occupancy == ()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestQueryPairs:
    def test_matches_pointwise(self, service):
        sources = ["h0", "h3", 2]
        destinations = [1, "h5", "h0"]
        values = service.query_pairs(sources, destinations)
        for (s, d), value in zip(zip(sources, destinations), values):
            assert value == pytest.approx(service.engine.point(s, d))

    def test_bypasses_cache(self, service):
        service.query_pairs(["h0"], ["h1"])
        assert len(service.cache) == 0


class TestInjectableClock:
    def test_service_ttl_expires_without_sleeping(self, fitted_system):
        _, system = fitted_system
        clock = FakeClock()
        service = system.to_service(
            host_ids=[f"h{i}" for i in range(12)],
            cache_ttl=30.0,
            clock=clock,
        )
        service.query("h0", "h1")
        clock.advance(29.0)
        service.query("h0", "h1")
        assert service.cache.stats().hits == 1
        clock.advance(2.0)  # past the TTL: deterministic expiry
        service.query("h0", "h1")
        stats = service.cache.stats()
        assert stats.expirations == 1
        assert stats.hits == 1

    def test_vector_ages_advance_with_clock(self, fitted_system):
        _, system = fitted_system
        clock = FakeClock()
        service = system.to_service(
            host_ids=[f"h{i}" for i in range(12)], clock=clock
        )
        clock.advance(10.0)
        health = service.health()
        assert health.max_vector_age_seconds == pytest.approx(10.0)
        assert health.mean_vector_age_seconds == pytest.approx(10.0)
        service.register_vectors("h0", HostVectors(np.ones(3), np.ones(3)))
        health = service.health()
        assert health.mean_vector_age_seconds < 10.0
        assert health.max_vector_age_seconds == pytest.approx(10.0)


class TestBulkRefreshUpdates:
    def test_apply_vector_updates_rewrites_store(self, service):
        fresh_out = np.full((2, 3), 7.0)
        fresh_in = np.full((2, 3), 9.0)
        assert service.apply_vector_updates(["h0", "h1"], fresh_out, fresh_in) == 2
        np.testing.assert_array_equal(service.store.get("h0").outgoing, 7.0)
        np.testing.assert_array_equal(service.store.get("h1").incoming, 9.0)

    def test_apply_vector_updates_invalidates_only_touched_hosts(self, service):
        service.query("h0", "h1")
        service.query("h2", "h3")
        assert len(service.cache) == 2
        service.apply_vector_updates(
            ["h0"], np.ones((1, 3)), np.ones((1, 3))
        )
        assert service.cache.get("h2", "h3") is not None
        assert ("h0", "h1") not in service.cache

    def test_apply_vector_updates_rejects_unknown_hosts(self, service):
        with pytest.raises(ValidationError):
            service.apply_vector_updates(
                ["ghost"], np.ones((1, 3)), np.ones((1, 3))
            )

    def test_refresh_counters_and_staleness(self, fitted_system):
        _, system = fitted_system
        clock = FakeClock()
        service = system.to_service(
            host_ids=[f"h{i}" for i in range(12)], clock=clock
        )
        assert service.health().seconds_since_refresh is None
        clock.advance(100.0)
        service.apply_vector_updates(
            ["h0", "h1"], np.ones((2, 3)), np.ones((2, 3))
        )
        clock.advance(5.0)
        health = service.health()
        assert health.vectors_refreshed == 2
        assert health.refresh_batches == 1
        assert health.seconds_since_refresh == pytest.approx(5.0)
        assert health.max_vector_age_seconds == pytest.approx(105.0)
        assert "refreshed=2" in str(health)

    def test_eviction_clears_staleness_stamp(self, fitted_system):
        _, system = fitted_system
        clock = FakeClock()
        service = system.to_service(
            host_ids=[f"h{i}" for i in range(12)], clock=clock
        )
        clock.advance(50.0)
        service.register_vectors("h0", HostVectors(np.ones(3), np.ones(3)))
        service.evict_host("h0")
        health = service.health()
        # every remaining stamp dates from construction
        assert health.max_vector_age_seconds == pytest.approx(50.0)
        assert health.mean_vector_age_seconds == pytest.approx(50.0)


class TestEpochGuardedCachePuts:
    """A value computed from pre-refresh vectors must never be cached
    after the refresh's invalidation already ran."""

    def test_stale_epoch_put_is_rejected(self, service):
        epoch = service.write_epoch
        value = service.engine.point("h0", "h1")
        service.apply_vector_updates(["h0"], np.ones((1, 3)), np.ones((1, 3)))
        assert not service.cache_put_if_current(epoch, "h0", "h1", value)
        assert service.cache.get("h0", "h1") is None

    def test_current_epoch_put_is_stored(self, service):
        epoch = service.write_epoch
        assert service.cache_put_if_current(epoch, "h0", "h1", 4.5)
        assert service.cache.get("h0", "h1") == 4.5

    def test_bulk_put_all_or_nothing(self, service):
        epoch = service.write_epoch
        service.evict_host("h11")  # bumps the epoch
        stored = service.cache_put_many_if_current(
            epoch, [("h0", "h1", 1.0), ("h2", "h3", 2.0)]
        )
        assert stored == 0
        assert len(service.cache) == 0

    def test_every_write_path_bumps_the_epoch(self, service):
        epoch = service.write_epoch
        service.register_vectors("h0", HostVectors(np.ones(3), np.ones(3)))
        assert service.write_epoch == epoch + 1
        service.apply_vector_updates(["h1"], np.ones((1, 3)), np.ones((1, 3)))
        assert service.write_epoch == epoch + 2
        service.evict_host("h2")
        assert service.write_epoch == epoch + 3
        service.evict_host("absent")  # no-op: epoch unchanged
        assert service.write_epoch == epoch + 3

    def test_query_skips_caching_across_a_refresh(self, service, monkeypatch):
        """Simulate the race: the refresh lands while query() computes."""
        real_point = service.engine.point

        def refresh_mid_compute(source_id, destination_id):
            value = real_point(source_id, destination_id)
            service.apply_vector_updates(
                [source_id], np.zeros((1, 3)), np.zeros((1, 3))
            )
            return value

        monkeypatch.setattr(service.engine, "point", refresh_mid_compute)
        service.query("h0", "h1")
        # the stale value must not have been cached
        assert service.cache.get("h0", "h1") is None
