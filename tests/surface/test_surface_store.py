"""Tests for the YieldSurface artifact, persistence and the store."""

import json

import numpy as np
import pytest

from repro.surface import (
    SURFACE_FORMAT_VERSION,
    SurfaceStore,
    YieldSurface,
)


def make_surface(scenario="device", offset=0.0, metadata=None):
    w = np.array([10.0, 20.0, 40.0])
    d = np.array([100.0, 200.0])
    values = -(w[:, None] * d[None, :] / 1000.0) - offset
    return YieldSurface(
        scenario=scenario,
        width_nm=w,
        cnt_density_per_um=d,
        log_failure=values,
        stat_se_log=np.zeros_like(values),
        interp_error_log=np.full((2, 1), 1e-9),
        metadata=metadata or {"method": "closed_form"},
    )


class TestValidation:
    def test_shape_mismatches_rejected(self):
        good = make_surface()
        with pytest.raises(ValueError):
            YieldSurface(
                scenario="device",
                width_nm=good.width_nm,
                cnt_density_per_um=good.cnt_density_per_um,
                log_failure=good.log_failure[:2],
                stat_se_log=good.stat_se_log,
                interp_error_log=good.interp_error_log,
            )
        with pytest.raises(ValueError):
            YieldSurface(
                scenario="device",
                width_nm=good.width_nm,
                cnt_density_per_um=good.cnt_density_per_um,
                log_failure=good.log_failure,
                stat_se_log=good.stat_se_log,
                interp_error_log=np.zeros((1, 1)),
            )

    def test_positive_log_failure_rejected(self):
        good = make_surface()
        with pytest.raises(ValueError):
            YieldSurface(
                scenario="device",
                width_nm=good.width_nm,
                cnt_density_per_um=good.cnt_density_per_um,
                log_failure=np.abs(good.log_failure),
                stat_se_log=good.stat_se_log,
                interp_error_log=good.interp_error_log,
            )

    def test_negative_errors_rejected(self):
        good = make_surface()
        with pytest.raises(ValueError):
            YieldSurface(
                scenario="device",
                width_nm=good.width_nm,
                cnt_density_per_um=good.cnt_density_per_um,
                log_failure=good.log_failure,
                stat_se_log=good.stat_se_log - 1.0,
                interp_error_log=good.interp_error_log,
            )

    def test_unsorted_axis_rejected(self):
        good = make_surface()
        with pytest.raises(ValueError):
            YieldSurface(
                scenario="device",
                width_nm=good.width_nm[::-1].copy(),
                cnt_density_per_um=good.cnt_density_per_um,
                log_failure=good.log_failure,
                stat_se_log=good.stat_se_log,
                interp_error_log=good.interp_error_log,
            )


class TestIdentity:
    def test_content_hash_is_stable(self):
        assert make_surface().content_hash == make_surface().content_hash

    def test_content_hash_tracks_data_and_metadata(self):
        base = make_surface()
        assert base.content_hash != make_surface(offset=0.5).content_hash
        assert (
            base.content_hash
            != make_surface(metadata={"method": "tilted"}).content_hash
        )

    def test_arrays_are_read_only_copies(self):
        w = np.array([10.0, 20.0, 40.0])
        surface = make_surface()
        for name in ("width_nm", "cnt_density_per_um", "log_failure",
                     "stat_se_log", "interp_error_log"):
            array = getattr(surface, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = -1.0
        # The caller's own arrays stay writable and are not aliased.
        alias = YieldSurface(
            scenario="device", width_nm=w,
            cnt_density_per_um=surface.cnt_density_per_um,
            log_failure=surface.log_failure, stat_se_log=surface.stat_se_log,
            interp_error_log=surface.interp_error_log,
        )
        w[0] = 5.0
        assert alias.width_nm[0] == 10.0

    def test_cached_key_equals_a_fresh_recomputation(self):
        surface = make_surface(metadata={"method": "closed_form", "seed": 3})
        first = surface.key
        assert surface.key is first  # computed once per instance
        fresh = type(surface).content_hash.func(surface)
        assert surface.content_hash == fresh
        assert first == f"device-{fresh[:12]}"
        assert make_surface(metadata={"method": "closed_form", "seed": 3}).key == first

    def test_key_includes_scenario(self):
        surface = make_surface(scenario="uncorrelated")
        assert surface.key.startswith("uncorrelated-")

    def test_describe_is_json_serialisable(self):
        json.dumps(make_surface().describe())

    def test_covers(self):
        surface = make_surface()
        mask = surface.covers(
            np.array([5.0, 10.0, 25.0, 40.0, 45.0]),
            np.array([150.0, 150.0, 150.0, 150.0, 150.0]),
        )
        assert mask.tolist() == [False, True, True, True, False]
        assert not surface.covers(np.array([20.0]), np.array([500.0]))[0]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        surface = make_surface(metadata={"method": "closed_form", "seed": 1})
        path = surface.save(tmp_path / "s.npz")
        loaded = YieldSurface.load(path)
        assert loaded.content_hash == surface.content_hash
        assert loaded.scenario == surface.scenario
        assert loaded.metadata == surface.metadata
        np.testing.assert_array_equal(loaded.log_failure, surface.log_failure)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ValueError, match="not a yield-surface artifact"):
            YieldSurface.load(path)

    def test_rejects_future_format_version(self, tmp_path, monkeypatch):
        surface = make_surface()
        monkeypatch.setattr(
            "repro.surface.surface.SURFACE_FORMAT_VERSION",
            SURFACE_FORMAT_VERSION + 1,
        )
        path = surface.save(tmp_path / "s.npz")
        monkeypatch.undo()
        with pytest.raises(ValueError, match="format version"):
            YieldSurface.load(path)


class TestSurfaceStore:
    def test_save_and_load_by_key(self, tmp_path):
        store = SurfaceStore(tmp_path)
        surface = make_surface()
        path = store.save(surface)
        assert path.exists()
        assert store.keys() == [surface.key]
        loaded = store.load(surface.key)
        assert loaded.content_hash == surface.content_hash

    def test_save_is_idempotent(self, tmp_path):
        store = SurfaceStore(tmp_path)
        surface = make_surface()
        first = store.save(surface)
        second = store.save(surface)
        assert first == second
        assert len(store.keys()) == 1

    def test_prefix_resolution(self, tmp_path):
        store = SurfaceStore(tmp_path)
        surface = make_surface()
        store.save(surface)
        assert store.load("device").content_hash == surface.content_hash

    def test_ambiguous_prefix_raises(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.save(make_surface())
        store.save(make_surface(offset=0.5))
        with pytest.raises(KeyError, match="ambiguous"):
            store.load("device")

    def test_missing_key_raises(self, tmp_path):
        store = SurfaceStore(tmp_path)
        with pytest.raises(KeyError, match="no surface matching"):
            store.load("nope")
        assert store.keys() == []
