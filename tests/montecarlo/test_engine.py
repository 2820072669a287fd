"""Unit tests for the vectorized batched Monte Carlo engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.growth.pitch import DeterministicPitch, ExponentialPitch, GammaPitch
from repro.montecarlo.engine import (
    TrackBatch,
    _live_slots,
    chunk_sizes,
    count_in_windows,
    count_in_windows_flat,
    prefix_sum,
    run_chunked,
    sample_track_batch,
    sample_track_counts,
    spawn_streams,
)


def _brute_force_counts(batch, weights, lo, hi):
    """Reference O(trials * windows * slots) window counter."""
    n_trials, n_windows = lo.shape
    out = np.zeros((n_trials, n_windows))
    for t in range(n_trials):
        for w in range(n_windows):
            in_window = (
                (batch.positions[t] >= lo[t, w])
                & (batch.positions[t] <= hi[t, w])
            )
            out[t, w] = weights[t][in_window].sum()
    return out


class TestSampleTrackBatch:
    def test_positions_sorted_and_valid_in_span(self, rng):
        batch = sample_track_batch(ExponentialPitch(4.0), 200.0, 64, rng)
        assert batch.positions.shape[0] == 64
        assert np.all(np.diff(batch.positions, axis=1) >= 0.0)
        in_span = batch.positions[batch.valid]
        assert np.all((in_span >= 0.0) & (in_span <= 200.0))
        # Every trial's gap budget cleared the span.
        assert np.all(batch.positions[:, -1] > 200.0)

    def test_poisson_count_statistics(self, rng):
        # Exponential gaps started at a uniform offset form a Poisson
        # process, so counts over W are Poisson(W / mean).
        batch = sample_track_batch(ExponentialPitch(4.0), 400.0, 4_000, rng)
        counts = batch.counts()
        assert counts.mean() == pytest.approx(100.0, rel=0.05)
        assert counts.var() == pytest.approx(100.0, rel=0.15)

    def test_deterministic_pitch_exact_counts(self, rng):
        # With a perfectly regular 5 nm array and a start offset in
        # (-5, 0], exactly ceil(span / pitch) tracks land in [0, span]
        # unless a track hits the boundary (measure zero for the uniform
        # offset).
        batch = sample_track_batch(DeterministicPitch(5.0), 102.5, 256, rng)
        counts = batch.counts()
        assert np.all((counts == 20) | (counts == 21))

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            sample_track_batch(ExponentialPitch(4.0), 100.0, 0, rng)
        with pytest.raises(ValueError):
            sample_track_batch(ExponentialPitch(4.0), -1.0, 4, rng)


class TestSampleTrackCounts:
    def test_matches_batch_counts_distribution(self, rng):
        counts = sample_track_counts(ExponentialPitch(4.0), 200.0, 5_000, rng)
        assert counts.shape == (5_000,)
        assert counts.mean() == pytest.approx(50.0, rel=0.05)

    def test_chunked_execution_covers_all_trials(self, rng):
        # Force many internal chunks and check every trial is filled.
        counts = sample_track_counts(
            GammaPitch(4.0, 0.5), 100.0, 1_000, rng, batch_elements=64
        )
        assert counts.shape == (1_000,)
        assert np.all(counts >= 0)
        assert counts.mean() == pytest.approx(25.0, rel=0.1)


class TestCountInWindows:
    def test_matches_brute_force_shared_windows(self, rng):
        batch = sample_track_batch(ExponentialPitch(6.0), 300.0, 32, rng)
        weights = (rng.random(batch.positions.shape) < 0.7) & batch.valid
        lo = np.sort(rng.random(12) * 250.0)
        hi = lo + rng.random(12) * 50.0
        counts = count_in_windows(batch, weights, lo, hi)
        lo2 = np.broadcast_to(lo, (32, 12))
        hi2 = np.broadcast_to(hi, (32, 12))
        np.testing.assert_array_equal(
            counts, _brute_force_counts(batch, weights, lo2, hi2)
        )

    def test_matches_brute_force_per_trial_windows(self, rng):
        batch = sample_track_batch(ExponentialPitch(6.0), 300.0, 16, rng)
        weights = batch.valid.astype(float)
        lo = rng.random((16, 8)) * 250.0
        hi = lo + rng.random((16, 8)) * 40.0
        counts = count_in_windows(batch, weights, lo, hi)
        np.testing.assert_array_equal(
            counts, _brute_force_counts(batch, weights, lo, hi)
        )

    def test_flat_queries_with_trial_index(self, rng):
        batch = sample_track_batch(ExponentialPitch(5.0), 200.0, 8, rng)
        weights = batch.valid
        # Interrogate only trials 2 and 5, twice each, out of order.
        trial_index = np.array([5, 2, 5, 2])
        lo = np.array([0.0, 10.0, 50.0, 0.0])
        hi = np.array([200.0, 60.0, 150.0, 200.0])
        counts = count_in_windows_flat(
            batch.positions, weights, batch.span_nm, lo, hi, trial_index
        )
        assert counts[0] == batch.counts()[5]
        assert counts[3] == batch.counts()[2]

    def test_shape_mismatch_rejected(self, rng):
        batch = sample_track_batch(ExponentialPitch(5.0), 100.0, 4, rng)
        with pytest.raises(ValueError):
            count_in_windows(
                batch,
                batch.valid,
                np.zeros((3, 2)),
                np.ones((3, 2)),
            )


def _untrimmed_reference(positions, weights, span_nm, lo, hi, trial_index):
    """The window counter without dead-slot trimming or integer prefix.

    Bands every slot of every row exactly as the engine does (same pad,
    stride and float32 -> float64 promotion rule) and accumulates the
    weights in a float64 prefix.  Returns ``(counts, stop_index)``.
    """
    pad = 1.0
    stride = span_nm + 4.0 * pad
    band_dtype = positions.dtype
    if band_dtype == np.dtype(np.float32):
        top_offset = np.float32((positions.shape[0] - 1) * stride)
        if np.spacing(top_offset) > pad / 8.0:
            band_dtype = np.dtype(np.float64)
            positions = positions.astype(band_dtype)
    offsets = np.arange(positions.shape[0], dtype=band_dtype) * stride
    flat = np.ravel(np.clip(positions, -pad, span_nm + pad) + offsets[:, None])
    prefix = np.zeros(flat.size + 1)
    np.cumsum(np.ravel(weights), out=prefix[1:])
    shift = offsets[trial_index]
    left = np.searchsorted(flat, lo.astype(flat.dtype) + shift, side="left")
    right = np.searchsorted(flat, hi.astype(flat.dtype) + shift, side="right")
    return prefix[right] - prefix[left], right - trial_index * positions.shape[1]


@st.composite
def window_problems(draw):
    """A sampled batch, per-slot weights and a flat list of window queries.

    ``cleared=False`` cuts the slot axis so that some row's last column
    stays inside the span: nothing may then be trimmed.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    span = draw(st.floats(20.0, 300.0))
    n_trials = draw(st.integers(1, 12))
    cleared = draw(st.booleans())
    fractional = draw(st.booleans())
    n_queries = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    batch = sample_track_batch(
        GammaPitch(draw(st.floats(2.0, 20.0)), draw(st.floats(0.3, 1.2))),
        span, n_trials, rng, dtype=dtype,
    )
    positions, valid = batch.positions, batch.valid
    if not cleared:
        keep = max(1, int(valid.sum(axis=1).min()))
        positions, valid = positions[:, :keep], valid[:, :keep]
    u = rng.random(positions.shape)
    masks = ((u >= 0.4) & valid, (u < 0.1) & valid)
    if fractional:
        masks += (np.where(valid, rng.random(positions.shape), 0.0),)
    lo = rng.random(n_queries) * span
    hi = np.minimum(lo + rng.random(n_queries) * span / 3.0, span)
    # Windows touching the span edges, where the last live slot matters.
    lo[rng.random(n_queries) < 0.2] = 0.0
    hi[rng.random(n_queries) < 0.2] = span
    trial_index = rng.integers(0, n_trials, size=n_queries)
    return positions, masks, span, lo, hi, trial_index, cleared


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSharedWindowSearch:
    """One banded search for a tuple of weights equals one call per weight."""

    @PROPERTY_SETTINGS
    @given(window_problems())
    def test_tuple_call_equals_separate_calls(self, problem):
        positions, masks, span, lo, hi, trial_index, _ = problem
        joint, joint_stop = count_in_windows_flat(
            positions, masks, span, lo, hi, trial_index, return_stop_index=True
        )
        assert isinstance(joint, tuple) and len(joint) == len(masks)
        for mask, counts in zip(masks, joint):
            single, stop = count_in_windows_flat(
                positions, mask, span, lo, hi, trial_index,
                return_stop_index=True,
            )
            assert counts.dtype == np.float64
            np.testing.assert_array_equal(counts, single)
            np.testing.assert_array_equal(joint_stop, stop)

    @PROPERTY_SETTINGS
    @given(window_problems())
    def test_matches_untrimmed_float64_reference(self, problem):
        positions, masks, span, lo, hi, trial_index, cleared = problem
        if not cleared:
            assert _live_slots(positions, span) == positions.shape[1]
        joint, stop = count_in_windows_flat(
            positions, masks, span, lo, hi, trial_index, return_stop_index=True
        )
        for mask, counts in zip(masks, joint):
            expected, expected_stop = _untrimmed_reference(
                positions, mask, span, lo, hi, trial_index
            )
            np.testing.assert_array_equal(stop, expected_stop)
            if mask.dtype == np.bool_:
                # 0/1 masks count exactly: the integer prefix is bitwise
                # the float64 one.
                np.testing.assert_array_equal(counts, expected)
            else:
                # A shorter float64 prefix only reorders rounding.
                np.testing.assert_allclose(counts, expected, rtol=1e-12, atol=1e-12)

    def test_sampled_batches_are_trimmed(self, rng):
        batch = sample_track_batch(ExponentialPitch(20.0), 1400.0, 64, rng)
        live = _live_slots(batch.positions, 1400.0)
        assert live < batch.positions.shape[1]
        # The first dropped column lies past the span in every row.
        assert np.all(batch.positions[:, live] > 1400.0)

    def test_grid_passes_tuples_through(self, rng):
        batch = sample_track_batch(ExponentialPitch(6.0), 300.0, 16, rng)
        u = rng.random(batch.positions.shape)
        masks = ((u >= 0.3) & batch.valid, (u < 0.05) & batch.valid)
        lo = rng.random((16, 9)) * 250.0
        hi = lo + rng.random((16, 9)) * 50.0
        grids = count_in_windows(batch, masks, lo, hi)
        assert isinstance(grids, tuple) and len(grids) == 2
        for mask, grid in zip(masks, grids):
            np.testing.assert_array_equal(
                grid, _brute_force_counts(batch, mask, lo, hi)
            )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_prefix_dtype_rule(self, dtype):
        mask = np.array([[True, False, True], [True, True, False]])
        out = prefix_sum(mask)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [0, 1, 1, 2, 3, 4, 4])
        weights = mask.astype(dtype)
        assert prefix_sum(weights).dtype == np.float64
        np.testing.assert_array_equal(prefix_sum(weights), out)


class TestStreamsAndChunks:
    def test_spawn_streams_deterministic(self):
        a = spawn_streams(np.random.default_rng(42), 4)
        b = spawn_streams(np.random.default_rng(42), 4)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.random(8), gb.random(8))
        with pytest.raises(ValueError):
            spawn_streams(np.random.default_rng(0), 0)

    def test_spawn_streams_independent(self):
        streams = spawn_streams(np.random.default_rng(42), 2)
        assert not np.allclose(streams[0].random(8), streams[1].random(8))

    def test_chunk_sizes(self):
        assert chunk_sizes(10, 4) == [4, 4, 2]
        assert chunk_sizes(8, 4) == [4, 4]
        assert chunk_sizes(3, 100) == [3]
        with pytest.raises(ValueError):
            chunk_sizes(0, 4)
        with pytest.raises(ValueError):
            chunk_sizes(4, 0)


def _sum_of_stream(payload, n_chunk, rng):
    """Picklable worker: per-chunk draws scaled by the payload."""
    return (payload * rng.random(n_chunk),)


class TestRunChunked:
    def test_serial_matches_parallel(self):
        serial = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, n_workers=1,
        )
        parallel = run_chunked(
            _sum_of_stream, 2.0, 50, np.random.default_rng(7),
            trial_chunk=13, n_workers=2,
        )
        assert len(serial) == len(parallel) == 4
        for (a,), (b,) in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_chunked(
                _sum_of_stream, 1.0, 10, np.random.default_rng(0),
                trial_chunk=5, n_workers=0,
            )
