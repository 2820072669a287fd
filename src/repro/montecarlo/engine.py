"""Vectorized batched Monte Carlo engine for CNT track simulation.

The scalar simulators in :mod:`repro.montecarlo` build each trial with
Python loops: sample one gap, advance the cursor, test one device window at
a time.  That caps validation at tens of trials of small blocks.  This
module provides the batched primitives that replace those loops with NumPy
array programs over a leading ``(n_trials, ...)`` batch axis:

* :func:`sample_track_batch` — grow the CNT tracks of *all* trials at once:
  one 2D gap draw per batch, a single ``cumsum`` along the gap axis, and a
  validity mask marking the tracks that landed inside the span.  The
  renewal convention matches the scalar samplers exactly (the first track
  sits one uniformly-offset pitch below the span origin), so the batched
  and scalar engines draw from the same distribution.
* :func:`count_in_windows` / :func:`count_in_windows_flat` — answer "how
  many (working) tracks does window ``[lo, hi]`` of trial ``t`` capture?"
  for every window of every trial in one pass.  Each trial's track row is
  already sorted (a ``cumsum`` of positive gaps), so shifting trial ``t``
  by ``t * stride`` makes the whole batch globally sorted and two
  ``searchsorted`` calls plus a prefix sum answer every query at once.
  Slot columns past the span in every row are cut before banding, and a
  tuple of weights (e.g. working and shorting masks) shares one search.
* :func:`sample_track_counts` — memory-bounded helper returning only the
  per-trial track counts (used when the positions themselves are not
  needed, e.g. device-level failure estimation).
* :func:`spawn_streams` / :func:`chunk_sizes` — deterministic RNG
  sub-streams and trial chunking.  Chunk boundaries depend only on the
  trial count and chunk size — never on the worker count — so a run with
  ``n_workers=4`` consumes exactly the same per-chunk streams as a serial
  run and produces bitwise-identical statistics.

Dtype policy
------------
Track positions are stored in one of two floating dtypes: float64 (the
reference, pinned bitwise by the golden fixture) or float32 (half the
memory traffic on the banded searches).  Entry points take ``dtype=``;
``None`` means the ``REPRO_DTYPE`` environment variable, then float64
(:func:`resolve_dtype`).  Four rules keep the two policies comparable:

* draws always consume the caller's generator in its native float64 and
  are cast afterwards (:func:`uniform_draws`, :func:`sample_gaps`), so
  both policies see the *same* random numbers;
* window counts are exact whatever the storage dtype
  (:func:`prefix_sum`): boolean (0/1) masks accumulate in an integer
  prefix, float weights in float64, as do likelihood-ratio weights;
  counts are returned as float64 either way;
* search operands are cast to the positions dtype (:func:`match_dtype`) —
  NumPy would otherwise silently promote a float32 haystack to float64
  on every query batch;
* a float32 band is promoted to float64 when its top offset is too large
  for float32 to resolve a window edge (:func:`_banded_positions`).

Workers receive ``(payload, n_chunk, stream)`` tuples through
:func:`run_chunked`; the payload must be picklable (the simulators pass
small dataclasses of NumPy arrays plus the pitch/type models).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.growth.pitch import ExponentialPitch, GammaPitch, PitchDistribution
from repro.units import ensure_positive

__all__ = [
    "resolve_dtype",
    "match_dtype",
    "uniform_draws",
    "sample_gaps",
    "prefix_sum",
    "TrackBatch",
    "estimate_gap_count",
    "sample_track_batch",
    "sample_track_counts",
    "count_in_windows",
    "count_in_windows_flat",
    "window_stop_indices",
    "spawn_streams",
    "chunk_sizes",
    "default_trial_chunk",
    "run_chunked",
]

#: Soft cap on the number of elements of one batched gap matrix.  Callers
#: chunk their trial axis so ``n_trials * gaps_per_trial`` stays near this
#: (≈32 MB of float64 per matrix), keeping peak memory flat regardless of
#: the requested trial count.
DEFAULT_BATCH_ELEMENTS: int = 1 << 22

_DTYPE_NAMES = {
    "float32": np.float32,
    "float64": np.float64,
    "f32": np.float32,
    "f64": np.float64,
}


def resolve_dtype(dtype=None) -> np.dtype:
    """Normalise a dtype policy (name, NumPy dtype, or ``None``) to a dtype.

    ``None`` selects the ``REPRO_DTYPE`` environment variable, then
    float64.  Only the engine's two floating policies are accepted;
    anything else is a configuration error worth failing loudly on.
    """
    if dtype is None:
        dtype = os.environ.get("REPRO_DTYPE", "float64")
    if isinstance(dtype, str):
        try:
            dtype = _DTYPE_NAMES[dtype.lower()]
        except KeyError:
            raise ValueError(
                f"unknown dtype policy {dtype!r}; expected one of "
                f"{sorted(set(_DTYPE_NAMES))}"
            ) from None
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"dtype policy must be float32 or float64, got {dt}"
        )
    return dt


def match_dtype(values, like: np.ndarray) -> np.ndarray:
    """Cast ``values`` to the dtype of ``like`` (no copy when it already matches).

    The explicit cast for ``searchsorted`` needles: NumPy silently
    promotes a float32 haystack + float64 needle to float64, a full-array
    upcast on the hot path.  Casting the *queries* (the small side) to the
    *positions* dtype keeps the search in the policy dtype, and is a no-op
    in float64.
    """
    return np.asarray(values, dtype=like.dtype)


def uniform_draws(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """U(0, 1) draws of ``shape`` from ``rng`` in float64, cast to ``dtype``."""
    return np.asarray(rng.random(shape), dtype=dtype)


def sample_gaps(
    pitch: PitchDistribution, shape, rng: np.random.Generator, dtype, out=None
) -> np.ndarray:
    """Inter-CNT gap draws from ``pitch`` of ``shape``, cast to ``dtype``.

    ``out`` is an optional destination view.  At float64, exponential and
    gamma gaps are drawn straight into it (``Generator.exponential(scale)``
    / ``gamma(k, scale)`` are exactly ``standard_* * scale`` on the same
    stream, so the values match the generic path).  Otherwise ``out`` is
    ignored and a fresh array is returned — callers must use the
    *returned* array either way.
    """
    if out is not None and dtype == np.dtype(np.float64):
        if isinstance(pitch, ExponentialPitch):
            rng.standard_exponential(size=shape, out=out)
            out *= pitch.mean_pitch_nm
            return out
        if isinstance(pitch, GammaPitch):
            rng.standard_gamma(pitch.shape, size=shape, out=out)
            out *= pitch.scale_nm
            return out
    return np.asarray(pitch.sample_batch(shape, rng), dtype=dtype)


def prefix_sum(values: np.ndarray) -> np.ndarray:
    """Zero-prefixed inclusive cumulative sum of the flattened ``values``.

    Element ``i`` of the ``values.size + 1`` result is the sum of the first
    ``i`` elements in C order.  Window counting is the step most sensitive
    to float32 rounding, so it never accumulates in the storage dtype:
    boolean (0/1) masks accumulate in an exact integer prefix (int32, or
    int64 once the total could pass 2**31 - 1), anything else in float64.
    """
    if values.dtype == np.bool_:
        dtype = np.int32 if values.size < np.iinfo(np.int32).max else np.int64
    else:
        dtype = np.float64
    out = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values, dtype=dtype, out=out[1:])
    return out


@dataclass(frozen=True)
class TrackBatch:
    """CNT track positions for a batch of independent row trials.

    ``positions`` is ``(n_trials, n_slots)`` and sorted ascending along the
    slot axis (it is a cumulative sum of positive gaps).  Slots whose track
    fell outside ``[0, span_nm]`` are retained for shape regularity and
    masked out by ``valid``.  ``start_offsets`` records each trial's uniform
    renewal offset ``u`` (position ``j`` sits at ``S_j - u`` with ``S_j`` the
    cumulative gap sum); the rare-event layer needs it to reconstruct the
    gap sums that enter the likelihood-ratio weights.
    """

    positions: np.ndarray
    valid: np.ndarray
    span_nm: float
    start_offsets: Optional[np.ndarray] = None

    @property
    def n_trials(self) -> int:
        return self.positions.shape[0]

    @property
    def dtype(self):
        """Storage dtype of the track positions (the dtype policy)."""
        return self.positions.dtype

    def counts(self) -> np.ndarray:
        """Number of in-span tracks per trial, shape ``(n_trials,)``."""
        return self.valid.sum(axis=1)


def estimate_gap_count(pitch: PitchDistribution, span_nm: float) -> int:
    """Gap draws per trial so the cumulative sum almost surely clears the span.

    The renewal count over ``span + mean`` fluctuates with standard
    deviation ≈ ``cv * sqrt(n)``; an 8-sigma margin plus a constant floor
    makes the top-up loop in :func:`sample_track_batch` a rare event rather
    than the common path.  Callers use this as the per-trial element
    estimate when sizing memory-bounded chunks.
    """
    mean = pitch.mean_nm
    n_mean = (span_nm + mean) / mean
    cv = pitch.std_nm / mean if mean > 0 else 0.0
    return int(n_mean + 8.0 * cv * math.sqrt(n_mean + 1.0)) + 16


def sample_track_batch(
    pitch: PitchDistribution,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    offset_mean_nm: Optional[float] = None,
    dtype=None,
) -> TrackBatch:
    """Sample the CNT tracks of ``n_trials`` independent rows in one pass.

    Matches the scalar samplers' convention: each trial starts a renewal
    process at ``-u`` with ``u ~ U(0, mean_pitch)`` and keeps the track
    positions that land inside ``[0, span_nm]``.

    ``offset_mean_nm`` overrides the mean used for the uniform start offset
    ``u``.  The rare-event importance sampler passes the *nominal* pitch mean
    here while ``pitch`` itself is the tilted distribution, so the offset law
    is common to both measures and only the gaps enter the likelihood ratio.
    ``dtype`` is the positions' dtype policy (see :func:`resolve_dtype`).
    """
    dtype = resolve_dtype(dtype)
    ensure_positive(span_nm, "span_nm")
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if offset_mean_nm is None:
        offset_mean_nm = pitch.mean_nm
    ensure_positive(offset_mean_nm, "offset_mean_nm")
    start_offsets = uniform_draws(rng, n_trials, dtype) * offset_mean_nm
    n_gaps = estimate_gap_count(pitch, span_nm)
    gaps = sample_gaps(pitch, (n_trials, n_gaps), rng, dtype)
    positions = np.cumsum(gaps, axis=1)
    positions -= start_offsets[:, None]
    # Top up the rare trials whose gap budget did not clear the span.  The
    # extra draws are appended for every trial (keeping the array
    # rectangular); out-of-span tracks are masked below either way.
    while np.any(positions[:, -1] <= span_nm):
        block = max(16, n_gaps // 4)
        extra = sample_gaps(pitch, (n_trials, block), rng, dtype)
        tail = positions[:, -1][:, None] + np.cumsum(extra, axis=1)
        positions = np.concatenate([positions, tail], axis=1)
    valid = (positions >= 0.0) & (positions <= span_nm)
    return TrackBatch(
        positions=positions,
        valid=valid,
        span_nm=float(span_nm),
        start_offsets=start_offsets,
    )


def sample_track_counts(
    pitch: PitchDistribution,
    span_nm: float,
    n_trials: int,
    rng: np.random.Generator,
    batch_elements: int = DEFAULT_BATCH_ELEMENTS,
    dtype=None,
) -> np.ndarray:
    """Per-trial count of tracks captured by a span, shape ``(n_trials,)``.

    Internally chunks the trial axis so peak memory stays bounded by
    ``batch_elements`` regardless of ``n_trials``.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    per_trial = max(1, estimate_gap_count(pitch, span_nm))
    chunk = max(1, batch_elements // per_trial)
    counts = np.empty(n_trials, dtype=np.int64)
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        counts[done:done + n] = sample_track_batch(
            pitch, span_nm, n, rng, dtype=dtype
        ).counts()
        done += n
    return counts


#: Clip margin of the banded search: rows are clipped to
#: ``[-pad, span + pad]`` and spaced ``span + 4 * pad`` apart.
_BAND_PAD = 1.0


def _live_slots(positions: np.ndarray, span_nm: float) -> int:
    """Leading slot columns an in-span query can reach.

    Rows are sorted, so once a column lies beyond ``span + pad`` in every
    row, so do all later ones.  Their clipped band values exceed every
    query of their row, so no window contains them and no stop index
    passes them: cutting the slot axis there leaves every count and stop
    index unchanged.  A binary search over the columns finds the cut in
    about ``n_rows * log2(n_slots)`` comparisons.  When some row's last
    column does not clear ``span + pad``, every slot is kept.
    """
    limit = span_nm + _BAND_PAD
    n_slots = positions.shape[1]
    if n_slots == 0 or not np.all(positions[:, -1] > limit):
        return n_slots
    first, last = 0, n_slots - 1
    while first < last:
        mid = (first + last) // 2
        if np.all(positions[:, mid] > limit):
            last = mid
        else:
            first = mid + 1
    return last


def _banded_positions(
    positions: np.ndarray, span_nm: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten sorted trial rows into one globally sorted banded array.

    Shifting trial ``t`` by ``t * stride`` makes the (clipped) rows
    disjoint, so one ``searchsorted`` on the flattened array answers every
    (trial, query) pair at once.  Clipping just outside the query range is
    monotone, preserves sortedness, and never moves a track across a query
    boundary (queries live inside ``[0, span]``).  Returns the flattened
    array and the per-trial band offsets, both in the positions dtype (an
    implicit float64 band would silently promote every float32 search) —
    except when a float32 band would be *inaccurate*: offsets grow with
    the trial count, and once the float32 ulp at the top band exceeds a
    fraction of the pad, rounding of ``position + offset`` can move
    tracks across window edges.  Such batches are banded in float64
    (correctness beats the bandwidth saving; float64 batches never hit
    this, their ulp at any realistic band is sub-femtometre).
    """
    pad = _BAND_PAD
    stride = span_nm + 4.0 * pad
    band_dtype = positions.dtype
    if band_dtype == np.dtype(np.float32):
        top_offset = np.float32((positions.shape[0] - 1) * stride)
        if np.spacing(top_offset) > pad / 8.0:
            band_dtype = np.dtype(np.float64)
            positions = np.asarray(positions, dtype=band_dtype)
    offsets = np.arange(positions.shape[0], dtype=band_dtype) * stride
    band = np.clip(positions, -pad, span_nm + pad)
    band += offsets[:, None]
    return band.ravel(), offsets


def window_stop_indices(
    positions: np.ndarray,
    span_nm: float,
    hi: np.ndarray,
    trial_index: np.ndarray,
) -> np.ndarray:
    """Per-query slot index of the first track strictly above ``hi``.

    The rare-event layer stops each query's likelihood-ratio weight at this
    slot; :func:`sample_track_batch` guarantees the index exists for any
    bound inside the span (the last slot always clears it).
    """
    live = positions[:, :_live_slots(positions, span_nm)]
    flat, offsets = _banded_positions(live, span_nm)
    right = np.searchsorted(
        flat, match_dtype(hi, flat) + np.take(offsets, trial_index),
        side="right",
    )
    return right - trial_index * live.shape[1]


def count_in_windows_flat(
    positions: np.ndarray,
    weights,
    span_nm: float,
    lo: np.ndarray,
    hi: np.ndarray,
    trial_index: np.ndarray,
    return_stop_index: bool = False,
):
    """Weighted track counts for an arbitrary flat list of window queries.

    Parameters
    ----------
    positions:
        ``(n_trials, n_slots)`` track positions, sorted along the slot axis
        (as produced by :func:`sample_track_batch`).
    weights:
        Per-slot weights, same shape; must already be zero on slots that
        should not count (out-of-span tracks, failed tubes).  A tuple of
        such arrays (e.g. the working and the shorting mask) is answered
        from one shared banded search, one count array per weight.
    span_nm:
        Span of the trials; queries must lie inside ``[0, span_nm]``.
    lo, hi:
        Query bounds, shape ``(n_queries,)``.  Both ends are inclusive,
        matching the scalar simulators.
    trial_index:
        ``(n_queries,)`` index of the trial each query interrogates.
    return_stop_index:
        When True also return each query's per-trial slot index of the
        first track strictly above ``hi`` (as :func:`window_stop_indices`,
        but sharing this pass's searchsorted work — the rare-event chip
        sampler needs both).

    Returns the weighted count per query, shape ``(n_queries,)`` — a tuple
    of them when ``weights`` is a tuple — plus the stop indices when
    requested.  Counts are float64 under either dtype policy; boolean
    weights count exactly in an integer prefix (see :func:`prefix_sum`).
    """
    live = positions[:, :_live_slots(positions, span_nm)]
    flat, offsets = _banded_positions(live, span_nm)
    shift = np.take(offsets, trial_index)
    left = np.searchsorted(flat, match_dtype(lo, flat) + shift, side="left")
    right = np.searchsorted(flat, match_dtype(hi, flat) + shift, side="right")

    def window_sums(w: np.ndarray) -> np.ndarray:
        prefix = prefix_sum(w[:, :live.shape[1]])
        return np.subtract(
            np.take(prefix, right), np.take(prefix, left), dtype=np.float64
        )

    if isinstance(weights, tuple):
        counts = tuple(window_sums(np.asarray(w)) for w in weights)
    else:
        counts = window_sums(np.asarray(weights))
    if return_stop_index:
        return counts, right - trial_index * live.shape[1]
    return counts


def count_in_windows(
    batch: TrackBatch,
    weights,
    lo: np.ndarray,
    hi: np.ndarray,
):
    """Weighted track counts on a regular ``(n_trials, n_windows)`` grid.

    ``lo`` / ``hi`` may be ``(n_windows,)`` (the same windows for every
    trial) or ``(n_trials, n_windows)`` (per-trial windows, e.g. random
    device offsets).  Returns counts of shape ``(n_trials, n_windows)``;
    a tuple of weights (see :func:`count_in_windows_flat`) returns a
    tuple of such grids from one shared search.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 1:
        lo = np.broadcast_to(lo, (batch.n_trials, lo.size))
    if hi.ndim == 1:
        hi = np.broadcast_to(hi, (batch.n_trials, hi.size))
    if lo.shape != hi.shape or lo.shape[0] != batch.n_trials:
        raise ValueError(
            f"window bounds {lo.shape} do not match batch of {batch.n_trials} trials"
        )
    n_trials, n_windows = lo.shape
    trial_index = np.repeat(np.arange(n_trials), n_windows)
    counts = count_in_windows_flat(
        batch.positions,
        weights,
        batch.span_nm,
        lo.ravel(),
        hi.ravel(),
        trial_index,
    )
    if isinstance(counts, tuple):
        return tuple(c.reshape(n_trials, n_windows) for c in counts)
    return counts.reshape(n_trials, n_windows)


# ----------------------------------------------------------------------
# RNG streams and chunked (optionally multi-process) execution
# ----------------------------------------------------------------------


def spawn_streams(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Uses ``Generator.spawn`` (NumPy ≥ 1.25) when available and falls back
    to spawning the underlying ``SeedSequence`` otherwise.  Either way the
    children are keyed by the parent's ``spawn_key``, so repeated calls on
    identically-seeded parents yield identical stream families.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if hasattr(rng, "spawn"):
        return list(rng.spawn(n))
    seed_seq = rng.bit_generator.seed_seq  # pragma: no cover - old NumPy
    return [np.random.Generator(type(rng.bit_generator)(s))
            for s in seed_seq.spawn(n)]


def default_trial_chunk(
    per_trial_elements: int, n_trials: int, grain: int = 16
) -> int:
    """Trials per batch under the engine's element budget.

    Bounded by :data:`DEFAULT_BATCH_ELEMENTS` (so one gap matrix stays near
    ~32 MB) and small enough that at least ``grain`` chunks exist, so
    process pools up to that size always receive work.  This is the single
    chunk-sizing policy shared by the chip simulator and the rare-event
    estimators.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    budget = max(1, DEFAULT_BATCH_ELEMENTS // max(1, per_trial_elements))
    spread = -(-n_trials // grain)
    return max(1, min(budget, spread))


def chunk_sizes(n_trials: int, trial_chunk: int) -> List[int]:
    """Split ``n_trials`` into deterministic chunks of ``trial_chunk``.

    The split depends only on its arguments — in particular not on the
    worker count — which is what makes multi-worker runs bitwise
    reproducible against serial runs.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if trial_chunk <= 0:
        raise ValueError("trial_chunk must be positive")
    full, rest = divmod(n_trials, trial_chunk)
    return [trial_chunk] * full + ([rest] if rest else [])


def run_chunked(
    worker: Callable[..., Tuple[np.ndarray, ...]],
    payload,
    n_trials: int,
    rng: np.random.Generator,
    trial_chunk: int,
    n_workers: int = 1,
    policy=None,
    checkpoint=None,
    faults=None,
) -> List[Tuple[np.ndarray, ...]]:
    """Run ``worker(payload, n_chunk, stream)`` over deterministic chunks.

    One RNG stream is spawned per chunk up front; with ``n_workers > 1``
    the chunks are dispatched to a process pool (``worker`` and
    ``payload`` must be picklable), otherwise they run in-process.  The
    returned list is ordered by chunk, so results are identical for any
    worker count.

    Passing any of ``policy`` (a
    :class:`~repro.resilience.supervise.RetryPolicy`), ``checkpoint`` (a
    :class:`~repro.resilience.checkpoint.CampaignCheckpoint`) or
    ``faults`` (a :class:`~repro.resilience.faults.FaultPlan`) routes
    execution through the supervised runner: failed chunks are retried
    from rebuilt seed sequences, completed chunks persist to the
    checkpoint, and results stay bitwise identical to the fast path
    because the chunk streams derive from the same spawn keys.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    sizes = chunk_sizes(n_trials, trial_chunk)
    if policy is not None or checkpoint is not None or faults is not None:
        from repro.resilience.supervise import (
            SeededChunk,
            run_supervised,
            seed_sequences_for,
        )

        seeds, bit_generator = seed_sequences_for(rng, len(sizes))
        tasks = [
            SeededChunk(worker, payload, n, seed, bit_generator)
            for n, seed in zip(sizes, seeds)
        ]
        return run_supervised(
            tasks,
            n_workers=n_workers,
            policy=policy,
            checkpoint=checkpoint,
            faults=faults,
        )
    streams = spawn_streams(rng, len(sizes))
    if n_workers == 1 or len(sizes) == 1:
        return [worker(payload, n, stream) for n, stream in zip(sizes, streams)]
    with ProcessPoolExecutor(max_workers=min(n_workers, len(sizes))) as pool:
        futures = [
            pool.submit(worker, payload, n, stream)
            for n, stream in zip(sizes, streams)
        ]
        return [f.result() for f in futures]
