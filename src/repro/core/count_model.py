"""CNT count distributions Prob{N(W)}.

The probability that a CNFET of width ``W`` captures exactly ``n`` CNTs is
the central ingredient of the device failure probability (Eq. 2.2).  Counts
arise from a renewal process along the width axis: successive tubes are
separated by i.i.d. positive pitches, so

``P{N(W) >= n} = P{s_1 + ... + s_n <= W}``

with the boundary convention that the first tube sits a stationary-forward
recurrence distance from the active-region edge.  We implement three
interchangeable models behind a common :class:`CountModel` interface:

:class:`PoissonCountModel`
    Exact for exponentially distributed pitch (CV = 1), and the default
    calibration of the reproduction.

:class:`RenewalCountModel`
    General renewal counting on any :class:`~repro.growth.pitch.PitchDistribution`
    whose n-fold sum CDF is available (exact for gamma/exponential/
    deterministic, CLT-based otherwise).

:class:`EmpiricalCountModel`
    Histogram over Monte Carlo count samples, used to validate the
    analytical models against the growth simulators.

Column fill
-----------
Yield surfaces and sweeps evaluate Eq. 2.2 for a whole column of widths
at one pitch.  :meth:`CountModel.tabulate` takes that column up front:
:class:`RenewalCountModel` evaluates one ``sum_cdf_array`` grid with the
count ``n`` along one axis and the widths along the other, finds each
width's tail stop with a vectorised search on its own row, and caches
every width's pmf.  The per-width :meth:`~CountModel.pmf` and
:meth:`~CountModel.pgf` calls that follow are cache reads.  A cold
``pmf(W)`` is the same fill for a column of one width, so a value never
depends on whether its column was filled first.  No SciPy is imported
at module scope; the Poisson pmf loads :mod:`scipy.stats` on first use.
"""

from __future__ import annotations

import abc
import math
from typing import Dict

import numpy as np

from repro.growth.pitch import PitchDistribution, ExponentialPitch, pitch_distribution_from_cv
from repro.units import ensure_positive


class CountModel(abc.ABC):
    """Interface for CNT count distributions as a function of device width."""

    @abc.abstractmethod
    def pmf(self, width_nm: float) -> np.ndarray:
        """Probability mass function of N(W).

        Returns an array ``p`` with ``p[n] = P{N(W) = n}``; the array is long
        enough that the omitted tail mass is negligible (< 1e-12).
        """

    @abc.abstractmethod
    def mean_count(self, width_nm: float) -> float:
        """Expected number of CNTs captured at the given width."""

    @abc.abstractmethod
    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` counts at the given width."""

    def tabulate(self, widths_nm) -> None:
        """Prepare :meth:`pmf` for a whole column of widths at once.

        Models that tabulate their pmf per width fill that table here, so
        the per-width calls that follow are reads; the default is a no-op.
        """

    # ------------------------------------------------------------------
    # Shared derived quantities
    # ------------------------------------------------------------------

    def std_count(self, width_nm: float) -> float:
        """Standard deviation of the count, computed from the pmf."""
        p = self.pmf(width_nm)
        n = np.arange(p.size)
        mean = float(np.sum(n * p))
        var = float(np.sum((n - mean) ** 2 * p))
        return math.sqrt(max(var, 0.0))

    def prob_zero(self, width_nm: float) -> float:
        """P{N(W) = 0} — the open-channel probability before thinning."""
        return float(self.pmf(width_nm)[0])

    def pgf(self, width_nm: float, z: float) -> float:
        """Probability generating function E[z^N(W)].

        Evaluating the PGF at ``z = pf`` yields the device failure
        probability of Eq. 2.2 directly:
        ``pF(W) = Σ_n pf^n · P{N(W) = n} = E[pf^N]``.
        """
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"z must lie in [0, 1] for a probability argument, got {z}")
        p = self.pmf(width_nm)
        n = np.arange(p.size)
        if z == 0.0:
            return float(p[0])
        # Work in log space per term to avoid underflow for large n.
        return float(np.sum(p * np.exp(n * math.log(z))))


class PoissonCountModel(CountModel):
    """Poisson CNT counts — exact for exponentially distributed pitch.

    Parameters
    ----------
    mean_pitch_nm:
        Mean inter-CNT pitch µS; the count at width W has mean W / µS.
    """

    def __init__(self, mean_pitch_nm: float) -> None:
        self.mean_pitch_nm = ensure_positive(mean_pitch_nm, "mean_pitch_nm")

    def rate(self, width_nm: float) -> float:
        """Poisson mean λ(W) = W / µS."""
        ensure_positive(width_nm, "width_nm")
        return width_nm / self.mean_pitch_nm

    def mean_count(self, width_nm: float) -> float:
        """Expected CNT count E[N(W)] = λ(W)."""
        return self.rate(width_nm)

    def pmf(self, width_nm: float) -> np.ndarray:
        """Poisson pmf of the CNT count at width ``width_nm``."""
        from scipy.stats import poisson

        lam = self.rate(width_nm)
        n = np.arange(int(lam + 12.0 * math.sqrt(lam) + 30) + 1)
        return poisson.pmf(n, lam)

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` Poisson counts at width ``width_nm``."""
        return rng.poisson(self.rate(width_nm), size=n_samples)

    def pgf(self, width_nm: float, z: float) -> float:
        """Probability generating function E[z^N] = exp(-λ(1 - z))."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"z must lie in [0, 1], got {z}")
        lam = self.rate(width_nm)
        return math.exp(-lam * (1.0 - z))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoissonCountModel(mean_pitch_nm={self.mean_pitch_nm})"


class RenewalCountModel(CountModel):
    """Renewal counting on an arbitrary pitch distribution.

    The count pmf is obtained from the n-fold sum CDF of the pitch:

    ``P{N >= n} = F_n(W)``, so ``P{N = n} = F_n(W) - F_{n+1}(W)``.

    The first tube is placed a full pitch from the window edge (ordinary
    renewal process started at the edge); this matches the sampling used by
    the growth simulators up to the stationary-phase correction, which is
    negligible for the widths of interest (W >> µS).

    Parameters
    ----------
    pitch:
        The inter-CNT pitch distribution.
    tail_tolerance:
        The pmf is extended until the remaining tail mass falls below this
        value.
    """

    def __init__(self, pitch: PitchDistribution, tail_tolerance: float = 1e-12) -> None:
        self.pitch = pitch
        if not 0 < tail_tolerance < 1:
            raise ValueError("tail_tolerance must lie in (0, 1)")
        self.tail_tolerance = float(tail_tolerance)
        self._pmf_cache: Dict[float, np.ndarray] = {}

    def mean_count(self, width_nm: float) -> float:
        """Renewal-theory first-order mean count E[N(W)] ≈ W / µS."""
        ensure_positive(width_nm, "width_nm")
        return width_nm / self.pitch.mean_nm

    def pmf(self, width_nm: float) -> np.ndarray:
        """Count pmf from the n-fold sum CDF of the pitch (cached per width)."""
        ensure_positive(width_nm, "width_nm")
        key = round(float(width_nm), 9)
        if key not in self._pmf_cache:
            self.tabulate([width_nm])
        return self._pmf_cache[key]

    def tabulate(self, widths_nm) -> None:
        """Cache the pmf of every width in a column from one CDF grid.

        ``P{N >= n}`` is evaluated for all widths and ``n = 1 … M`` in one
        ``sum_cdf_array`` call, ``M`` covering the widest width's
        ``mean + 12σ + 30`` guess.  Each pmf runs to the first ``n`` at or
        beyond its own width's guess whose survival is below
        ``tail_tolerance``, and is normalised so downstream sums are
        exact.  Widths already cached are skipped.
        """
        column: Dict[float, float] = {}
        for w in np.atleast_1d(np.asarray(widths_nm, dtype=float)):
            key = round(float(w), 9)
            if key not in self._pmf_cache:
                column.setdefault(key, ensure_positive(float(w), "width_nm"))
        if not column:
            return
        widths = np.fromiter(column.values(), dtype=float, count=len(column))
        mean = widths / self.pitch.mean_nm
        sigma = np.sqrt(np.maximum(mean, 1.0)) * max(self.pitch.cv, 0.1)
        guess = (mean + 12.0 * sigma + 30).astype(int)
        survival = self.pitch.sum_cdf_array(
            np.arange(1, int(guess.max()) + 2), widths[:, None]
        )
        probs, stop = self._count_probabilities(survival, guess)
        for i, key in enumerate(column):
            pmf = probs[i, : stop[i]]
            if stop[i] == 0:
                pmf = self._pmf_to_safety_stop(widths[i], int(guess[i]))
            total = pmf.sum()
            self._pmf_cache[key] = pmf / total if total > 0 else pmf.copy()

    def _count_probabilities(self, survival: np.ndarray, guess: np.ndarray):
        """``P{N = n}`` rows and tail-stop lengths of a survival grid.

        ``survival[i, n - 1] = P{N_i >= n}``.  A row's stop is the first
        ``n >= guess[i]`` whose survival is below ``tail_tolerance``, or 0
        when the grid ends first.
        """
        n = np.arange(1, survival.shape[1] + 1)
        previous = np.hstack([np.ones((survival.shape[0], 1)), survival[:, :-1]])
        probs = np.maximum(previous - survival, 0.0)
        tail = (survival < self.tail_tolerance) & (n >= guess[:, None])
        stop = np.where(tail.any(axis=1), tail.argmax(axis=1) + 1, 0)
        return probs, stop

    def _pmf_to_safety_stop(self, width_nm: float, guess: int) -> np.ndarray:
        """Unnormalised pmf of one width whose tail outruns the column grid.

        The row is re-evaluated out to ``4·guess + 1001`` counts; if the
        tail is still above ``tail_tolerance`` there, the remaining mass
        is attributed to the last bin.
        """
        limit = 4 * guess + 1001
        survival = self.pitch.sum_cdf_array(np.arange(1, limit + 1), width_nm)
        probs, stop = self._count_probabilities(survival[None, :], np.array([guess]))
        if stop[0]:
            return probs[0, : stop[0]]
        pmf = probs[0]
        pmf[-1] += survival[-1]
        return pmf

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` counts from the tabulated renewal pmf."""
        pmf = self.pmf(width_nm)
        return rng.choice(pmf.size, size=n_samples, p=pmf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RenewalCountModel(pitch={self.pitch!r})"


class EmpiricalCountModel(CountModel):
    """Count model backed by Monte Carlo samples at fixed widths.

    Useful to validate analytical models against the growth simulators: build
    it from simulator counts, then compare pmfs / failure probabilities.
    Queries at widths that were not sampled raise ``KeyError``.
    """

    def __init__(self) -> None:
        self._samples: Dict[float, np.ndarray] = {}

    def add_samples(self, width_nm: float, counts: np.ndarray) -> None:
        """Register Monte Carlo count samples for a width."""
        ensure_positive(width_nm, "width_nm")
        counts = np.asarray(counts, dtype=int)
        if counts.size == 0:
            raise ValueError("counts must contain at least one sample")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        key = round(float(width_nm), 9)
        existing = self._samples.get(key)
        if existing is not None:
            counts = np.concatenate([existing, counts])
        self._samples[key] = counts

    def _get(self, width_nm: float) -> np.ndarray:
        key = round(float(width_nm), 9)
        if key not in self._samples:
            raise KeyError(
                f"no samples registered for width {width_nm} nm; "
                f"available widths: {sorted(self._samples)}"
            )
        return self._samples[key]

    @property
    def widths_nm(self) -> list:
        """Widths for which samples have been registered."""
        return sorted(self._samples)

    def pmf(self, width_nm: float) -> np.ndarray:
        """Histogram pmf of the registered samples at ``width_nm``."""
        counts = self._get(width_nm)
        pmf = np.bincount(counts, minlength=int(counts.max()) + 1).astype(float)
        return pmf / pmf.sum()

    def mean_count(self, width_nm: float) -> float:
        """Sample mean of the registered counts at ``width_nm``."""
        return float(np.mean(self._get(width_nm)))

    def sample(
        self, width_nm: float, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bootstrap-resample ``n_samples`` counts for ``width_nm``."""
        counts = self._get(width_nm)
        return rng.choice(counts, size=n_samples, replace=True)


def count_model_from_pitch(pitch: PitchDistribution) -> CountModel:
    """Return the most appropriate count model for a pitch distribution.

    Exponential pitch maps to the exact :class:`PoissonCountModel`; all other
    families use :class:`RenewalCountModel`.
    """
    if isinstance(pitch, ExponentialPitch):
        return PoissonCountModel(mean_pitch_nm=pitch.mean_nm)
    return RenewalCountModel(pitch=pitch)


def count_model_from_cv(mean_pitch_nm: float, cv: float) -> CountModel:
    """Convenience: build a count model straight from (µS, σS/µS)."""
    return count_model_from_pitch(pitch_distribution_from_cv(mean_pitch_nm, cv))
