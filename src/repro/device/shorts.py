"""Metallic-CNT short failures and the joint opens+shorts closed form.

The paper's Eq. 2.2 counts only *open* failures: a CNFET fails when fewer
than ``N_min`` conducting semiconducting tubes survive under its gate.
Real processes also fail *closed* — imperfect metallic-CNT removal leaves
conducting metallic tubes that short the channel.  This module models
that second per-tube failure mode and derives the joint failure
probability in closed form.

Model
-----
Each grown CNT is independently metallic with probability ``p_m`` and, if
metallic, survives the removal step with probability ``1 - eta`` (``eta``
is the conditional removal probability ``pRm`` of
:class:`~repro.growth.types.CNTTypeModel`; the paper assumes ``eta ≈ 1``,
which recovers the opens-only model exactly).  A tube under the gate is
therefore in one of three states:

* a surviving *short* with probability ``b = p_m · (1 - eta)``,
* a *conducting semiconducting* tube with probability ``a = 1 - pf``
  (``pf`` the Eq. 2.1 per-CNT failure probability), or
* a removed / non-conducting *dud* with probability ``pf - b``
  (``b <= pf`` always, since a surviving metallic tube is a failed tube).

A device fails when it captures fewer than ``N_min`` conducting tubes
(open) **or** at least one surviving short.  Opens and shorts are
*anticorrelated* through the shared count ``N(W)``: trials with few tubes
fail open, trials with many tubes fail short.

Thinning derivation
-------------------
Conditioned on ``N(W) = n`` the three per-tube states are a categorical
thinning of the renewal count (``PitchDistribution.sum_cdf_array``
supplies the count pmf through
:class:`~repro.core.count_model.RenewalCountModel`, and each class count
is then binomial in ``n``).  For the default ``N_min = 1``::

    P{survive | N=n} = (1 - b)^n - (pf - b)^n
    P_fail(W)        = 1 - E[(1 - b)^N] + E[(pf - b)^N]
                     = 1 - PGF(1 - b) + PGF(pf - b)

two extra PGF evaluations on the same count model Eq. 2.2 already uses.
At ``b = 0`` this reduces *exactly* (bitwise, not just in the limit) to
the opens-only ``PGF(pf)`` path.  For ``N_min > 1`` the no-short term is
weighted by the binomial survival of the conducting-class count::

    P{survive | N=n} = (1 - b)^n · P{Binom(n, a / (1 - b)) >= N_min}

For the Poisson calibration (exponential pitch) both PGFs are
``exp(-λ(1 - z))`` and the log-space form

``log P_fail = logaddexp(log(-expm1(-λ b)), -λ (a + b))``

stays accurate down to the ``1e-300`` floor of the yield surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_METALLIC_FRACTION, DEFAULT_REMOVAL_PROB_METALLIC
from repro.core.count_model import CountModel, PoissonCountModel
from repro.growth.types import CNTTypeModel
from repro.units import ensure_probability

__all__ = [
    "ShortsModel",
    "surviving_short_probability",
    "joint_failure_probability",
    "joint_failure_probabilities",
    "log_joint_failure_probabilities",
    "short_only_failure_probability",
]


def surviving_short_probability(metallic_fraction: float, removal_eta: float) -> float:
    """Per-tube probability ``b = p_m · (1 - eta)`` of a surviving short.

    ``removal_eta`` is the conditional removal probability of a metallic
    tube (``pRm``); ``eta = 1`` is perfect removal and gives ``b = 0``,
    the opens-only regime every pre-shorts code path assumes.
    """
    metallic_fraction = ensure_probability(metallic_fraction, "metallic_fraction")
    removal_eta = ensure_probability(removal_eta, "removal_eta")
    return metallic_fraction * (1.0 - removal_eta)


@dataclass(frozen=True)
class ShortsModel:
    """The ``(p_m, eta)`` processing knob of the short failure mode.

    Attributes
    ----------
    metallic_fraction:
        Probability ``p_m`` that a grown CNT is metallic.
    removal_eta:
        Conditional removal probability ``eta`` of a metallic tube; a
        metallic tube survives removal with probability ``1 - eta``.
    """

    metallic_fraction: float = DEFAULT_METALLIC_FRACTION
    removal_eta: float = DEFAULT_REMOVAL_PROB_METALLIC

    def __post_init__(self) -> None:
        ensure_probability(self.metallic_fraction, "metallic_fraction")
        ensure_probability(self.removal_eta, "removal_eta")

    @property
    def short_probability(self) -> float:
        """Per-tube surviving-short probability ``b = p_m · (1 - eta)``."""
        return surviving_short_probability(self.metallic_fraction, self.removal_eta)

    @classmethod
    def from_type_model(cls, type_model: CNTTypeModel) -> "ShortsModel":
        """Read ``(p_m, eta)`` off a :class:`~repro.growth.types.CNTTypeModel`."""
        return cls(
            metallic_fraction=type_model.metallic_fraction,
            removal_eta=type_model.removal_prob_metallic,
        )

    def to_type_model(self, removal_prob_semiconducting: float) -> CNTTypeModel:
        """Build the full per-tube type model at a given ``pRs``."""
        return CNTTypeModel(
            metallic_fraction=self.metallic_fraction,
            removal_prob_metallic=self.removal_eta,
            removal_prob_semiconducting=removal_prob_semiconducting,
        )


def _validate(per_cnt_failure: float, short_probability: float, min_working_tubes: int) -> None:
    """Shared argument validation of the joint closed forms."""
    ensure_probability(per_cnt_failure, "per_cnt_failure")
    ensure_probability(short_probability, "short_probability")
    if short_probability > per_cnt_failure:
        raise ValueError(
            "short_probability must not exceed per_cnt_failure "
            f"(a surviving short is a failed tube); got "
            f"{short_probability} > {per_cnt_failure}"
        )
    if int(min_working_tubes) < 1 or min_working_tubes != int(min_working_tubes):
        raise ValueError(
            f"min_working_tubes must be a positive integer, got {min_working_tubes!r}"
        )


def joint_failure_probability(
    count_model: CountModel,
    width_nm: float,
    per_cnt_failure: float,
    short_probability: float,
    min_working_tubes: int = 1,
) -> float:
    """Joint opens+shorts device failure probability at one width.

    ``P{< min_working_tubes conducting tubes or >= 1 surviving short}``
    via the thinning derivation in the module notes.  At
    ``short_probability = 0`` this is the opens-only Eq. 2.2 value
    computed through the identical code path the pre-shorts model used
    (bitwise reduction, pinned by the property suite).
    """
    _validate(per_cnt_failure, short_probability, min_working_tubes)
    pf = float(per_cnt_failure)
    b = float(short_probability)
    n_min = int(min_working_tubes)
    if pf >= 1.0:
        # No conducting tubes can exist: every device fails open (or, if
        # b > 0, possibly short first — either way it fails).
        return 1.0
    if b == 0.0 and n_min == 1:
        # Opens-only fast path, bit-identical to CNFETFailureModel.
        if pf == 0.0:
            return count_model.prob_zero(width_nm)
        return count_model.pgf(width_nm, pf)
    if n_min == 1:
        return min(
            1.0,
            max(
                0.0,
                1.0
                - count_model.pgf(width_nm, 1.0 - b)
                + count_model.pgf(width_nm, pf - b),
            ),
        )
    # General N_min: weight the no-short factor by the binomial survival
    # of the conducting-class count among the non-short tubes.
    from scipy.stats import binom

    pmf = count_model.pmf(width_nm)
    n = np.arange(pmf.size)
    one_minus_b = 1.0 - b
    ratio = (1.0 - pf) / one_minus_b if one_minus_b > 0.0 else 0.0
    survive_given_n = np.power(one_minus_b, n) * binom.sf(n_min - 1, n, ratio)
    survive = float(np.sum(pmf * survive_given_n))
    return min(1.0, max(0.0, 1.0 - survive))


def joint_failure_probabilities(
    count_model: CountModel,
    widths_nm,
    per_cnt_failure: float,
    short_probability: float,
    min_working_tubes: int = 1,
) -> np.ndarray:
    """Vectorised :func:`joint_failure_probability` over a width array.

    The count model tabulates the whole column first, so the per-width
    closed forms read cached pmfs.
    """
    widths = np.atleast_1d(np.asarray(widths_nm, dtype=float))
    count_model.tabulate(widths)
    return np.array([
        joint_failure_probability(
            count_model, float(w), per_cnt_failure, short_probability,
            min_working_tubes=min_working_tubes,
        )
        for w in widths
    ])


def log_joint_failure_probabilities(
    count_model: CountModel,
    widths_nm,
    per_cnt_failure: float,
    short_probability: float,
    min_working_tubes: int = 1,
    log_floor: Optional[float] = None,
) -> np.ndarray:
    """Natural log of the joint failure probability over a width array.

    The exponential-pitch calibration takes a fully log-space route
    (``logaddexp`` of the short and open terms), so surfaces built on the
    Poisson closed form stay exact far below float underflow; other count
    models take per-width logs with an optional ``log_floor`` clamp.
    ``short_probability = 0`` raises — callers own that regime and must
    route it through their existing (bitwise-pinned) opens-only path.
    """
    _validate(per_cnt_failure, short_probability, min_working_tubes)
    if short_probability <= 0.0 and int(min_working_tubes) == 1:
        raise ValueError(
            "log_joint_failure_probabilities requires an active joint mode; "
            "the opens-only regime belongs to the existing Eq. 2.2 path"
        )
    widths = np.atleast_1d(np.asarray(widths_nm, dtype=float))
    pf = float(per_cnt_failure)
    b = float(short_probability)
    if (
        isinstance(count_model, PoissonCountModel)
        and int(min_working_tubes) == 1
        and pf < 1.0
    ):
        lam = widths / count_model.mean_pitch_nm
        with np.errstate(divide="ignore"):
            # log(1 - e^{-λb}) + nothing  vs  -λ(a + b): the two disjoint
            # failure routes (>=1 short; no short and no conducting tube).
            log_short = np.log(-np.expm1(-lam * b))
            log_open = -lam * ((1.0 - pf) + b)
        values = np.minimum(np.logaddexp(log_short, log_open), 0.0)
    else:
        with np.errstate(divide="ignore"):
            values = np.log(joint_failure_probabilities(
                count_model, widths, pf, b, min_working_tubes=min_working_tubes,
            ))
    if log_floor is not None:
        values = np.maximum(values, float(log_floor))
    return values


def short_only_failure_probability(
    count_model: CountModel, width_nm: float, short_probability: float
) -> float:
    """Probability ``1 - PGF(1 - b)`` of at least one surviving short.

    The marginal short-failure channel — useful for composing row-level
    short terms and for pinning the anticorrelation sign in tests (the
    joint failure probability is *below* the independent combination of
    this term with the opens-only Eq. 2.2 value).
    """
    ensure_probability(short_probability, "short_probability")
    b = float(short_probability)
    if b == 0.0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - count_model.pgf(width_nm, 1.0 - b)))
