"""Output checks of the benchmark's operations.

Each checker returns a list of problems; an empty list means the output
passed.  Any problem marks the operation as failed, which counts toward
the run's ``failed`` total and makes ``correct`` false.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Statistical agreement gate shared by every Monte Carlo check.
Z_LIMIT = 6.0


def z_score(observed: float, predicted: float, se: float) -> float:
    """Standardised difference; zero SE is exact agreement or infinitely off."""
    if se > 0.0:
        return (observed - predicted) / se
    return 0.0 if observed == predicted else math.inf


def check_z(label: str, observed: float, predicted: float, se: float) -> List[str]:
    z = z_score(observed, predicted, se)
    if not abs(z) < Z_LIMIT:
        return [f"{label}: |z| = {abs(z):.2f} >= {Z_LIMIT:g} "
                f"(observed {observed!r}, predicted {predicted!r}, se {se!r})"]
    return []


def check_chip(mean_failing: float, std_failing: float, n_trials: int,
               predicted_failing: float) -> List[str]:
    """Mean failing devices against the thinned closed form."""
    if not (math.isfinite(mean_failing) and math.isfinite(std_failing)):
        return [f"chip: non-finite statistics {mean_failing!r}, {std_failing!r}"]
    se = std_failing / math.sqrt(n_trials)
    return check_z("chip mean failing devices", mean_failing,
                   predicted_failing, se)


def check_timing(critical_path_ps: np.ndarray, n_trials: int,
                 nominal_ps: float) -> List[str]:
    """One critical path per trial, never NaN, over a positive nominal path."""
    crit = np.asarray(critical_path_ps)
    problems = []
    if crit.shape != (n_trials,):
        problems.append(f"timing: {crit.shape} critical paths for {n_trials} trials")
    if np.isnan(crit).any():
        problems.append("timing: NaN critical path")
    if not (math.isfinite(nominal_ps) and nominal_ps > 0.0):
        problems.append(f"timing: bad nominal critical path {nominal_ps!r}")
    return problems


def check_wafer(die_yields: Sequence[float], die_yield_ses: Sequence[float],
                predicted_yields: Sequence[float]) -> List[str]:
    """Finite per-die yields whose wafer mean matches the closed form."""
    yields = np.asarray(die_yields, dtype=float)
    ses = np.asarray(die_yield_ses, dtype=float)
    if yields.size == 0 or not (np.isfinite(yields).all() and np.isfinite(ses).all()):
        return ["wafer: empty or non-finite per-die estimates"]
    if ((yields < 0.0) | (yields > 1.0)).any():
        return ["wafer: per-die yield outside [0, 1]"]
    se = float(np.sqrt(np.sum(ses ** 2))) / yields.size
    return check_z("wafer mean yield", float(yields.mean()),
                   float(np.mean(predicted_yields)), se)


def check_chip_wafer(die_yields: Sequence[float], mean_failing: Sequence[float],
                     mean_failing_rows: Sequence[float], n_trials: int,
                     trials: Sequence[int]) -> List[str]:
    """Finite, in-range per-die chip-wafer estimates over the asked trials.

    No z-test: at the chip-wafer operating point a die's failing-device
    count is dominated by rare trials in which one wide tube gap fails a
    whole run of devices, so a 96-trial sample mean has a heavy-tailed
    error and its sampled spread understates it.
    """
    yields = np.asarray(die_yields, dtype=float)
    devices = np.asarray(mean_failing, dtype=float)
    rows = np.asarray(mean_failing_rows, dtype=float)
    if yields.size == 0 or not (np.isfinite(yields).all() and np.isfinite(devices).all()
                                and np.isfinite(rows).all()):
        return ["chip wafer: empty or non-finite per-die estimates"]
    problems = []
    if ((yields < 0.0) | (yields > 1.0)).any():
        problems.append("chip wafer: per-die yield outside [0, 1]")
    if (rows < 0.0).any() or (rows > devices).any():
        problems.append("chip wafer: failing rows negative or above failing devices")
    if any(t != n_trials for t in trials):
        problems.append(f"chip wafer: a die ran other than {n_trials} trials")
    return problems


#: (value, lower, upper) field triples of a ``/v1/query`` response.
BOUND_FIELDS = (
    ("failure_probability", "failure_lower", "failure_upper"),
    ("chip_yield", "yield_lower", "yield_upper"),
)


def check_bounds(body: Mapping[str, object], n_points: int) -> List[str]:
    """``lower <= value <= upper`` on every point of a query response."""
    problems = []
    for value_key, lower_key, upper_key in BOUND_FIELDS:
        try:
            value = np.asarray(body[value_key], dtype=float)
            lower = np.asarray(body[lower_key], dtype=float)
            upper = np.asarray(body[upper_key], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"query: malformed bounds ({exc})"]
        if value.shape != (n_points,) or lower.shape != value.shape \
                or upper.shape != value.shape:
            problems.append(f"query: {value_key} has {value.shape} for {n_points} points")
            continue
        if not ((lower <= value) & (value <= upper)).all():
            problems.append(f"query: {value_key} outside [{lower_key}, {upper_key}]")
    return problems


def check_identical(wire: Mapping[str, object],
                    local: Mapping[str, Sequence[float]]) -> List[str]:
    """Wire fields equal the in-process answer bit for bit."""
    return [
        f"query: {name} differs from the in-process answer"
        for name, expected in local.items()
        if wire.get(name) != list(expected)
    ]


def check_exit(label: str, returncode: int, stderr: bytes) -> List[str]:
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return [f"{label}: exit code {returncode} ({tail[0]})"]
    return []


def check_coopt(payload: Mapping[str, object]) -> List[str]:
    """The search met the target, beat uniform upsizing and validated."""
    problems = []
    if payload.get("meets_target") is not True:
        problems.append("co-opt: front does not meet the yield target")
    if payload.get("beats_uniform") is not True:
        problems.append("co-opt: front does not beat uniform upsizing")
    validations = payload.get("validations") or []
    if not validations:
        problems.append("co-opt: no validation was run")
    for entry in validations:
        z = entry.get("z_score")
        if z is None or not abs(float(z)) < Z_LIMIT:
            problems.append(f"co-opt: validation |z| = {z!r} >= {Z_LIMIT:g}")
    return problems


def check_wmin(payload: Mapping[str, object], expected_nm: float) -> List[str]:
    """``wmin --json`` reports the calibrated uncorrelated Wmin exactly."""
    got = payload.get("wmin_baseline_nm")
    if got != expected_nm:
        return [f"wmin: wmin_baseline_nm {got!r} != {expected_nm!r}"]
    return []


def first_problems(problems: Dict[str, int], found: List[str], keep: int = 5) -> None:
    """Tally problem messages, keeping at most ``keep`` distinct ones."""
    for message in found:
        if message in problems or len(problems) < keep:
            problems[message] = problems.get(message, 0) + 1
