"""``YieldService.query`` is bitwise equal to the three-pass reference.

The service fuses the failure bounds and their Eq. 2.3 / 3.1 images into
one stacked pass and caches per-surface invariants.  The reference here
is built the long way, entirely in this file: a clamped bilinear lookup
with ``np.clip``, the exact fallback or nearest-grid clamp patched into
copies, three separate chip-yield evaluations with ``np.where`` masks,
and the row count rebuilt from ``CorrelationParameters`` on every call.
Answers are compared as uint64 bit patterns, not within a tolerance.
"""

import numpy as np
import pytest

from repro.core.correlation import CorrelationParameters
from repro.serving import YieldService
from repro.serving.interpolate import FLOAT_SLACK_LOG
from repro.surface import (
    ExactEvaluator,
    GridAxis,
    SurfaceBuilder,
    SweepSpec,
    YieldSurface,
)

W_AXIS = GridAxis.from_range("width_nm", 40.0, 300.0, 17)
D_AXIS = GridAxis.from_range("cnt_density_per_um", 150.0, 400.0, 9)
N_SIGMA = 4.0
FIELDS = ("failure_probability", "failure_lower", "failure_upper",
          "chip_yield", "yield_lower", "yield_upper")


def _build(scenario):
    return SurfaceBuilder(
        SweepSpec(scenario=scenario, width_axis=W_AXIS, density_axis=D_AXIS)
    ).build()


@pytest.fixture(scope="module")
def surfaces():
    device = _build("device")
    row = _build("directional_aligned")
    # A device surface with a non-zero statistical channel, so the
    # corner standard errors enter the in-grid bound.
    se = np.random.default_rng(11).uniform(0.0, 0.02, device.stat_se_log.shape)
    noisy = YieldSurface(
        scenario=device.scenario,
        width_nm=device.width_nm,
        cnt_density_per_um=device.cnt_density_per_um,
        log_failure=device.log_failure,
        stat_se_log=se,
        interp_error_log=device.interp_error_log,
        metadata=device.metadata,
    )
    return {"device": device, "row": row, "noisy": noisy}


def reference_interpolate(surface, widths, densities):
    """The clamped bilinear lookup and its bound, written out long-hand."""
    xg, yg = surface.width_nm, surface.cnt_density_per_um
    i = np.clip(np.searchsorted(xg, widths, side="right") - 1, 0, xg.size - 2)
    j = np.clip(np.searchsorted(yg, densities, side="right") - 1, 0, yg.size - 2)
    x0, y0 = xg[i], yg[j]
    tx = (widths - x0) / (xg[i + 1] - x0)
    ty = (densities - y0) / (yg[j + 1] - y0)
    values = surface.log_failure
    v00, v10 = values[i, j], values[i + 1, j]
    v01, v11 = values[i, j + 1], values[i + 1, j + 1]
    top = v00 + tx * (v10 - v00)
    bottom = v01 + tx * (v11 - v01)
    log_p = np.minimum(top + ty * (bottom - top), 0.0)
    error = surface.interp_error_log[i, j] + FLOAT_SLACK_LOG
    if float(np.max(surface.stat_se_log)) > 0.0:
        se = surface.stat_se_log
        corner = np.maximum(np.maximum(se[i, j], se[i + 1, j]),
                            np.maximum(se[i, j + 1], se[i + 1, j + 1]))
        error = error + N_SIGMA * corner
    in_grid = ((widths >= xg[0]) & (widths <= xg[-1])
               & (densities >= yg[0]) & (densities <= yg[-1]))
    return log_p, error, in_grid


def reference_yield(p, m):
    with np.errstate(divide="ignore", invalid="ignore"):
        log_yield = m * np.log1p(-p)
    log_yield = np.where(np.isnan(log_yield), 0.0, log_yield)
    return np.where((p >= 1.0) & (m > 0), 0.0, np.exp(log_yield))


def reference_query(surface, widths, densities, device_count, clamped):
    log_p, error, in_grid = reference_interpolate(surface, widths, densities)
    outside = ~in_grid
    if outside.any():
        log_p, error = log_p.copy(), error.copy()
        if clamped:
            w = np.clip(widths[outside], surface.width_nm[0], surface.width_nm[-1])
            d = np.clip(densities[outside], surface.cnt_density_per_um[0],
                        surface.cnt_density_per_um[-1])
            log_p[outside] = reference_interpolate(surface, w, d)[0]
            error[outside] = np.inf
        else:
            exact, se = ExactEvaluator.from_surface(surface).points(
                widths[outside], densities[outside]
            )
            log_p[outside] = exact
            error[outside] = N_SIGMA * se
    p = np.exp(np.minimum(log_p, 0.0))
    p_lower = np.exp(np.minimum(log_p - error, 0.0))
    p_upper = np.minimum(np.exp(log_p + error), 1.0)
    counts = np.asarray(device_count, dtype=float)
    if surface.scenario != "device":
        params = CorrelationParameters(**surface.metadata["correlation"])
        counts = counts / params.devices_per_row
    return {
        "failure_probability": p,
        "failure_lower": p_lower,
        "failure_upper": p_upper,
        "chip_yield": reference_yield(p, counts),
        "yield_lower": reference_yield(p_upper, counts),
        "yield_upper": reference_yield(p_lower, counts),
        "interpolated": in_grid,
    }


def query_points(seed, n, off_grid):
    rng = np.random.default_rng(seed)
    widths = rng.uniform(41.0, 299.0, n)
    densities = rng.uniform(151.0, 399.0, n)
    # Grid corners and edges hit the boundary-cell clamp of the lookup.
    widths[:4] = (40.0, 300.0, 40.0, 300.0)
    densities[:4] = (150.0, 400.0, 400.0, 150.0)
    if off_grid:
        widths[4::3] *= rng.uniform(1.05, 1.6, widths[4::3].size)
        densities[5::4] *= rng.uniform(0.5, 0.95, densities[5::4].size)
    return widths, densities


@pytest.mark.parametrize("name", ["device", "row", "noisy"])
@pytest.mark.parametrize("counts", ["scalar", "per_point"])
@pytest.mark.parametrize("mode", ["in_grid", "off_grid_exact", "deadline_clamped"])
def test_query_is_bitwise_equal_to_the_reference(surfaces, name, counts, mode):
    surface = surfaces[name]
    widths, densities = query_points(7, 257, off_grid=mode != "in_grid")
    device_count = (3.3e7 if counts == "scalar"
                    else np.random.default_rng(8).uniform(1.0, 1e9, widths.size))
    if counts == "per_point":
        device_count[:3] = (0.0, 1.0, 1e12)
    service = YieldService(n_sigma=N_SIGMA)
    key = service.register(surface)
    result = service.query(
        key, widths, cnt_density_per_um=densities, device_count=device_count,
        deadline_s=0.0 if mode == "deadline_clamped" else None,
    )
    expected = reference_query(surface, widths, densities, device_count,
                               clamped=mode == "deadline_clamped")
    np.testing.assert_array_equal(result.interpolated, expected["interpolated"])
    if mode != "in_grid":
        assert not result.interpolated.all()
    for field in FIELDS:
        got = getattr(result, field)
        assert got.shape == widths.shape, field
        np.testing.assert_array_equal(
            got.view(np.uint64), expected[field].view(np.uint64), err_msg=field
        )
    flag = "deadline_clamped" if mode == "deadline_clamped" else "none"
    assert result.degradation == (flag,)


def test_single_point_queries_match_the_batched_answer(surfaces):
    # The batch-1 path the HTTP tier mostly serves: scalar inputs, one
    # point per call, same bits as one batched call.
    service = YieldService(n_sigma=N_SIGMA)
    key = service.register(surfaces["row"])
    widths, densities = query_points(9, 40, off_grid=True)
    batched = service.query(key, widths, cnt_density_per_um=densities,
                            device_count=1e7)
    for index in range(widths.size):
        single = service.query(key, float(widths[index]),
                               cnt_density_per_um=float(densities[index]),
                               device_count=1e7)
        for field in FIELDS:
            assert getattr(single, field).view(np.uint64)[0] == \
                getattr(batched, field).view(np.uint64)[index], field
