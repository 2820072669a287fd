"""Property-based tests (hypothesis) for the removal-eta surface family.

The serving contract of :class:`repro.surface.EtaSurfaceFamily` mirrors
the 2D layer's: every served value carries an error bound that never
excludes the exact joint opens+shorts closed form — on eta nodes, at
interior (interpolated) etas, off the swept eta range and off the 2D
grid alike.  A second contract is physical: served failure can only grow
as removal efficiency degrades (eta falls), on-node and fused alike.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surface import EtaSurfaceFamily, GridAxis, SweepSpec, bilinear_interpolate

W_LOW, W_HIGH = 60.0, 200.0
D_LOW, D_HIGH = 200.0, 320.0
ETAS = (0.85, 0.92, 1.0)
METALLIC_FRACTION = 1.0 / 3.0

widths = st.floats(min_value=W_LOW, max_value=W_HIGH, allow_nan=False)
densities = st.floats(min_value=D_LOW, max_value=D_HIGH, allow_nan=False)
etas_in_range = st.floats(min_value=ETAS[0], max_value=ETAS[-1], allow_nan=False)


def family_spec(**overrides):
    base = dict(
        scenario="device",
        width_axis=GridAxis.from_range("width_nm", W_LOW, W_HIGH, 9),
        density_axis=GridAxis.from_range("cnt_density_per_um", D_LOW, D_HIGH, 5),
        metallic_fraction=METALLIC_FRACTION,
        tolerance_log=5e-3,
        max_refinement_rounds=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def family():
    return EtaSurfaceFamily.build(family_spec(), ETAS)


def exact_log(family, w, d, eta):
    values, _ = EtaSurfaceFamily._evaluator_for(family.spec, eta).points(
        np.array([w]), np.array([d])
    )
    return float(values[0])


class TestEtaBoundContract:
    @settings(max_examples=150, deadline=None)
    @given(w=widths, d=densities, eta=etas_in_range)
    def test_bounds_never_exclude_exact_joint_value(self, family, w, d, eta):
        result = family.query(np.array([w]), np.array([d]), eta)
        exact = exact_log(family, w, d, eta)
        served = float(result.log_failure[0])
        bound = float(result.error_log[0])
        assert served - bound <= exact <= served + bound

    @settings(max_examples=50, deadline=None)
    @given(w=widths, d=densities)
    def test_on_node_queries_skip_the_eta_term(self, family, w, d):
        # A node eta serves that node's surface alone, so its bound is
        # the 2D bound only — strictly tighter than any fused neighbour's.
        node = family.query(np.array([w]), np.array([d]), ETAS[1])
        fused = family.query(
            np.array([w]), np.array([d]), 0.5 * (ETAS[1] + ETAS[2])
        )
        assert float(node.error_log[0]) <= float(fused.error_log[0])
        exact = exact_log(family, w, d, ETAS[1])
        assert abs(float(node.log_failure[0]) - exact) <= float(node.error_log[0])

    @settings(max_examples=50, deadline=None)
    @given(w=widths, d=densities, eta=st.floats(min_value=0.0, max_value=0.8))
    def test_off_range_eta_served_exactly(self, family, w, d, eta):
        result = family.query(np.array([w]), np.array([d]), eta)
        assert bool(result.exact[0])
        exact = exact_log(family, w, d, eta)
        assert float(result.log_failure[0]) == pytest.approx(exact, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(d=densities, eta=etas_in_range)
    def test_off_grid_points_served_exactly(self, family, d, eta):
        w = W_HIGH * 2.0  # outside the swept width axis
        result = family.query(np.array([w]), np.array([d]), eta)
        assert bool(result.exact[0])
        exact = exact_log(family, w, d, eta)
        assert float(result.log_failure[0]) == pytest.approx(exact, abs=1e-12)

    def test_exact_fallback_is_not_shared_across_nearby_etas(self, family):
        # eta = 1 is opens-only; one ulp below it a short term switches on
        # and dominates far off the grid, so the two must not share a cache
        # entry however the queries are ordered.
        w = np.array([W_HIGH * 2.0])
        d = np.array([D_LOW])
        below = float(np.nextafter(1.0, 0.0))
        opens_only = family.query(w, d, 1.0)
        shorted = family.query(w, d, below)
        assert float(shorted.log_failure[0]) == exact_log(family, w[0], d[0], below)
        assert float(shorted.log_failure[0]) > float(opens_only.log_failure[0])

    @settings(max_examples=100, deadline=None)
    @given(w=widths, d=densities, e1=etas_in_range, e2=etas_in_range)
    def test_served_failure_nonincreasing_in_eta(self, family, w, d, e1, e2):
        # Better metallic removal can only lower the served failure; the
        # eta interpolation is linear between nodes whose values are
        # themselves monotone, so the fused values inherit the order.
        lo, hi = sorted((e1, e2))
        worse = family.query(np.array([w]), np.array([d]), lo)
        better = family.query(np.array([w]), np.array([d]), hi)
        assert float(better.log_failure[0]) <= float(worse.log_failure[0]) + 1e-9


class TestFamilyGuards:
    def test_tilted_method_rejected(self):
        with pytest.raises(ValueError, match="closed-form"):
            EtaSurfaceFamily.build(
                family_spec(scenario="device", method="tilted",
                            metallic_fraction=0.0),
                ETAS,
            )

    def test_empty_etas_rejected(self):
        with pytest.raises(ValueError, match="removal_etas"):
            EtaSurfaceFamily.build(family_spec(), ())

    def test_mismatched_query_shapes_rejected(self, family):
        with pytest.raises(ValueError, match="shape"):
            family.query(np.array([80.0, 90.0]), np.array([250.0]), 0.9)

    def test_describe_reports_the_axis(self, family):
        info = family.describe()
        assert info["removal_etas"] == list(ETAS)
        assert info["n_surfaces"] == len(ETAS)
        assert len(info["eta_interp_error_log"]) == len(ETAS) - 1


#: SHA-256 of the interpolated family answers at fixed points, recorded
#: with the family's own per-node copy of the bilinear bound, before it
#: was replaced by the serving kernel.
FAMILY_QUERY_SHA256 = (
    "b17782a88855872567f911a390c51029065169288f5c65eca146a73f6b946122"
)
PINNED_ETAS = (0.85, 0.88, 0.92, 0.97, 1.0)


def pinned_points():
    rng = np.random.default_rng(20100613)
    w = np.concatenate([rng.uniform(W_LOW, W_HIGH, 64), [W_LOW, W_HIGH]])
    d = np.concatenate([rng.uniform(D_LOW, D_HIGH, 64), [D_HIGH, D_LOW]])
    return w, d


def node_reference(surface, w, d):
    """Per-node (log p, bound): bilinear value and cell residual + slack."""
    log_p, i, j = bilinear_interpolate(
        surface.width_nm, surface.cnt_density_per_um, surface.log_failure, w, d
    )
    return np.minimum(log_p, 0.0), surface.interp_error_log[i, j] + 1e-9


class TestOneInterpolationKernel:
    def test_family_answers_match_the_pinned_hash(self, family):
        w, d = pinned_points()
        digest = hashlib.sha256()
        for eta in PINNED_ETAS:
            for array in family.query(w, d, eta):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == FAMILY_QUERY_SHA256

    def test_family_answers_equal_the_per_node_reference(self, family):
        w, d = pinned_points()
        for eta in PINNED_ETAS:
            served = family.query(w, d, eta)
            if eta in ETAS:
                values, errors = node_reference(
                    family.surfaces[ETAS.index(eta)], w, d
                )
            else:
                k = int(np.searchsorted(ETAS, eta)) - 1
                t = (eta - ETAS[k]) / (ETAS[k + 1] - ETAS[k])
                lo_vals, lo_errs = node_reference(family.surfaces[k], w, d)
                hi_vals, hi_errs = node_reference(family.surfaces[k + 1], w, d)
                values = np.minimum((1.0 - t) * lo_vals + t * hi_vals, 0.0)
                errors = (np.maximum(lo_errs, hi_errs)
                          + family.eta_interp_error_log[k] + 1e-9)
            assert not served.exact.any()
            for got, want in ((served.log_failure, values),
                              (served.error_log, errors)):
                np.testing.assert_array_equal(
                    got.view(np.uint64), want.view(np.uint64)
                )
