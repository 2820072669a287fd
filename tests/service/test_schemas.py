"""Wire-schema tests: request validation and strict-JSON shaping."""

import json
import math

import numpy as np
import pytest

from repro.service.schemas import (
    MAX_BATCH,
    QueryRequest,
    SchemaError,
    error_body,
    json_safe,
    query_response,
)


def _payload(**overrides):
    payload = {"surface": "device", "width_nm": [100.0, 150.0]}
    payload.update(overrides)
    return payload


class TestQueryRequestValidation:
    def test_minimal_payload_parses(self):
        request = QueryRequest.from_payload(_payload())
        assert request.surface == "device"
        np.testing.assert_array_equal(request.width_nm, [100.0, 150.0])
        assert request.cnt_density_per_um is None
        assert request.device_count == 1.0
        assert request.fallback == "exact"
        assert request.deadline_s is None

    def test_scalar_width_becomes_array(self):
        request = QueryRequest.from_payload(_payload(width_nm=178.0))
        assert request.width_nm.shape == (1,)

    def test_rejects_non_object_body(self):
        with pytest.raises(SchemaError, match="JSON object"):
            QueryRequest.from_payload([1, 2, 3])

    def test_rejects_unknown_fields(self):
        with pytest.raises(SchemaError, match="unknown fields: widht_nm"):
            QueryRequest.from_payload(_payload(widht_nm=[1.0]))

    def test_rejects_missing_width(self):
        with pytest.raises(SchemaError, match="width_nm is required"):
            QueryRequest.from_payload({"surface": "device"})

    def test_rejects_empty_surface(self):
        with pytest.raises(SchemaError, match="surface"):
            QueryRequest.from_payload(_payload(surface=""))

    def test_rejects_non_numeric_width(self):
        # Booleans, numeric strings and nested lists are not numbers on
        # the wire, even though NumPy would coerce each of them.
        for bad in (["a", "b"], [True], False, ["100"], "100", [[100.0]],
                    [100.0, True], {"w": 100.0}, None):
            with pytest.raises(SchemaError, match="width_nm"):
                QueryRequest.from_payload(_payload(width_nm=bad))
        for field in ("cnt_density_per_um", "device_count"):
            with pytest.raises(SchemaError, match=field):
                QueryRequest.from_payload(_payload(**{field: [True, 1.0]}))

    def test_rejects_non_finite_width(self):
        with pytest.raises(SchemaError, match="finite"):
            QueryRequest.from_payload(_payload(width_nm=[100.0, math.inf]))

    def test_rejects_oversized_integers(self):
        # An integer past the float range used to escape as OverflowError
        # (a 500 on the wire); it is as non-finite as inf.
        huge = 10 ** 400
        for field in ("width_nm", "cnt_density_per_um", "device_count"):
            for bad in (huge, [100.0, huge], -huge):
                with pytest.raises(SchemaError, match=f"{field} must contain only finite"):
                    QueryRequest.from_payload(_payload(**{field: bad}))
        for bad in (huge, -huge):
            with pytest.raises(SchemaError, match="deadline_s"):
                QueryRequest.from_payload(_payload(deadline_s=bad))

    def test_large_but_finite_integers_parse(self):
        request = QueryRequest.from_payload(
            _payload(device_count=10 ** 300, deadline_s=10 ** 300)
        )
        assert request.device_count == 1e300
        assert request.deadline_s == 1e300

    def test_rejects_negative_width(self):
        with pytest.raises(SchemaError, match="positive"):
            QueryRequest.from_payload(_payload(width_nm=[-1.0]))

    def test_rejects_oversized_batch(self):
        with pytest.raises(SchemaError, match="batch cap"):
            QueryRequest.from_payload(
                _payload(width_nm=[100.0] * (MAX_BATCH + 1))
            )

    def test_density_must_broadcast_or_match(self):
        with pytest.raises(SchemaError, match="cnt_density_per_um"):
            QueryRequest.from_payload(
                _payload(cnt_density_per_um=[250.0, 260.0, 270.0])
            )
        request = QueryRequest.from_payload(
            _payload(cnt_density_per_um=250.0)
        )
        assert request.cnt_density_per_um.shape == (1,)

    def test_device_count_scalar_or_match(self):
        request = QueryRequest.from_payload(_payload(device_count=3.3e7))
        assert request.device_count == 3.3e7
        request = QueryRequest.from_payload(_payload(device_count=[1e6, 2e6]))
        np.testing.assert_array_equal(request.device_count, [1e6, 2e6])
        with pytest.raises(SchemaError, match="device_count"):
            QueryRequest.from_payload(_payload(device_count=[1e6] * 3))

    def test_rejects_bad_fallback(self):
        with pytest.raises(SchemaError, match="fallback"):
            QueryRequest.from_payload(_payload(fallback="magic"))

    def test_rejects_bad_mc_samples(self):
        for bad in (0, -5, 1.5, True, "many"):
            with pytest.raises(SchemaError, match="mc_samples"):
                QueryRequest.from_payload(_payload(mc_samples=bad))

    def test_rejects_bad_deadline(self):
        for bad in (-1.0, math.nan, "soon", True):
            with pytest.raises(SchemaError, match="deadline_s"):
                QueryRequest.from_payload(_payload(deadline_s=bad))


class TestJsonSafe:
    def test_finite_float_array_passes_through(self):
        values = np.array([0.25, 1e-300, 0.75])
        assert json_safe(values) == [0.25, 1e-300, 0.75]

    def test_non_finite_floats_become_null(self):
        values = np.array([1.0, np.nan, np.inf, -np.inf])
        assert json_safe(values) == [1.0, None, None, None]
        assert json_safe(float("nan")) is None

    def test_integer_and_bool_arrays(self):
        assert json_safe(np.array([1, 2], dtype=np.int64)) == [1, 2]
        assert json_safe(np.array([True, False])) == [True, False]

    def test_numpy_scalars(self):
        assert json_safe(np.float64(0.5)) == 0.5
        assert json_safe(np.int32(7)) == 7
        assert json_safe(np.bool_(True)) is True

    def test_nested_structures(self):
        safe = json_safe({"a": [np.nan, np.array([1.0])], "b": (np.int8(1),)})
        assert safe == {"a": [None, [1.0]], "b": [1]}

    def test_output_is_strict_json(self):
        raw = json.dumps(
            json_safe({"x": np.array([np.inf, 1.0])}), allow_nan=False
        )
        assert json.loads(raw) == {"x": [None, 1.0]}


class TestResponseShaping:
    def test_query_response_carries_bounds_and_flags(self):
        class FakeResult:
            scenario = "device"
            n_queries = 2
            failure_probability = np.array([0.1, 0.2])
            failure_lower = np.array([0.09, 0.19])
            failure_upper = np.array([0.11, 0.21])
            chip_yield = np.array([0.9, 0.8])
            yield_lower = np.array([0.89, 0.79])
            yield_upper = np.array([0.91, 0.81])
            interpolated = np.array([True, False])
            degraded = True
            degradation = ("stale_cache",)

        body = query_response(FakeResult(), refinement={"status": "queued"})
        assert body["failure_probability"] == [0.1, 0.2]
        assert body["interpolated"] == [True, False]
        assert body["degraded"] is True
        assert body["degradation"] == ["stale_cache"]
        assert body["refinement"] == {"status": "queued"}
        json.dumps(body, allow_nan=False)  # strictly serialisable

    def test_error_body_shape(self):
        assert error_body(404, "nope") == {
            "error": {"status": 404, "message": "nope"}
        }
