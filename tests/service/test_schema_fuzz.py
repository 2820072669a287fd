"""Hypothesis fuzz suite over the ``POST /v1/query`` request schema.

Every payload goes through a real JSON round trip first (``NaN``,
``Infinity`` and 400-digit integers survive it, as they would on the
wire), so the parser sees exactly the types ``json.loads`` produces.
Two contracts hold for any input:

* :meth:`QueryRequest.from_payload` either returns a request or raises
  :class:`SchemaError` — never any other exception (which the app would
  turn into a 500);
* a request it returns holds arrays equal to the input numbers.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.schemas import MAX_BATCH, QueryRequest, SchemaError

FIELDS = ("surface", "width_nm", "cnt_density_per_um", "device_count",
          "fallback", "mc_samples", "deadline_s")
ARRAY_FIELDS = ("width_nm", "cnt_density_per_um", "device_count")
HUGE = 10 ** 400

#: A list one point past the batch cap, built once.
OVERSIZED = [100.0] * (MAX_BATCH + 1)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([HUGE, -HUGE, 0, -1, 2 ** 63, 2 ** 64]),
    st.floats(),  # NaN and +-inf included
    st.text(max_size=8),
    st.sampled_from(["100", "1e3", "nan", "inf", ""]),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=12,
)
positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
numbers = st.one_of(positive, st.integers(min_value=1, max_value=10 ** 300))


def wire(payload):
    """``payload`` as the app receives it: dumped and re-decoded JSON."""
    return json.loads(json.dumps(payload))


def as_floats(value):
    return np.array(value if isinstance(value, list) else [value], dtype=float)


@st.composite
def valid_payloads(draw):
    widths = draw(st.one_of(numbers, st.lists(numbers, min_size=1, max_size=40)))
    n = len(widths) if isinstance(widths, list) else 1
    payload = {"surface": draw(st.text(min_size=1, max_size=12)),
               "width_nm": widths}
    for field in ("cnt_density_per_um", "device_count"):
        choice = draw(st.sampled_from(["absent", "null", "scalar", "list1", "match"]))
        if choice == "null":
            payload[field] = None
        elif choice == "scalar":
            payload[field] = draw(numbers)
        elif choice == "list1":
            payload[field] = [draw(numbers)]
        elif choice == "match":
            payload[field] = draw(st.lists(numbers, min_size=n, max_size=n))
    if draw(st.booleans()):
        payload["fallback"] = draw(st.sampled_from(["exact", "mc", "none"]))
    if draw(st.booleans()):
        payload["mc_samples"] = draw(st.integers(min_value=1, max_value=10 ** 30))
    if draw(st.booleans()):
        payload["deadline_s"] = draw(st.one_of(
            st.floats(min_value=0.0, max_value=1e300),
            st.integers(min_value=0, max_value=10 ** 300),
        ))
    return payload


@st.composite
def fuzzed_payloads(draw):
    """A valid payload with some fields replaced by arbitrary JSON."""
    payload = draw(valid_payloads())
    for field in draw(st.sets(st.sampled_from(FIELDS + ("extra",)), min_size=1)):
        payload[field] = draw(json_values)
    return payload


def check_parsed(request, payload):
    """A returned request must mirror the input numbers exactly."""
    widths = as_floats(payload["width_nm"])
    np.testing.assert_array_equal(request.width_nm, widths)
    assert request.width_nm.dtype == np.float64
    assert 1 <= widths.size <= MAX_BATCH
    assert np.isfinite(widths).all() and (widths > 0).all()
    densities = payload.get("cnt_density_per_um")
    if densities is None:
        assert request.cnt_density_per_um is None
    else:
        np.testing.assert_array_equal(request.cnt_density_per_um,
                                      as_floats(densities))
        assert request.cnt_density_per_um.size in (1, widths.size)
    counts = payload.get("device_count")
    if counts is None:
        assert request.device_count == 1.0
    else:
        expected = as_floats(counts)
        if expected.size == 1:
            assert isinstance(request.device_count, float)
            assert request.device_count == expected[0]
        else:
            np.testing.assert_array_equal(request.device_count, expected)
    assert request.surface == payload["surface"]
    assert request.fallback == payload.get("fallback", "exact")
    assert request.mc_samples == payload.get("mc_samples", 20_000)
    deadline = payload.get("deadline_s")
    if deadline is None:
        assert request.deadline_s is None
    else:
        assert request.deadline_s == float(deadline)
        assert 0.0 <= request.deadline_s < math.inf


class TestSchemaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(payload=valid_payloads())
    def test_valid_payloads_parse_to_their_numbers(self, payload):
        payload = wire(payload)
        check_parsed(QueryRequest.from_payload(payload), payload)

    @settings(max_examples=600, deadline=None)
    @given(payload=st.one_of(fuzzed_payloads(), json_values))
    def test_any_payload_parses_or_raises_schema_error(self, payload):
        payload = wire(payload)
        try:
            request = QueryRequest.from_payload(payload)
        except SchemaError:
            return
        check_parsed(request, payload)

    @settings(max_examples=200, deadline=None)
    @given(
        base=valid_payloads(),
        field=st.sampled_from(ARRAY_FIELDS),
        bad=st.one_of(
            st.booleans(),
            st.lists(st.booleans(), min_size=1, max_size=3),
            st.sampled_from(["100", ["100"], [[100.0]], [100.0, [1.0]], {"w": 1.0},
                             [], HUGE, [1.0, HUGE], -HUGE]),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0]),
            st.lists(st.sampled_from([math.nan, math.inf, -2.5]), min_size=1,
                     max_size=3),
        ),
    )
    def test_bad_numbers_are_rejected_by_name(self, base, field, bad):
        # One valid width and no other arrays, so the only fault is ``bad``
        # (not, say, a length mismatch against a valid neighbour).
        payload = {k: v for k, v in base.items() if k not in ARRAY_FIELDS}
        payload["width_nm"] = 100.0
        payload[field] = bad
        with pytest.raises(SchemaError, match=field):
            QueryRequest.from_payload(wire(payload))

    @settings(max_examples=100, deadline=None)
    @given(
        base=valid_payloads(),
        field=st.sampled_from(("fallback", "mc_samples", "deadline_s", "surface")),
        bad=st.one_of(
            st.booleans(),
            st.sampled_from(["", "magic", [], [1], {"x": 1}, math.nan, math.inf,
                             -math.inf, -1, -HUGE, HUGE, 1.5, "20000"]),
        ),
    )
    def test_bad_scalars_are_rejected_by_name(self, base, field, bad):
        # A huge sample count is still a positive integer, 1.5 s a valid
        # deadline, and any non-empty string a (possibly unknown) key.
        assume(not (field == "mc_samples" and bad == HUGE))
        assume(not (field == "deadline_s" and bad == 1.5))
        assume(not (field == "surface" and bad in ("magic", "20000")))
        payload = dict(base)
        payload[field] = bad
        with pytest.raises(SchemaError, match=field):
            QueryRequest.from_payload(wire(payload))

    @settings(max_examples=50, deadline=None)
    @given(base=valid_payloads(),
           extra=st.text(min_size=1, max_size=10).filter(lambda k: k not in FIELDS),
           value=json_values)
    def test_unknown_keys_are_rejected(self, base, extra, value):
        payload = dict(base)
        payload[extra] = value
        with pytest.raises(SchemaError, match="unknown fields"):
            QueryRequest.from_payload(wire(payload))

    @pytest.mark.parametrize("field", ARRAY_FIELDS)
    def test_batches_past_the_cap_are_rejected(self, field):
        payload = {"surface": "device", "width_nm": 100.0, field: OVERSIZED}
        with pytest.raises(SchemaError, match="batch cap"):
            QueryRequest.from_payload(payload)
