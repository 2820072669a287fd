"""End-to-end tests of the ASGI application (no network involved).

Drives :class:`~repro.service.app.YieldApp` directly through the ASGI
protocol and cross-checks the wire answers against the in-process
:class:`~repro.serving.service.YieldService` contract.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serving.service import YieldService
from repro.service.app import YieldApp
from repro.surface.builder import SurfaceBuilder, SweepSpec
from repro.surface.grid import GridAxis
from repro.surface.surface import SurfaceStore


def _build_surface(w_low=200.0, scenario="uncorrelated"):
    spec = SweepSpec(
        scenario=scenario,
        width_axis=GridAxis.from_range("width_nm", w_low, w_low + 200.0, 4),
        density_axis=GridAxis.from_range("cnt_density_per_um", 0.15, 0.35, 4),
        max_refinement_rounds=1,
    )
    return SurfaceBuilder(spec).build()


@pytest.fixture(scope="module")
def surface():
    return _build_surface()


@pytest.fixture()
def app(surface, tmp_path):
    SurfaceStore(tmp_path).save(surface)
    service = YieldService(store=SurfaceStore(tmp_path))
    application = YieldApp(service, refine_capacity=8, refine_workers=1)
    yield application
    application.refinement.close()


def call(app, method, path, body=b"", decode=True):
    """One ASGI round-trip; returns (status, parsed JSON body)."""
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode("utf-8")
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method,
        "path": path,
        "raw_path": path.encode(),
        "query_string": b"",
        "headers": [],
        "server": ("testserver", 80),
        "client": ("testclient", 1),
    }
    messages = []

    async def receive():
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        messages.append(message)

    asyncio.run(app(scope, receive, send))
    status = messages[0]["status"]
    raw = b"".join(
        m.get("body", b"") for m in messages
        if m["type"] == "http.response.body"
    )
    return status, (json.loads(raw) if decode else raw)


QUERY = {
    "surface": None,  # filled per-test with the surface key
    "width_nm": [250.0, 330.0],
    "cnt_density_per_um": [0.25, 0.30],
    "device_count": 1e6,
}


def _query_body(surface, **overrides):
    body = dict(QUERY)
    body["surface"] = surface.key
    body.update(overrides)
    return body


class TestBasicRoutes:
    def test_healthz(self, app):
        status, body = call(app, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_route_is_404(self, app):
        status, body = call(app, "GET", "/nope")
        assert status == 404
        assert body["error"]["status"] == 404

    def test_wrong_method_is_404(self, app):
        status, _ = call(app, "DELETE", "/v1/query")
        assert status == 404


class TestQueryEndpoint:
    def test_bounds_match_in_process_service(self, app, surface):
        status, wire = call(app, "POST", "/v1/query", _query_body(surface))
        assert status == 200
        local = app.service.query(
            surface.key,
            np.array(QUERY["width_nm"]),
            cnt_density_per_um=np.array(QUERY["cnt_density_per_um"]),
            device_count=QUERY["device_count"],
        )
        for field, expected in (
            ("failure_probability", local.failure_probability),
            ("failure_lower", local.failure_lower),
            ("failure_upper", local.failure_upper),
            ("chip_yield", local.chip_yield),
            ("yield_lower", local.yield_lower),
            ("yield_upper", local.yield_upper),
        ):
            assert wire[field] == expected.tolist(), field
        assert wire["scenario"] == "uncorrelated"
        assert wire["n_queries"] == 2
        assert wire["degraded"] is False
        assert wire["degradation"] == ["none"]

    def test_malformed_json_is_400(self, app):
        status, body = call(app, "POST", "/v1/query", b"{not json")
        assert status == 400
        assert "invalid JSON" in body["error"]["message"]

    def test_schema_violation_is_400(self, app, surface):
        status, body = call(
            app, "POST", "/v1/query", _query_body(surface, widht_nm=[1.0])
        )
        assert status == 400
        assert "unknown fields" in body["error"]["message"]
        for bad in ([True], ["100"], [[100.0]]):
            status, body = call(
                app, "POST", "/v1/query", _query_body(surface, width_nm=bad)
            )
            assert status == 400
            assert "width_nm" in body["error"]["message"]

    def test_oversized_integer_is_400(self, app, surface):
        # 1 followed by 400 zeros overflows a float: a client error, not
        # a 500 from the conversion.
        huge = 10 ** 400
        for field, message in (
            ("width_nm", "width_nm must contain only finite numbers"),
            ("cnt_density_per_um",
             "cnt_density_per_um must contain only finite numbers"),
            ("device_count", "device_count must contain only finite numbers"),
            ("deadline_s", "deadline_s must be a non-negative finite number"),
        ):
            status, body = call(
                app, "POST", "/v1/query", _query_body(surface, **{field: huge})
            )
            assert status == 400, field
            assert body["error"]["message"] == message

    def test_unknown_surface_is_404(self, app, tmp_path):
        status, body = call(
            app, "POST", "/v1/query",
            {"surface": "missing", "width_nm": [250.0]},
        )
        assert status == 404
        # The store's filesystem location is never echoed to clients.
        assert str(tmp_path) not in body["error"]["message"]

    def test_deadline_clamp_flag_reaches_the_wire(self, app, surface):
        status, wire = call(
            app, "POST", "/v1/query",
            _query_body(surface, width_nm=[150.0], cnt_density_per_um=[0.25],
                        deadline_s=0.0),
        )
        assert status == 200
        assert wire["degraded"] is True
        assert wire["degradation"] == ["deadline_clamped"]
        assert wire["failure_lower"][0] == 0.0
        assert wire["failure_upper"][0] == 1.0


class TestRefinementFlow:
    def test_mc_query_never_samples_inline(self, app, surface):
        body = _query_body(
            surface,
            width_nm=[150.0],          # off-grid
            cnt_density_per_um=[0.25],
            fallback="mc",
            mc_samples=50,
        )
        status, first = call(app, "POST", "/v1/query", body)
        assert status == 200
        assert first["refinement"]["status"] == "queued"
        assert first["refinement"]["pending_points"] == 1

        assert app.refinement.drain(timeout_s=30.0)

        status, second = call(app, "POST", "/v1/query", body)
        assert status == 200
        assert second["refinement"]["status"] == "refined"
        assert second["refinement"]["pending_points"] == 0
        # Both answers carry valid bounds around a probability.
        for wire in (first, second):
            assert 0.0 <= wire["failure_lower"][0] <= wire["failure_upper"][0] <= 1.0

    def test_in_grid_mc_needs_no_refinement(self, app, surface):
        status, wire = call(
            app, "POST", "/v1/query",
            _query_body(surface, fallback="mc"),
        )
        assert status == 200
        assert wire["refinement"]["status"] == "not_needed"

    def test_duplicate_submission_reports_duplicate(self, app, surface):
        body = _query_body(
            surface, width_nm=[160.0], cnt_density_per_um=[0.25],
            fallback="mc", mc_samples=4000,
        )
        status, first = call(app, "POST", "/v1/query", body)
        assert status == 200
        assert first["refinement"]["status"] == "queued"
        # An immediate resubmit dedupes against the pending/active job —
        # or, if the worker already finished, answers from refined values.
        status, second = call(app, "POST", "/v1/query", body)
        assert second["refinement"]["status"] in ("duplicate", "refined")


class TestSurfaceEndpoints:
    def test_list_surfaces(self, app, surface):
        status, body = call(app, "GET", "/v1/surfaces")
        assert status == 200
        assert body["count"] == 1
        entry = body["surfaces"][0]
        assert entry["key"] == surface.key

    def test_get_surface_by_key_and_prefix(self, app, surface):
        status, body = call(app, "GET", f"/v1/surfaces/{surface.key}")
        assert status == 200
        assert body["key"] == surface.key
        status, body = call(app, "GET", "/v1/surfaces/uncorrelated")
        assert status == 200
        assert body["key"] == surface.key

    def test_get_missing_surface_is_404(self, app, tmp_path):
        status, body = call(app, "GET", "/v1/surfaces/ghost")
        assert status == 404
        assert str(tmp_path) not in body["error"]["message"]

    def test_upload_hot_reloads_a_new_version(self, app, tmp_path):
        newer = _build_surface(w_low=260.0)
        scratch = tmp_path / "scratch"   # outside the store root
        scratch.mkdir()
        artifact = scratch / "upload.npz"
        newer.save(artifact)
        payload = artifact.read_bytes()

        status, body = call(app, "POST", "/v1/surfaces", payload)
        assert status == 201
        assert body["key"] == newer.key
        assert body["persisted"] is True

        # The uploaded version answers queries immediately.
        status, wire = call(
            app, "POST", "/v1/query",
            {"surface": newer.key, "width_nm": [300.0],
             "cnt_density_per_um": [0.25]},
        )
        assert status == 200

        # Content-addressed: re-uploading identical bytes is idempotent.
        status, again = call(app, "POST", "/v1/surfaces", payload)
        assert status == 201
        assert again["key"] == body["key"]

        status, listing = call(app, "GET", "/v1/surfaces")
        assert listing["count"] == 2

    def test_upload_garbage_is_400(self, app):
        status, body = call(app, "POST", "/v1/surfaces", b"not an npz")
        assert status == 400
        assert "not a valid surface artifact" in body["error"]["message"]

    def test_upload_empty_body_is_400(self, app):
        status, _ = call(app, "POST", "/v1/surfaces", b"")
        assert status == 400


class TestMetricsEndpoint:
    def test_metrics_reflect_traffic(self, app, surface):
        call(app, "POST", "/v1/query", _query_body(surface))
        call(app, "POST", "/v1/query", b"{broken")
        call(app, "GET", "/healthz")
        status, body = call(app, "GET", "/v1/metrics")
        assert status == 200
        query_route = body["routes"]["POST /v1/query"]
        assert query_route["requests"] == 2
        assert query_route["status"] == {"200": 1, "400": 1}
        assert query_route["errors"] == 0
        assert query_route["latency"]["count"] == 2
        assert body["service"]["queries_served"] == 2
        assert body["service"]["breaker"]["state"] == "closed"
        assert body["refinement"]["capacity"] == 8
        json.dumps(body, allow_nan=False)


class TestLifespan:
    def test_startup_and_shutdown_complete(self, app):
        incoming = [
            {"type": "lifespan.startup"},
            {"type": "lifespan.shutdown"},
        ]
        outgoing = []

        async def receive():
            return incoming.pop(0)

        async def send(message):
            outgoing.append(message)

        asyncio.run(app({"type": "lifespan"}, receive, send))
        assert [m["type"] for m in outgoing] == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]
