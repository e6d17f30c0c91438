"""End-to-end HTTP tests for the serving engine."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry
from repro.serve.server import MatrixServer, _Handler
from tests.conftest import make_structured


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get_error(url: str):
    try:
        urllib.request.urlopen(url, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"{url} answered 2xx")


@pytest.fixture
def serving(tmp_path, rng):
    """A live server over two matrices with a budget that fits only one."""
    matrices = {
        "small": make_structured(rng, n=40, m=8),
        "wide": make_structured(rng, n=50, m=12),
    }
    compressed = {
        "small": GrammarCompressedMatrix.compress(matrices["small"], variant="re_iv"),
        "wide": BlockedMatrix.compress(matrices["wide"], variant="re_32", n_blocks=2),
    }
    for name, matrix in compressed.items():
        save_matrix(matrix, tmp_path / f"{name}.gcmx")
    budget = max(m.size_bytes() for m in compressed.values()) + 1
    registry = MatrixRegistry(root=tmp_path, byte_budget=budget)
    with MatrixServer(registry, workers=2, port=0).start() as server:
        yield server, matrices


class TestEndpoints:
    def test_healthz(self, serving):
        server, _ = serving
        status, body = _get(f"{server.url}/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_matrices_lists_both_without_loading(self, serving):
        server, matrices = serving
        status, body = _get(f"{server.url}/matrices")
        assert status == 200
        listed = {e["name"]: e for e in body["matrices"]}
        assert set(listed) == set(matrices)
        assert all(not e["resident"] for e in listed.values())
        assert listed["small"]["kind"] == "gcm"
        assert listed["wide"]["kind"] == "blocked"
        assert tuple(listed["small"]["shape"]) == matrices["small"].shape

    def test_matrix_detail_and_unknown(self, serving):
        server, _ = serving
        status, body = _get(f"{server.url}/matrices/small")
        assert status == 200 and body["variant"] == "re_iv"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/matrices/nope")
        assert excinfo.value.code == 404

    def test_unknown_path(self, serving):
        server, _ = serving
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/frobnicate")
        assert excinfo.value.code == 404


class TestMultiply:
    def test_right_single_vector(self, serving):
        server, matrices = serving
        x = np.ones(matrices["small"].shape[1])
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "small", "vectors": x.tolist()},
        )
        assert status == 200
        assert body["k"] == 1
        assert np.allclose(body["result"][0], matrices["small"] @ x)

    def test_right_batch(self, serving):
        server, matrices = serving
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, matrices["wide"].shape[1]))
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "wide", "op": "right", "vectors": batch.tolist()},
        )
        assert status == 200 and body["k"] == 5
        expected = matrices["wide"] @ batch.T
        for i in range(5):
            assert np.allclose(body["result"][i], expected[:, i])

    def test_left_batch(self, serving):
        server, matrices = serving
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((3, matrices["small"].shape[0]))
        status, body = _post(
            f"{server.url}/multiply",
            {"matrix": "small", "op": "left", "vectors": batch.tolist()},
        )
        assert status == 200 and body["k"] == 3
        expected = batch @ matrices["small"]
        for i in range(3):
            assert np.allclose(body["result"][i], expected[i])

    def test_oversized_batch_rejected(self, tmp_path, rng):
        dense = make_structured(rng, n=20, m=6)
        save_matrix(GrammarCompressedMatrix.compress(dense), tmp_path / "m.gcmx")
        registry = MatrixRegistry(root=tmp_path)
        with MatrixServer(registry, port=0, max_vectors=4).start() as server:
            batch = np.ones((5, dense.shape[1]))
            status, body = _post(
                f"{server.url}/multiply",
                {"matrix": "m", "vectors": batch.tolist()},
            )
            assert status == 400 and "limit is 4" in body["error"]
            # At the limit it still answers (chunked to panel_width).
            status, body = _post(
                f"{server.url}/multiply",
                {"matrix": "m", "vectors": batch[:4].tolist()},
            )
            assert status == 200 and body["k"] == 4

    def test_bad_requests(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        assert _post(url, {"vectors": [1.0]})[0] == 400  # no matrix
        assert _post(url, {"matrix": "nope", "vectors": [1.0]})[0] == 404
        assert _post(url, {"matrix": "small"})[0] == 400  # no vectors
        assert (
            _post(url, {"matrix": "small", "op": "sideways", "vectors": [1.0]})[0]
            == 400
        )
        # wrong vector length
        assert _post(url, {"matrix": "small", "vectors": [1.0, 2.0]})[0] == 400
        # non-numeric vectors
        assert (
            _post(url, {"matrix": "small", "vectors": ["a", "b"]})[0] == 400
        )


class TestWire:
    @pytest.fixture
    def writes(self, monkeypatch):
        """Every ``wfile.write`` payload of the server's handlers."""
        recorded: list[bytes] = []

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                recorded.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = Recording(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        return recorded

    @pytest.mark.parametrize("kind", ["json", "error", "text"])
    def test_one_reply_is_one_write(self, serving, writes, kind):
        server, matrices = serving
        if kind == "json":
            x = np.ones(matrices["small"].shape[1])
            status, body = _post(
                f"{server.url}/multiply", {"matrix": "small", "vectors": x.tolist()}
            )
            expected = json.dumps(body).encode()
        elif kind == "error":
            status, body = _get_error(f"{server.url}/nope")
            expected = json.dumps(body).encode()
        else:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
                status, expected = resp.status, resp.read()
        assert len(writes) == 1
        (reply,) = writes
        head, _, body_bytes = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert f"Content-Length: {len(body_bytes)}".encode() in head
        assert body_bytes == expected

    def test_nagle_disabled(self):
        assert _Handler.disable_nagle_algorithm is True


class TestStatsAndEviction:
    def test_lru_eviction_observable_via_stats(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        x_small = np.ones(matrices["small"].shape[1]).tolist()
        x_wide = np.ones(matrices["wide"].shape[1]).tolist()
        assert _post(url, {"matrix": "small", "vectors": x_small})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["resident"] == 1
        assert stats["registry"]["evictions"] == 0
        # The budget fits one matrix: loading "wide" must evict "small".
        assert _post(url, {"matrix": "wide", "vectors": x_wide})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["evictions"] == 1
        assert stats["registry"]["resident"] == 1
        # Serving "small" again reloads it (a registry miss, not a hit).
        assert _post(url, {"matrix": "small", "vectors": x_small})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        assert stats["registry"]["loads"] == 3
        assert stats["registry"]["misses"] == 3

    def test_latency_percentiles_reported(self, serving):
        server, matrices = serving
        url = f"{server.url}/multiply"
        x = np.ones(matrices["small"].shape[1]).tolist()
        for _ in range(5):
            assert _post(url, {"matrix": "small", "vectors": x})[0] == 200
        _, stats = _get(f"{server.url}/stats")
        per_matrix = stats["matrices"]["small"]
        assert per_matrix["requests"] == 5
        assert per_matrix["errors"] == 0
        assert per_matrix["p50_ms"] > 0
        assert per_matrix["p99_ms"] >= per_matrix["p50_ms"]
        assert stats["workers"] == 2

    def test_errors_counted_per_matrix(self, serving):
        server, _ = serving
        url = f"{server.url}/multiply"
        assert _post(url, {"matrix": "small", "vectors": [1.0, 2.0]})[0] == 400
        _, stats = _get(f"{server.url}/stats")
        assert stats["matrices"]["small"]["errors"] == 1
