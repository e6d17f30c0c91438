"""Stdlib HTTP JSON API over the matrix registry.

``python -m repro serve ROOT`` exposes a directory of ``.gcmx`` files
as a small serving endpoint (no third-party dependencies — the stack
is ``http.server`` + ``json``):

``GET /matrices``
    List registered matrices (header info only; nothing is loaded).
``GET /matrices/<name>``
    Detail for one matrix, including residency.
``POST /multiply``
    Body ``{"matrix": name, "vectors": [[...], ...], "op": "right"}``.
    ``vectors`` is one vector or a batch of row vectors; the whole
    batch is answered with one panel multiplication
    (:mod:`repro.serve.batch`), which is where the serving throughput
    comes from.  ``op`` is ``right`` (``y = Mx``, vectors of length
    ``n_cols``) or ``left`` (``xᵗ = yᵗM``, length ``n_rows``).
    Response ``result[i]`` is the product for ``vectors[i]``.
``POST /jobs``
    Body ``{"algorithm": name, "matrix": name, "params": {...}}``.
    Submits a named :mod:`repro.solve` algorithm (``power``,
    ``pagerank``, ``cg``, ``ridge``, ``topk``) as an asynchronous job
    against a registered matrix; answers ``202`` with the job record
    immediately.  Unknown algorithms are a typed ``400``
    (:class:`repro.errors.UnknownAlgorithmError`), unknown matrices a
    ``404`` — both caught at submission, before anything runs.
``GET /jobs`` / ``GET /jobs/<id>``
    List job records / poll one: status (``queued`` → ``running`` →
    ``done``/``failed``) and, once finished, the solver result with
    its per-iteration convergence + latency trace.
``GET /stats``
    Registry counters (hits/loads/evictions/residency — including
    ``shard_loads`` / ``shard_evictions`` / ``resident_shards`` for
    sharded containers served shard-by-shard), per-matrix request
    counts with latency percentiles, job counters, and the package
    version.
``GET /store``
    Catalog summary when the server was started against a
    :class:`repro.store.MatrixStore` (``repro serve --store``): root,
    schema version, row count, total payload bytes, mmap mode.  ``404``
    when serving a plain directory.
``GET /metrics``
    Prometheus text exposition of every metric family on the server's
    :class:`~repro.obs.metrics.MetricsRegistry` — the same counters
    ``/stats`` reports as JSON, plus latency histograms and HTTP
    response counts (:mod:`repro.obs`).
``GET /trace/<id>``
    Span tree of one recently traced request or job.  ``POST
    /multiply`` and ``POST /jobs`` run under a request trace and echo
    its id in the ``X-Repro-Trace-Id`` response header; job payloads
    carry the background run's ``trace_id``.  Traces are retained in a
    bounded ring (older ones answer 404) and optionally appended as
    JSONL to ``repro serve --trace-log``.
``GET /healthz``
    Liveness probe.

Sharded containers (``repro shard``, kind tag 9) are served lazily:
the registry materialises only the shard manifest at load time, shard
payloads stream in on the first multiplication that needs them, and
after each request cold *shards* are evicted back to disk until the
loaded window fits the registry's byte budget — listing
(``/matrices``) reports ``n_shards`` and, once resident,
``resident_shards`` per entry.

Requests are handled on one thread each (``ThreadingHTTPServer``);
block-level parallelism inside a single multiplication additionally
uses the server's persistent :class:`~repro.serve.executor.BlockExecutor`
when ``workers > 1``.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter

import numpy as np

from repro._version import __version__
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IntegrityError,
    ReproError,
    SerializationError,
    ShardUnavailableError,
    SolveError,
)
from repro.obs.export import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.export import render_prometheus
from repro.obs.metrics import Counter
from repro.obs.trace import Trace, TraceStore, span, trace_scope
from repro.resilience.policy import Deadline, deadline_scope
from repro.serve.batch import batch_left_multiply, batch_right_multiply
from repro.serve.executor import BlockExecutor
from repro.serve.jobs import JobManager
from repro.serve.registry import MatrixRegistry
from repro.serve.stats import ServeStats

_LOG = logging.getLogger("repro.serve.server")

#: Default TCP port (0 = ephemeral, used by tests).
DEFAULT_PORT = 8753

#: Accepted values for the ``op`` field of ``/multiply``.
MULTIPLY_OPS = ("right", "left")

#: Most vectors accepted in one ``/multiply`` request (the response is
#: ``n_rows × k`` JSON floats — beyond this the client should page).
DEFAULT_MAX_VECTORS = 1024

#: Panel width the batched kernel is chunked to: bounds the grammar
#: engine's ``(|R|, panel_width)`` float64 workspace per call.
DEFAULT_PANEL_WIDTH = 64


class _RequestError(Exception):
    """An HTTP error response with a status code and message.

    ``retry_after`` (seconds, optional) becomes a ``Retry-After``
    header — set on 503/504 responses so clients back off for exactly
    the breaker/deadline interval instead of guessing.
    """

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class MatrixServer:
    """The serving engine: registry + executor + stats behind HTTP.

    Parameters
    ----------
    registry:
        A populated :class:`~repro.serve.registry.MatrixRegistry`.
    workers:
        Block-level parallelism per request; ``> 1`` keeps a persistent
        thread :class:`~repro.serve.executor.BlockExecutor` alive for
        the server's lifetime.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` for the bound value).
    max_vectors, panel_width:
        Request-size guards: batches above ``max_vectors`` are
        rejected with 400, and accepted batches are chunked to
        ``panel_width``-column panels so one request cannot allocate
        an unbounded multiplication workspace.
    job_workers:
        Background worker threads draining the ``/jobs`` queue — how
        many iterative solves run concurrently (they share this
        server's executor and registry budget).
    request_deadline_ms:
        Optional per-request time budget for ``/multiply``: shard
        loads and the batched kernel check it, and an expired request
        answers a typed 504 with ``Retry-After`` instead of holding
        the connection (``repro serve --request-deadline-ms``).
    join_timeout:
        Seconds :meth:`close` waits for the serve thread (and each job
        worker) before declaring it leaked.
    """

    def __init__(
        self,
        registry: MatrixRegistry,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_vectors: int = DEFAULT_MAX_VECTORS,
        panel_width: int = DEFAULT_PANEL_WIDTH,
        job_workers: int = 1,
        request_deadline_ms: int | None = None,
        join_timeout: float = 5.0,
        trace_log: str | Path | None = None,
    ):
        if request_deadline_ms is not None and request_deadline_ms < 1:
            raise ReproError(
                f"request_deadline_ms must be >= 1, got {request_deadline_ms}"
            )
        self.registry = registry
        # One metrics registry for the whole server: the matrix
        # registry owns it, stats/jobs/handler all feed it, and
        # ``GET /metrics`` renders it.
        self.metrics = registry.metrics
        self.stats = ServeStats(metrics=self.metrics)
        self.max_vectors = int(max_vectors)
        self.panel_width = int(panel_width)
        self.request_deadline_ms = request_deadline_ms
        self.join_timeout = float(join_timeout)
        self._c_leaked_threads = Counter()
        sink = (
            open(trace_log, "a", encoding="utf-8")
            if trace_log is not None
            else None
        )
        self.traces = TraceStore(sink=sink)
        self._c_http = self.metrics.counter(
            "repro_http_responses_total",
            "HTTP responses by route and status code.",
            labels=("route", "status"),
        )
        self.metrics.gauge(
            "repro_server_workers", "Block-level worker threads per request."
        ).set(workers)
        self.metrics.gauge(
            "repro_build_info",
            "Always 1; the version label carries the package version.",
            labels=("version",),
        ).labels(version=__version__).set(1)
        self.executor = BlockExecutor(workers) if workers > 1 else None
        self.jobs = JobManager(
            registry,
            executor=self.executor,
            workers=job_workers,
            join_timeout=join_timeout,
            metrics=self.metrics,
            traces=self.traces,
        )
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def leaked_threads(self) -> int:
        return int(self._c_leaked_threads.value)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or Ctrl-C)."""
        self._httpd.serve_forever()

    def start(self) -> MatrixServer:
        """Serve on a daemon thread and return immediately (for tests)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the port, job workers, and pool.

        A serve thread that fails to join within ``join_timeout`` (a
        request wedged past shutdown) is counted in
        :attr:`leaked_threads` and logged instead of silently leaking.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=self.join_timeout)
            if self._thread.is_alive():
                self._c_leaked_threads.inc()
                _LOG.warning(
                    "serve thread failed to stop within %.1fs and was "
                    "leaked", self.join_timeout,
                )
            self._thread = None
        self.jobs.close()
        if self.executor is not None:
            self.executor.shutdown()
        self.traces.close()

    def __enter__(self) -> MatrixServer:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- endpoint logic (HTTP-free, unit-testable) ----------------------------------

    def list_matrices(self) -> dict:
        return {"matrices": self.registry.entries()}

    def matrix_detail(self, name: str) -> dict:
        try:
            return self.registry.describe(name)
        except SerializationError as exc:
            raise _RequestError(404, str(exc)) from exc

    def stats_payload(self) -> dict:
        return {
            "version": __version__,
            "registry": self.registry.stats(),
            "matrices": self.stats.snapshot(),
            "jobs": self.jobs.stats(),
            "workers": self.executor.workers if self.executor else 1,
            "request_deadline_ms": self.request_deadline_ms,
            "leaked_threads": self.leaked_threads,
            "store": self.registry.store_info(),
        }

    def store_payload(self) -> dict:
        """Answer ``GET /store`` — 404 when serving a plain directory."""
        info = self.registry.store_info()
        if info is None:
            raise _RequestError(
                404, "no store attached (server was started without --store)"
            )
        return info

    def metrics_text(self) -> str:
        """Answer ``GET /metrics``: the Prometheus text exposition."""
        return render_prometheus(self.metrics)

    def trace_payload(self, trace_id: str) -> dict:
        """Answer ``GET /trace/<id>`` — 404 once evicted from the ring."""
        payload = self.traces.payload(trace_id)
        if payload is None:
            raise _RequestError(
                404,
                f"unknown trace {trace_id!r} (retained: last "
                f"{self.traces.capacity} requests)",
            )
        return payload

    def _request_deadline(self) -> Deadline | None:
        """A fresh deadline for one request (``None`` when unset)."""
        if self.request_deadline_ms is None:
            return None
        return Deadline.after(self.request_deadline_ms / 1000.0)

    # -- job endpoints ---------------------------------------------------------------

    def submit_job(self, payload: dict) -> dict:
        """Answer one ``POST /jobs`` (validation errors are typed 4xx)."""
        if not isinstance(payload, dict):
            raise _RequestError(400, "request body must be a JSON object")
        algorithm = payload.get("algorithm")
        if not isinstance(algorithm, str):
            raise _RequestError(400, "missing string field 'algorithm'")
        name = payload.get("matrix")
        if not isinstance(name, str):
            raise _RequestError(400, "missing string field 'matrix'")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise _RequestError(400, "'params' must be a JSON object")
        try:
            job = self.jobs.submit(
                algorithm, name, params,
                deadline_ms=payload.get("deadline_ms"),
            )
        except SerializationError as exc:  # unknown matrix / closed store
            raise _RequestError(404, str(exc)) from exc
        except SolveError as exc:  # UnknownAlgorithmError, bad params
            raise _RequestError(400, str(exc)) from exc
        except ReproError as exc:
            raise _RequestError(400, str(exc)) from exc
        return {"job": job.describe()}

    def list_jobs(self) -> dict:
        return {
            "jobs": [job.describe(include_result=False) for job in self.jobs.jobs()]
        }

    def job_detail(self, job_id: str) -> dict:
        try:
            return {"job": self.jobs.get(job_id).describe()}
        except SerializationError as exc:
            raise _RequestError(404, str(exc)) from exc

    def multiply(self, payload: dict) -> dict:
        """Answer one ``/multiply`` request (also records stats).

        Failures map to *typed* statuses: 404 unknown matrix, 400
        client mistakes, 503 + ``Retry-After`` for quarantined or
        corrupt resources (open breakers,
        :class:`~repro.errors.IntegrityError`,
        :class:`~repro.errors.ShardUnavailableError`), 504 +
        ``Retry-After`` for an expired request deadline.  A failure of
        one matrix never affects requests for others.
        """
        if not isinstance(payload, dict):
            raise _RequestError(400, "request body must be a JSON object")
        name = payload.get("matrix")
        if not isinstance(name, str):
            raise _RequestError(400, "missing string field 'matrix'")
        op = payload.get("op", "right")
        if op not in MULTIPLY_OPS:
            raise _RequestError(
                400, f"unknown op {op!r}; expected one of {MULTIPLY_OPS}"
            )
        if "vectors" not in payload:
            raise _RequestError(400, "missing field 'vectors'")
        start = perf_counter()
        with deadline_scope(self._request_deadline()):
            try:
                matrix = self.registry.get(name)
            except IntegrityError as exc:
                self.stats.record(name, None, error=True)
                raise _RequestError(503, str(exc)) from exc
            except SerializationError as exc:
                raise _RequestError(404, str(exc)) from exc
            except (ReproError, OSError) as exc:
                self.stats.record(name, None, error=True)
                raise self._unavailable(exc) from exc
            try:
                panel = self._request_panel(matrix, payload["vectors"], op)
                if panel.shape[1] > self.max_vectors:
                    raise _RequestError(
                        400,
                        f"request has {panel.shape[1]} vectors, limit is "
                        f"{self.max_vectors}; split the batch",
                    )
                multiply = batch_right_multiply if op == "right" else batch_left_multiply
                with span(
                    "multiply.kernel", matrix=name, op=op,
                    k=int(panel.shape[1]),
                ):
                    result = multiply(
                        matrix, panel, executor=self.executor,
                        panel_width=self.panel_width,
                    )
            except _RequestError:
                self.stats.record(name, None, error=True)
                raise
            except (
                DeadlineExceededError,
                CircuitOpenError,
                ShardUnavailableError,
                IntegrityError,
            ) as exc:
                self.stats.record(name, None, error=True)
                raise self._unavailable(exc) from exc
            except ReproError as exc:
                self.stats.record(name, None, error=True)
                raise _RequestError(400, str(exc)) from exc
            except (TypeError, ValueError) as exc:
                self.stats.record(name, None, error=True)
                raise _RequestError(400, f"bad vectors: {exc}") from exc
        seconds = perf_counter() - start
        self.stats.record(name, seconds)
        # Lazy sharded matrices stream shards in during the multiply,
        # growing residency past the load-time check — re-apply the
        # budget now (the matrix just served stays resident).
        self.registry.enforce_budget(keep=name)
        return {
            "matrix": name,
            "format": getattr(matrix, "format_name", None),
            "op": op,
            "k": int(result.shape[1]),
            "seconds": seconds,
            "result": result.T.tolist(),
        }

    @staticmethod
    def _unavailable(exc: BaseException) -> _RequestError:
        """Map a resilience-layer failure to its 5xx ``_RequestError``.

        504 for an expired deadline, 503 for everything else that makes
        the resource temporarily (open breaker, transient IO) or
        persistently (corrupt payload) unservable — never an untyped
        500.
        """
        if isinstance(exc, DeadlineExceededError):
            budget = exc.budget if exc.budget else 1.0
            return _RequestError(504, str(exc), retry_after=budget)
        retry_after = getattr(exc, "retry_after", 0.0)
        if isinstance(exc, IntegrityError):
            # Corruption is persistent: no Retry-After, the payload
            # must be repaired, not re-requested.
            return _RequestError(503, str(exc))
        return _RequestError(
            503, str(exc), retry_after=retry_after if retry_after > 0 else 1.0
        )

    @staticmethod
    def _request_panel(matrix, vectors, op: str) -> np.ndarray:
        """JSON vectors → ``(operand_len, k)`` panel (row-vector convention).

        Deliberately *not* :func:`repro.serve.batch.as_panel`: the
        HTTP contract is "a list of row vectors", so 2-D input is
        always transposed — ``as_panel``'s orientation heuristic would
        silently misread a square batch.  The length check here also
        produces the 400 message with the op and matrix shape.
        """
        try:
            panel = np.asarray(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _RequestError(400, f"bad vectors: {exc}") from exc
        if panel.ndim == 1:
            panel = panel[:, None]
        elif panel.ndim == 2:
            panel = np.ascontiguousarray(panel.T)
        else:
            raise _RequestError(
                400, f"'vectors' must be 1-D or 2-D, got ndim={panel.ndim}"
            )
        expected = matrix.shape[1] if op == "right" else matrix.shape[0]
        if panel.shape[0] != expected:
            raise _RequestError(
                400,
                f"vectors have length {panel.shape[0]}, expected {expected} "
                f"for op {op!r} on shape {matrix.shape}",
            )
        return panel


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`MatrixServer`'s endpoint methods."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a reply is one write, so nothing is gained by holding
    #: its last segment back until the previous one is acknowledged.
    disable_nagle_algorithm = True

    #: Route labels the HTTP-response counter may use; anything else is
    #: folded into ``other`` so a path-scanning client cannot inflate
    #: the metric's label cardinality.
    _ROUTES = (
        "/healthz",
        "/jobs",
        "/jobs/<id>",
        "/matrices",
        "/matrices/<name>",
        "/metrics",
        "/multiply",
        "/stats",
        "/store",
        "/trace/<id>",
    )

    @property
    def app(self) -> MatrixServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, *_args) -> None:  # stay quiet under pytest/CLI
        pass

    def _send_common_headers(self, status: int) -> None:
        self.send_response(status)
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Repro-Trace-Id", trace_id)
        route = getattr(self, "_route", "other")
        self.app._c_http.labels(route=route, status=str(status)).inc()

    def _respond(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        headers = {"Content-Type": "application/json"}
        if retry_after is not None:
            headers["Retry-After"] = str(max(0, math.ceil(retry_after)))
        self._send(status, json.dumps(payload).encode(), headers)

    def _respond_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), {"Content-Type": content_type})

    def _send(self, status: int, body: bytes, headers: dict[str, str]) -> None:
        """Send status line, headers and body in **one** write.

        ``end_headers`` would flush the headers on their own.  Under
        Nagle's algorithm the body behind them then waits for the
        client's delayed ACK of the headers: ~40 ms per keep-alive reply.
        """
        self._send_common_headers(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        buffered = getattr(self, "_headers_buffer", None)
        if buffered is None:  # HTTP/0.9: no status line, no headers
            self.wfile.write(body)
            return
        buffered += (b"\r\n", body)
        self._headers_buffer = []
        self.wfile.write(b"".join(buffered))

    def _run_traced(self, fn, name: str) -> dict:
        """Run one endpoint under a fresh request trace.

        The trace is recorded into the server's ring *before* the
        response is written (by the caller), so a client that reads
        ``X-Repro-Trace-Id`` and immediately fetches ``/trace/<id>``
        never races the recording.
        """
        trace = Trace(name=name)
        trace.root.set("path", self.path)
        self._trace_id = trace.trace_id
        try:
            with trace_scope(trace):
                return fn()
        except BaseException as exc:
            trace.root.set("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.app.traces.record(trace)

    def _guarded(self, fn, status: int = 200, trace: str | None = None) -> None:
        try:
            payload = fn() if trace is None else self._run_traced(fn, trace)
            self._respond(status, payload)
        except _RequestError as exc:
            self._respond(
                exc.status, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except (  # ra: retry — HTTP boundary: maps to a typed 5xx response
            DeadlineExceededError,
            CircuitOpenError,
            ShardUnavailableError,
            IntegrityError,
        ) as exc:
            # Safety net for endpoints that don't map these themselves:
            # resilience failures always answer typed 5xx, never a
            # bare 500.
            mapped = MatrixServer._unavailable(exc)
            self._respond(
                mapped.status, {"error": str(mapped)},
                retry_after=mapped.retry_after,
            )
        except Exception as exc:  # noqa: BLE001 — a request must not kill the server
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _begin_request(self, path: str) -> None:
        """Reset per-request handler state (keep-alive reuses handlers)."""
        self._trace_id: str | None = None
        if path.startswith("/matrices/"):
            route = "/matrices/<name>"
        elif path.startswith("/jobs/"):
            route = "/jobs/<id>"
        elif path.startswith("/trace/"):
            route = "/trace/<id>"
        else:
            route = path
        self._route = route if route in self._ROUTES else "other"

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.rstrip("/") or "/"
        self._begin_request(path)
        if path == "/matrices":
            self._guarded(self.app.list_matrices)
        elif path.startswith("/matrices/"):
            name = path[len("/matrices/") :]
            self._guarded(lambda: self.app.matrix_detail(name))
        elif path == "/jobs":
            self._guarded(self.app.list_jobs)
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/") :]
            self._guarded(lambda: self.app.job_detail(job_id))
        elif path == "/stats":
            self._guarded(self.app.stats_payload)
        elif path == "/metrics":
            try:
                self._respond_text(
                    200, self.app.metrics_text(), METRICS_CONTENT_TYPE
                )
            except Exception as exc:  # noqa: BLE001 — never kill the server
                self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/") :]
            self._guarded(lambda: self.app.trace_payload(trace_id))
        elif path == "/store":
            self._guarded(self.app.store_payload)
        elif path == "/healthz":
            self._respond(200, {"status": "ok"})
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise _RequestError(400, f"invalid JSON body: {exc}") from exc

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.rstrip("/")
        self._begin_request(path)
        if path == "/multiply":
            self._guarded(
                lambda: self.app.multiply(self._read_json_body()),
                trace="POST /multiply",
            )
        elif path == "/jobs":
            # 202: the job is accepted and runs in the background.  The
            # request trace covers submission only; the background run
            # records separately under the job's own ``trace_id``.
            self._guarded(
                lambda: self.app.submit_job(self._read_json_body()),
                status=202, trace="POST /jobs",
            )
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})
