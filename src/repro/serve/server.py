"""Threaded HTTP scoring server (stdlib ``http.server`` + ``socketserver``).

Request handling is decoupled from accepting: the listener thread only
enqueues accepted connections into a **bounded** queue, and a fixed pool of
worker threads drains it.  Under overload the queue fills and new
connections are rejected immediately with a structured ``503`` JSON body
(backpressure, with a ``Retry-After`` hint) instead of piling up unbounded.
Every error path returns a JSON ``{"error": {"code", "message",
"request_id"}}`` document — never a stack trace.

Endpoints:

* ``GET /`` / ``GET /healthz`` — liveness + model descriptor.
* ``GET /model`` — the model descriptor alone.
* ``GET /metrics`` — JSON snapshot of the server's metrics registry
  (request counts/latency histogram, queue-depth gauge, rejections).
* ``POST /score`` — softmax field(s) in, per-segment scores out (see
  :mod:`repro.serve.protocol` for the accepted encodings).

Observability: every request is handled under a span of the server's
tracer (default: disabled) and assigned a ``req-<n>`` request id, echoed
in the ``X-Request-Id`` response header and in every structured error
body, so client logs correlate with server traces.  The metrics registry
is private to the server instance (pass a shared one to aggregate).

Worker threads are long-lived, so each one's band-sized extraction work
buffers (:mod:`repro.core.heatmaps`) stay warm across the requests it
serves; the bands of one request are shared with the process-wide helper
lanes of :mod:`repro.utils.lanes`.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional

from repro.obs import NULL_TRACER, MetricsRegistry
from repro.serve.protocol import RequestError, parse_score_request
from repro.serve.service import ScoringService

#: Default cap on request bodies (64 MiB holds a 1024x2048x19 float64 field).
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: How much of an oversized body is drained before responding, so
#: well-behaved clients receive the 413 JSON instead of a connection reset.
_DRAIN_LIMIT = 1024 * 1024


class ScoringRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the :class:`ScoringService`.

    One handler instance serves one connection on one worker thread
    (HTTP/1.0, one request per connection), so per-request attributes on
    ``self`` are single-threaded by construction; only the server's
    metrics/tracer — which are lock-guarded internally — are shared.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"

    #: Per-request id, allocated before dispatch; echoed in the
    #: ``X-Request-Id`` header and every structured error body.
    request_id = ""
    _response_status = 0

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------ ---
    def _send_json(self, status: int, payload: dict) -> None:
        self._response_status = status  # repro: allow[concurrency-shared-state] -- handler instance is per-connection, used by one worker thread
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        error = {"code": code, "message": message}
        if self.request_id:
            error["request_id"] = self.request_id
        self._send_json(status, {"error": error})

    # ------------------------------------------------------------------ ---
    def _dispatch(self, method: str, handler) -> None:
        """Run one request under its span, with id, latency and counters."""
        server = self.server
        self.request_id = server.next_request_id()  # repro: allow[concurrency-shared-state] -- handler instance is per-connection, used by one worker thread
        start = time.perf_counter()  # repro: allow[det-wallclock] -- request latency telemetry, never part of response payloads
        with server.tracer.span(
            "request", method=method, path=self.path, request_id=self.request_id
        ) as span:
            handler()
            span.set(status=self._response_status)
        elapsed = time.perf_counter() - start  # repro: allow[det-wallclock] -- request latency telemetry, never part of response payloads
        metrics = server.metrics
        metrics.counter("serve.requests.count").inc()
        if self._response_status >= 400:
            metrics.counter("serve.requests.errors").inc()
        metrics.histogram("serve.request.latency_seconds").observe(elapsed)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET", self._handle_get)

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch("POST", self._handle_post)

    def _handle_get(self) -> None:
        service: ScoringService = self.server.service
        if self.path in ("/", "/healthz"):
            self._send_json(200, {"status": "ok", **service.info()})
        elif self.path == "/model":
            self._send_json(200, service.info())
        elif self.path == "/metrics":
            self._send_json(200, self.server.metrics.snapshot())
        else:
            self._send_error_json(404, "not_found", f"unknown path {self.path!r}")

    def _handle_post(self) -> None:
        if self.path != "/score":
            self._send_error_json(404, "not_found", f"unknown path {self.path!r}")
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_error_json(411, "length_required", "Content-Length is required")
            return
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self._send_error_json(400, "bad_length", f"invalid Content-Length {raw_length!r}")
            return
        max_bytes = self.server.max_request_bytes
        if length > max_bytes:
            # Drain a bounded amount so the client sees the response instead
            # of a reset, then report the limit.
            try:
                self.rfile.read(min(length, _DRAIN_LIMIT))
            except OSError:
                pass
            self._send_error_json(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the limit of {max_bytes}",
            )
            return
        body = self.rfile.read(length)
        image_id = self.headers.get("X-Image-Id") or "frame"
        service: ScoringService = self.server.service
        try:
            frames = parse_score_request(
                self.headers.get("Content-Type"), body, default_image_id=image_id
            )
            result = service.score_frames(frames)
        except RequestError as exc:
            self._send_error_json(exc.status, exc.code, exc.message)
            return
        except ValueError as exc:
            # The extractor's numerical validation (shape/row-sum/classes).
            self._send_error_json(400, "bad_input", str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )
            return
        self._send_json(200, result)


class ScoringServer(HTTPServer):
    """HTTP server with a bounded request queue and a worker-thread pool.

    Parameters
    ----------
    service:
        The :class:`ScoringService` to expose.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`url`).
    workers:
        Number of long-lived handler threads (>= 1).
    queue_depth:
        Bound on accepted-but-unhandled connections (>= 1).  When full, new
        connections get an immediate ``503`` (backpressure) instead of
        queueing unboundedly.
    max_request_bytes:
        Request-body cap enforced before reading the body (413 beyond it).
    verbose:
        Enable stdlib per-request logging (quiet by default).
    metrics:
        The :class:`repro.obs.MetricsRegistry` behind ``GET /metrics``.
        Defaults to a registry private to this server (pass one in to
        aggregate several servers or to share with other seams).
    tracer:
        A :class:`repro.obs.Tracer` recording one span per request
        (default: the shared no-op tracer — zero cost).
    """

    allow_reuse_address = True

    def __init__(
        self,
        service: ScoringService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_depth: int = 16,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        verbose: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            # Queue(maxsize=0) would mean *unbounded*, the opposite of
            # backpressure — reject it instead of silently flipping meaning.
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_request_bytes < 1:
            raise ValueError(f"max_request_bytes must be >= 1, got {max_request_bytes}")
        self.service = service
        self.max_request_bytes = int(max_request_bytes)
        self.verbose = bool(verbose)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Monotonic per-server request-id sequence (``next()`` is atomic in
        #: CPython, so the listener and worker threads can all draw from it).
        self._request_ids = itertools.count(1)
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(maxsize=queue_depth)
        self._workers = []
        # Pre-create the serving instruments so /metrics shows the full
        # contract (latency histogram + queue gauge) from the first scrape,
        # not only after traffic has arrived.
        self.metrics.counter("serve.requests.count")
        self.metrics.counter("serve.requests.errors")
        self.metrics.counter("serve.rejected.count")
        self.metrics.gauge("serve.queue.depth")
        self.metrics.histogram("serve.request.latency_seconds")
        super().__init__((host, port), ScoringRequestHandler)
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"score-worker-{index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)

    def next_request_id(self) -> str:
        """Allocate the next ``req-<n>`` id (thread-safe)."""
        return f"req-{next(self._request_ids)}"

    # ------------------------------------------------------------------ ---
    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address):
        """Enqueue the accepted connection; reject with 503 when saturated."""
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            self._reject(request)
            self.shutdown_request(request)
            return
        self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())

    def _reject(self, request) -> None:
        """Raw 503 on the accepted socket (no handler thread available).

        The backpressure contract: a ``Retry-After`` hint (the queue drains
        in well under a second per slot) and a request id in both the
        ``X-Request-Id`` header and the error body, so rejected calls are
        correlatable even though no handler span ever ran.
        """
        request_id = self.next_request_id()
        self.metrics.counter("serve.rejected.count").inc()
        body = json.dumps(
            {"error": {"code": "overloaded",
                       "message": "request queue is full; retry later",
                       "request_id": request_id}}
        ).encode("utf-8")
        head = (
            "HTTP/1.0 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Retry-After: 1\r\n"
            f"X-Request-Id: {request_id}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            request.sendall(head + body)
        except OSError:
            pass

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def handle_error(self, request, client_address):
        if self.verbose:
            super().handle_error(request, client_address)

    def close(self) -> None:
        """Stop the workers and close the listening socket."""
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=5)
        self.server_close()


__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "ScoringRequestHandler",
    "ScoringServer",
]
