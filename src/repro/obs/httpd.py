"""An optional HTTP scrape endpoint for the standing worker pool.

``workers serve --http`` mounts this tiny stdlib ``http.server`` thread
next to the pool's ``oolong-status-1`` status socket so a real
Prometheus (or a plain ``curl``) can scrape it without speaking the
framed status protocol:

* ``GET /metrics``  — Prometheus text exposition, rendered through the
  exact same path as ``workers status --metrics-format prom``
  (``MetricsRegistry.merge_dict(...).to_prometheus()``), so counter
  values agree with the status-protocol rendering by construction;
* ``GET /healthz``  — ``ok`` with status 200 while the server is up
  (the liveness probe);
* ``GET /status``   — the full status payload as JSON, identical to
  the ``oolong-status-1`` answer.

The handler is read-only and takes one ``snapshot`` callable (the same
one the :class:`~repro.parallel.transport.StatusServer` serves), so
mounting it on a new server type costs one constructor call.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


def render_prometheus(payload: dict) -> str:
    """The Prometheus text rendering of one status payload.

    One code path for every consumer (HTTP ``/metrics``, the CLI's
    ``--metrics-format prom``): rebuild a registry from the payload's
    ``metrics`` dict and render it, so all renderings are equal.
    """
    registry = MetricsRegistry()
    registry.merge_dict(payload.get("metrics", {}) or {})
    return registry.to_prometheus()


class TelemetryHTTPServer:
    """A daemon-thread HTTP server exposing /metrics, /healthz, /status."""

    def __init__(
        self,
        address: Tuple[str, int],
        snapshot: Callable[[], dict],
    ):
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            # The scrape endpoint must never write prose to the
            # server's stdout (it is machine-readable announce lines).
            def log_message(self, fmt, *args):  # noqa: N802
                pass

            def do_GET(self):  # noqa: N802
                try:
                    outer._respond(self)
                except BrokenPipeError:
                    pass

        self._server = ThreadingHTTPServer(address, _Handler)
        self._server.daemon_threads = True
        self.address: Tuple[str, int] = self._server.server_address[:2]
        self._snapshot = snapshot
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def _respond(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/healthz":
            body = b"ok\n"
            content_type = "text/plain; charset=utf-8"
        elif path in ("/metrics", "/status"):
            try:
                payload = self._snapshot()
            except Exception as error:  # snapshot races server teardown
                handler.send_response(500)
                handler.end_headers()
                handler.wfile.write(f"snapshot failed: {error}\n".encode())
                return
            if path == "/metrics":
                body = render_prometheus(payload).encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = (
                    json.dumps(payload, sort_keys=True, indent=2) + "\n"
                ).encode("utf-8")
                content_type = "application/json"
        else:
            handler.send_response(404)
            handler.end_headers()
            handler.wfile.write(b"not found\n")
            return
        handler.send_response(200)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def start(self) -> "TelemetryHTTPServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="oolong-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # shutdown() waits for serve_forever, which an unstarted server never ran.
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()
