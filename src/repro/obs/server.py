"""A background HTTP endpoint serving ``/metrics`` and ``/healthz``.

Stdlib-only (``http.server`` on a daemon thread), so embedding costs an
import and one call::

    from repro import obs

    server = obs.start_server(port=9100)   # also enables collection
    ...                                    # compress/decompress as usual
    print(server.url)                      # http://127.0.0.1:9100
    server.stop()

``GET /metrics`` renders the active registry in Prometheus text format
(refreshing the trace-bridge gauges first when a trace context is
active); ``GET /healthz`` answers liveness probes with a small JSON
body.  Binding port 0 picks a free port — :attr:`MetricsServer.port`
reports the real one — which keeps tests and parallel jobs collision
free.
"""

from __future__ import annotations

import errno
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import bridge, prometheus, runtime
from .registry import MetricsRegistry

__all__ = ["MetricsServer", "PortInUseError", "bind_with_fallback",
           "start_server"]


class PortInUseError(OSError):
    """The requested port is already bound by another process.

    Raised instead of the raw ``OSError`` so callers (the
    ``serve-metrics`` and ``serve`` CLIs) can offer the port-0 fallback
    with a clear message rather than a traceback.
    """

    def __init__(self, host: str, port: int,
                 surface: str = "metrics") -> None:
        super().__init__(errno.EADDRINUSE,
                         f"{surface} port {host}:{port} is already in use")
        self.host = host
        self.port = port
        self.surface = surface


def bind_with_fallback(bind, host: str, port: int,
                       auto_port: bool = False,
                       surface: str = "metrics"):
    """The one shared ``--auto-port`` path for every pressio listener.

    Calls ``bind(host, port)``; on ``EADDRINUSE`` the collision is
    counted (``pressio_<surface>_port_in_use_total``) and then either
    the bind is retried on port 0 (``auto_port=True`` — the kernel
    hands out a free port, so concurrent startups cannot race on a
    fixed number) or a typed :class:`PortInUseError` is raised.

    ``serve-metrics`` and ``serve`` both route their sockets through
    here — the regression test for concurrent startup pins that they
    stay on this path rather than growing divergent retry loops.
    """
    try:
        return bind(host, port)
    except OSError as e:
        if e.errno != errno.EADDRINUSE:
            raise
        runtime.count(
            f"pressio_{surface}_port_in_use_total",
            f"{surface} startups that hit EADDRINUSE",
            host=host, port=str(port))
        if auto_port and port != 0:
            return bind(host, 0)
        raise PortInUseError(host, port, surface=surface) from e


class MetricsServer:
    """Owns the listening socket and its serving thread."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 auto_port: bool = False) -> None:
        self._registry = registry
        self._host = host
        self._requested_port = port
        self._auto_port = auto_port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                server._handle(self)

            def log_message(self, format: str, *args) -> None:
                from .logging import get_logger

                get_logger("obs.http").debug(format % args)

        self._httpd = bind_with_fallback(
            lambda host, port: ThreadingHTTPServer((host, port), Handler),
            self._host, self._requested_port,
            auto_port=self._auto_port, surface="metrics")
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="pressio-metrics-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry | None:
        """The pinned registry, or the ambient one when none was pinned."""
        return self._registry if self._registry is not None else runtime.ACTIVE

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_at if self._httpd else 0.0

    # -- request handling --------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            body, content_type, code = self._metrics_response()
        elif path in ("/healthz", "/health"):
            body, content_type, code = self._health_response()
        else:
            body = b"not found; try /metrics or /healthz\n"
            content_type, code = "text/plain; charset=utf-8", 404
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)

    def _metrics_response(self) -> tuple[bytes, str, int]:
        registry = self.registry
        if registry is None:
            return (b"# metrics collection is disabled "
                    b"(call repro.obs.enable_metrics())\n",
                    prometheus.CONTENT_TYPE, 200)
        return (bridge.exposition(registry).encode("utf-8"),
                prometheus.CONTENT_TYPE, 200)

    def _health_response(self) -> tuple[bytes, str, int]:
        registry = self.registry
        operations = 0.0
        if registry is not None:
            family = registry.get("pressio_operations_total")
            if family is not None:
                operations = sum(child.value
                                 for _, child in family.samples())
        payload = {
            "status": "ok",
            "uptime_seconds": round(self.uptime_seconds, 3),
            "collecting": registry is not None,
            "operations": operations,
        }
        return (json.dumps(payload).encode("utf-8") + b"\n",
                "application/json", 200)


def start_server(port: int = 0, host: str = "127.0.0.1",
                 registry: MetricsRegistry | None = None,
                 auto_port: bool = False) -> MetricsServer:
    """Enable collection (if needed) and serve it in the background.

    When no registry is passed and none is active, a fresh one is
    installed via :func:`repro.obs.runtime.enable_metrics` so operations
    that follow are counted without further setup.  ``auto_port=True``
    falls back to an OS-assigned port when the requested one is taken.
    """
    if registry is None and runtime.ACTIVE is None:
        runtime.enable_metrics()
    return MetricsServer(registry=registry, host=host, port=port,
                         auto_port=auto_port).start()
