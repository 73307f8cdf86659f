"""The ``pressio serve`` daemon: multi-tenant compression over HTTP.

Transport is deliberately lean.  ``http.server``'s request handler
costs milliseconds per request once Nagle's algorithm meets delayed
ACKs, so the daemon speaks a hand-rolled HTTP/1.1 subset directly on
``socketserver.ThreadingTCPServer``: ``TCP_NODELAY`` both ways,
keep-alive connections, ``Content-Length`` framing only.  Measured on
the 24³ bench configs this keeps transport + queue hop near 20µs —
the margin that lets the served round trip beat the paper's 17.5%
out-of-process overhead (Section V(d), ``docs/SERVING.md``).

Request lifecycle per connection thread::

    parse HTTP -> read body (pooled buffer) -> decode frame
      -> quota.admit(tenant)           # 429 + Retry-After
      -> admission.enter()             # 503 + Retry-After
      -> WorkItem on the worker queue  # workers.py executes
      <- reply queue -> encode frame -> write HTTP response

Endpoints:

* ``POST /v1/compress`` / ``/v1/decompress`` / ``/v1/roundtrip`` —
  one ``pressio-serve/1`` frame in, one frame out;
* ``POST /v1/release`` — the client is done with a shared-memory
  segment; drop cached views so it can be unlinked;
* ``GET /v1/compressors`` — registry listing (JSON);
* ``GET /healthz`` — liveness + worker/queue stats (JSON);
* ``GET /metrics`` — the active obs registry in Prometheus text, via
  the one :func:`repro.obs.bridge.exposition` (trace and buffer-pool
  gauges refreshed first).

Every request lands in the ``pressio_serve_*`` metric families with a
``tenant`` label; the body read buffer comes from the native buffer
pool and is released on every exit path.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import socketserver
import threading
import time

import numpy as np

from ..core.library import Pressio
from ..native import pool as _pool
from ..obs import bridge as _bridge
from ..obs import prometheus as _prom
from ..obs import runtime as _obs
from ..obs.server import bind_with_fallback
from .cache import ArtifactCache
from .errors import (
    BadFrameError,
    InternalServeError,
    PayloadTooLargeError,
    ServeError,
    map_exception,
)
from .quota import AdmissionController, QuotaManager
from .shm import SegmentCache
from .wire import (
    MAGIC,
    MAX_HEADER_BYTES,
    WIRE_VERSION,
    Response,
    decode_request,
    encode_response,
)
from .workers import WorkerPool, WorkItem

__all__ = ["ServeServer", "start_serve_server"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

CONTENT_TYPE = "application/x-pressio-serve"

#: Request-duration buckets sized for microsecond-scale round trips.
_SERVE_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                  0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0)

_FRAME_OPS = {"/v1/compress": "compress", "/v1/decompress": "decompress",
              "/v1/roundtrip": "roundtrip", "/v1/ping": "ping"}


class _ServeTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128
    owner: "ServeServer" = None  # type: ignore[assignment]


class _ServeUnixServer(socketserver.ThreadingUnixStreamServer):
    """Same-host listener: a loopback hop over AF_UNIX costs less
    than TCP (no protocol stack traversal), which matters when the
    whole overhead budget is ~150µs."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128
    owner: "ServeServer" = None  # type: ignore[assignment]


class _Handler(socketserver.StreamRequestHandler):
    """Keep-alive HTTP/1.1 loop, one thread per connection."""

    disable_nagle_algorithm = True
    rbufsize = 64 * 1024
    wbufsize = 0

    def handle(self) -> None:
        server: ServeServer = self.server.owner
        while not server.stopping:
            try:
                if not self._handle_one(server):
                    return
            except (ConnectionError, BrokenPipeError, OSError):
                return

    #: one-slot (header bytes -> nbytes) memo for the raw-frame loop;
    #: steady-state clients resend byte-identical headers
    _hdr_memo: tuple[bytes, int] | None = None

    def _handle_one(self, server: "ServeServer") -> bool:
        # raw pressio-serve/1 framing shares the listener with HTTP:
        # sniff the frame magic without consuming (our client sends
        # each message in one segment, so 4+ bytes are buffered)
        if self.rfile.peek(4)[:4] == MAGIC:
            return self._handle_raw(server)
        line = self.rfile.readline(8192)
        if not line:
            return False
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            self._respond(400, b"malformed request line\n",
                          content_type="text/plain")
            return False
        length = 0
        keep_alive = True
        while True:
            raw = self.rfile.readline(8192)
            if raw in (b"\r\n", b"\n", b""):
                break
            # exact-case fast path first: our own client always sends
            # "Content-Length:"/"Host:", so the general (decode + strip
            # + lower) parse only runs for foreign clients
            if raw.startswith(b"Content-Length:"):
                try:
                    length = int(raw[15:])
                except ValueError:
                    self._respond(400, b"bad content-length\n",
                                  content_type="text/plain")
                    return False
            elif raw.startswith(b"Host:"):
                continue
            else:
                name, _, value = raw.decode("latin-1").partition(":")
                name = name.strip().lower()
                value = value.strip()
                if name == "content-length":
                    try:
                        length = int(value)
                    except ValueError:
                        self._respond(400, b"bad content-length\n",
                                      content_type="text/plain")
                        return False
                elif name == "connection" and value.lower() == "close":
                    keep_alive = False
        if length > server.max_payload:
            # drain would be unbounded; answer and drop the connection
            err = PayloadTooLargeError(
                f"payload {length} bytes exceeds limit "
                f"{server.max_payload}")
            frame = encode_response(Response(
                ok=False, op="", error=err.to_payload()))
            self._respond(err.http_status, frame)
            return False
        body: bytes | memoryview = b""
        pooled = None
        if 0 < length <= 16384:
            # tiny bodies (shm-descriptor frames) skip the pool: the
            # acquire/release pair costs more than the read itself.
            # Kept as bytes so the decode memo can key on it directly.
            data = self.rfile.read(length)
            if len(data) != length:
                return False
            body = data
        elif length:
            pooled = _pool.acquire((length,), np.uint8)
        try:
            if pooled is not None:
                body = memoryview(pooled)[:length]
                read = 0
                while read < length:
                    n = self.rfile.readinto(body[read:])
                    if not n:
                        return False
                    read += n
            status, headers, out = server.handle_http(method, path, body)
            self._respond(status, out, extra=headers)
        finally:
            if pooled is not None:
                del body  # the pooled buffer goes back; drop our view
                _pool.release(pooled)
        return keep_alive

    def _handle_raw(self, server: "ServeServer") -> bool:
        """One bare PSV1 frame in, one frame out (no HTTP envelope).

        Frame boundaries come from the header's ``nbytes`` field; if
        the header cannot be parsed the boundary is unknown and the
        connection is dropped rather than desynced.
        """
        r = self.rfile
        head = r.read(8)
        if len(head) < 8:
            return False
        hlen = int.from_bytes(head[4:8], "big")
        if hlen > MAX_HEADER_BYTES:
            return False
        hdr = r.read(hlen)
        if len(hdr) < hlen:
            return False
        memo = self._hdr_memo
        if memo is not None and hdr == memo[0]:
            nbytes = memo[1]
        else:
            try:
                nbytes = int(json.loads(hdr).get("nbytes", 0))
            except (ValueError, TypeError, json.JSONDecodeError):
                return False
            if nbytes < 0 or nbytes > server.max_payload:
                return False
            self._hdr_memo = (hdr, nbytes)
        if nbytes:
            payload = r.read(nbytes)
            if len(payload) < nbytes:
                return False
            frame = head + hdr + payload
        else:
            frame = head + hdr
        _status, _headers, out = server.handle_raw_frame(frame)
        self.wfile.write(out)
        return not server.stopping

    def _respond(self, status: int, body: bytes,
                 extra: dict[str, str] | None = None,
                 content_type: str = CONTENT_TYPE) -> None:
        if status == 200 and not extra and content_type is CONTENT_TYPE:
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-pressio-serve\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body)
            return
        extra = dict(extra or {})
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {extra.pop('Content-Type', content_type)}",
                f"Content-Length: {len(body)}"]
        for key, value in extra.items():
            head.append(f"{key}: {value}")
        head.append("\r\n")
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)


class _UnixHandler(_Handler):
    # setting TCP_NODELAY on an AF_UNIX socket raises; there is no
    # Nagle to disable there in the first place
    disable_nagle_algorithm = False


class ServeServer:
    """Owns the listening socket, worker pool, caches, and quotas."""

    def __init__(self, library: Pressio | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, max_inflight: int = 64,
                 quota: QuotaManager | None = None,
                 cache_bytes: int = 64 << 20,
                 max_payload: int = 256 << 20,
                 allow_fault_injection: bool = False,
                 auto_port: bool = False,
                 unix_socket: bool = True) -> None:
        self.library = library if library is not None else Pressio()
        self._host = host
        self._requested_port = port
        self._auto_port = auto_port
        self.max_payload = int(max_payload)
        self.quota = quota if quota is not None else QuotaManager()
        self.admission = AdmissionController(max_inflight)
        self.segments = SegmentCache()
        self.cache = ArtifactCache(cache_bytes) if cache_bytes else None
        self.pool = WorkerPool(
            self.library, self.segments, self.cache, workers=workers,
            allow_fault_injection=allow_fault_injection)
        self.stopping = False
        self.started_at = 0.0
        self.request_timeout = 60.0
        self._tcp: _ServeTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._want_uds = bool(unix_socket)
        self._uds: _ServeUnixServer | None = None
        self._uds_thread: threading.Thread | None = None
        #: filesystem path of the AF_UNIX listener (None if disabled
        #: or the platform refused it); same protocol as the TCP port
        self.uds_path: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServeServer":
        if self._tcp is not None:
            raise RuntimeError("server already started")

        def bind(host: str, port: int) -> _ServeTCPServer:
            return _ServeTCPServer((host, port), _Handler)

        self._tcp = bind_with_fallback(
            bind, self._host, self._requested_port,
            auto_port=self._auto_port, surface="serve")
        self._tcp.owner = self
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05},
            name="pressio-serve", daemon=True)
        self._thread.start()
        if self._want_uds:
            self._start_uds()
        return self

    def _start_uds(self) -> None:
        import tempfile
        path = os.path.join(
            tempfile.gettempdir(),
            f"pressio-serve-{os.getpid()}-{self.port}.sock")
        try:
            if os.path.exists(path):
                os.unlink(path)
            self._uds = _ServeUnixServer(path, _UnixHandler)
        except OSError:
            self._uds = None  # no AF_UNIX here; TCP still serves
            return
        self._uds.owner = self
        self.uds_path = path
        self._uds_thread = threading.Thread(
            target=self._uds.serve_forever, kwargs={"poll_interval": 0.05},
            name="pressio-serve-uds", daemon=True)
        self._uds_thread.start()

    def stop(self) -> None:
        if self._tcp is None:
            return
        self.stopping = True
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._uds is not None:
            self._uds.shutdown()
            self._uds.server_close()
            if self._uds_thread is not None:
                self._uds_thread.join(timeout=5)
            if self.uds_path is not None:
                try:
                    os.unlink(self.uds_path)
                except FileNotFoundError:
                    pass
            self._uds = None
            self._uds_thread = None
            self.uds_path = None
        self.pool.shutdown()
        self.segments.close_all()
        self._tcp = None
        self._thread = None

    def __enter__(self) -> "ServeServer":
        return self.start() if self._tcp is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._tcp is None:
            raise RuntimeError("server not started")
        return self._tcp.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- dispatch ----------------------------------------------------------

    def handle_http(self, method: str, path: str, body: memoryview,
                    ) -> tuple[int, dict[str, str], bytes]:
        if "?" in path:
            path = path.split("?", 1)[0]
        if path in _FRAME_OPS:
            if method != "POST":
                return 405, {}, b"use POST\n"
            return self._handle_frame(path, body)
        if path == "/v1/release":
            if method != "POST":
                return 405, {}, b"use POST\n"
            return self._handle_release(body)
        if path == "/v1/compressors":
            doc = {"version": WIRE_VERSION,
                   "compressors": self.library.supported_compressors()}
            return 200, {}, json.dumps(doc).encode() + b"\n"
        if path in ("/healthz", "/health"):
            return 200, {"Content-Type": "application/json"}, \
                self._health_body()
        if path == "/metrics":
            reg = _obs.ACTIVE
            body = (b"# metrics collection is disabled\n" if reg is None
                    else _bridge.exposition(reg).encode("utf-8"))
            return 200, {"Content-Type": _prom.CONTENT_TYPE}, body
        return 404, {}, b"not found\n"

    def _handle_frame(self, path: str,
                      body: memoryview) -> tuple[int, dict[str, str], bytes]:
        start_ns = time.perf_counter_ns()
        tenant, op = "unknown", _FRAME_OPS[path]
        entered = False
        try:
            req = decode_request(body)
            tenant = req.tenant
            if req.op != op:
                raise BadFrameError(
                    f"frame op {req.op!r} does not match endpoint {path}")
            self.quota.admit(tenant)
            self.admission.enter()
            entered = True
            self._set_inflight_gauge()
            resp = self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            err = map_exception(exc)
            if isinstance(err, InternalServeError):
                _obs.record_error("serve", "daemon", exc, tenant=tenant)
            resp = Response(ok=False, op=op, error=err.to_payload())
        finally:
            if entered:
                self.admission.leave()
                self._set_inflight_gauge()
        return self._finish(resp, tenant, op, start_ns, len(body))

    def handle_raw_frame(self, frame: bytes,
                         ) -> tuple[int, dict[str, str], bytes]:
        """One bare-framed request: same lifecycle, no HTTP endpoint.

        The op comes from the frame itself (raw framing has no path to
        cross-check); everything else — quota, admission, dispatch,
        metrics — matches :meth:`_handle_frame`.
        """
        start_ns = time.perf_counter_ns()
        tenant, op = "unknown", "raw"
        entered = False
        try:
            req = decode_request(frame)
            tenant, op = req.tenant, req.op
            self.quota.admit(tenant)
            self.admission.enter()
            entered = True
            self._set_inflight_gauge()
            resp = self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            err = map_exception(exc)
            if isinstance(err, InternalServeError):
                _obs.record_error("serve", "daemon", exc, tenant=tenant)
            resp = Response(ok=False, op=op, error=err.to_payload())
        finally:
            if entered:
                self.admission.leave()
                self._set_inflight_gauge()
        return self._finish(resp, tenant, op, start_ns, len(frame))

    def _dispatch(self, req) -> Response:
        # fast path: run on this thread when a permit is free —
        # skips two cross-thread wakeups on the latency floor
        resp = self.pool.execute(req)
        if resp is None:
            reply: "queue.SimpleQueue[Response]" = queue.SimpleQueue()
            self.pool.submit(WorkItem(req=req, reply=reply))
            try:
                resp = reply.get(timeout=self.request_timeout)
            except queue.Empty:
                raise InternalServeError(
                    f"no worker reply within {self.request_timeout}s"
                    ) from None
        return resp

    def _finish(self, resp: Response, tenant: str, op: str,
                start_ns: int, in_bytes: int,
                ) -> tuple[int, dict[str, str], bytes]:
        if resp.error is None:
            status, outcome, headers = 200, "ok", {}
        else:
            status = int(resp.error.get("http", 500))
            outcome = str(resp.error.get("etype", "internal"))
            headers = {}
            retry = resp.error.get("retry_after_s")
            if retry is not None:
                headers["Retry-After"] = f"{max(float(retry), 0.001):.3f}"
        out = encode_response(resp)
        if _obs.ACTIVE is not None:
            elapsed = (time.perf_counter_ns() - start_ns) / 1e9
            _obs.count("pressio_serve_requests_total",
                       "serve requests by tenant/op/outcome",
                       tenant=tenant, op=op, status=outcome)
            _obs.observe("pressio_serve_request_seconds",
                         elapsed, "serve request wall time",
                         buckets=_SERVE_BUCKETS, tenant=tenant, op=op)
            _obs.count("pressio_serve_payload_bytes_total",
                       "frame bytes in/out by tenant", float(in_bytes),
                       tenant=tenant, direction="in")
            _obs.count("pressio_serve_payload_bytes_total",
                       "frame bytes in/out by tenant", float(len(out)),
                       tenant=tenant, direction="out")
        return status, headers, out

    def _handle_release(self, body: memoryview,
                        ) -> tuple[int, dict[str, str], bytes]:
        try:
            doc = json.loads(bytes(body).decode("utf-8"))
            name = doc["name"]
        except (ValueError, KeyError, UnicodeDecodeError):
            return 400, {}, b'{"error": "body must be {\\"name\\": ...}"}\n'
        self.pool.forget_segment(str(name))
        return 200, {}, b'{"released": true}\n'

    def _set_inflight_gauge(self) -> None:
        if _obs.ACTIVE is not None:
            _obs.set_gauge("pressio_serve_inflight",
                           float(self.admission.inflight),
                           "serve requests currently in flight")

    def _health_body(self) -> bytes:
        payload = {
            "status": "ok",
            "version": WIRE_VERSION,
            "uds": self.uds_path,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "workers": self.pool.alive_count(),
            "inflight": self.admission.inflight,
            "peak_inflight": self.admission.peak,
            "shed": self.admission.shed,
            "quota": {"admitted": self.quota.admitted,
                      "denied": self.quota.denied,
                      "enabled": self.quota.enabled},
            "completed": self.pool.completed,
            "failed": self.pool.failed,
            "crashes": self.pool.crashes,
            "respawns": self.pool.respawns,
            "cache": self.cache.stats() if self.cache else None,
            "segments": self.segments.stats(),
        }
        return json.dumps(payload).encode("utf-8") + b"\n"


def start_serve_server(**kwargs) -> ServeServer:
    """Construct and start a :class:`ServeServer` in one call."""
    return ServeServer(**kwargs).start()
