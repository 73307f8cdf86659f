"""``ServeClient``: the in-process / CLI client for ``pressio serve``.

A thin raw-socket HTTP/1.1 client (persistent connection,
``TCP_NODELAY``) speaking ``pressio-serve/1`` frames.  Two payload
paths:

* **inline** — array bytes travel in the frame body;
* **shared memory** (``use_shm=True``) — the client owns two reusable
  segments: it writes the input array into one, the server writes the
  result into the other, and the socket carries only descriptors.
  Segments grow on demand and are released server-side
  (``POST /v1/release``) and unlinked client-side on :meth:`close`.

Typed errors come back as the same :class:`~repro.serve.errors`
taxonomy the server raised — :func:`error_for_etype` reconstructs the
class from the wire payload, so ``except QuotaExceededError`` works on
the client exactly as it would in-process.

When a trace context is active the client opens a ``serve:invoke``
span, sends the ``pressio-spanwire/1`` context in the frame, and
stitches the worker's span fragments (returned in-band) under the
invoke span — ``pressio trace`` then renders one tree across the
socket.
"""

from __future__ import annotations

import json
import socket
from typing import Any

import numpy as np

from ..trace import propagate as _propagate
from ..trace import runtime as _trace
from .errors import BadFrameError, ServeError, error_for_etype
from .shm import create_segment
from .wire import (
    MAGIC as WIRE_MAGIC,
    Request,
    Response,
    ShmRef,
    decode_response,
    encode_request,
    element_count,
)

__all__ = ["ServeClient"]


class _Segment:
    """A client-owned, grow-on-demand shared-memory segment."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.seg = None

    def ensure(self, nbytes: int):
        if self.seg is None or self.seg.size < nbytes:
            old_name = self.close()
            self.seg = create_segment(max(nbytes, 1), prefix=self.prefix)
            return old_name
        return None

    def close(self) -> str | None:
        if self.seg is None:
            return None
        name = self.seg.name
        try:
            self.seg.close()
        except BufferError:
            # A copy=False result still aliases the mapping.  The numpy
            # array keeps the mmap alive through its base chain, so
            # disarm this handle (its __del__ would retry close() and
            # warn at gc time) and let the mapping die with the last
            # view or the process.
            self.seg._buf = None
            self.seg._mmap = None
        try:
            self.seg.unlink()
        except FileNotFoundError:
            pass
        self.seg = None
        return name


class ServeClient:
    """One persistent connection to a ``pressio serve`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 tenant: str = "default", use_shm: bool = False,
                 timeout: float = 30.0, lean: bool = True,
                 raw: bool = True, uds: str | None = None) -> None:
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.use_shm = bool(use_shm)
        #: opt in to minimal server replies on shm roundtrips — the
        #: client knows the output descriptor it provided, so the
        #: server may skip the stats/descriptor echo.  Trade-off:
        #: roundtrip() returns empty stats on the fast path.
        self.lean = bool(lean)
        #: speak bare ``pressio-serve/1`` frames on the fast path
        #: instead of wrapping them in HTTP — the daemon sniffs the
        #: PSV1 magic per message, so both styles share one socket
        self.raw = bool(raw)
        #: AF_UNIX socket path (e.g. ``server.uds_path``); preferred
        #: over TCP when set — the same-host hop is what the zero-copy
        #: design targets, and UDS shaves the TCP stack off each wake
        self.uds = uds
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._in_seg = _Segment("psvin")
        self._out_seg = _Segment("psvout")
        #: encoded request frames for repeat shm-path calls; keyed by
        #: everything that lands in the header, so a hit is exact
        self._frame_cache: dict[tuple, bytes] = {}
        #: one-slot memo over the full keyed lookup for the steady state
        #: (same config back to back) — avoids rebuilding the wide key
        self._last_fast: tuple | None = None
        #: one-slot memos for the lean reply path: constant response
        #: bytes -> Response, synthesized full Response, result view
        self._resp_memo: tuple[bytes, Response] | None = None
        self._lean_slot: tuple | None = None
        self._view_memo: tuple | None = None
        self._arr_memo: tuple | None = None
        #: (ndarray, segment) from input_array(): requests sending that
        #: exact array skip the input copy — the bytes are already there
        self._seg_array: tuple | None = None
        self.requests_sent = 0

    # -- connection --------------------------------------------------------

    def _connect(self) -> None:
        if self.uds is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.uds)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb", buffering=64 * 1024)

    def close(self) -> None:
        for seg in (self._in_seg, self._out_seg):
            name = seg.close()
            if name is not None:
                self._release_quiet(name)
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _release_quiet(self, name: str) -> None:
        """Tell the server a segment is gone; ignore a dead server."""
        try:
            self._http("POST", "/v1/release",
                       json.dumps({"name": name}).encode())
        except (OSError, ServeError, BadFrameError):
            pass

    # -- transport ---------------------------------------------------------

    def _http(self, method: str, path: str,
              body: bytes = b"") -> tuple[int, dict[str, str], bytes]:
        if self._sock is None:
            self._connect()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        try:
            self._sock.sendall(head + body)
            return self._read_response()
        except (ConnectionError, BrokenPipeError):
            # server restarted or dropped the connection: one reconnect
            self._teardown_socket()
            self._connect()
            self._sock.sendall(head + body)
            return self._read_response()

    def _teardown_socket(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._rfile = None
        self._sock = None

    def _read_response(self) -> tuple[int, dict[str, str], bytes]:
        line = self._rfile.readline(8192)
        if not line:
            raise ConnectionError("server closed the connection")
        if line == b"HTTP/1.1 200 OK\r\n":
            # hot path: success responses carry no header the client
            # consumes (Retry-After only matters on errors), so skip
            # the per-line decode/strip/lower and the headers dict
            length = 0
            while True:
                raw = self._rfile.readline(8192)
                if raw in (b"\r\n", b"\n", b""):
                    break
                if raw.startswith(b"Content-Length:"):
                    length = int(raw[15:])
            body = self._rfile.read(length) if length else b""
            if len(body) != length:
                raise ConnectionError("truncated response body")
            return 200, {}, body
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2:
            raise BadFrameError(f"malformed status line {line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            raw = self._rfile.readline(8192)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = self._rfile.read(length) if length else b""
        if len(body) != length:
            raise ConnectionError("truncated response body")
        return status, headers, body

    # -- frame operations --------------------------------------------------

    def _call(self, req: Request) -> Response:
        ctx = _trace.active_tracer()
        if ctx is None:
            return self._call_plain(req)
        with ctx.span(f"serve:{req.op}", compressor=req.compressor,
                      tenant=req.tenant) as sp:
            req.trace = _propagate.serialize_context()
            resp = self._call_plain(req)
            if resp.fragments:
                adopted = _propagate.stitch(ctx, resp.fragments, sp,
                                            same_thread=True)
                sp.set_attr("remote_spans", adopted)
        return resp

    def _call_plain(self, req: Request) -> Response:
        return self._send_frame(req.op, encode_request(req))

    def _send_frame(self, op: str, frame: bytes) -> Response:
        status, headers, body = self._http("POST", f"/v1/{op}", frame)
        return self._check_response(status, headers, body)

    def _send_raw(self, request_bytes: bytes) -> Response:
        """Send a prebuilt request (raw frame or HTTP) in one call."""
        read = self._read_raw_frame if self.raw else self._read_response
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(request_bytes)
            status, headers, body = read()
        except (ConnectionError, BrokenPipeError):
            self._teardown_socket()
            self._connect()
            self._sock.sendall(request_bytes)
            status, headers, body = read()
        return self._check_response(status, headers, body)

    def _read_raw_frame(self) -> tuple[int, dict[str, str], bytes]:
        """Read one bare PSV1 response frame off the socket."""
        r = self._rfile
        head = r.read(8)
        if len(head) < 8 or head[:4] != WIRE_MAGIC:
            raise ConnectionError("bad raw frame head")
        hlen = int.from_bytes(head[4:8], "big")
        hdr = r.read(hlen)
        if len(hdr) < hlen:
            raise ConnectionError("truncated raw frame header")
        memo = self._resp_memo
        if memo is not None and len(memo[0]) == 8 + hlen:
            # steady state: lean replies have no payload, so the frame
            # ends here and byte-compares against the response memo
            frame = head + hdr
            if frame == memo[0]:
                return 200, {}, frame
        else:
            frame = head + hdr
        try:
            nbytes = int(json.loads(hdr).get("nbytes", 0))
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ConnectionError(f"undecodable raw frame: {exc}") from None
        if nbytes:
            payload = r.read(nbytes)
            if len(payload) < nbytes:
                raise ConnectionError("truncated raw frame payload")
            frame += payload
        return 200, {}, frame

    def _check_response(self, status: int, headers: dict[str, str],
                        body: bytes) -> Response:
        memo = self._resp_memo
        if memo is not None and status == 200 and body == memo[0]:
            self.requests_sent += 1
            return memo[1]
        resp = decode_response(body)
        self.requests_sent += 1
        if resp.error is not None:
            retry = resp.error.get("retry_after_s")
            if retry is None and "retry-after" in headers:
                retry = float(headers["retry-after"])
            raise error_for_etype(resp.error.get("etype", "internal"),
                                  str(resp.error.get("message", "")),
                                  retry_after_s=retry)
        if not resp.ok or status != 200:
            raise BadFrameError(
                f"HTTP {status} with no error payload")
        if (resp.shm is None and not resp.fragments
                and len(body) <= 128 and type(body) is bytes):
            # lean replies are byte-constant; remember one decode
            self._resp_memo = (body, resp)
        return resp

    def _fast_frame(self, op: str, compressor: str,
                    options: dict[str, Any] | None, view: memoryview,
                    dtype: str, dims: tuple[int, ...], scalar: bool,
                    cache: str, lean: bool = False,
                    in_place: bool = False) -> bytes | None:
        """Shm-path request with full-message memoization.

        Repeat calls with the same configuration resend byte-identical
        messages, so the Request build, JSON encode, AND the HTTP head
        formatting are all paid once — the cached value is the complete
        ``POST`` request ready for one ``sendall``.  The array bytes
        still land in the input segment on every call.  Returns ``None``
        when an option value is unhashable (fall back to the general
        path).
        """
        if options is None:
            options = {}
        n = len(view)
        last = self._last_fast
        if (last is not None and last[0] == op and last[1] == compressor
                and last[2] == options and last[3] == dtype
                and last[4] == dims and last[5] == scalar
                and last[6] == cache and last[7] == n
                and last[9] is self._in_seg.seg
                and last[10] is self._out_seg.seg):
            if not in_place:
                self._in_seg.seg.buf[:n] = view
            return last[8]
        try:
            opt_token = tuple(sorted(options.items()))
        except TypeError:
            return None
        old = self._in_seg.ensure(n)
        if old is not None:
            self._release_quiet(old)
        seg = self._in_seg.seg
        if not in_place:
            seg.buf[:n] = view
        old = self._out_seg.ensure(max(n * 2, 4096))
        if old is not None:
            self._release_quiet(old)
        out = self._out_seg.seg
        key = (op, compressor, opt_token, dtype, dims, scalar, cache,
               lean, seg.name, n, out.name, out.size)
        request_bytes = self._frame_cache.get(key)
        if request_bytes is None:
            req = Request(op=op, tenant=self.tenant, compressor=compressor,
                          options=dict(options), dtype=dtype,
                          dims=dims, scalar=scalar, cache=cache, lean=lean,
                          shm=ShmRef(name=seg.name, nbytes=n, offset=0),
                          out_shm=ShmRef(name=out.name, nbytes=out.size,
                                         offset=0))
            frame = encode_request(req)
            if self.raw:
                request_bytes = frame
            else:
                head = (f"POST /v1/{op} HTTP/1.1\r\n"
                        f"Host: {self.host}\r\n"
                        f"Content-Length: {len(frame)}\r\n\r\n"
                        ).encode("latin-1")
                request_bytes = head + frame
            if len(self._frame_cache) >= 64:
                self._frame_cache.clear()
            self._frame_cache[key] = request_bytes
        self._last_fast = (op, compressor, dict(options), dtype, dims,
                           scalar, cache, n, request_bytes, seg, out)
        return request_bytes

    def _build_request(self, op: str, compressor: str,
                       options: dict[str, Any] | None,
                       payload: bytes | memoryview, dtype: str,
                       dims: tuple[int, ...], scalar: bool,
                       cache: str, want_out_shm: bool) -> Request:
        req = Request(op=op, tenant=self.tenant, compressor=compressor,
                      options=dict(options or {}), dtype=dtype, dims=dims,
                      scalar=scalar, cache=cache)
        mv = memoryview(payload)
        view = mv.cast("B") if mv.nbytes else memoryview(b"")
        if self.use_shm:
            self._place_input(req, view)
            if want_out_shm:
                self._place_output(req, len(view))
        else:
            req.payload = view
        return req

    def _place_input(self, req: Request, view: memoryview) -> None:
        old = self._in_seg.ensure(len(view))
        if old is not None:
            self._release_quiet(old)
        seg = self._in_seg.seg
        seg.buf[:len(view)] = view
        req.shm = ShmRef(name=seg.name, nbytes=len(view), offset=0)

    def _place_output(self, req: Request, nbytes: int) -> None:
        # results can exceed the input size (incompressible data plus
        # headers); give the server headroom so it never falls back
        old = self._out_seg.ensure(max(nbytes * 2, 4096))
        if old is not None:
            self._release_quiet(old)
        seg = self._out_seg.seg
        req.out_shm = ShmRef(name=seg.name, nbytes=seg.size, offset=0)

    def _result_bytes(self, resp: Response) -> bytes | memoryview:
        if resp.shm is not None:
            if (self._out_seg.seg is None
                    or resp.shm.name != self._out_seg.seg.name):
                raise BadFrameError(
                    f"response references unknown segment {resp.shm.name!r}")
            buf = self._out_seg.seg.buf
            return buf[resp.shm.offset:resp.shm.offset + resp.shm.nbytes]
        return resp.payload if resp.payload is not None else b""

    def _result_array(self, resp: Response, copy: bool = True) -> np.ndarray:
        if resp.shm is not None:
            # repeat calls read the same descriptor over the same out
            # segment; the frombuffer + reshape view is memoized
            key = (resp.shm.name, resp.shm.offset, resp.shm.nbytes,
                   resp.dtype, resp.dims, resp.scalar)
            memo = self._view_memo
            if (memo is not None and memo[0] == key
                    and memo[1] is self._out_seg.seg):
                arr = memo[2]
                return arr.copy() if copy else arr
        raw = self._result_bytes(resp)
        dt = np.dtype(resp.dtype or "float64")
        count = element_count(resp.dims)
        arr = np.frombuffer(raw, dtype=dt, count=count)
        arr = arr.reshape(() if resp.scalar else (resp.dims or (count,)))
        if resp.shm is not None:
            self._view_memo = (key, self._out_seg.seg, arr)
        # shm-backed views alias the reusable out segment; by default
        # copy so the caller's array survives the next request.  With
        # copy=False the caller gets the zero-copy view and must consume
        # it before issuing another request on this client.
        return arr.copy() if copy and resp.shm is not None else arr

    # -- public operations -------------------------------------------------

    def ping(self) -> bool:
        resp = self._call(Request(op="ping", tenant=self.tenant))
        return resp.ok

    def input_array(self, shape: tuple[int, ...],
                    dtype: str | np.dtype) -> np.ndarray:
        """A writable ndarray backed by this client's input segment.

        Fill it in place and pass it to :meth:`compress` /
        :meth:`roundtrip`: the request then skips the client-side copy
        entirely — the bytes the caller wrote ARE the bytes the server
        reads.  Requires ``use_shm``.  The view is invalidated if a
        later request needs a larger input segment.
        """
        if not self.use_shm:
            raise ValueError("input_array requires use_shm=True")
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        old = self._in_seg.ensure(nbytes)
        if old is not None:
            self._release_quiet(old)
        seg = self._in_seg.seg
        arr = np.frombuffer(seg.buf, dtype=dt,
                            count=nbytes // dt.itemsize).reshape(shape)
        self._seg_array = (arr, seg)
        return arr

    def _shm_op(self, op: str, array: np.ndarray, compressor: str,
                options: dict[str, Any] | None,
                cache: str) -> Response | None:
        """Fast path for shm-backed compress/roundtrip; None = fall back."""
        if not self.use_shm or _trace.active_tracer() is not None:
            return None
        am = self._arr_memo
        if am is not None and am[0] is array:
            # same ndarray object: the memoized view reads its memory
            # live, so content changes still reach the wire
            view, dtype, dims, scalar = am[1], am[2], am[3], am[4]
        else:
            scalar = np.ndim(array) == 0
            arr = np.ascontiguousarray(array)  # promotes 0-d to (1,)
            mv = memoryview(arr.data)
            view = mv.cast("B") if mv.nbytes else memoryview(b"")
            dtype = str(arr.dtype)
            dims = () if scalar else arr.shape
            if arr is array:
                # only when no contiguity copy was made — a copy would
                # freeze the bytes and miss later in-place updates
                self._arr_memo = (array, view, dtype, dims, scalar)
        lean = (self.lean and op == "roundtrip" and not scalar
                and view.nbytes > 0)
        sa = self._seg_array
        in_place = (sa is not None and sa[0] is array
                    and sa[1] is self._in_seg.seg)
        request_bytes = self._fast_frame(
            op, compressor, options, view, dtype, dims, scalar, cache,
            lean, in_place)
        if request_bytes is None:
            return None
        resp = self._send_raw(request_bytes)
        if lean and resp.ok and resp.shm is None and not resp.dtype:
            # minimal reply: the result sits in our out segment with
            # the descriptor we provided — synthesize the full response
            n = view.nbytes
            out = self._out_seg.seg
            slot = self._lean_slot
            if (slot is not None and slot[0] is out and slot[1] == dtype
                    and slot[2] == dims and slot[3] == n):
                return slot[4]
            full = Response(ok=True, op=op, dtype=dtype, dims=dims,
                            scalar=scalar,
                            shm=ShmRef(name=out.name, nbytes=n, offset=0))
            self._lean_slot = (out, dtype, dims, n, full)
            return full
        return resp

    def compress(self, array: np.ndarray, compressor: str,
                 options: dict[str, Any] | None = None,
                 cache: str = "bypass") -> tuple[bytes, dict[str, Any]]:
        resp = self._shm_op("compress", array, compressor, options, cache)
        if resp is None:
            scalar = np.ndim(array) == 0
            arr = np.ascontiguousarray(array)  # promotes 0-d to (1,)
            req = self._build_request(
                "compress", compressor, options, arr.data, str(arr.dtype),
                () if scalar else arr.shape, scalar, cache,
                want_out_shm=True)
            resp = self._call(req)
        return bytes(self._result_bytes(resp)), resp.stats

    def decompress(self, blob: bytes, compressor: str, dtype: str,
                   dims: tuple[int, ...], scalar: bool = False,
                   options: dict[str, Any] | None = None,
                   copy: bool = True,
                   ) -> tuple[np.ndarray, dict[str, Any]]:
        itemsize = np.dtype(dtype).itemsize
        req = self._build_request(
            "decompress", compressor, options, blob, dtype, tuple(dims),
            scalar, "bypass", want_out_shm=False)
        if self.use_shm:
            self._place_output(req, element_count(tuple(dims)) * itemsize)
        resp = self._call(req)
        return self._result_array(resp, copy), resp.stats

    def roundtrip(self, array: np.ndarray, compressor: str,
                  options: dict[str, Any] | None = None,
                  cache: str = "bypass", copy: bool = True,
                  ) -> tuple[np.ndarray, dict[str, Any]]:
        resp = self._shm_op("roundtrip", array, compressor, options, cache)
        if resp is None:
            scalar = np.ndim(array) == 0
            arr = np.ascontiguousarray(array)  # promotes 0-d to (1,)
            req = self._build_request(
                "roundtrip", compressor, options, arr.data, str(arr.dtype),
                () if scalar else arr.shape, scalar, cache,
                want_out_shm=True)
            resp = self._call(req)
        return self._result_array(resp, copy), resp.stats

    # -- management endpoints ----------------------------------------------

    def health(self) -> dict[str, Any]:
        _status, _headers, body = self._http("GET", "/healthz")
        return json.loads(body.decode("utf-8"))

    def compressors(self) -> list[str]:
        _status, _headers, body = self._http("GET", "/v1/compressors")
        return list(json.loads(body.decode("utf-8"))["compressors"])

    def metrics_text(self) -> str:
        _status, _headers, body = self._http("GET", "/metrics")
        return body.decode("utf-8")
