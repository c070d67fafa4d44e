"""Length-prefixed binary frames: the one wire format of repro.net.

Every message between a coordinator and a block store or worker agent is
one frame::

    u32  length     (big-endian; bytes that follow, excluding itself)
    u8   opcode     (one of the OP_* constants)
    u32  meta_len
    ...  meta       (UTF-8 JSON object: ids, dtypes, shapes, counters)
    ...  payload    (raw bytes: array data or pickled tasks/results)

JSON meta keeps the protocol debuggable (``tcpdump`` shows readable
headers) while payloads stay raw — array bytes are never base64'd or
pickled twice.  Frames are capped at :data:`MAX_FRAME_BYTES` so a
corrupt length prefix fails loudly instead of attempting a huge read.

Request opcodes every service answers: HELLO (handshake), PING
(heartbeat), STAT (live counters), EXPO (Prometheus text exposition of
the peer's metrics) and BYE (end of session).  Per service: PUT/GET/
LIST/FREE (block store), TASK (worker agent), QUERY and CANCEL (query
server).
Response opcodes: OK (meta only), DATA (meta + payload), ERR (meta
carries ``error`` and ``message``), RESULT (a QUERY's outcome: count,
data-plane stats, cache disposition).

:class:`FrameServer` is the threaded TCP server every service builds
on: one accept loop, one thread per connection, the shared ops above
and the optional ``expo_port`` HTTP listener; subclasses answer only
their own ops.  :class:`FrameClient` is the one client side.

Trust model: TASK payloads are unpickled by the agent, exactly like
Python's own ``multiprocessing`` workers.  repro.net is a data plane for
a cluster you own, not a service to expose to untrusted networks — bind
to loopback or a private interface (the default bind host is
``127.0.0.1``).
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import weakref

from ..errors import BlockNotFound, NetError
from ..obs.expo import CONTENT_TYPE_TEXT, prometheus_text, \
    start_http_exposition
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES",
    "OP_HELLO", "OP_PING", "OP_PUT", "OP_GET", "OP_LIST", "OP_FREE",
    "OP_STAT", "OP_TASK", "OP_BYE", "OP_EXPO", "OP_QUERY", "OP_CANCEL",
    "OP_OK", "OP_DATA", "OP_ERR", "OP_RESULT",
    "send_frame", "recv_frame", "request", "connect", "FrameServer",
    "FrameClient",
]

PROTOCOL_VERSION = 1

#: Upper bound on one frame (1 GiB) — far above any block this
#: reproduction ships, low enough to reject garbage length prefixes.
MAX_FRAME_BYTES = 1 << 30

OP_HELLO = 1
OP_PING = 2
OP_PUT = 3
OP_GET = 4
OP_LIST = 5
OP_FREE = 6
OP_STAT = 7
OP_TASK = 8
OP_BYE = 9
OP_EXPO = 10
OP_QUERY = 11
OP_CANCEL = 12
OP_OK = 64
OP_DATA = 65
OP_ERR = 66
OP_RESULT = 67

_PREFIX = struct.Struct("!I")
_HEADER = struct.Struct("!BI")        # opcode, meta_len


def send_frame(sock: socket.socket, op: int, meta: dict | None = None,
               payload: bytes | bytearray | memoryview = b"") -> None:
    """Serialize and send one frame (single ``sendall`` per part).

    ``payload`` is any bytes-like object; a memoryview (of bytes, not
    cast to a wider format) is sent without a copy."""
    meta_bytes = json.dumps(meta or {}, separators=(",", ":")).encode()
    length = _HEADER.size + len(meta_bytes) + len(payload)
    if length > MAX_FRAME_BYTES:
        raise NetError(f"frame of {length} bytes exceeds the "
                       f"{MAX_FRAME_BYTES}-byte cap")
    sock.sendall(_PREFIX.pack(length) + _HEADER.pack(op, len(meta_bytes))
                 + meta_bytes)
    if payload:
        sock.sendall(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes straight into one new buffer.

    ``EOFError`` on a clean close at offset 0.
    """
    buf = bytearray(n)
    got = 0
    with memoryview(buf) as view:
        while got < n:
            k = sock.recv_into(view[got:])
            if not k:
                if got == 0:
                    # repro: lint-ignore[error-taxonomy] clean close at frame boundary is stream-end protocol, which is exactly what EOFError means
                    raise EOFError("connection closed")
                raise NetError(f"truncated frame: peer closed with "
                               f"{n - got} of {n} bytes missing")
            got += k
    return buf


def recv_frame(sock: socket.socket) -> tuple[int, dict, bytearray]:
    """Read one frame; ``EOFError`` on clean close between frames.

    The body is received into one buffer, and the payload is that buffer
    with its header dropped in place (a bytearray drops a prefix without
    copying), so a payload is copied once: off the socket.
    """
    (length,) = _PREFIX.unpack(_recv_exact(sock, _PREFIX.size))
    if not _HEADER.size <= length <= MAX_FRAME_BYTES:
        raise NetError(f"invalid frame length {length}")
    body = _recv_exact(sock, length)
    op, meta_len = _HEADER.unpack_from(body)
    start = _HEADER.size + meta_len
    if start > length:
        raise NetError("invalid frame: meta_len exceeds frame length")
    try:
        meta = json.loads(body[_HEADER.size:start]) if meta_len else {}
    except ValueError as exc:
        raise NetError(f"invalid frame meta: {exc}") from None
    del body[:start]
    return op, meta, body


def request(sock: socket.socket, op: int, meta: dict | None = None,
            payload: bytes = b"") -> tuple[int, dict, bytes]:
    """One request/response round-trip; ERR replies raise.

    ``error == "not-found"`` maps to :class:`BlockNotFound`; every other
    ERR becomes a :class:`NetError` carrying the peer's message.  The
    raised exception carries the full reply meta as ``exc.meta`` so
    callers can recover side-channel fields an ERR frame still delivers
    (a failing agent ships its recorded trace spans this way).
    """
    send_frame(sock, op, meta, payload)
    reply_op, reply_meta, reply_payload = recv_frame(sock)
    if reply_op == OP_ERR:
        error = reply_meta.get("error", "error")
        message = reply_meta.get("message", "")
        if error == "not-found":
            exc: NetError = BlockNotFound(reply_meta.get("block", "?"),
                                          message)
        else:
            exc = NetError(f"{error}: {message}")
        exc.meta = reply_meta
        raise exc
    return reply_op, reply_meta, reply_payload


def connect(host: str, port: int, timeout: float | None = 10.0
            ) -> socket.socket:
    """A connected TCP socket with small-frame latency disabled."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class FrameServer:
    """Threaded TCP server speaking the frame protocol.

    The control plane is answered here, identically for every service:
    HELLO (``version``, ``service``, ``pid`` plus :meth:`hello_meta`),
    PING (the same identity), STAT (``service``, ``pid`` plus
    :meth:`stat_meta`), EXPO (:meth:`exposition`), BYE (reply, then end
    the connection) and ``ERR unknown-op`` for anything else.
    Subclasses set :attr:`service_name` and implement
    ``handle(sock, op, meta, payload) -> bool`` for their own ops only,
    returning False for an op that is not theirs.  ``port=0`` binds an
    ephemeral port — read the real one from :attr:`port` after
    :meth:`start`; ``expo_port`` also serves :meth:`exposition` over
    HTTP.  ``stop()`` closes the listener and every client socket, so
    serving threads (all daemonic) unblock and exit; it is idempotent
    and leaves no listening port behind.  A process forked while the
    server runs (a pool's worker) closes its inherited copies of those
    sockets at once, so the port closes when the server stops, not when
    the last child exits.
    """

    #: What HELLO/PING/STAT report as ``service``.
    service_name = "frame-server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 expo_port: int | None = None):
        self.host = host
        self.port = port
        #: When set, ``start()`` also serves the Prometheus exposition
        #: over HTTP on this port (``--expo-port``).
        self.expo_port = expo_port
        self._expo_server = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._clients: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FrameServer":
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._stopped.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{type(self).__name__}-accept")
        self._accept_thread.start()
        if self.expo_port is not None:
            self._expo_server = start_http_exposition(
                self.host, self.expo_port, self.exposition)
        _STARTED.add(self)
        get_logger(type(self).__module__).info(
            "%s listening %s", self.service_name,
            kv(host=self.host, port=self.port, pid=os.getpid(),
               expo_port=self.expo_port, **self.hello_meta()))
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._listener is not None and not self._stopped.is_set()

    def stop(self) -> None:
        self._stopped.set()
        expo, self._expo_server = self._expo_server, None
        if expo is not None:
            expo.shutdown()
            expo.server_close()
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # (the kernel keeps the listening socket alive until accept
            # returns, so the port would stay open).  A dummy connect
            # deterministically unblocks it first.
            dial = "127.0.0.1" if self.host == "0.0.0.0" else self.host
            try:
                socket.create_connection((dial, self.port),
                                         timeout=0.5).close()
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - close() rarely fails
                pass
        with self._lock:
            clients, self._clients = set(self._clients), set()
        for sock in clients:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def _drop_inherited(self) -> None:
        """In a forked child: close the sockets copied from the parent
        (their serving threads were not).  Takes no lock: one held by
        a parent thread at the fork stays held here forever."""
        expo, self._expo_server = self._expo_server, None
        listener, self._listener = self._listener, None
        clients, self._clients = self._clients, set()
        for sock in [listener, *clients]:
            if sock is not None:
                sock.close()
        if expo is not None:
            expo.server_close()

    def __enter__(self) -> "FrameServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- service hooks -------------------------------------------------------

    def hello_meta(self) -> dict:
        """Extra HELLO fields (merged last): what a client needs up front."""
        return {}

    def stat_meta(self, meta: dict) -> dict:
        """The STAT reply body; ``meta`` is the request's meta."""
        return {}

    def gauges(self) -> dict:
        """Service gauges the exposition adds as ``repro_<key>``."""
        return {}

    def exposition(self) -> str:
        """Prometheus text: process metrics plus :meth:`gauges`."""
        return prometheus_text(METRICS, extra=self.gauges())

    def handle(self, sock: socket.socket, op: int, meta: dict,
               payload: bytes) -> bool:
        """Answer one service-specific op; False if ``op`` is not one."""
        return False

    # -- serving -------------------------------------------------------------

    def _serve(self, sock: socket.socket, op: int, meta: dict,
               payload: bytes) -> bool:
        """Answer one request; False ends the connection (BYE)."""
        if op in (OP_HELLO, OP_PING):
            reply = {"version": PROTOCOL_VERSION,
                     "service": self.service_name, "pid": os.getpid()}
            if op == OP_HELLO:
                reply.update(self.hello_meta())
            send_frame(sock, OP_OK, reply)
        elif op == OP_STAT:
            send_frame(sock, OP_OK, dict(self.stat_meta(meta),
                                         service=self.service_name,
                                         pid=os.getpid()))
        elif op == OP_EXPO:
            send_frame(sock, OP_DATA, {"content_type": CONTENT_TYPE_TEXT},
                       self.exposition().encode())
        elif op == OP_BYE:
            send_frame(sock, OP_OK, {})
            return False
        elif not self.handle(sock, op, meta, payload):
            send_frame(sock, OP_ERR,
                       {"error": "unknown-op",
                        "message": f"opcode {op} is not a "
                                   f"{self.service_name} op"})
        return True

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped.is_set() and listener is not None:
            try:
                sock, _addr = listener.accept()
            except OSError:      # listener closed by stop()
                return
            if self._stopped.is_set():   # the stop() wake-up connect
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._clients.add(sock)
            threading.Thread(target=self._client_loop, args=(sock,),
                             daemon=True,
                             name=f"{type(self).__name__}-client").start()

    def _client_loop(self, sock: socket.socket) -> None:
        try:
            while not self._stopped.is_set():
                try:
                    op, meta, payload = recv_frame(sock)
                except (EOFError, OSError, NetError):
                    return
                try:
                    keep_going = self._serve(sock, op, meta, payload)
                except (BrokenPipeError, ConnectionError):
                    return
                except Exception as exc:   # never kill the serving thread
                    try:
                        send_frame(sock, OP_ERR,
                                   {"error": type(exc).__name__,
                                    "message": str(exc)})
                    except OSError:
                        return
                    continue
                if not keep_going:
                    return
        finally:
            with self._lock:
                self._clients.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass



#: Servers started in this process (weakly held).
_STARTED: "weakref.WeakSet[FrameServer]" = weakref.WeakSet()


def _drop_inherited_servers() -> None:
    for server in list(_STARTED):
        server._drop_inherited()
    _STARTED.clear()


os.register_at_fork(after_in_child=_drop_inherited_servers)


class FrameClient:
    """One connection to a :class:`FrameServer`: the one client side.

    Dials with ``TCP_NODELAY`` (``timeout`` bounds the dial and, until
    :meth:`settimeout` changes it, every request).  :meth:`hello` is the
    optional handshake — callers on the data path skip it, so a block
    fetch costs no extra round trip.  :meth:`close` sends BYE then
    closes and is idempotent; :meth:`abort` hard-closes without BYE,
    waking a request blocked on this socket.  Requests on a closed
    client raise :class:`ConnectionError`.
    """

    def __init__(self, host: str, port: int,
                 timeout: float | None = 10.0):
        self.host = host
        self.port = port
        self._sock: socket.socket | None = connect(host, port, timeout)

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"

    def settimeout(self, timeout: float | None) -> None:
        """Bound each later send/recv (None: block for as long as it takes)."""
        self._live_sock().settimeout(timeout)

    def _live_sock(self) -> socket.socket:
        sock = self._sock
        if sock is None:
            # repro: lint-ignore[error-taxonomy] must be an OSError subclass so callers handle a closed client like a dead peer
            raise ConnectionError(f"connection to {self.label} is closed")
        return sock

    def request(self, op: int, meta: dict | None = None,
                payload: bytes = b"") -> tuple[int, dict, bytes]:
        """One round trip (:func:`request`): ERR replies raise."""
        return request(self._live_sock(), op, meta, payload)

    def hello(self, *services: str) -> dict:
        """HELLO; the peer must speak :data:`PROTOCOL_VERSION` *and* be
        one of ``services``.  A refused handshake aborts the connection
        and raises :class:`NetError`; the reply meta comes back
        otherwise."""
        try:
            _op, meta, _payload = self.request(OP_HELLO)
            version = meta.get("version")
            if version != PROTOCOL_VERSION:
                raise NetError(f"{self.label} speaks protocol {version!r}, "
                               f"this client speaks {PROTOCOL_VERSION}")
            if meta.get("service") not in services:
                wanted = " or ".join(s.replace("-", " ") for s in services)
                raise NetError(f"{self.label} is a "
                               f"{meta.get('service', 'unknown')!r} "
                               f"endpoint, not a {wanted}")
        except BaseException:
            self.abort()
            raise
        return meta

    def ping(self) -> bool:
        op, _meta, _payload = self.request(OP_PING)
        return op == OP_OK

    def stat(self, meta: dict | None = None) -> dict:
        """The peer's STAT reply (``meta`` e.g. ``{"history": n}``)."""
        _op, reply, _payload = self.request(OP_STAT, meta)
        return reply

    def expo(self) -> str:
        """One Prometheus-text scrape over the frame protocol."""
        _op, _meta, payload = self.request(OP_EXPO)
        return payload.decode()

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            send_frame(sock, OP_BYE)
        except OSError:
            pass
        finally:
            sock.close()

    def abort(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        finally:
            sock.close()

    def __enter__(self) -> "FrameClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
