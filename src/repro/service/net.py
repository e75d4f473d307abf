"""The wire front end: length-prefixed frames, asyncio server, retrying client.

This module puts a real socket in front of :class:`~repro.service.SortService`
so the serving layer can take traffic from other processes and hosts.

**Frame layout** (all integers big-endian)::

    offset  size  field
    0       4     magic  b"RBSF"
    4       1     version (2; receivers accept any version in
                  [1, PROTO_VERSION] — minor revisions only add meta keys)
    5       1     frame type
    6       2     flags
    8       4     sequence number (per connection, per direction)
    12      4     meta length   (JSON, UTF-8)
    16      4     body length   (raw ndarray bytes; 0 for shm payloads)
    20      4     CRC-32 of meta + body
    24      ...   meta bytes, then body bytes

Anything that fails the magic/version/CRC checks raises a typed
:class:`~repro.errors.FrameCorruptError` — a receiver never acts on
damaged bytes, and a client treats corruption as retriable because
request ids are idempotent (below).

**Frame types**: ``HELLO``/``WELCOME`` (handshake; the server advertises
its name and a host token so same-host clients may switch to shm
payloads), ``SORT``/``RESULT``/``ERROR`` (one request), and
``HEALTH``/``HEALTH_OK`` (the router's health-check RPC).

**Payload transport**: keys normally travel as raw bytes in the frame
body with dtype/shape in the meta.  When client and server share a host
(matching host tokens) the client may instead write the keys into a
``/dev/shm/rsrtshm_<request id>`` segment and send only its name; the
server sorts and writes the result back **in place**, so a same-host
round trip ships two frames of metadata and zero key bytes.  The client
owns the segment and unlinks it when the request resolves, success or
not.

**Idempotent requests**: every request carries a client-generated id.
The server deduplicates: a retried id attaches to the in-flight run (or
returns the cached result) instead of sorting twice, which makes the
client's deadline-retry loop safe even when only the *response* was
lost.

**Fault injection**: a :class:`~repro.faults.NetFaultInjector` can be
armed on the server; every inbound and outbound frame then gets a
deterministic drop/corrupt/delay verdict, which is how ``chaos-serve``
proves that every failure path ends in a typed error or a successful
retry/failover — never a silent loss.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import socket
import struct
import threading
import time
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    FrameCorruptError,
    ReproError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ShardUnavailableError,
    SpmdTimeoutError,
    VerificationError,
)
from repro.trace.recorder import Tracer, trace_span

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MIN_PROTO_VERSION",
    "PROTO_VERSION",
    "FrameType",
    "ClientOutcome",
    "SortClient",
    "SortServer",
    "encode_frame",
    "decode_frame",
    "shm_segments",
]

MAGIC = b"RBSF"
#: Current protocol version.  v2 added the optional ``algorithm`` meta
#: key on SORT/RESULT frames; the frame layout is unchanged, so
#: receivers accept any version in [MIN_PROTO_VERSION, PROTO_VERSION]
#: and treat absent meta keys as their v1 defaults (``algorithm`` →
#: ``"smart"``).
PROTO_VERSION = 2
MIN_PROTO_VERSION = 1
_HEADER = struct.Struct("!4sBBHIII")
HEADER_SIZE = _HEADER.size + 4  # + trailing CRC-32
assert HEADER_SIZE == 24

#: Sanity bounds: a meta or body length beyond these is structural
#: corruption, not a real request.
MAX_META = 1 << 20
MAX_BODY = 1 << 31

#: Same-host shm payload segments: /dev/shm/rsrtshm_<32 hex>.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "rsrtshm_"
_SHM_NAME_RE = re.compile(r"rsrtshm_[0-9a-f]{32}\Z")


class FrameType:
    """Wire frame type codes (class-as-namespace; values are the wire)."""

    HELLO = 1
    WELCOME = 2
    SORT = 3
    RESULT = 4
    ERROR = 5
    HEALTH = 6
    HEALTH_OK = 7


# -- codec ----------------------------------------------------------------


def encode_frame(
    ftype: int, meta: Dict[str, Any], body: bytes = b"", seq: int = 0,
    flags: int = 0,
) -> bytes:
    """One frame, ready for the wire."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    if len(meta_bytes) > MAX_META or len(body) > MAX_BODY:
        raise ConfigurationError(
            f"frame payload too large (meta {len(meta_bytes)}, "
            f"body {len(body)})"
        )
    crc = zlib.crc32(meta_bytes)
    crc = zlib.crc32(body, crc)
    header = _HEADER.pack(
        MAGIC, PROTO_VERSION, ftype, flags, seq, len(meta_bytes), len(body)
    ) + struct.pack("!I", crc)
    return header + meta_bytes + body


def parse_header(header: bytes) -> Tuple[int, int, int, int, int, int]:
    """``(ftype, flags, seq, meta_len, body_len, crc)`` or a typed raise."""
    if len(header) != HEADER_SIZE:
        raise FrameCorruptError(
            f"truncated header: {len(header)} of {HEADER_SIZE} bytes",
            detail="truncated",
        )
    magic, version, ftype, flags, seq, meta_len, body_len = _HEADER.unpack(
        header[: _HEADER.size]
    )
    (crc,) = struct.unpack("!I", header[_HEADER.size:])
    if magic != MAGIC:
        raise FrameCorruptError(
            f"bad frame magic {magic!r}", frame_type=ftype, detail="magic"
        )
    if not MIN_PROTO_VERSION <= version <= PROTO_VERSION:
        raise FrameCorruptError(
            f"unsupported frame version {version}", frame_type=ftype,
            detail="version",
        )
    if meta_len > MAX_META or body_len > MAX_BODY:
        raise FrameCorruptError(
            f"implausible frame lengths (meta {meta_len}, body {body_len})",
            frame_type=ftype, detail="truncated",
        )
    return ftype, flags, seq, meta_len, body_len, crc


def validate_payload(
    ftype: int, payload: bytes, meta_len: int, crc: int
) -> Tuple[Dict[str, Any], bytes]:
    """CRC-check and split a frame payload into ``(meta, body)``."""
    if zlib.crc32(payload) != crc:
        raise FrameCorruptError(
            "frame payload failed its CRC-32 check", frame_type=ftype,
            detail="crc",
        )
    try:
        meta = json.loads(payload[:meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorruptError(
            f"frame meta is not valid JSON: {exc}", frame_type=ftype,
            detail="meta",
        ) from exc
    return meta, payload[meta_len:]


def decode_frame(data: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Decode one complete frame (tests and documentation; the server and
    client stream-read instead).  Returns ``(ftype, meta, body)``."""
    ftype, _flags, _seq, meta_len, body_len, crc = parse_header(
        data[:HEADER_SIZE]
    )
    payload = data[HEADER_SIZE:]
    if len(payload) != meta_len + body_len:
        raise FrameCorruptError(
            f"frame payload truncated: {len(payload)} of "
            f"{meta_len + body_len} bytes", frame_type=ftype,
            detail="truncated",
        )
    meta, body = validate_payload(ftype, payload, meta_len, crc)
    return ftype, meta, body


# -- typed errors over the wire ------------------------------------------

#: Errors a server may report by name; anything else arrives as a plain
#: ServiceError carrying the original class name in the message.
_WIRE_ERRORS = {
    cls.__name__: cls
    for cls in (
        AdmissionError,
        CommunicationError,
        ConfigurationError,
        FrameCorruptError,
        RequestTimeoutError,
        ServiceClosedError,
        ServiceError,
        ShardUnavailableError,
        SpmdTimeoutError,
        VerificationError,
    )
}


def error_to_meta(exc: BaseException) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("reason", "stage", "deadline_s", "elapsed_s", "detail"):
        value = getattr(exc, attr, None)
        if value not in (None, ""):
            meta[attr] = value
    return meta


def error_from_meta(meta: Dict[str, Any]) -> ReproError:
    name = meta.get("error", "ServiceError")
    message = meta.get("message", "remote failure")
    cls = _WIRE_ERRORS.get(name)
    if cls is AdmissionError:
        return AdmissionError(message, reason=meta.get("reason", ""))
    if cls is RequestTimeoutError:
        return RequestTimeoutError(
            message,
            deadline_s=float(meta.get("deadline_s", 0.0)),
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            stage=meta.get("stage", "server"),
        )
    if cls is FrameCorruptError:
        return FrameCorruptError(message, detail=meta.get("detail", ""))
    if cls is None:
        return ServiceError(f"{name}: {message}")
    return cls(message)


# -- shm payloads ---------------------------------------------------------


def host_token() -> str:
    """A token two processes share iff they share a kernel (same host,
    same boot) — the gate for shm payload transport."""
    try:
        with open("/proc/sys/kernel/random/boot_id", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:  # pragma: no cover — non-Linux
        return socket.gethostname()


def shm_segments() -> set:
    """Names of live client-payload shm segments (leak gates)."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover — non-Linux
        return set()
    return {
        name for name in os.listdir(_SHM_DIR)
        if name.startswith(_SHM_PREFIX)
    }


def _shm_path(name: str) -> str:
    """Validated absolute path of a payload segment (reject traversal)."""
    if not _SHM_NAME_RE.match(name):
        raise FrameCorruptError(
            f"illegal shm segment name {name!r}", detail="meta"
        )
    return os.path.join(_SHM_DIR, name)


def _decode_keys(meta: Dict[str, Any], body: bytes) -> np.ndarray:
    """The request's key array, from the frame body or its shm segment."""
    dtype = np.dtype(meta["dtype"])
    if meta.get("shm"):
        with open(_shm_path(meta["shm"]), "rb") as fh:
            body = fh.read()
    if len(body) % dtype.itemsize:
        raise FrameCorruptError(
            f"body length {len(body)} not a multiple of itemsize "
            f"{dtype.itemsize}", detail="truncated",
        )
    return np.frombuffer(body, dtype=dtype).copy()


# -- the server -----------------------------------------------------------


class SortServer:
    """An asyncio frame server fronting one :class:`SortService` shard.

    Runs its event loop on a dedicated thread (the rest of the package is
    synchronous); sort requests execute on a small thread pool so slow
    sorts never stall the protocol plane.  ``faults`` arms deterministic
    per-frame chaos (see the module docstring).

    Parameters
    ----------
    service:
        The backing :class:`~repro.service.SortService`.
    host, port:
        Bind address; port 0 picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    name:
        Shard name, reported in handshakes, results and health answers.
    faults:
        Optional :class:`~repro.faults.NetFaultInjector`.
    own_service:
        When True, :meth:`close`/:meth:`kill` also close the service.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "shard0",
        faults=None,
        own_service: bool = False,
        max_workers: int = 8,
        result_timeout: float = 120.0,
    ):
        self.service = service
        self.name = name
        self.faults = faults
        self._host = host
        self._port = port
        self._own_service = own_service
        self._result_timeout = result_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"sortsrv-{name}"
        )
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drain = True
        self._abort = False
        self._closed = False
        self._conn_ids = 0
        self._writers: set = set()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._done_cache: Dict[str, Tuple[int, Dict[str, Any], bytes]] = {}
        self._done_order: list = []
        self.served = 0
        self.errored = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns ``(host, port)`` once accepting."""
        self._thread = threading.Thread(
            target=self._run_loop, name=f"sort-server-{self.name}",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise ServiceError(f"server {self.name} failed to start in 10s")
        if self._start_error is not None:
            raise self._start_error
        assert self.address is not None
        return self.address

    def close(self, drain: bool = True) -> None:
        """Stop accepting, optionally finish in-flight requests, stop the
        loop.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._drain = drain
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._request_stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._executor.shutdown(wait=False)
        if self._own_service:
            self.service.close(drain=drain)

    def kill(self) -> None:
        """Chaos shutdown: abort every connection, drop in-flight work.
        Clients observe a reset, never a reply — exactly what a crashed
        shard looks like from the wire."""
        self._abort = True
        self.close(drain=False)

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._start_error = exc
            self._started.set()
        finally:
            loop.close()

    async def _main(self) -> None:
        server = await asyncio.start_server(
            self._handle_conn, self._host, self._port
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self._drain and self._inflight:
                await asyncio.gather(
                    *list(self._inflight.values()), return_exceptions=True
                )
            for writer in list(self._writers):
                try:
                    if self._abort:
                        writer.transport.abort()
                    else:
                        writer.close()
                except Exception:  # noqa: BLE001 — teardown best effort
                    pass
            # Reap the per-connection handler tasks so the loop closes
            # without "Task was destroyed but it is pending" noise.
            tasks = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            for t in tasks:
                t.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    # -- the protocol plane ---------------------------------------------

    async def _read_frame(self, reader) -> Tuple[int, Dict[str, Any], bytes]:
        header = await reader.readexactly(HEADER_SIZE)
        ftype, _flags, _seq, meta_len, body_len, crc = parse_header(header)
        payload = await reader.readexactly(meta_len + body_len)
        meta, body = validate_payload(ftype, payload, meta_len, crc)
        return ftype, meta, body

    async def _send(self, writer, conn_id: int, out_seq: int,
                    data: bytes) -> None:
        """Write one response frame, via the fault injector when armed."""
        if self.faults is not None:
            data2, stall = self.faults.apply(data, "out", conn_id, out_seq)
            if stall > 0:
                await asyncio.sleep(stall)
            if data2 is None:
                return  # dropped: the client's deadline-retry recovers
            data = data2
        writer.write(data)
        await writer.drain()

    async def _handle_conn(self, reader, writer) -> None:
        self._conn_ids += 1
        conn_id = self._conn_ids
        self._writers.add(writer)
        in_seq = out_seq = 0
        try:
            while not self._closed:
                try:
                    ftype, meta, body = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # peer went away
                except FrameCorruptError as exc:
                    # A damaged request: tell the peer, typed, and keep
                    # the connection — the stream itself is still framed.
                    out_seq += 1
                    await self._send(
                        writer, conn_id, out_seq,
                        encode_frame(
                            FrameType.ERROR, error_to_meta(exc), seq=out_seq
                        ),
                    )
                    continue
                in_seq += 1
                if self.faults is not None:
                    verdict = self.faults.decide("in", conn_id, in_seq)
                    if verdict.delay:
                        await asyncio.sleep(self.faults.delay_s)
                    if verdict.drop:
                        continue  # lost on the wire: client retries
                    if verdict.corrupt:
                        # Modelled as checksum-detected wire damage.
                        out_seq += 1
                        await self._send(
                            writer, conn_id, out_seq,
                            encode_frame(
                                FrameType.ERROR,
                                error_to_meta(FrameCorruptError(
                                    "request frame arrived corrupted "
                                    "(injected)", detail="crc",
                                )),
                                seq=out_seq,
                            ),
                        )
                        continue
                out_seq += 1
                reply = await self._dispatch(ftype, meta, body)
                await self._send(
                    writer, conn_id, out_seq,
                    encode_frame(reply[0], reply[1], reply[2], seq=out_seq),
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — teardown best effort
                pass

    async def _dispatch(
        self, ftype: int, meta: Dict[str, Any], body: bytes
    ) -> Tuple[int, Dict[str, Any], bytes]:
        if ftype == FrameType.HELLO:
            return (
                FrameType.WELCOME,
                {
                    "server": self.name,
                    "proto": PROTO_VERSION,
                    "host_token": host_token(),
                    "pid": os.getpid(),
                },
                b"",
            )
        if ftype == FrameType.HEALTH:
            report = self.service.report()
            return (
                FrameType.HEALTH_OK,
                {
                    "server": self.name,
                    "healthy": True,
                    "served": report.served,
                    "failed": report.failed,
                    "expired": report.expired,
                    "inflight": len(self._inflight),
                },
                b"",
            )
        if ftype == FrameType.SORT:
            return await self._handle_sort(meta, body)
        return (
            FrameType.ERROR,
            error_to_meta(
                ConfigurationError(f"unknown frame type {ftype}")
            ),
            b"",
        )

    async def _handle_sort(
        self, meta: Dict[str, Any], body: bytes
    ) -> Tuple[int, Dict[str, Any], bytes]:
        rid = meta.get("id")
        if not isinstance(rid, str) or not rid:
            return (
                FrameType.ERROR,
                error_to_meta(
                    ConfigurationError("sort request carries no id")
                ),
                b"",
            )
        # Idempotency: a retried id rides the first run, never a second.
        cached = self._done_cache.get(rid)
        if cached is not None:
            return cached
        fut = self._inflight.get(rid)
        if fut is None:
            fut = asyncio.get_running_loop().run_in_executor(
                self._executor, self._run_request, meta, body,
                time.monotonic(),
            )
            self._inflight[rid] = fut
            fut.add_done_callback(
                lambda f, rid=rid: self._finish_request(rid, f)
            )
        reply = await asyncio.shield(fut)
        return reply

    def _finish_request(self, rid: str, fut: asyncio.Future) -> None:
        self._inflight.pop(rid, None)
        try:
            reply = fut.result()
        except BaseException:  # noqa: BLE001 — never cached, never raised here
            return
        self._done_cache[rid] = reply
        self._done_order.append(rid)
        while len(self._done_order) > 512:
            self._done_cache.pop(self._done_order.pop(0), None)

    # -- the worker plane (executor threads) ----------------------------

    def _run_request(
        self, meta: Dict[str, Any], body: bytes, received_at: float
    ) -> Tuple[int, Dict[str, Any], bytes]:
        rid = meta["id"]
        try:
            keys = _decode_keys(meta, body)
            budget = meta.get("budget_s")
            if budget is not None:
                # The remaining-time budget, net of our own queueing so
                # far; admission and the world dispatch both honor it.
                budget = float(budget) - (time.monotonic() - received_at)
                if budget <= 0:
                    raise RequestTimeoutError(
                        f"request {rid} arrived with its budget spent",
                        deadline_s=float(meta["budget_s"]),
                        elapsed_s=float(meta["budget_s"]) - budget,
                        stage="admission",
                    )
            # Absent on v1 frames: old clients asked for (and only knew)
            # the smart bitonic sort; "auto" opts into planner routing.
            # Older clients' ``fused``/``grouped`` keys are ignored: every
            # remap is fused and group-scoped.
            algorithm = meta.get("algorithm", "smart")
            ticket = self.service.submit(
                keys,
                algorithm=None if algorithm == "auto" else algorithm,
                backend=meta.get("backend"),
                P=meta.get("P"),
                deadline_s=budget,
                tenant=meta.get("tenant") or "default",
            )
            outcome = ticket.result(
                budget if budget is not None else self._result_timeout
            )
            rmeta: Dict[str, Any] = {
                "id": rid,
                "shard": self.name,
                "algorithm": outcome.decision.algorithm,
                "backend": outcome.decision.backend,
                "P": outcome.decision.P,
                "queue_wait_s": outcome.queue_wait_s,
                "run_s": outcome.run_s,
                "batch_size": outcome.batch_size,
                "retries": outcome.retries,
                "dtype": str(outcome.sorted_keys.dtype.str),
            }
            if meta.get("shm"):
                with open(_shm_path(meta["shm"]), "wb") as fh:
                    fh.write(outcome.sorted_keys.tobytes())
                rmeta["shm"] = meta["shm"]
                rbody = b""
            else:
                rbody = outcome.sorted_keys.tobytes()
            self.served += 1
            return (FrameType.RESULT, rmeta, rbody)
        except BaseException as exc:  # noqa: BLE001 — typed over the wire
            self.errored += 1
            emeta = error_to_meta(exc)
            emeta["id"] = rid
            return (FrameType.ERROR, emeta, b"")


# -- the client -----------------------------------------------------------


@dataclass
class ClientOutcome:
    """What one networked request produced."""

    sorted_keys: np.ndarray
    request_id: str
    shard: str
    wall_s: float = 0.0
    attempts: int = 1
    via_shm: bool = False
    #: Server-side accounting (queue wait, run time, batch size, ...).
    server: Dict[str, Any] = field(default_factory=dict)
    #: Network spans (frame/inflight/retry) when the request was traced.
    tracer: Optional[Tracer] = None
    #: Failovers the router performed for this request (0 when the
    #: request went straight through a single client).
    failovers: int = 0


def _jittered(base: float, cap: float, attempt: int,
              rng: random.Random) -> float:
    """Capped exponential backoff with full jitter."""
    return min(cap, base * (2 ** (attempt - 1))) * (0.5 + rng.random() / 2)


class SortClient:
    """A blocking client for :class:`SortServer`.

    Connections are **per thread** (a `threading.local`), so one client
    instance may serve many concurrent caller threads — the router does
    exactly that — without head-of-line blocking between them.  Each
    thread reuses its connection across requests; every attempt that
    fails drops it and the next attempt reconnects.  Retries ride the
    same request id, so the server never sorts twice for one caller.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"``.
    timeout_s:
        Per-attempt socket budget.  A lost reply costs at most
        ``min(timeout_s, remaining deadline)`` before the retry loop
        takes over — never the whole deadline.
    retries:
        Extra attempts after the first (wire failures only; typed
        server verdicts are never retried here — that is router policy).
    backoff_s / backoff_max_s:
        Exponential backoff base and cap between attempts (full jitter).
    via_shm:
        ``"auto"`` ships payloads through /dev/shm when the handshake
        proves the server is on this host and the payload is at least
        ``shm_min_bytes``; ``True`` forces it; ``False`` disables.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.05,
        backoff_max_s: float = 1.0,
        via_shm: Union[bool, str] = "auto",
        shm_min_bytes: int = 1 << 16,
        name: str = "client",
    ):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            address = (host or "127.0.0.1", int(port))
        self.address: Tuple[str, int] = (address[0], int(address[1]))
        self.name = name
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.via_shm = via_shm
        self.shm_min_bytes = shm_min_bytes
        self._tls = threading.local()
        self._server_info: Dict[str, Any] = {}
        self._rng = random.Random()
        #: Every live socket across threads, so close() can reach them.
        self._socks_lock = threading.Lock()
        self._socks: set = set()

    # -- connection ------------------------------------------------------

    def _connect(self, deadline_at: Optional[float]) -> socket.socket:
        sock = getattr(self._tls, "sock", None)
        if sock is not None:
            return sock
        sock = socket.create_connection(
            self.address, timeout=self._attempt_budget(deadline_at)
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._tls.sock = sock
        self._tls.seq = getattr(self._tls, "seq", 0)
        with self._socks_lock:
            self._socks.add(sock)
        try:
            self._send_bytes(
                sock,
                encode_frame(
                    FrameType.HELLO,
                    {"client": self.name, "pid": os.getpid()},
                    seq=self._next_seq(),
                ),
            )
            ftype, meta, _body = self._recv_frame(sock, deadline_at)
            if ftype == FrameType.ERROR:
                raise error_from_meta(meta)
            if ftype != FrameType.WELCOME:
                raise FrameCorruptError(
                    f"expected WELCOME, got frame type {ftype}",
                    frame_type=ftype, detail="meta",
                )
            self._server_info = meta
        except BaseException:
            self._drop_connection()
            raise
        return sock

    def _next_seq(self) -> int:
        self._tls.seq = getattr(self._tls, "seq", 0) + 1
        return self._tls.seq

    def _drop_connection(self) -> None:
        sock = getattr(self._tls, "sock", None)
        self._tls.sock = None
        if sock is not None:
            with self._socks_lock:
                self._socks.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass

    def close(self) -> None:
        """Close every thread's connection (sockets are safe to close
        from another thread; an in-flight request fails typed)."""
        self._drop_connection()
        with self._socks_lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass

    def __enter__(self) -> "SortClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wire helpers ----------------------------------------------------

    def _attempt_budget(self, deadline_at: Optional[float]) -> float:
        """Socket budget for the next wire operation: the per-attempt
        timeout, clipped to the remaining deadline — a dropped reply
        costs one attempt, not the caller's whole budget."""
        if deadline_at is None:
            return self.timeout_s
        return max(1e-3, min(self.timeout_s, deadline_at - time.monotonic()))

    def _send_bytes(self, sock: socket.socket, data: bytes) -> None:
        sock.sendall(data)

    def _recv_exact(
        self, sock: socket.socket, n: int, deadline_at: Optional[float]
    ) -> bytes:
        chunks = []
        got = 0
        while got < n:
            sock.settimeout(self._attempt_budget(deadline_at))
            chunk = sock.recv(n - got)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _recv_frame(
        self, sock: socket.socket, deadline_at: Optional[float],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[int, Dict[str, Any], bytes]:
        with trace_span(tracer, "wait", "inflight"):
            header = self._recv_exact(sock, HEADER_SIZE, deadline_at)
        ftype, _flags, _seq, meta_len, body_len, crc = parse_header(header)
        with trace_span(tracer, "transfer", "frame-recv"):
            payload = self._recv_exact(
                sock, meta_len + body_len, deadline_at
            )
        meta, body = validate_payload(ftype, payload, meta_len, crc)
        return ftype, meta, body

    # -- the RPCs --------------------------------------------------------

    def health(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        """The server's health answer, or :class:`ShardUnavailableError`."""
        deadline_at = time.monotonic() + timeout_s
        try:
            sock = self._connect(deadline_at)
            self._send_bytes(
                sock,
                encode_frame(FrameType.HEALTH, {}, seq=self._next_seq()),
            )
            ftype, meta, _body = self._recv_frame(sock, deadline_at)
        except (OSError, ConnectionError, FrameCorruptError,
                TimeoutError) as exc:
            self._drop_connection()
            raise ShardUnavailableError(
                f"health check of {self.address} failed: {exc}",
                shards={self._shard_name(): "unreachable"},
                attempts=1,
            ) from exc
        if ftype == FrameType.ERROR:
            raise error_from_meta(meta)
        if ftype != FrameType.HEALTH_OK:
            self._drop_connection()
            raise ShardUnavailableError(
                f"health check of {self.address} answered frame type "
                f"{ftype}", shards={self._shard_name(): "confused"},
                attempts=1,
            )
        return meta

    def _shard_name(self) -> str:
        return self._server_info.get(
            "server", f"{self.address[0]}:{self.address[1]}"
        )

    def sort(
        self,
        keys: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
        tenant: Optional[str] = None,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        trace: bool = False,
    ) -> ClientOutcome:
        """Sort ``keys`` on the server; deadline-aware, retrying, typed.

        ``algorithm`` is ``"smart"``, ``"sample"`` or ``"auto"`` (server
        plans across algorithms); ``None`` omits the meta key, which a
        server of any protocol version reads as ``"smart"``.

        The request id is generated once, so every retry is idempotent.
        Wire failures (reset, timeout, corrupt frames) retry with
        jittered backoff inside the remaining budget; typed server
        verdicts (admission, timeout, configuration) raise immediately.
        """
        keys = np.ascontiguousarray(np.asarray(keys))
        rid = uuid.uuid4().hex
        started = time.monotonic()
        deadline_at = None if deadline_s is None else started + deadline_s
        tracer = Tracer(0) if trace else None
        shm_name: Optional[str] = None
        attempts = 0
        try:
            while True:
                attempts += 1
                if deadline_at is not None and (
                    time.monotonic() >= deadline_at
                ):
                    raise RequestTimeoutError(
                        f"request {rid} ran out of its "
                        f"{deadline_s}s budget after "
                        f"{attempts - 1} attempts",
                        deadline_s=deadline_s or 0.0,
                        elapsed_s=time.monotonic() - started,
                        stage="client",
                    )
                try:
                    outcome, shm_name = self._attempt_sort(
                        rid, keys, shm_name, deadline_at, tracer,
                        deadline_s=deadline_s, tenant=tenant,
                        algorithm=algorithm, backend=backend, P=P,
                    )
                    outcome.attempts = attempts
                    outcome.wall_s = time.monotonic() - started
                    outcome.tracer = tracer
                    return outcome
                except RequestTimeoutError:
                    raise
                except (FrameCorruptError, ConnectionError,
                        TimeoutError, OSError) as exc:
                    self._drop_connection()
                    if attempts > self.retries:
                        if isinstance(exc, (TimeoutError,
                                            socket.timeout)):
                            raise RequestTimeoutError(
                                f"request {rid} timed out "
                                f"{attempts}x against "
                                f"{self.address}",
                                deadline_s=deadline_s or self.timeout_s,
                                elapsed_s=time.monotonic() - started,
                                stage="client",
                            ) from exc
                        raise ShardUnavailableError(
                            f"shard at {self.address} unreachable "
                            f"after {attempts} attempts: {exc}",
                            shards={
                                self._shard_name(): "unreachable"
                            },
                            attempts=attempts,
                        ) from exc
                    delay = _jittered(
                        self.backoff_s, self.backoff_max_s, attempts,
                        self._rng,
                    )
                    if deadline_at is not None:
                        delay = min(
                            delay,
                            max(0.0, deadline_at - time.monotonic()),
                        )
                    with trace_span(tracer, "retransmit", "retry"):
                        time.sleep(delay)
        finally:
            if shm_name is not None:
                try:
                    os.unlink(os.path.join(_SHM_DIR, shm_name))
                except OSError:
                    pass

    def _attempt_sort(
        self,
        rid: str,
        keys: np.ndarray,
        shm_name: Optional[str],
        deadline_at: Optional[float],
        tracer: Optional[Tracer],
        **opts: Any,
    ) -> Tuple[ClientOutcome, Optional[str]]:
        sock = self._connect(deadline_at)
        meta: Dict[str, Any] = {
            "id": rid,
            "dtype": str(keys.dtype.str),
            "shape": [int(keys.size)],
        }
        for key in ("tenant", "algorithm", "backend", "P"):
            if opts.get(key) is not None:
                meta[key] = opts[key]
        if deadline_at is not None:
            meta["budget_s"] = max(0.0, deadline_at - time.monotonic())
        use_shm = self._shm_eligible(keys)
        body = b""
        if use_shm:
            if shm_name is None:
                shm_name = f"{_SHM_PREFIX}{rid}"
                with trace_span(tracer, "pack", "shm-write"):
                    with open(os.path.join(_SHM_DIR, shm_name), "wb") as fh:
                        fh.write(keys.tobytes())
            meta["shm"] = shm_name
        else:
            with trace_span(tracer, "pack", "frame"):
                body = keys.tobytes()
        frame = encode_frame(FrameType.SORT, meta, body, seq=self._next_seq())
        with trace_span(tracer, "transfer", "frame-send"):
            self._send_bytes(sock, frame)
        while True:
            ftype, rmeta, rbody = self._recv_frame(
                sock, deadline_at, tracer
            )
            if rmeta.get("id") not in (None, rid):
                continue  # a stale (delayed) reply for an earlier attempt
            break
        if ftype == FrameType.ERROR:
            raise error_from_meta(rmeta)
        if ftype != FrameType.RESULT:
            raise FrameCorruptError(
                f"expected RESULT, got frame type {ftype}",
                frame_type=ftype, detail="meta",
            )
        dtype = np.dtype(rmeta.get("dtype", keys.dtype.str))
        if rmeta.get("shm"):
            with trace_span(tracer, "unpack", "shm-read"):
                with open(_shm_path(rmeta["shm"]), "rb") as fh:
                    out = np.frombuffer(fh.read(), dtype=dtype).copy()
        else:
            with trace_span(tracer, "unpack", "frame"):
                out = np.frombuffer(rbody, dtype=dtype).copy()
        if out.size != keys.size:
            raise FrameCorruptError(
                f"result carries {out.size} keys for a {keys.size}-key "
                "request", detail="truncated",
            )
        return (
            ClientOutcome(
                sorted_keys=out,
                request_id=rid,
                shard=rmeta.get("shard", self._shard_name()),
                via_shm=bool(rmeta.get("shm")),
                server=rmeta,
            ),
            shm_name,
        )

    def _shm_eligible(self, keys: np.ndarray) -> bool:
        if self.via_shm is False:
            return False
        if not os.path.isdir(_SHM_DIR):
            return False
        same_host = self._server_info.get("host_token") == host_token()
        if self.via_shm is True:
            return same_host
        return same_host and keys.nbytes >= self.shm_min_bytes
