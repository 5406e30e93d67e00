"""Length-prefixed, checksummed message framing over sockets.

Every message between the fleet coordinator, its workers, and a worker
pool's status port travels as one *frame*:

====== ======= ==========================================================
bytes  field   meaning
====== ======= ==========================================================
0–3    magic   ``b"OLNG"`` — frame alignment marker
4–7    length  payload size, big-endian uint32 (bounded by MAX_FRAME)
8–15   check   first 8 bytes of ``sha256(payload)``, big-endian uint64
16–    payload the pickled message
====== ======= ==========================================================

The checksum is an *integrity* check, not an authenticity one: it
catches truncation, bit rot, and the ``corrupt-frame`` fault, all of
which must surface as a recoverable :class:`FrameError` rather than a
mis-parsed message. On a framing violation the receiver *resynchronizes*:
it scans the buffered stream for the next magic marker and reports the
skipped garbage, so one corrupt frame costs one message, not the
connection. If no marker appears within a bounded window the stream is
declared unrecoverable and the peer dropped (:class:`ConnectionClosed`).

Payloads are pickled — the peers are trusted cooperating processes of
the same checker installation (the same trust model as the fork-pipe
supervisor this generalizes), and verdicts/AST nodes are already
pickle-shaped from the PR-5 worker protocol. An optional shared token in
the hello message keeps *accidental* cross-talk out; it is not an
authentication scheme. Every endpoint admits peers through one
:class:`Listener`, one :func:`greet` and, on the client side, one
:func:`dial`.

:class:`FramePolicy` is the deterministic fault hook: the coordinator
threads one through its outbound side so seeded plans can drop, delay,
or corrupt the n-th frame on the wire (see
:data:`repro.testing.faults.FLEET_STAGES`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import socket
import struct
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import events as obs_events

MAGIC = b"OLNG"
HEADER = struct.Struct(">4sIQ")
#: Hard cap on a single payload. Large enough for a pickled scope plus
#: grafted span trees, small enough that a corrupted length field cannot
#: make the receiver allocate unboundedly.
MAX_FRAME = 64 * 1024 * 1024
#: How many bytes of garbage the resync scan will chew through before
#: giving the stream up as unrecoverable.
MAX_RESYNC = 4 * MAX_FRAME


class TransportError(Exception):
    """Base class for framing-layer failures."""


class ConnectionClosed(TransportError):
    """The peer is gone (EOF, reset, or an unrecoverable stream)."""


class StatusRejected(TransportError):
    """A server answered but refused the handshake (see :func:`dial`).

    Distinct from :class:`ConnectionClosed` (nothing listening) so
    scripted health checks can tell "down" from "wrong server or
    token" — the CLI maps the two onto different exit codes.
    """


class FrameError(TransportError):
    """One frame was rejected (bad checksum, bad length, garbage bytes)
    but the stream was resynchronized — the caller may simply ``recv``
    again for the next frame."""


class ReadTimeout(TransportError):
    """No complete frame arrived within the caller's deadline."""


def checksum64(payload: bytes) -> int:
    """The 64-bit integrity check carried in every frame header."""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def encode_frame(message: Any) -> bytes:
    """Pickle ``message`` and wrap it in a frame header."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise TransportError(
            f"message of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return HEADER.pack(MAGIC, len(payload), checksum64(payload)) + payload


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse ``host:port`` (or ``:port`` / bare ``port``) into a pair."""
    text = spec.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {spec!r}: expected HOST:PORT with a numeric port"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bad address {spec!r}: port out of range")
    return host, port


class FramePolicy:
    """Deterministic outbound-frame faults (drop / delay / corrupt).

    Interprets the active :class:`~repro.testing.faults.FaultPlan`'s
    ``drop-frame`` / ``delay-frame`` / ``corrupt-frame`` stages against a
    single global ordinal of frames sent through sockets carrying this
    policy — the coordinator installs one policy across all its worker
    connections, so "corrupt frame #3" names the third frame the
    coordinator puts on *any* wire, independent of which worker it goes
    to.
    """

    def __init__(self):
        from repro.testing.faults import supervisor_fault_hits

        self._drop = supervisor_fault_hits("drop-frame")
        self._delay = supervisor_fault_hits("delay-frame")
        self._corrupt = supervisor_fault_hits("corrupt-frame")
        self._lock = threading.Lock()
        self._ordinal = 0

    def apply(self, frame: bytes) -> Optional[bytes]:
        """Transform one outbound frame; ``None`` means "do not send"."""
        from repro.testing.faults import record_supervisor_fault

        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
        if ordinal in self._drop:
            record_supervisor_fault("drop-frame", ordinal, "drop")
            return None
        if ordinal in self._delay:
            fault = self._delay[ordinal]
            record_supervisor_fault("delay-frame", ordinal, "delay")
            time.sleep(fault.delay or 0.01)
        if ordinal in self._corrupt:
            record_supervisor_fault("corrupt-frame", ordinal, "corrupt")
            # Flip payload bytes but keep the header intact: the frame
            # stays aligned on the wire, so the receiver must detect the
            # damage by checksum, reject the frame, and keep the stream.
            header, payload = frame[: HEADER.size], frame[HEADER.size :]
            mangled = bytes(b ^ 0xFF for b in payload[:16]) + payload[16:]
            return header + mangled
        return frame


class FramedSocket:
    """A message-oriented wrapper around one connected stream socket.

    ``send`` and ``recv`` are each locked, so one writer thread and one
    reader thread may share the object (the fleet's usage pattern);
    concurrent senders serialize cleanly.
    """

    def __init__(self, sock: socket.socket, policy: Optional[FramePolicy] = None):
        self.sock = sock
        self.policy = policy
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._pending = b""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # e.g. AF_UNIX

    # -- sending ---------------------------------------------------------

    def send(self, message: Any) -> bool:
        """Frame and send one message; False if a fault dropped it."""
        return self.send_frame(encode_frame(message))

    def send_frame(self, frame: bytes) -> bool:
        """Send one frame made by :func:`encode_frame`; False if a fault
        dropped it."""
        if self.policy is not None:
            applied = self.policy.apply(frame)
            if applied is None:
                return False
            frame = applied
        with self._send_lock:
            try:
                self.sock.sendall(frame)
            except (OSError, ValueError) as exc:
                raise ConnectionClosed(f"send failed: {exc}") from exc
        return True

    # -- receiving -------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Receive one message.

        Raises :class:`ReadTimeout` if no complete frame arrives in
        ``timeout`` seconds, :class:`FrameError` if a frame was rejected
        (stream already resynchronized — call again), and
        :class:`ConnectionClosed` on EOF or an unrecoverable stream.
        """
        with self._recv_lock:
            deadline = None if timeout is None else time.monotonic() + timeout
            header = self._recv_exact(HEADER.size, deadline)
            magic, length, expected = HEADER.unpack(header)
            if magic != MAGIC or length > MAX_FRAME:
                self._resync(deadline)
                raise FrameError(
                    "frame header rejected "
                    f"(magic={magic!r}, length={length}); resynchronized"
                )
            payload = self._recv_exact(length, deadline)
            if checksum64(payload) != expected:
                # Header framed correctly, so the stream is still aligned:
                # no resync needed, just reject the damaged message.
                raise FrameError("frame checksum mismatch; frame discarded")
            try:
                return pickle.loads(payload)
            except Exception as exc:
                raise FrameError(f"frame payload undecodable: {exc}") from exc

    def _recv_exact(self, count: int, deadline: Optional[float]) -> bytes:
        """Consume exactly ``count`` bytes from pending + the socket."""
        while len(self._pending) < count:
            try:
                if deadline is None:
                    self.sock.settimeout(None)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ReadTimeout("read deadline exceeded")
                    self.sock.settimeout(remaining)
                chunk = self.sock.recv(65536)
            except socket.timeout:
                raise ReadTimeout("read deadline exceeded") from None
            except (OSError, ValueError) as exc:
                raise ConnectionClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._pending += chunk
        data, self._pending = self._pending[:count], self._pending[count:]
        return data

    def _resync(self, deadline: Optional[float]) -> None:
        """Scan forward for the next magic marker, bounded by MAX_RESYNC."""
        skipped = 0
        while True:
            index = self._pending.find(MAGIC)
            if index >= 0:
                skipped += index
                self._pending = self._pending[index:]
                obs_events.emit("frame-resync", skipped=skipped)
                return
            # Keep a magic-sized tail in case the marker straddles reads.
            keep = len(MAGIC) - 1
            skipped += max(len(self._pending) - keep, 0)
            self._pending = self._pending[-keep:] if keep else b""
            if skipped > MAX_RESYNC:
                raise ConnectionClosed(
                    f"no frame marker within {skipped} bytes; stream unrecoverable"
                )
            try:
                data = self._recv_exact(len(self._pending) + 1, deadline)
            except ReadTimeout:
                raise ConnectionClosed(
                    "stream desynchronized and no marker arrived in time"
                ) from None
            # _recv_exact removed what it returned from the buffer; put
            # it back in stream order so the scan sees every byte.
            self._pending = data + self._pending

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Clock alignment
#
# Each process's span timestamps live in its own ``perf_counter`` domain
# (an arbitrary epoch). A worker ships one (wall, perf) sample in its
# registration hello; the coordinator compares it against its own pair
# to estimate the additive offset mapping the worker's perf domain into
# the coordinator's, assuming wall clocks agree (exact on one host,
# NTP-accurate across machines). ``Tracer.absorb(offset=...)`` then
# rebases shipped spans so a fleet run over remote pools assembles into
# one coherent trace.


def clock_sample() -> Tuple[float, float]:
    """This process's ``(time.time(), time.perf_counter())`` pair."""
    return (time.time(), time.perf_counter())


def clock_offset(sample: Tuple[float, float]) -> float:
    """Seconds to add to the sampler's perf domain to land in ours.

    For a remote perf timestamp ``p``, ``p + clock_offset(sample)`` is
    the local ``perf_counter`` value at (approximately) the same true
    instant. The estimate is off by the network latency between the
    sample and its receipt plus any wall-clock skew; consumers clamp.
    """
    remote_wall, remote_perf = sample
    return (time.perf_counter() - time.time()) - (remote_perf - remote_wall)


# ----------------------------------------------------------------------
# Endpoints: every server admits peers the same way. A Listener hands
# each connection to the server's handler, which calls greet; the client
# calls dial. A server with a token requires exactly that token; a
# server without one accepts any.


class Listener:
    """A bound socket whose one accept thread hands every connection to
    ``handle(FramedSocket)`` on a daemon thread of its own.

    The address is bound here, so one already in use raises
    :class:`ConnectionClosed` before anything starts; :meth:`start`
    starts accepting. The threads are named ``{name}-accept`` and
    ``{name}-client``. The connection threads still running stay in
    :attr:`threads` (finished ones are dropped at the next accept), so
    an owner can wait for its peers after :meth:`close` (a graceful
    drain); :attr:`accepted` counts every connection ever handed out.
    ``policy`` rides on every accepted socket's sends (the coordinator's
    frame faults).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        handle: Callable[[FramedSocket], None],
        *,
        name: str,
        policy: Optional[FramePolicy] = None,
    ):
        self.handle = handle
        self.name = name
        self.policy = policy
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(address)
            sock.listen(64)
        except OSError as exc:
            sock.close()
            raise ConnectionClosed(f"bind to {address} failed: {exc}") from exc
        self._sock = sock
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        self.threads: List[threading.Thread] = []
        self.accepted = 0
        self._accepter = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )

    def start(self) -> "Listener":
        self._accepter.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._sock.accept()
            except OSError:
                return  # closed
            thread = threading.Thread(
                target=self.handle,
                args=(FramedSocket(sock, self.policy),),
                name=f"{self.name}-client",
                daemon=True,
            )
            thread.start()
            self.threads = [t for t in self.threads if t.is_alive()]
            self.threads.append(thread)
            self.accepted += 1

    def close(self) -> None:
        """Stop accepting; connections already handed out live on.
        (``shutdown`` wakes the parked ``accept()``; ``close`` alone would
        not, and every shutdown would pay the join timeout.)"""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._accepter.is_alive():
            self._accepter.join(timeout=2.0)

    def stop(self) -> None:
        """Stop accepting, then give each connection thread up to 2 s."""
        self.close()
        for thread in self.threads:
            thread.join(timeout=2.0)


def greet(
    channel: FramedSocket, protocols: Tuple[str, ...], token: Optional[str]
) -> Optional[tuple]:
    """Admit or refuse a new peer by its ``("hello", protocol, token,
    *extra)``: it must arrive within 5 s, name one of ``protocols`` and
    carry the server's ``token``, if it has one. An admitted peer's hello
    is returned for the server to answer with its welcome; a refused one
    is answered ``("reject", reason)``, closed, and None returned.
    """
    try:
        hello = channel.recv(timeout=5.0)
    except TransportError:
        channel.close()
        return None
    if not (
        isinstance(hello, tuple)
        and len(hello) >= 3
        and hello[0] == "hello"
        and hello[1] in protocols
    ):
        reason = "bad hello"
    elif token is not None and hello[2] != token:
        reason = "bad token"
    else:
        return hello
    try:
        channel.send(("reject", reason))
    except TransportError:
        pass
    channel.close()
    return None


def dial(
    address: Tuple[str, int],
    protocol: str,
    token: Optional[str],
    *extra: Any,
    timeout: float,
    connect_timeout: Optional[float] = None,
) -> Tuple[FramedSocket, tuple]:
    """Connect and say ``("hello", protocol, token, *extra)``; returns
    the channel and the server's ``("welcome", ...)``.

    Raises :class:`StatusRejected` when the server answers anything but
    a welcome, and :class:`TransportError` when nothing answers: the
    reply gets ``timeout`` seconds, the connect ``connect_timeout``
    (default ``timeout``).
    """
    try:
        sock = socket.create_connection(
            address, timeout=timeout if connect_timeout is None else connect_timeout
        )
    except OSError as exc:
        raise ConnectionClosed(f"connect to {address} failed: {exc}") from exc
    sock.settimeout(None)
    channel = FramedSocket(sock)
    try:
        channel.send(("hello", protocol, token, *extra))
        welcome = channel.recv(timeout=timeout)
    except TransportError:
        channel.close()
        raise
    if not (isinstance(welcome, tuple) and welcome and welcome[0] == "welcome"):
        channel.close()
        raise StatusRejected(f"handshake refused: {welcome!r}")
    return channel, welcome


STATUS_PROTOCOL = "oolong-status-1"


class StatusServer(Listener):
    """A tiny framed-socket status endpoint for long-running servers: a
    :class:`Listener` that greets ``oolong-status-1`` peers and answers
    them from ``snapshot`` (a callable returning a plain dict).

    The worker pool mounts one beside its coordinator rendezvous.
    Queries are read-only and served on daemon threads, so a slow or
    hostile client can never wedge the server it is observing.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        snapshot: Callable[[], dict],
        *,
        token: Optional[str] = None,
    ):
        self.snapshot = snapshot
        self.token = token
        super().__init__(address, self._serve_client, name="status")

    def stop(self) -> None:
        """Stop accepting; open queries are read-only and not waited for."""
        self.close()

    def _serve_client(self, channel: FramedSocket) -> None:
        """Welcome a greeted status peer, then answer until ``bye``."""
        if greet(channel, (STATUS_PROTOCOL,), self.token) is None:
            return
        try:
            channel.send(("welcome", STATUS_PROTOCOL))
            while True:
                try:
                    request = channel.recv(timeout=30.0)
                except FrameError:
                    continue
                except (ReadTimeout, ConnectionClosed):
                    return
                if not isinstance(request, tuple) or not request:
                    channel.send(("error", "bad request"))
                elif request[0] == "status":
                    channel.send(("status", self.snapshot()))
                elif request[0] == "bye":
                    return
                else:
                    channel.send(
                        ("error", f"unknown request {request[0]!r}")
                    )
        except (TransportError, OSError):
            pass
        finally:
            channel.close()


def query_status(
    address: Tuple[str, int],
    *,
    token: Optional[str] = None,
    timeout: float = 5.0,
) -> dict:
    """One status round-trip against a worker pool's :class:`StatusServer`."""
    try:
        channel, _ = dial(address, STATUS_PROTOCOL, token, timeout=timeout)
    except StatusRejected as exc:
        raise StatusRejected(f"status {exc}") from None
    try:
        channel.send(("status",))
        reply = channel.recv(timeout=timeout)
        if not (
            isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "status"
        ):
            raise TransportError(f"bad status reply: {reply!r}")
        try:
            channel.send(("bye",))
        except TransportError:
            pass
        return reply[1]
    finally:
        channel.close()


def serve_forever(server, drain_timeout: float = 10.0) -> None:
    """Run a standing server until SIGTERM or SIGINT (Ctrl-C), then drain.

    The blocking body of ``oolong-check workers serve``. ``server`` is
    a :class:`~repro.parallel.fleet.WorkerPool`: it supplies
    ``start()``, a blocking ``wait()``, ``drain(timeout)`` (returning
    the ``drained``/``terminated`` counts) and ``announcement(starting)``,
    its own fields of the ``server-start``/``server-stop`` stdout
    records. Either signal lets in-flight work finish for up to
    ``drain_timeout`` seconds, announces ``server-stop`` with the signal
    and the drain outcome, and returns normally so the CLI exits 0.

    The SIGTERM handler goes in before the server starts anything, so a
    call off the main thread raises ``ValueError`` with no process or
    thread left behind.
    """
    stop = {"reason": "exit"}

    def _on_term(signum, frame):
        stop["reason"] = "sigterm"
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _on_term)
    try:
        server.start()
        # Announce inside the try: the server-start line is the
        # readiness signal scripts wait on, and a SIGTERM that lands
        # the instant it is printed must still drain.
        obs_events.announce(
            {
                "event": "server-start",
                "pid": os.getpid(),
                **server.announcement(True),
            }
        )
        server.wait()
    except KeyboardInterrupt:
        if stop["reason"] == "exit":
            stop["reason"] = "sigint"
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        outcome = server.drain(drain_timeout)
        obs_events.announce(
            {
                "event": "server-stop",
                "pid": os.getpid(),
                **server.announcement(False),
                "reason": stop["reason"],
                **outcome,
            }
        )
