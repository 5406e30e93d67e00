"""A shared result cache served over the fleet transport.

The server wraps the same on-disk :class:`~repro.parallel.cache.ResultCache`
(same SHA-256 key scheme, same checksummed entries, same LRU + max-bytes
eviction) behind a socket, so many checker runs — on one machine or
several — can warm each other's caches.

Integrity is enforced on **both ends** of the wire:

* the server validates an entry (checksum, version, key binding) before
  serving it — a corrupt entry on the server's disk is reported as a
  server-side rejection, never shipped;
* the client re-validates everything it receives through the same
  :func:`~repro.parallel.cache.validate_entry` chain — a frame that was
  damaged in flight (or a lying server) is rejected locally and surfaces
  as the same ``OL903`` warning a corrupt local entry would.

Availability is strictly best-effort: :class:`RemoteCache` raises
:class:`CacheUnavailable` only at *connect* time (the checker then
degrades to the local cache with an ``OL904`` warning); once a run is
underway any transport failure trips a circuit breaker — the remote
cache silently becomes a zero-hit cache, because a mid-run cache outage
must never fail or stall proving. The breaker is *half-open*: after a
trip the client schedules reconnect probes on a jittered exponential
backoff (deterministic per client, see
:func:`repro.parallel.policy.backoff_delay`) and, when a probe's
re-handshake succeeds, swaps in the fresh connection and resumes
remote traffic — so a cache server restarted mid-run serves the rest
of the run instead of the outage being permanent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import List, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import (
    ResultCache,
    code_version,
    event_key,
    validate_entry,
)
from repro.parallel.transport import (
    ConnectionClosed,
    FramedSocket,
    FrameError,
    Listener,
    ReadTimeout,
    STATUS_PROTOCOL,
    TransportError,
    answer_status,
    dial,
    greet,
    parse_address,
)

PROTOCOL = "oolong-cache-1"


class CacheUnavailable(Exception):
    """The cache server could not be reached (or rejected the client)."""


class CacheServer:
    """Serve one :class:`ResultCache` directory to many clients.

    One thread per connection; the cache itself is guarded by a single
    lock (requests are small and disk-bound, contention is not the
    bottleneck at checker scale). The same port answers the
    ``oolong-status-1`` hello, so one
    :func:`~repro.parallel.transport.query_status` reads both a cache
    server and a worker pool's status endpoint.
    """

    def __init__(
        self,
        directory: str,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_bytes: Optional[int] = None,
        token: Optional[str] = None,
        http_address: Optional[Tuple[str, int]] = None,
    ):
        self.cache = ResultCache(directory, max_bytes=max_bytes)
        self.token = token
        self._listener = Listener(address, self._serve_client, name="cache")
        self.address: Tuple[str, int] = self._listener.address
        self._http_server: Optional[TelemetryHTTPServer] = None
        if http_address is not None:
            try:
                self._http_server = TelemetryHTTPServer(http_address, self.status)
            except BaseException:
                self._listener.stop()
                raise
        self.metrics = MetricsRegistry()
        self.started = time.time()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._gets = 0
        # evict-under-read is interpreted here: on the n-th *served* GET
        # the entry's file is deleted after the read, modelling an
        # eviction racing the reader (fault plans key it by the ordinal
        # of successful reads, so cold misses do not shift the target).
        from repro.testing.faults import supervisor_fault_hits

        self._evict_under_read = supervisor_fault_hits("evict-under-read")

    @property
    def url(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "CacheServer":
        obs_events.emit(
            "server-start",
            kind="cache-server",
            address=self.url,
            pid=os.getpid(),
            directory=self.cache.directory,
        )
        self._listener.start()
        if self._http_server is not None:
            self._http_server.start()
        return self

    @property
    def http_url(self) -> Optional[str]:
        if self._http_server is None:
            return None
        return self._http_server.url

    def wait(self) -> None:
        """Block until :meth:`stop`."""
        while not self._stop.is_set():
            self._stop.wait(3600)

    def announcement(self, starting: bool) -> dict:
        """This server's fields of its ``server-start``/``server-stop``
        stdout records (see :func:`~repro.parallel.transport.serve_forever`)."""
        record = {"kind": "cache-server", "address": self.url}
        if starting:
            record["directory"] = self.cache.directory
            if self.http_url is not None:
                record["http"] = self.http_url
        return record

    def stop(self) -> None:
        if not self._stop.is_set():
            obs_events.emit(
                "server-stop",
                kind="cache-server",
                address=self.url,
                pid=os.getpid(),
            )
        self._stop.set()
        self._listener.stop()
        if self._http_server is not None:
            self._http_server.stop()

    def drain(self, timeout: float = 10.0) -> dict:
        """Graceful shutdown: stop accepting, let clients finish, stop.

        Closes the listener first (no new connections), then gives
        connected clients up to ``timeout`` seconds to finish their
        in-flight requests and say ``bye``; whoever is still connected
        at the deadline is severed by :meth:`stop`. Returns
        ``{"drained": n, "terminated": m}`` for the stop announcement.
        """
        self._listener.close()
        deadline = time.monotonic() + max(0.0, timeout)
        stragglers = 0
        for thread in self._listener.threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            stragglers += thread.is_alive()
        self.stop()
        return {
            "drained": self._listener.accepted - stragglers,
            "terminated": stragglers,
        }

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _serve_client(self, channel: FramedSocket) -> None:
        hello = greet(channel, (PROTOCOL, STATUS_PROTOCOL), self.token)
        if hello is None:
            return
        try:
            if hello[1] == STATUS_PROTOCOL:
                answer_status(channel, self.status)
                return
            channel.send(("welcome", code_version()))
            while not self._stop.is_set():
                try:
                    request = channel.recv(timeout=1.0)
                except ReadTimeout:
                    continue
                except FrameError:
                    continue  # damaged request: drop it, keep the stream
                except ConnectionClosed:
                    return
                if not isinstance(request, tuple) or not request:
                    continue
                kind = request[0]
                if kind == "bye":
                    return
                if kind == "get" and len(request) == 2:
                    self.metrics.inc("cacheserver.gets")
                    channel.send(self._handle_get(request[1]))
                elif kind == "put" and len(request) == 5:
                    _, key, payload, impl, index = request
                    self.metrics.inc("cacheserver.puts")
                    with self._lock:
                        stored = self.cache.store(
                            key, payload, impl=impl, index=index
                        )
                    channel.send(("ok", stored))
                elif kind == "summary":
                    with self._lock:
                        channel.send(("summary", self.cache.summary()))
                else:
                    channel.send(("reject", f"unknown request {kind!r}"))
        except TransportError:
            pass
        finally:
            channel.close()

    def _handle_get(self, key: str) -> tuple:
        from repro.testing.faults import record_supervisor_fault

        with self._lock:
            entry, error = self.cache.read_entry(key)
            if entry is not None:
                verdict, reason = validate_entry(entry, key)
                if verdict is None:
                    # Refuse to serve a bad entry; the client records the
                    # server-side reason as its own OL903 rejection.
                    self.cache.rejections.append((key, reason or "rejected"))
                    self.metrics.inc("cacheserver.rejects")
                    obs_events.emit(
                        "cache-reject",
                        key=event_key(key),
                        reason=reason or "rejected",
                        code="OL903",
                    )
                    return ("miss", reason)
                # The fault ordinal counts *served* reads only, so a
                # plan's hit index is independent of how many cold
                # misses preceded the warm traffic.
                ordinal = self._gets
                self._gets += 1
                if ordinal in self._evict_under_read:
                    record_supervisor_fault("evict-under-read", ordinal, "corrupt")
                    try:
                        os.unlink(self.cache.path(key))
                    except OSError:
                        pass
                    self.cache.evictions += 1
                    self.metrics.inc("cacheserver.evictions")
                    obs_events.emit("cache-evict", key=event_key(key))
                    return ("miss", None)
                self.cache.hits += 1
                self.metrics.inc("cacheserver.hits")
                obs_events.emit("cache-hit", key=event_key(key))
                try:
                    os.utime(self.cache.path(key))
                except OSError:
                    pass
                return ("entry", entry)
            self.cache.misses += 1
            self.metrics.inc("cacheserver.misses")
            obs_events.emit("cache-miss", key=event_key(key))
            return ("miss", error)

    def status(self) -> dict:
        """The server's live status payload (served to STATUS queries)."""
        with self._lock:
            summary = self.cache.summary()
        return {
            "kind": "cache-server",
            "protocol": PROTOCOL,
            "address": self.url,
            "pid": os.getpid(),
            "uptime": round(time.time() - self.started, 3),
            "summary": summary,
            "metrics": self.metrics.to_dict(),
        }


def _dial(
    url: str, *, timeout: float, token: Optional[str]
) -> FramedSocket:
    """Dial ``HOST:PORT`` and complete the hello/welcome handshake."""
    try:
        address = parse_address(url)
    except ValueError as exc:
        raise CacheUnavailable(str(exc)) from exc
    try:
        channel, _ = dial(address, PROTOCOL, token, timeout=timeout)
    except TransportError as exc:
        raise CacheUnavailable(f"cache server {url}: {exc}") from exc
    return channel


class RemoteCache:
    """A :class:`ResultCache`-shaped client for a :class:`CacheServer`.

    Drop-in for the checker's cache slot: same ``load``/``store``/
    ``summary`` surface, same ``hits``/``misses``/``stores``/
    ``rejections`` counters (counting *this client's* traffic). After a
    mid-run transport failure the breaker trips (``degraded`` holds the
    reason) and operations become local no-op misses — except that each
    operation first checks whether a half-open reconnect probe is due,
    and a successful probe re-handshakes and closes the breaker again
    (``outages``/``reconnects`` count the transitions).
    """

    def __init__(
        self,
        channel: FramedSocket,
        url: str,
        *,
        token: Optional[str] = None,
        timeout: float = 5.0,
        reconnect_backoff: float = 0.5,
    ):
        self._channel = channel
        self.directory = f"remote:{url}"
        self.url = url
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejections: List[Tuple[str, str]] = []
        self.degraded: Optional[str] = None
        self._lock = threading.Lock()
        # Half-open breaker state: the credentials to redial with, the
        # (monotonic) time the next probe is allowed, and the attempt
        # counter driving the exponential backoff. ``reconnect_backoff``
        # is the backoff base in seconds — tests shrink it to make the
        # outage-recovery window short.
        self._token = token
        self._timeout = timeout
        self.reconnect_backoff = reconnect_backoff
        self.outages = 0
        self.reconnects = 0
        self._probe_attempt = 0
        self._probe_at: Optional[float] = None

    @classmethod
    def connect(
        cls,
        url: str,
        *,
        timeout: float = 5.0,
        token: Optional[str] = None,
    ) -> "RemoteCache":
        """Dial ``HOST:PORT`` and shake hands; raises CacheUnavailable."""
        channel = _dial(url, timeout=timeout, token=token)
        return cls(channel, url, token=token, timeout=timeout)

    # ------------------------------------------------------------------

    def _trip(self, reason: str) -> None:
        """Open the breaker and schedule the first half-open probe."""
        self.degraded = reason
        self.outages += 1
        self._probe_attempt = 0
        try:
            self._channel.close()
        except Exception:
            pass
        self._schedule_probe()

    def _schedule_probe(self) -> None:
        from repro.parallel.policy import backoff_delay

        self._probe_at = time.monotonic() + backoff_delay(
            self.reconnect_backoff,
            self._probe_attempt,
            token=f"{self.url}#{self.outages}.{self._probe_attempt}",
        )

    def _maybe_reconnect(self) -> None:
        """One half-open probe, if one is due. Caller holds the lock.

        A failed probe costs at most the (short) probe timeout and
        pushes the next attempt further out; a successful one swaps the
        fresh connection in and closes the breaker.
        """
        if self._probe_at is None or time.monotonic() < self._probe_at:
            return
        try:
            channel = _dial(
                self.url,
                timeout=min(self._timeout, 2.0),
                token=self._token,
            )
        except CacheUnavailable:
            self._probe_attempt += 1
            self._schedule_probe()
            return
        self._channel = channel
        self.degraded = None
        self.reconnects += 1
        self._probe_at = None
        self._probe_attempt = 0
        obs_events.emit(
            "cache-reconnected",
            address=self.url,
            count=self.reconnects,
            backend="remote",
        )

    def _request(self, message: tuple, *, timeout: float = 10.0):
        """One request/response round trip, tripping the breaker on failure."""
        with self._lock:
            if self.degraded is not None:
                self._maybe_reconnect()
                if self.degraded is not None:
                    return None
            try:
                self._channel.send(message)
                while True:
                    reply = self._channel.recv(timeout=timeout)
                    return reply
            except FrameError as exc:
                # The *response* was damaged in flight. The stream is
                # still aligned, but request/response pairing is lost —
                # safer to degrade than to mis-pair replies.
                self._trip(f"response frame rejected: {exc}")
                return None
            except TransportError as exc:
                self._trip(f"cache connection lost: {exc}")
                return None

    def load(self, key: str) -> Optional[dict]:
        reply = self._request(("get", key))
        if not (isinstance(reply, tuple) and reply):
            self.misses += 1
            obs_events.emit("cache-miss", key=event_key(key), backend="remote")
            return None
        if reply[0] == "miss":
            reason = reply[1] if len(reply) > 1 else None
            self.misses += 1
            if reason:
                self.rejections.append((key, f"server-side: {reason}"))
                obs_events.emit(
                    "cache-reject",
                    key=event_key(key),
                    reason=f"server-side: {reason}",
                    code="OL903",
                    backend="remote",
                )
            else:
                obs_events.emit(
                    "cache-miss", key=event_key(key), backend="remote"
                )
            return None
        if reply[0] != "entry" or len(reply) != 2:
            self.misses += 1
            obs_events.emit("cache-miss", key=event_key(key), backend="remote")
            return None
        verdict, reason = validate_entry(reply[1], key)
        if verdict is None:
            self.misses += 1
            self.rejections.append((key, reason or "entry rejected"))
            obs_events.emit(
                "cache-reject",
                key=event_key(key),
                reason=reason or "entry rejected",
                code="OL903",
                backend="remote",
            )
            return None
        self.hits += 1
        try:
            size = len(json.dumps(reply[1]))
        except (TypeError, ValueError):
            size = None
        obs_events.emit(
            "cache-hit", key=event_key(key), backend="remote", bytes=size
        )
        return verdict

    def store(self, key: str, verdict_payload: dict, *, impl: str, index: int) -> bool:
        reply = self._request(("put", key, verdict_payload, impl, index))
        if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "ok" and reply[1]:
            self.stores += 1
            obs_events.emit(
                "cache-store", key=event_key(key), impl=impl, backend="remote"
            )
            return True
        return False

    def close(self) -> None:
        with self._lock:
            if self.degraded is None:
                try:
                    self._channel.send(("bye",))
                except TransportError:
                    pass
        self._channel.close()

    def summary(self) -> dict:
        summary = {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "rejections": len(self.rejections),
        }
        if self.degraded is not None:
            summary["degraded"] = self.degraded
        if self.outages:
            summary["outages"] = self.outages
            summary["reconnects"] = self.reconnects
        return summary
