"""One admission rule for every socket endpoint.

The fleet coordinator and a worker pool's status port each greet a new peer's ``("hello", protocol, token,
*extra)`` the same way: a wrong protocol or a wrong token is refused,
the right token is welcomed, and a server without a token welcomes any
token. The peer here is a bare framed socket, so the test holds the
servers to the rule whatever client code they ship with.
"""

import contextlib
import os
import socket
import threading
import time

import pytest

from repro.corpus.generators import generate_impl_farm
from repro.oolong.program import Scope
from repro.parallel.fleet import PROTOCOL as FLEET_PROTOCOL
from repro.parallel.fleet import FleetCoordinator, FleetOptions, FleetUnavailable
from repro.parallel.transport import (
    STATUS_PROTOCOL,
    FramedSocket,
    StatusServer,
    clock_sample,
)

ENDPOINTS = ["coordinator", "status-server"]

#: (id, server token, hello protocol right?, client token, welcomed?)
CASES = [
    ("wrong-protocol", "s3", False, "s3", False),
    ("wrong-token", "s3", True, "wrong", False),
    ("right-token", "s3", True, "s3", True),
    ("tokenless-server", None, True, "any", True),
]


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@contextlib.contextmanager
def _endpoint(kind, token):
    """A live server of ``kind``; yields its address, protocol and the
    extra hello fields its clients send."""
    if kind == "status-server":
        server = StatusServer(
            ("127.0.0.1", 0), lambda: {"kind": "test"}, token=token
        ).start()
        try:
            yield server.address, STATUS_PROTOCOL, ()
        finally:
            server.stop()
        return
    # A coordinator with no local workers listens until one registers
    # or its registration wait runs out.
    address = ("127.0.0.1", _free_port())
    coordinator = FleetCoordinator(
        Scope.from_source(generate_impl_farm(1, 1)),
        None,
        options=FleetOptions(
            workers=0, address=address, token=token, registration_wait=3.0
        ),
    )

    def start():
        with contextlib.suppress(FleetUnavailable):
            coordinator.start()

    thread = threading.Thread(target=start, daemon=True)
    thread.start()
    try:
        yield address, FLEET_PROTOCOL, (os.getpid(), clock_sample())
    finally:
        thread.join(timeout=10)
        coordinator.shutdown()
        assert not thread.is_alive(), "the coordinator never stopped waiting"


def _connect(address):
    for _ in range(100):
        try:
            return socket.create_connection(address, timeout=5)
        except ConnectionRefusedError:
            time.sleep(0.05)  # the coordinator is still binding
    raise AssertionError(f"nothing listening at {address}")


@pytest.mark.parametrize(
    "server_token,right_protocol,client_token,welcomed",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("kind", ENDPOINTS)
def test_every_endpoint_admits_by_one_rule(
    kind, server_token, right_protocol, client_token, welcomed
):
    with _endpoint(kind, server_token) as (address, protocol, extra):
        channel = FramedSocket(_connect(address))
        try:
            channel.send(
                (
                    "hello",
                    protocol if right_protocol else "oolong-nonsense-1",
                    client_token,
                    *extra,
                )
            )
            reply = channel.recv(timeout=5.0)
        finally:
            channel.close()
    assert isinstance(reply, tuple) and reply
    assert (reply[0] == "welcome") is welcomed, reply
