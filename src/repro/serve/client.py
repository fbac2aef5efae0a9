"""A blocking NDJSON client for the streaming query service.

:class:`ServeClient` wraps one socket connection with a synchronous
request/response API plus an event buffer: any ``{"event": ...}`` frame
that arrives while waiting for a response is buffered and later drained
through :meth:`next_event` / :meth:`events`. This is the client used by
the test suite, the benchmark, and the CI smoke script — none of which
run inside an event loop.

The client is single-threaded by design (one outstanding request at a
time); concurrent use needs one client per thread.
"""

from __future__ import annotations

import socket
from collections import deque

from repro.errors import ReproError
from repro.serve.protocol import ProtocolError, decode_frame, encode_frame


class ServeError(ReproError):
    """The server answered a request with ``ok: false``."""


class ServeClient:
    """One blocking connection speaking ``repro-serve/1``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self._events: deque[dict] = deque()
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def connect_unix(cls, path: str, timeout: float = 30.0) -> "ServeClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(path)
        except BaseException:
            sock.close()
            raise
        return cls(sock)

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float = 30.0) -> "ServeClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(timeout)
        return cls(sock)

    @classmethod
    def connect(cls, address: dict, timeout: float = 30.0) -> "ServeClient":
        """Connect from a server ``address`` dict (as returned by start)."""
        if address.get("family") == "unix":
            return cls.connect_unix(address["path"], timeout=timeout)
        return cls.connect_tcp(address["host"], address["port"], timeout=timeout)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def call(self, cmd: str, **params) -> dict:
        """Send one request and block for its response.

        Event frames arriving in between are buffered for
        :meth:`next_event`. Raises :class:`ServeError` on an error
        response.
        """
        self._next_id += 1
        request_id = self._next_id
        frame = {"id": request_id, "cmd": cmd}
        if params:
            frame["params"] = params
        self._sock.sendall(encode_frame(frame))
        while True:
            received = self._read_frame()
            if "event" in received:
                self._events.append(received)
                continue
            if received.get("id") != request_id:
                raise ProtocolError(
                    f"response id {received.get('id')!r} != request id {request_id!r}"
                )
            if not received.get("ok"):
                raise ServeError(received.get("error", "unknown server error"))
            return received.get("result", {})

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def next_event(self, timeout: float | None = None) -> dict | None:
        """The next buffered or incoming event frame, or None on timeout."""
        if self._events:
            return self._events.popleft()
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            received = self._read_frame()
        except (socket.timeout, TimeoutError):
            return None
        finally:
            self._sock.settimeout(previous)
        if "event" in received:
            return received
        raise ProtocolError(f"expected an event frame, got {received!r}")

    def events(self) -> list[dict]:
        """Drain the already-buffered events (does not read the socket)."""
        drained = list(self._events)
        self._events.clear()
        return drained

    def _read_frame(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_frame(line)
