"""Framed message transport of the distributed sweep executor.

The coordinator (:mod:`repro.sim.executor`) and its workers
(:mod:`repro.sim.worker`) exchange Python objects over a stream socket: a
TCP connection to a remote worker, or a :func:`socket.socketpair` to a
forked local one.  The framing is deliberately primitive and stdlib-only:

``[4-byte magic "RSW1"] [8-byte big-endian payload length] [pickle payload]``

The magic bytes reject accidental cross-talk (an HTTP client poking the
coordinator port fails on the first frame instead of hanging in a pickle
read), the explicit length makes partial reads detectable, and
``MAX_FRAME_BYTES`` bounds what a single frame may ask the receiver to
allocate.

Messages are plain tuples whose first element is the message type:

==============================================  =================================
message                                         direction
==============================================  =================================
``("hello", WIRE_VERSION, token)``              worker -> coordinator (handshake)
``("context", context, settings)``              coordinator -> worker (handshake)
``("reject", reason)``                          coordinator -> worker (handshake)
``("shard", batch_id, index, kind, entries)``   coordinator -> worker
``("result", batch_id, index, payload)``        worker -> coordinator
``("error", batch_id, index, message)``         worker -> coordinator
``("heartbeat",)``                              worker -> coordinator (liveness)
``("shutdown",)``                               coordinator -> worker
==============================================  =================================

Security model: frames are **pickle** -- deserialising one executes arbitrary
code.  This protocol is for machines you already trust with shell access (a
lab cluster, localhost CI); the optional shared token in the handshake guards
against *accidental* connections, not against an adversary on the network.
The README's "Distributed sweeps" section states the same contract.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Optional, Tuple

__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "FrameError",
    "Connection",
    "parse_address",
    "recv_frame",
    "send_frame",
]

#: Protocol version exchanged in the handshake; bumped on any frame or
#: message-shape change so mismatched coordinator/worker builds fail loudly
#: instead of mis-parsing each other.
WIRE_VERSION = 2

_MAGIC = b"RSW1"
_HEADER = struct.Struct(">4sQ")

#: Hard cap on a single frame's payload (1 GiB).  Contexts carry benchmark
#: matrices, so frames are allowed to be large -- but a corrupt length field
#: must never turn into an unbounded allocation.
MAX_FRAME_BYTES = 1 << 30


class FrameError(ConnectionError):
    """A malformed frame: bad magic, oversized payload, or truncated stream."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` rendezvous address (the ``--connect`` grammar)."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"executor address {text!r} must have the form HOST:PORT "
            f"(e.g. 127.0.0.1:7077)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"executor address {text!r} has a non-integer port {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"executor port {port} is outside 0..65535")
    return host, port


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`FrameError` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FrameError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: object) -> None:
    """Serialise ``message`` and write one frame (atomic w.r.t. ``sendall``)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(_MAGIC, len(payload)) + payload)


def recv_frame(sock: socket.socket) -> object:
    """Read one frame and deserialise its payload.

    Raises :class:`FrameError` on bad magic, an over-cap length, or a stream
    that ends mid-frame; ``socket.timeout`` propagates from the underlying
    socket so callers can implement heartbeat deadlines.
    """
    magic, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic != _MAGIC:
        raise FrameError(
            f"bad frame magic {magic!r}; the peer is not a repro sweep "
            f"endpoint (or the stream lost sync)"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {length} bytes, over the {MAX_FRAME_BYTES} cap"
        )
    return pickle.loads(_recv_exact(sock, int(length)))


class Connection:
    """One framed peer connection with a write lock.

    The worker sends heartbeats from a background thread while its main
    thread evaluates shards, so writes must be serialised; reads stay
    single-threaded on both sides and need no lock.
    """

    def __init__(self, sock: socket.socket) -> None:
        import threading

        self._sock = sock
        self._send_lock = threading.Lock()
        self.peer = self._describe_peer(sock)

    @staticmethod
    def _describe_peer(sock: socket.socket) -> str:
        try:
            peer = sock.getpeername()
        except OSError:  # pragma: no cover - already disconnected
            return "<disconnected>"
        if not isinstance(peer, tuple):
            return "socketpair"  # AF_UNIX: the peer has no address
        host, port = peer[:2]
        return f"{host}:{port}"

    def send(self, message: object) -> None:
        with self._send_lock:
            send_frame(self._sock, message)

    def recv(self, timeout: Optional[float] = None) -> object:
        self._sock.settimeout(timeout)
        return recv_frame(self._sock)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
