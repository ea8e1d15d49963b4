"""Sweep worker: ``python -m repro.sim.worker --connect HOST:PORT``.

:func:`serve_connection` (defined in :mod:`repro.sim.shardeval`, which the
executor imports without importing this script) is the worker side of the
wire protocol, shared by both worker tiers: a remote worker dials the
coordinator (:class:`repro.sim.executor.TcpExecutor`), and a forked local
worker (:class:`repro.sim.executor.LocalExecutor`) serves the socketpair end
it was forked with.  Either way it handshakes (wire version + optional token),
receives the sweep's evaluation context once, then serves a dispatch loop:
receive a shard, evaluate it with :func:`repro.sim.shardeval.run_shard`,
send the payload back.  A background thread heartbeats throughout, so the
coordinator can tell "slow shard" from "dead worker" and only re-dispatches
the latter.

Remote workers are elastic on both ends:

* ``--retry`` keeps dialing for that many seconds before the first session,
  so workers may be started *before* the coordinator binds its port;
* after a coordinator finishes (shutdown frame or closed connection), the
  worker re-dials for the same window and serves the next sweep -- a CLI
  process that runs several sweeps back-to-back reuses the same workers.
  The worker exits cleanly once no coordinator appears within the window
  (or after one session with ``--once``).

Determinism: a shard's result is a pure function of its entry list and the
context, so which worker evaluates it -- or how often, after re-dispatch --
never changes the sweep's output.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.sim import wire
from repro.sim.shardeval import HandshakeError, serve_connection

__all__ = ["HandshakeError", "main", "serve_connection", "spawn_local_workers"]


def _connect_with_retry(
    host: str, port: int, window: float, poll: float = 0.25
) -> Optional[socket.socket]:
    """Dial ``host:port`` until it answers or ``window`` seconds elapse."""
    deadline = time.monotonic() + window
    while True:
        try:
            return socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.worker",
        description="Remote shard worker for distributed Monte-Carlo sweeps "
        "(serves a coordinator started with --executor tcp).",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator rendezvous address (the --connect value of the "
        "sweep command)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared secret echoed in the handshake; must match the "
        "coordinator's token (guards against accidental connections)",
    )
    parser.add_argument(
        "--retry",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="keep dialing the coordinator for this long before giving up; "
        "also how long the worker lingers for the next sweep after one "
        "finishes (default: 10)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after a single coordinator session instead of lingering "
        "for the next sweep",
    )
    args = parser.parse_args(argv)
    try:
        host, port = wire.parse_address(args.connect)
    except ValueError as error:
        parser.error(str(error))
    if not args.retry >= 0:  # also false for NaN, which would dial forever
        parser.error(f"--retry must be a non-negative number of seconds, got {args.retry:g}")
    sessions = 0
    while True:
        sock = _connect_with_retry(host, port, args.retry)
        if sock is None:
            if sessions:
                print(
                    f"worker: no coordinator at {host}:{port} for "
                    f"{args.retry:g}s after {sessions} session(s); exiting",
                    file=sys.stderr,
                )
                return 0
            print(
                f"worker: could not reach a coordinator at {host}:{port} "
                f"within {args.retry:g}s",
                file=sys.stderr,
            )
            return 1
        conn = wire.Connection(sock)
        try:
            shards = serve_connection(conn, args.token)
            sessions += 1
            print(
                f"worker: session done ({shards} shard(s) evaluated)",
                file=sys.stderr,
            )
        except HandshakeError as error:
            print(f"worker: {error}", file=sys.stderr)
            return 1
        except (ConnectionError, OSError) as error:
            # Coordinator went away -- mid-session (in-flight shards are
            # re-dispatched on its side) or while shutting down just as we
            # re-dialed.  Either way: linger for the next sweep.  Only
            # completed sessions count towards the exit-0 condition.
            print(f"worker: connection lost ({error})", file=sys.stderr)
        finally:
            conn.close()
        if args.once:
            return 0


def spawn_local_workers(
    address: Tuple[str, int],
    count: int,
    *,
    retry: float = 30.0,
    token: Optional[str] = None,
    env: Optional[dict] = None,
    stderr=None,
):
    """Start ``count`` localhost worker subprocesses (tests/benches/CI).

    Each worker runs ``python -m repro.sim.worker --connect host:port`` with
    ``PYTHONPATH`` pointing at this installation of :mod:`repro`, so the
    helper works from a source checkout without installing the package.
    Returns the list of :class:`subprocess.Popen` handles; callers own their
    lifetime (workers exit on their own ``--retry`` seconds after the last
    coordinator disappears).
    """
    import subprocess

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    worker_env = dict(os.environ)
    existing = worker_env.get("PYTHONPATH")
    worker_env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    if env:
        worker_env.update(env)
    host, port = address
    command: List[str] = [
        sys.executable,
        "-m",
        "repro.sim.worker",
        "--connect",
        f"{host}:{port}",
        "--retry",
        f"{retry:g}",
    ]
    if token is not None:
        command += ["--token", token]
    return [
        subprocess.Popen(command, env=worker_env, stderr=stderr)
        for _ in range(count)
    ]


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
