"""Pluggable shard executors: inline, forked local workers, and TCP.

The sweep engine hands every Monte-Carlo batch to a :class:`ShardExecutor`:

* :class:`InlineExecutor` -- evaluates shards in the calling process, in
  shard order (``workers=1``; fully debuggable, zero copies);
* :class:`LocalExecutor` -- the single-host tier: ``workers`` forked
  processes, each serving the coordinator over a :func:`socket.socketpair`;
* :class:`TcpExecutor` -- the multi-host tier: a coordinator that listens on
  ``host:port`` and serves shards to remote worker processes started with
  ``python -m repro.sim.worker --connect HOST:PORT``.  Workers may join and
  die at any point of the sweep.

Both multi-worker tiers are one coordinator speaking one stdlib-only wire
protocol (framed pickle, :mod:`repro.sim.wire`) with one failure model:
they differ only in how workers arrive.  Every coordinator drives a
:class:`WorkStealingScheduler`: shards sit in a deque ordered by a cost
model (dies weighted by failure count), idle workers pull the costliest
remaining shard from the tail (longest-processing-time order keeps the tail
short), and the shards of a worker that died (connection loss or missed
heartbeats) are re-dispatched.  Re-dispatch -- and therefore any worker
count, host count, shard order, join/leave history -- never changes
results: a shard's evaluation is a pure function of its entry list
(:mod:`repro.sim.shardeval`), duplicate evaluations are bit-identical, the
first completion wins, and the caller folds results canonically (die-keyed
for fixed sweeps, shard-index order for adaptive summaries).
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.sim import shardeval, wire
from repro.sim.shardeval import serve_connection

__all__ = [
    "ExecutorSpec",
    "ExecutorStats",
    "InlineExecutor",
    "LocalExecutor",
    "ShardExecutor",
    "TcpExecutor",
    "WorkStealingScheduler",
    "make_executor",
]

#: Signature of an in-process shard runner: ``(kind, entries, context) ->
#: payload``.  The engine passes its own runner so tests can monkeypatch the
#: engine-module evaluation functions and steer the inline path.
ShardRunner = Callable[[str, List[object], Mapping[str, object]], object]

_EXECUTOR_KINDS = ("inline", "local", "tcp")

#: Worker liveness cadence (seconds); a worker silent for three intervals
#: is declared lost and its shards are re-dispatched.  Sent to every worker
#: in the context frame.
HEARTBEAT_INTERVAL = 2.0


@dataclass(frozen=True)
class ExecutorSpec:
    """How a sweep's shards should be executed.

    ``kind`` selects the executor: ``"inline"`` (in-process), ``"local"``
    (forked workers on this machine; the default), or ``"tcp"``
    (coordinator serving remote workers).  The remaining fields are the
    coordinator's rendezvous settings; none of them can change results:

    * ``host``/``port`` -- the TCP rendezvous address (``port=0`` binds an
      ephemeral port, exposed as :attr:`TcpExecutor.address`);
    * ``token`` -- optional shared secret echoed in the worker handshake
      (guards against *accidental* connections, not adversaries -- the wire
      is pickle, see :mod:`repro.sim.wire`);
    * ``min_workers`` -- shards are not dispatched until this many workers
      are connected (avoids one early worker absorbing the whole queue);
    * ``connect_timeout`` -- seconds the coordinator tolerates having zero
      connected workers while shards are outstanding before aborting.
    """

    kind: str = "local"
    host: str = "127.0.0.1"
    port: Optional[int] = None
    token: Optional[str] = None
    min_workers: int = 1
    connect_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in _EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {self.kind!r}; expected one of "
                f"{', '.join(_EXECUTOR_KINDS)}"
            )
        if self.kind == "tcp" and self.port is None:
            raise ValueError(
                "a tcp executor needs a rendezvous port (ExecutorSpec(kind="
                "'tcp', host=..., port=...); port=0 binds an ephemeral one)"
            )
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")

    @classmethod
    def coerce(cls, value: object) -> "ExecutorSpec":
        """Normalise ``None`` (default), a kind string, or a spec instance."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"executor must be None, a kind string, or an ExecutorSpec; "
            f"got {type(value).__name__}"
        )


@dataclass
class ExecutorStats:
    """Counters of one executor's lifetime (all batches it drove).

    ``redispatched`` counts shard re-dispatches after worker loss --
    re-dispatch never changes results, so a nonzero count
    with bit-identical output is the fault-tolerance contract working.
    """

    dispatched: int = 0
    completed: int = 0
    redispatched: int = 0
    workers_lost: int = 0
    workers_joined: int = 0

    def merge(self, other: "ExecutorStats") -> None:
        self.dispatched += other.dispatched
        self.completed += other.completed
        self.redispatched += other.redispatched
        self.workers_lost += other.workers_lost
        self.workers_joined += other.workers_joined


class _ShardState:
    """Book-keeping of one shard inside the scheduler."""

    __slots__ = (
        "index",
        "kind",
        "entries",
        "cost",
        "owners",
        "queued",
        "done",
    )

    def __init__(self, index: int, kind: str, entries: List[object]) -> None:
        self.index = index
        self.kind = kind
        self.entries = entries
        self.cost = shardeval.shard_cost(kind, entries)
        self.owners: Set[object] = set()
        self.queued = True
        self.done = False


class WorkStealingScheduler:
    """Thread-safe shard queue with cost-ordered stealing and re-dispatch.

    Shards enter a deque sorted ascending by estimated cost; idle workers
    :meth:`acquire` from the tail, so the heaviest remaining work is always
    dispatched first.  :meth:`complete` is first-write-wins -- a shard
    evaluated twice (after a re-dispatch) folds exactly once, and since
    evaluation is deterministic both copies are bit-identical anyway.
    :meth:`fail_owner` returns a dead worker's un-acknowledged shards to the
    queue.
    """

    def __init__(self, kind: str, shards: List[List[object]]) -> None:
        self._cond = threading.Condition()
        states = [
            _ShardState(index, kind, entries)
            for index, entries in enumerate(shards)
        ]
        self._states: Dict[int, _ShardState] = {s.index: s for s in states}
        self._queue: Deque[_ShardState] = deque(
            sorted(states, key=lambda s: (s.cost, -s.index))
        )
        self._total = len(states)
        self._n_done = 0
        self._fresh: Deque[Tuple[int, object]] = deque()
        self._error: Optional[BaseException] = None
        self.stats = ExecutorStats()

    @property
    def total(self) -> int:
        return self._total

    @property
    def completed_count(self) -> int:
        with self._cond:
            return self._n_done

    def finished(self) -> bool:
        """Every shard completed (errors do not count as finished)."""
        with self._cond:
            return self._n_done >= self._total

    def raise_if_error(self) -> None:
        with self._cond:
            if self._error is not None:
                raise self._error

    def acquire(
        self, owner: object, timeout: Optional[float] = None
    ) -> Optional[Tuple[int, str, List[object]]]:
        """Steal the costliest available shard; ``None`` on timeout or when
        the batch is terminal (finished or errored)."""
        deadline_at = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._error is not None or self._n_done >= self._total:
                    return None
                if self._queue:
                    state = self._queue.pop()
                    state.queued = False
                    state.owners.add(owner)
                    self.stats.dispatched += 1
                    return (state.index, state.kind, state.entries)
                if deadline_at is None:
                    self._cond.wait()
                else:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def complete(self, index: int, payload: object, owner: object = None) -> bool:
        """Record a shard result; first write wins (``True`` = newly done)."""
        with self._cond:
            state = self._states[index]
            if owner is not None:
                state.owners.discard(owner)
            if state.done:
                return False
            state.done = True
            if state.queued:
                # Completed by the original owner after a re-dispatch queued
                # a duplicate that nobody picked up yet.
                try:
                    self._queue.remove(state)
                except ValueError:  # pragma: no cover - defensive
                    pass
                state.queued = False
            self._n_done += 1
            self.stats.completed += 1
            self._fresh.append((index, payload))
            self._cond.notify_all()
            return True

    def record_error(self, error: BaseException) -> None:
        """Abort the batch: a shard failed deterministically (re-dispatching
        it elsewhere would fail identically)."""
        with self._cond:
            if self._error is None:
                self._error = error
            self._cond.notify_all()

    def fail_owner(self, owner: object) -> int:
        """Return a dead worker's un-acknowledged shards to the queue."""
        requeued = 0
        with self._cond:
            for state in self._states.values():
                if owner in state.owners:
                    state.owners.discard(owner)
                    if not state.done and not state.queued and not state.owners:
                        self._requeue_locked(state)
                        requeued += 1
            if requeued:
                self.stats.redispatched += requeued
                self._cond.notify_all()
        return requeued

    def _requeue_locked(self, state: _ShardState) -> None:
        # Tail end: a re-dispatched shard is the most urgent work there is
        # (its loss is already stalling the batch), so the next idle worker
        # must take it before any fresh shard.
        state.queued = True
        self._queue.append(state)

    def drain(self, timeout: Optional[float] = None) -> List[Tuple[int, object]]:
        """Pop the freshly completed ``(index, payload)`` pairs, blocking up
        to ``timeout`` for progress first (completion, error, or finish)."""
        with self._cond:
            if (
                not self._fresh
                and self._error is None
                and self._n_done < self._total
            ):
                self._cond.wait(timeout)
            fresh = list(self._fresh)
            self._fresh.clear()
            return fresh


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class ShardExecutor:
    """One sweep's shard execution backend (context manager).

    Subclasses implement :meth:`run`, which delivers every shard's payload
    exactly once, with its shard index, on the calling thread.  Arrival
    order is free: fixed sweeps key payloads by die, and adaptive sweeps
    fold them in shard-index order, so the result is canonical for any
    worker count or completion order.
    """

    kind = "inline"

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self,
        kind: str,
        shards: List[List[object]],
        on_complete: Callable[[int, object], None],
    ) -> None:
        """Evaluate every shard as ``kind`` (``"evaluate"`` or
        ``"summarize"``) and call ``on_complete(index, payload)`` once per
        shard, in completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every resource the executor holds (idempotent)."""


class InlineExecutor(ShardExecutor):
    """Sequential in-process execution (``workers=1``, the debug path)."""

    kind = "inline"

    def __init__(self, context: Mapping[str, object], runner: ShardRunner) -> None:
        super().__init__()
        self._context = context
        self._runner = runner

    def run(self, kind, shards, on_complete) -> None:
        for index, entries in enumerate(shards):
            self.stats.dispatched += 1
            on_complete(index, self._runner(kind, entries, self._context))
            self.stats.completed += 1


class _Coordinator(ShardExecutor):
    """The wire-protocol coordinator both multi-worker tiers share.

    Each worker connection gets a handler thread: handshake (wire-version
    and token check), ship the evaluation context once, then a
    dispatch/acknowledge loop with a heartbeat deadline.  A worker silent
    for three heartbeat intervals -- or whose connection drops -- is
    declared lost, and its un-acknowledged shards return to the queue.
    Subclasses decide how workers arrive (:class:`TcpExecutor` accepts
    them, :class:`LocalExecutor` forks them) and when a batch left without
    workers must abort (:meth:`_check_workers`).
    """

    def __init__(self, context: Mapping[str, object], spec: ExecutorSpec) -> None:
        super().__init__()
        self._context = context
        self._spec = spec
        self._lock = threading.Condition()
        self._scheduler: Optional[WorkStealingScheduler] = None
        self._batch = 0
        self._started = False
        self._closing = False
        self._workers: Set[str] = set()
        self._next_worker = 0
        #: Open worker connections, joined or still handshaking.
        self._live = 0
        self._last_worker_event = time.monotonic()
        self._handler_threads: List[threading.Thread] = []

    # ---------------------------------------------------------------- #
    # Worker-facing threads
    # ---------------------------------------------------------------- #
    def _serve(self, sock: socket.socket) -> None:
        """Start a handler thread for one worker connection."""
        thread = threading.Thread(
            target=self._serve_worker, args=(sock,), daemon=True
        )
        with self._lock:
            self._handler_threads.append(thread)
            self._live += 1
        thread.start()

    def _serve_worker(self, sock: socket.socket) -> None:
        conn = wire.Connection(sock)
        worker_id: Optional[str] = None
        try:
            hello = conn.recv(timeout=self._spec.connect_timeout)
            if (
                not isinstance(hello, tuple)
                or len(hello) != 3
                or hello[0] != "hello"
            ):
                raise wire.FrameError(f"bad handshake from {conn.peer}")
            _tag, version, token = hello
            if version != wire.WIRE_VERSION:
                self._reject(
                    conn,
                    f"wire version mismatch: worker speaks {version}, "
                    f"coordinator speaks {wire.WIRE_VERSION}",
                )
                return
            if (token or None) != (self._spec.token or None):
                self._reject(conn, "token mismatch")
                return
            conn.send(
                (
                    "context",
                    self._context,
                    {"heartbeat_interval": HEARTBEAT_INTERVAL},
                )
            )
            with self._lock:
                if not self._closing:
                    worker_id = f"worker-{self._next_worker}({conn.peer})"
                    self._next_worker += 1
                    self._workers.add(worker_id)
                    self._last_worker_event = time.monotonic()
                    self.stats.workers_joined += 1
                    self._lock.notify_all()
            if worker_id is not None:
                self._worker_loop(worker_id, conn)
            # Only a closing coordinator gets here.  This thread owns the
            # connection, so it says goodbye itself: a frame sent from
            # close() would race the ``finally`` below closing the socket.
            conn.send(("shutdown",))
        except Exception:
            # Connection-level failure (EOF, heartbeat timeout, bad frame):
            # the worker is lost, not the sweep -- its shards re-dispatch.
            pass
        finally:
            scheduler: Optional[WorkStealingScheduler] = None
            with self._lock:
                # Counted down before fail_owner wakes the driving thread,
                # so it sees the loss when it checks for live workers.
                self._live -= 1
                if worker_id is not None:
                    self._workers.discard(worker_id)
                    if not self._closing:
                        self.stats.workers_lost += 1
                    self._last_worker_event = time.monotonic()
                self._lock.notify_all()
                scheduler = self._scheduler
            if worker_id is not None and scheduler is not None:
                scheduler.fail_owner(worker_id)
            conn.close()

    @staticmethod
    def _reject(conn: wire.Connection, reason: str) -> None:
        """Tell the worker *why* the handshake failed before dropping it.

        The explicit frame lets the worker tell a permanent rejection
        (version/token mismatch -- retrying is pointless, exit nonzero) from
        a transient connection loss (a coordinator shutting down mid-dial --
        linger and re-dial for the next sweep).
        """
        try:
            conn.send(("reject", reason))
        except OSError:  # pragma: no cover - worker already gone
            pass

    def _quorum(self) -> int:
        """Joined workers a batch waits for before dispatching."""
        return self._spec.min_workers

    def _wait_for_work(self) -> Optional[WorkStealingScheduler]:
        """Block until a batch is active and its rendezvous is met (``None``
        once the executor is closing).

        ``min_workers`` is a *start* barrier only: once a batch has begun
        dispatching, the survivors of a worker death keep pulling shards --
        requiring the full quorum throughout would deadlock the very
        fault-tolerance path the scheduler exists for.
        """
        with self._lock:
            while True:
                if self._closing:
                    return None
                if self._scheduler is not None and (
                    self._started or len(self._workers) >= self._quorum()
                ):
                    self._started = True
                    return self._scheduler
                self._lock.wait(0.25)

    def _worker_loop(self, worker_id: str, conn: wire.Connection) -> None:
        # Three missed heartbeats = lost worker.  The worker heartbeats from
        # a background thread even while evaluating, so a long shard never
        # trips this -- only a dead or wedged process does.
        recv_timeout = HEARTBEAT_INTERVAL * 3
        while True:
            scheduler = self._wait_for_work()
            if scheduler is None:
                return
            item = scheduler.acquire(worker_id, timeout=0.25)
            if item is None:
                continue  # batch finished/errored, or nothing to steal yet
            index, kind, entries = item
            conn.send(("shard", self._batch, index, kind, entries))
            while True:
                message = conn.recv(timeout=recv_timeout)
                tag = message[0]
                if tag == "heartbeat":
                    continue
                if tag == "result":
                    _t, _batch, result_index, payload = message
                    if result_index != index:
                        raise wire.FrameError(
                            f"{worker_id} answered shard {result_index}, "
                            f"expected {index}"
                        )
                    scheduler.complete(index, payload, worker_id)
                    break
                if tag == "error":
                    _t, _batch, result_index, text = message
                    scheduler.record_error(
                        RuntimeError(
                            f"shard {result_index} failed on {worker_id}:\n"
                            f"{text}"
                        )
                    )
                    break
                raise wire.FrameError(
                    f"unexpected message {tag!r} from {worker_id}"
                )

    # ---------------------------------------------------------------- #
    # Coordinator-side driving
    # ---------------------------------------------------------------- #
    def run(self, kind, shards, on_complete) -> None:
        scheduler = WorkStealingScheduler(kind, shards)
        with self._lock:
            self._batch += 1
            self._scheduler = scheduler
            self._started = False
            self._lock.notify_all()
        try:
            while True:
                progress = scheduler.drain(0.25)
                for index, payload in progress:
                    on_complete(index, payload)
                if scheduler.finished():
                    break
                scheduler.raise_if_error()
                self._check_workers(scheduler, bool(progress))
        finally:
            with self._lock:
                self._scheduler = None
                self._lock.notify_all()
            self.stats.merge(scheduler.stats)

    def _check_workers(
        self, scheduler: WorkStealingScheduler, progress: bool
    ) -> None:
        """Raise when the batch can no longer finish for want of workers."""

    def close(self) -> None:
        """Have every handler send its worker a shutdown frame and finish."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._lock.notify_all()
            handlers = list(self._handler_threads)
        for thread in handlers:
            thread.join(timeout=5.0)


class TcpExecutor(_Coordinator):
    """Coordinator serving shards to remote workers over TCP.

    Binds ``spec.host:spec.port`` at construction (``port=0`` picks an
    ephemeral port; see :attr:`address`) and accepts workers for its whole
    lifetime -- a worker may join mid-sweep and immediately starts stealing
    shards.  A batch whose rendezvous stays unmet (or whose last worker
    died) for ``spec.connect_timeout`` seconds aborts.
    """

    kind = "tcp"

    def __init__(self, context: Mapping[str, object], spec: ExecutorSpec) -> None:
        super().__init__(context, spec)
        self._listener = socket.create_server(
            (spec.host, spec.port), backlog=16
        )
        #: The bound ``(host, port)`` -- differs from the spec when
        #: ``port=0`` requested an ephemeral port.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (executor shutdown)
            self._serve(sock)

    def run(self, kind, shards, on_complete) -> None:
        self._idle_since = time.monotonic()
        super().run(kind, shards, on_complete)

    def _check_workers(
        self, scheduler: WorkStealingScheduler, progress: bool
    ) -> None:
        now = time.monotonic()
        with self._lock:
            n_workers = len(self._workers)
            last_event = self._last_worker_event
            started = self._started
        # The batch is healthy while results arrive, while enough workers
        # are connected to start it, or -- once started -- while *any*
        # worker survives to finish it.  Otherwise the clock runs: a
        # rendezvous that never fills (or a sweep whose last worker died)
        # must abort, not hang.
        if progress or n_workers >= self._spec.min_workers or (
            started and n_workers > 0
        ):
            self._idle_since = now
            return
        if now - max(self._idle_since, last_event) <= self._spec.connect_timeout:
            return
        outstanding = scheduler.total - scheduler.completed_count
        host, port = self.address
        if n_workers:
            detail = (
                f"only {n_workers} TCP worker(s) connected to {host}:{port} "
                f"for {self._spec.connect_timeout:.0f}s "
                f"(min_workers={self._spec.min_workers})"
            )
        else:
            detail = (
                f"no TCP workers connected to {host}:{port} for "
                f"{self._spec.connect_timeout:.0f}s"
            )
        raise RuntimeError(
            f"{detail} with {outstanding} shard(s) outstanding; start workers "
            f"with: python -m repro.sim.worker --connect {host}:{port}"
        )

    def close(self) -> None:
        """Stop accepting workers, then shut the connected ones down."""
        try:
            # Closing a listening socket does not wake a thread blocked in
            # accept() on Linux; shutting it down does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self._listener.close()
        # Joined before the handlers: every accepted connection has its
        # handler registered by the time the accept loop returns.
        self._accept_thread.join(timeout=5.0)
        super().close()


class LocalExecutor(_Coordinator):
    """``workers`` forked processes serving the coordinator over
    :func:`socket.socketpair` ends, exactly as remote workers serve it over
    TCP (:func:`repro.sim.shardeval.serve_connection`).

    Every child is forked before any handler thread starts, so no child
    inherits a thread.  A dead child's socket hits EOF and its shards
    re-dispatch to the survivors; once every child is gone with shards
    outstanding, :meth:`run` raises at once.
    """

    kind = "local"

    def __init__(self, context: Mapping[str, object], workers: int) -> None:
        super().__init__(context, ExecutorSpec(kind="local", min_workers=workers))
        fork = multiprocessing.get_context("fork")
        ends: List[socket.socket] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        try:
            for _ in range(workers):
                parent_end, child_end = socket.socketpair()
                ends.append(parent_end)
                try:
                    # Process.start() flushes stdio before it forks, so
                    # buffered CLI output is never written twice.
                    process = fork.Process(
                        target=_serve_forked, args=(child_end, ends), daemon=True
                    )
                    process.start()
                finally:
                    child_end.close()
                self._processes.append(process)
        except BaseException:
            # A half-built executor never reaches the caller: close the
            # coordinator ends so the children already forked see EOF and
            # exit, then reap them.
            for end in ends:
                end.close()
            self.close()
            raise
        for end in ends:
            self._serve(end)

    def _quorum(self) -> int:
        # A child lost before joining lowers the start barrier: the
        # survivors must not wait for a worker that will never arrive.
        return min(self._spec.min_workers, self._live)

    def _check_workers(
        self, scheduler: WorkStealingScheduler, progress: bool
    ) -> None:
        with self._lock:
            live = self._live
        if live == 0:
            outstanding = scheduler.total - scheduler.completed_count
            raise RuntimeError(
                f"all {len(self._processes)} local workers died with "
                f"{outstanding} shard(s) outstanding"
            )

    def close(self) -> None:
        """Shut every child down over its socket, then reap it."""
        super().close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged child
                process.kill()
                process.join()


def _serve_forked(sock: socket.socket, parent_ends: List[socket.socket]) -> None:
    """Body of one forked local worker: serve the coordinator on ``sock``."""
    for end in parent_ends:
        end.close()
    conn = wire.Connection(sock)
    try:
        serve_connection(conn, None)
    except (ConnectionError, OSError):
        pass  # the coordinator went away; nothing left to serve
    finally:
        conn.close()


def make_executor(
    context: Dict[str, object],
    workers: int,
    spec: Optional[object] = None,
    runner: Optional[ShardRunner] = None,
) -> ShardExecutor:
    """Build the executor a sweep asked for.

    ``spec`` may be ``None`` (default: forked local workers when
    ``workers > 1``, inline otherwise), a kind string, or an
    :class:`ExecutorSpec`.  The ``tcp`` kind always builds a coordinator --
    remote workers provide the parallelism, so the local ``workers`` count
    only shapes shard sizing.
    """
    resolved = ExecutorSpec.coerce(spec)
    if runner is None:
        runner = shardeval.run_shard
    if resolved.kind == "tcp":
        return TcpExecutor(context, resolved)
    if resolved.kind == "inline" or workers <= 1:
        return InlineExecutor(context, runner)
    return LocalExecutor(context, workers)
