"""Worker pools: real processes (or threads) executing campaign tasks.

The process pool is the production fabric: one OS process per worker,
started through the same ``spawn`` multiprocessing context as the
shared-memory rank fabric (:func:`repro.utils.spawn.spawn_context`), fed
through a per-worker task queue and a shared result queue.  A worker
that dies mid-task — including the deliberately injected ``os._exit``
kill — simply never reports; the driver notices the corpse via
``Process.is_alive`` and requeues the task, which is exactly how METAQ
survives node loss (the task directory outlives any worker).

The thread pool is the fast in-process analogue (the PR 3
``ThreadFabric`` counterpart): identical contract, microsecond spawn,
used by scheduling-policy tests where process startup would dominate.
Thread workers cannot be killed from outside, so task *timeouts* require
the process pool; injected kills are simulated by unwinding the worker
loop with :class:`repro.runtime.faults.WorkerKilled`.

Messages are plain JSON-able dicts; artifacts travel by reference
(files on disk), never through queues.  A worker writes no event file:
what only it can see rides its result report (:func:`worker_main`).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.io.container import ArtifactStore
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.faults import FaultSpec, WorkerKilled
from repro.utils.spawn import spawn_context

__all__ = ["worker_main", "ProcessWorkerPool", "ThreadWorkerPool", "make_pool"]

_KILL_EXIT_CODE = 23  # distinguishable from a Python traceback's exit 1
_ORPHAN_POLL_S = 1.0  # an idle process worker checks its driver is alive this often


def worker_main(
    worker_id: int,
    workdir: str,
    task_q,
    result_q,
    pool_kind: str,
) -> None:
    """Worker loop: pull a task message, run the physics, report.

    Runs in a child process (``pool_kind="process"``) or a thread.  A
    ``None`` message is the shutdown sentinel.

    A message may carry a ``workdir`` override (and a ``campaign`` tag):
    the campaign *service* multiplexes many campaigns over one pool, so
    each task routes to its own campaign's artifact/checkpoint stores,
    and every result and task span is tagged with the owning campaign.

    Each report carries the attempt's ``facts`` — the ``{"ev": …}``
    records of what only the worker can see (checkpoint saves and
    restores, solve statistics, injected faults, gauge fixing), on ``ok``
    and error reports alike; the attempt itself is the driver's
    ``start`` … ``done`` / ``fail`` in the ledger.  A killed attempt never
    reports, so its facts die with it.

    Lifecycle of a process worker: it imports the executors (and the
    physics they run) before it takes its first message, so no task pays
    an import; it waits on its queue with a timeout and exits once its
    driver is gone, so a killed driver leaves no orphan behind; and at the
    sentinel it flushes its result queue and leaves with ``os._exit(0)``,
    skipping an interpreter teardown nobody waits for.  A thread worker
    returns at the sentinel.
    """
    from repro.runtime.exec_tasks import ExecContext, execute_task

    parent = multiprocessing.parent_process() if pool_kind == "process" else None
    stores: dict[str, tuple[ArtifactStore, CheckpointManager]] = {}

    def stores_for(path: str) -> tuple[ArtifactStore, CheckpointManager]:
        if path not in stores:
            p = Path(path)
            stores[path] = (
                ArtifactStore(p / "artifacts"),
                CheckpointManager(p / "checkpoints"),
            )
        return stores[path]

    def die() -> None:
        if pool_kind == "process":
            os._exit(_KILL_EXIT_CODE)
        raise WorkerKilled(f"worker {worker_id} killed by fault injection")

    try:
        while True:
            try:
                msg = task_q.get(timeout=_ORPHAN_POLL_S) if parent else task_q.get()
            except queue_mod.Empty:
                if parent.is_alive():
                    continue
                os._exit(0)  # orphaned: no sentinel will ever come
            if msg is None:
                break
            fault = (
                FaultSpec.from_json(msg["fault"]) if msg.get("fault") else None
            )
            store, ckpt = stores_for(msg.get("workdir") or workdir)
            campaign = msg.get("campaign")
            tag = {"campaign": campaign} if campaign else {}
            facts: list[dict[str, Any]] = []
            ctx = ExecContext(
                task_id=msg["task"],
                attempt=int(msg["attempt"]),
                store=store,
                ckpt=ckpt,
                fault=fault,
                emit=lambda ev, **fields: facts.append({"ev": ev, **fields}),
                die=die,
            )
            t0 = time.monotonic()
            report = {
                "type": "result",
                "worker": worker_id,
                "task": msg["task"],
                "campaign": campaign,
                "facts": facts,
            }
            try:
                # The span survives worker death only as a torn trace
                # shard line (tolerated by the trace reader) — a real kill
                # never reaches the span exit, exactly like the paper's
                # lost node-hours.
                with obs.span(
                    f"task.{msg['kind']}",
                    cat="task",
                    task=msg["task"],
                    attempt=int(msg["attempt"]),
                    worker=worker_id,
                    **tag,
                ):
                    report["artifacts"] = execute_task(msg["kind"], msg["params"], ctx)
                report["ok"] = True
            except WorkerKilled:
                raise
            except Exception as e:  # real failure: report and keep serving
                report.update(ok=False, error=f"{type(e).__name__}: {e}")
            report["elapsed"] = time.monotonic() - t0
            result_q.put(report)
    except WorkerKilled:
        return  # thread fabric: the "dead" worker just stops serving
    if parent:
        result_q.close()
        result_q.join_thread()  # every report is in the pipe
        os._exit(0)


class _PoolBase:
    """Shared bookkeeping for both fabrics: ``_queue()`` makes a worker's
    task queue and ``_worker(target=, args=, daemon=)`` its handle."""

    kind = "base"

    def __init__(self, n_workers: int, workdir: str | Path):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self.workdir = str(workdir)
        self._workers: dict[int, Any] = {}
        self._task_qs: dict[int, Any] = {}

    def spawn(self, worker_id: int) -> None:
        task_q = self._queue()
        args = (worker_id, self.workdir, task_q, self.result_q, self.kind)
        handle = self._worker(target=worker_main, args=args, daemon=True)
        handle.start()
        self._workers[worker_id] = handle
        self._task_qs[worker_id] = task_q

    def start(self) -> None:
        for w in range(self.n_workers):
            self.spawn(w)

    def alive(self, worker_id: int) -> bool:
        w = self._workers.get(worker_id)
        return w is not None and w.is_alive()

    def dispatch(self, worker_id: int, message: dict) -> None:
        self._task_qs[worker_id].put(message)

    def poll_result(self, timeout: float) -> dict | None:
        try:
            return self.result_q.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def kill(self, worker_id: int) -> None:
        raise NotImplementedError

    def shutdown(self, grace: float = 5.0) -> None:
        for w in list(self._workers):
            if self.alive(w):
                self._task_qs[w].put(None)
        deadline = time.monotonic() + grace
        for w, handle in self._workers.items():
            handle.join(timeout=max(0.0, deadline - time.monotonic()))
        for w in list(self._workers):
            if self.alive(w):
                try:
                    self.kill(w)
                except RuntimeError:
                    pass  # daemon threads die with the driver


class ProcessWorkerPool(_PoolBase):
    """Spawn-context process workers (the executed, killable fabric)."""

    kind = "process"

    def __init__(self, n_workers: int, workdir: str | Path):
        super().__init__(n_workers, workdir)
        ctx = spawn_context()
        self._queue, self._worker = ctx.Queue, ctx.Process
        self.result_q = ctx.Queue()

    def kill(self, worker_id: int) -> None:
        proc = self._workers.get(worker_id)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stubborn corpse
                proc.kill()
                proc.join(timeout=5.0)


class ThreadWorkerPool(_PoolBase):
    """In-process thread workers (fast; cannot enforce timeouts)."""

    kind = "thread"
    _queue, _worker = queue_mod.Queue, threading.Thread

    def __init__(self, n_workers: int, workdir: str | Path):
        super().__init__(n_workers, workdir)
        self.result_q: queue_mod.Queue = queue_mod.Queue()

    def kill(self, worker_id: int) -> None:
        raise RuntimeError(
            "thread workers cannot be killed externally; "
            "use pool='process' for timeout enforcement"
        )


def make_pool(kind: str, n_workers: int, workdir: str | Path) -> _PoolBase:
    if kind == "process":
        return ProcessWorkerPool(n_workers, workdir)
    if kind == "thread":
        return ThreadWorkerPool(n_workers, workdir)
    raise ValueError(f"unknown pool kind {kind!r} (use 'process' or 'thread')")
