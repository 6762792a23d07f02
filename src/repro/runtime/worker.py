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
(files on disk), never through queues.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.exec_tasks import ArtifactStore, ExecContext, execute_task
from repro.runtime.faults import FaultSpec, WorkerKilled
from repro.runtime.telemetry import TelemetryWriter
from repro.utils.spawn import spawn_context

__all__ = ["worker_main", "ProcessWorkerPool", "ThreadWorkerPool", "make_pool"]

_KILL_EXIT_CODE = 23  # distinguishable from a Python traceback's exit 1


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
    each task routes to its own campaign's artifact/checkpoint stores
    while the worker keeps a single telemetry shard at the pool root,
    tagging every event and result with the owning campaign.
    """
    wd = Path(workdir)
    stores: dict[str, tuple[ArtifactStore, CheckpointManager]] = {}

    def stores_for(path: str) -> tuple[ArtifactStore, CheckpointManager]:
        if path not in stores:
            p = Path(path)
            stores[path] = (
                ArtifactStore(p / "artifacts"),
                CheckpointManager(p / "checkpoints"),
            )
        return stores[path]

    tele = TelemetryWriter(
        wd / f"telemetry-w{worker_id}.jsonl", source=f"worker-{worker_id}"
    )

    def die() -> None:
        tele.close()
        if pool_kind == "process":
            os._exit(_KILL_EXIT_CODE)
        raise WorkerKilled(f"worker {worker_id} killed by fault injection")

    try:
        while True:
            msg = task_q.get()
            if msg is None:
                break
            fault = (
                FaultSpec.from_json(msg["fault"]) if msg.get("fault") else None
            )
            store, ckpt = stores_for(msg.get("workdir") or workdir)
            campaign = msg.get("campaign")
            tag = {"campaign": campaign} if campaign else {}
            ctx = ExecContext(
                task_id=msg["task"],
                attempt=int(msg["attempt"]),
                store=store,
                ckpt=ckpt,
                fault=fault,
                emit=tele.emit,
                die=die,
            )
            tele.emit(
                "exec_start",
                task=msg["task"],
                attempt=msg["attempt"],
                worker=worker_id,
                **tag,
            )
            t0 = time.monotonic()
            try:
                # The span survives worker death only as a torn shard
                # line (tolerated by the trace reader) — a real kill
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
                    artifacts = execute_task(msg["kind"], msg["params"], ctx)
            except WorkerKilled:
                raise
            except Exception as e:  # real failure: report and keep serving
                tele.emit(
                    "exec_fail",
                    task=msg["task"],
                    worker=worker_id,
                    error=f"{type(e).__name__}: {e}",
                    **tag,
                )
                result_q.put(
                    {
                        "type": "result",
                        "worker": worker_id,
                        "task": msg["task"],
                        "campaign": campaign,
                        "ok": False,
                        "error": f"{type(e).__name__}: {e}",
                        "elapsed": time.monotonic() - t0,
                        "checkpoints": ctx.n_checkpoints,
                    }
                )
                continue
            tele.emit(
                "exec_done",
                task=msg["task"],
                worker=worker_id,
                elapsed=time.monotonic() - t0,
                **tag,
            )
            result_q.put(
                {
                    "type": "result",
                    "worker": worker_id,
                    "task": msg["task"],
                    "campaign": campaign,
                    "ok": True,
                    "artifacts": artifacts,
                    "elapsed": time.monotonic() - t0,
                    "checkpoints": ctx.n_checkpoints,
                }
            )
    except WorkerKilled:
        return  # thread fabric: the "dead" worker just stops serving
    finally:
        tele.close()


class _PoolBase:
    """Shared bookkeeping for both fabrics."""

    kind = "base"

    def __init__(self, n_workers: int, workdir: str | Path):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self.workdir = str(workdir)
        self._workers: dict[int, Any] = {}
        self._task_qs: dict[int, Any] = {}
        self.spawns = 0

    def spawn(self, worker_id: int) -> None:
        raise NotImplementedError

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
        self._ctx = spawn_context()
        self.result_q = self._ctx.Queue()

    def spawn(self, worker_id: int) -> None:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.workdir, task_q, self.result_q, "process"),
            daemon=True,
        )
        proc.start()
        self._workers[worker_id] = proc
        self._task_qs[worker_id] = task_q
        self.spawns += 1

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

    def __init__(self, n_workers: int, workdir: str | Path):
        super().__init__(n_workers, workdir)
        self.result_q: queue_mod.Queue = queue_mod.Queue()

    def spawn(self, worker_id: int) -> None:
        task_q: queue_mod.Queue = queue_mod.Queue()
        th = threading.Thread(
            target=worker_main,
            args=(worker_id, self.workdir, task_q, self.result_q, "thread"),
            daemon=True,
        )
        th.start()
        self._workers[worker_id] = th
        self._task_qs[worker_id] = task_q
        self.spawns += 1

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
