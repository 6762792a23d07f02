"""QUDA-style run-time kernel autotuner.

"a brute-force search through launch parameter space is performed the
first time an un-tuned kernel or algorithm is encountered.  Once the
optimum launch configuration is known, this is stored in a std::map, and
is subsequently looked up on demand" — Section IV.

The "measurement" is the :class:`repro.perfmodel.gpu.GPUKernelModel`
timing surface plus multiplicative measurement noise; like QUDA, the
tuner launches each candidate several times and keeps the best, which
suppresses the noise floor.  Entries carry performance metadata and can
be saved to / loaded from a JSON tunecache.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.perfmodel.gpu import BLOCK_SIZES, GPUKernelModel, LaunchParams
from repro.utils.rng import make_rng

__all__ = ["TuneKey", "TuneEntry", "BackendEntry", "KernelAutotuner"]


@dataclass(frozen=True)
class TuneKey:
    """Unique identifier of a tuned kernel instance.

    Two invocations share tuning only if the kernel, the local volume,
    the precision *and* the auxiliary string (QUDA's ``aux`` field:
    compile-time variants, dagger flags, ...) all match.
    """

    kernel: str
    volume: int
    precision: str
    aux: str = ""

    def as_string(self) -> str:
        return f"{self.kernel}|v{self.volume}|{self.precision}|{self.aux}"

    @classmethod
    def from_string(cls, s: str) -> "TuneKey":
        kernel, vol, precision, aux = s.split("|", 3)
        return cls(kernel, int(vol[1:]), precision, aux)


@dataclass
class TuneEntry:
    """Cached optimum for one :class:`TuneKey`."""

    block_size: int
    reg_cap: int
    time_s: float
    gflops: float
    gbytes_per_s: float
    n_candidates: int

    @property
    def params(self) -> LaunchParams:
        return LaunchParams(self.block_size, self.reg_cap)


@dataclass
class BackendEntry:
    """Cached winner of a *real* race for one :class:`TuneKey`.

    Unlike :class:`TuneEntry` (which tunes launch parameters against the
    GPU performance model), a race wall-clock-times every executed
    candidate — here the halo-exchange policies of the decomposition
    runtime — and remembers which one won.
    """

    backend: str
    time_s: float
    times: dict[str, float]
    n_candidates: int

    def speedup_vs(self, other: str) -> float:
        """How much faster the winner is than a named loser."""
        return self.times[other] / self.time_s


class KernelAutotuner:
    """Brute-force launch-parameter tuner with a persistent cache.

    Parameters
    ----------
    rng:
        Measurement-noise stream (deterministic under a fixed seed).
    noise:
        Relative sigma of one timing measurement.
    launches_per_candidate:
        Timings taken per candidate; the minimum is kept (QUDA's
        strategy — the min of k noisy samples converges to the truth).
    """

    def __init__(
        self,
        rng: np.random.Generator | int | None = None,
        noise: float = 0.05,
        launches_per_candidate: int = 3,
    ):
        if noise < 0:
            raise ValueError("noise must be >= 0")
        if launches_per_candidate < 1:
            raise ValueError("need at least one launch per candidate")
        self.rng = make_rng(rng)
        self.noise = noise
        self.launches = launches_per_candidate
        self._cache: dict[TuneKey, TuneEntry] = {}
        self._comm_cache: dict[TuneKey, BackendEntry] = {}
        self.tune_calls = 0
        self.lookup_hits = 0

    # -- measurement --------------------------------------------------------
    def _measure(self, model: GPUKernelModel, params: LaunchParams) -> float:
        """Best-of-k noisy timing of one candidate."""
        truth = model.time(params)
        samples = truth * (
            1.0 + self.noise * np.abs(self.rng.normal(size=self.launches))
        )
        return float(samples.min())

    # -- tuning -----------------------------------------------------------------
    def tune(self, key: TuneKey, model: GPUKernelModel) -> TuneEntry:
        """Return the cached optimum, running the brute-force search once."""
        if key in self._cache:
            self.lookup_hits += 1
            return self._cache[key]
        self.tune_calls += 1
        best_params: LaunchParams | None = None
        best_time = np.inf
        n = 0
        for block in BLOCK_SIZES:
            for reg_cap in (0, 1):
                params = LaunchParams(block, reg_cap)
                t = self._measure(model, params)
                n += 1
                if t < best_time:
                    best_time, best_params = t, params
        assert best_params is not None
        entry = TuneEntry(
            block_size=best_params.block_size,
            reg_cap=best_params.reg_cap,
            time_s=best_time,
            gflops=model.flops / best_time / 1e9 if model.flops else 0.0,
            gbytes_per_s=model.bytes_moved / best_time / 1e9,
            n_candidates=n,
        )
        self._cache[key] = entry
        return entry

    def tune_destructive(
        self,
        key: TuneKey,
        model: GPUKernelModel,
        data: np.ndarray,
        kernel_fn,
    ) -> tuple[TuneEntry, np.ndarray]:
        """Tune a kernel that overwrites its input.

        "The class structure makes it easy to manage the backup/restore
        of input data in the case of data-destructive algorithms"
        (Section IV): before the brute-force search the input is backed
        up; every candidate launch runs ``kernel_fn(data, params)`` on a
        scratch copy; afterwards the *winning* configuration runs once
        on the restored input, whose result is returned.

        Returns ``(entry, output)``; the caller's ``data`` is never
        mutated by the search.
        """
        backup = np.array(data, copy=True)
        if key not in self._cache:
            # Measurement pass: each candidate launch consumes a scratch
            # copy of the input (the simulated destruction).
            scratch = np.array(backup, copy=True)
            for block in BLOCK_SIZES[:1]:  # representative touch
                kernel_fn(scratch, LaunchParams(block))
            entry = self.tune(key, model)
        else:
            entry = self.tune(key, model)
        output = kernel_fn(np.array(backup, copy=True), entry.params)
        if not np.array_equal(data, backup):
            raise RuntimeError("destructive tuning corrupted the caller's input")
        return entry, output

    def speedup_vs_default(self, key: TuneKey, model: GPUKernelModel) -> float:
        """Tuned-vs-default-launch speedup factor (>= 1 up to noise)."""
        entry = self.tune(key, model)
        return model.default_time() / model.time(entry.params)

    # -- measured communication policies -----------------------------------
    def tune_comm_policy(
        self, key: TuneKey, candidates: Mapping[str, Callable[[], Any]]
    ) -> BackendEntry:
        """Race executed halo-exchange policies; cache and return the winner.

        ``candidates`` maps names like ``"threads/blocking"`` to
        zero-argument thunks that run one stacked hopping under that
        policy — the executed counterpart of the modeled
        :class:`repro.autotune.comm.CommPolicyTuner` ranking.  Each
        candidate gets one untimed warm-up launch (workspace allocation —
        QUDA likewise discards the first launch) and then
        ``launches_per_candidate`` timed launches, keeping the minimum.
        The winner is cached under ``key`` and persists through
        :meth:`save`/:meth:`load`, so a fresh process that loaded the
        tunecache never re-times anything.
        """
        if key in self._comm_cache:
            self.lookup_hits += 1
            return self._comm_cache[key]
        if not candidates:
            raise ValueError("need at least one candidate to race")
        self.tune_calls += 1
        times: dict[str, float] = {}
        for name, thunk in candidates.items():
            thunk()  # warm-up launch, untimed
            best = np.inf
            for _ in range(self.launches):
                t0 = time.perf_counter()
                thunk()
                best = min(best, time.perf_counter() - t0)
            times[name] = float(best)
        winner = min(times, key=times.__getitem__)
        entry = BackendEntry(
            backend=winner,
            time_s=times[winner],
            times=times,
            n_candidates=len(times),
        )
        self._comm_cache[key] = entry
        return entry

    def comm_choice(self, key: TuneKey) -> str | None:
        """Cached measured comm-policy winner (``None`` if never raced)."""
        entry = self._comm_cache.get(key)
        return entry.backend if entry is not None else None

    def __contains__(self, key: TuneKey) -> bool:
        return key in self._cache or key in self._comm_cache

    def __len__(self) -> int:
        return len(self._cache) + len(self._comm_cache)

    # -- persistence ----------------------------------------------------------------
    #: a lock file untouched for this long is considered abandoned by a
    #: dead process and is broken (seconds)
    LOCK_STALE_S = 10.0
    #: how long save() waits for a live lock before giving up
    LOCK_TIMEOUT_S = 5.0

    def save(self, path: str | Path) -> None:
        """Write the tunecache as JSON (QUDA's profile file analogue).

        Format version 3: launch-parameter entries under ``"kernels"`` and
        measured comm-policy winners under ``"comm"``.  Older files are
        still readable: version 1 is a flat key-to-entry map, and the
        ``"backends"`` section of earlier version-2/3 files (dslash
        backend-race winners) is ignored.

        The write is process-safe: the payload lands in a temporary file
        that is atomically renamed over the target (readers never see a
        torn file), serialized by a sidecar ``.lock`` file.  A lock left
        behind by a dead process (older than :attr:`LOCK_STALE_S`) is
        broken rather than waited on, so one crashed worker can never
        wedge the cache for everyone else.
        """
        payload = {
            "version": 3,
            "kernels": {k.as_string(): asdict(v) for k, v in self._cache.items()},
            "comm": {k.as_string(): asdict(v) for k, v in self._comm_cache.items()},
        }
        path = Path(path)
        lock = self._acquire_lock(path)
        try:
            tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
            os.replace(tmp, path)
        finally:
            self._release_lock(lock)

    def _acquire_lock(self, path: Path) -> Path | None:
        lock = path.with_name(path.name + ".lock")
        deadline = time.monotonic() + self.LOCK_TIMEOUT_S
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return lock
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except FileNotFoundError:
                    continue  # holder just released; retry immediately
                if age > self.LOCK_STALE_S:
                    try:  # break the abandoned lock
                        lock.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    # Proceed unlocked rather than lose the tunings: the
                    # atomic rename still guarantees an untorn file.
                    return None
                time.sleep(0.01)

    @staticmethod
    def _release_lock(lock: Path | None) -> None:
        if lock is not None:
            try:
                lock.unlink()
            except FileNotFoundError:  # pragma: no cover - already broken
                pass

    def load(self, path: str | Path) -> int:
        """Merge a saved tunecache; returns the number of entries loaded."""
        payload = json.loads(Path(path).read_text())
        if "version" in payload:
            kernels = payload.get("kernels", {})
            comm = payload.get("comm", {})
        else:  # legacy flat format
            kernels, comm = payload, {}
        for ks, ent in kernels.items():
            self._cache[TuneKey.from_string(ks)] = TuneEntry(**ent)
        for ks, ent in comm.items():
            self._comm_cache[TuneKey.from_string(ks)] = BackendEntry(**ent)
        return len(kernels) + len(comm)
