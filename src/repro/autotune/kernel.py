"""QUDA-style run-time kernel autotuner.

"a brute-force search through launch parameter space is performed the
first time an un-tuned kernel or algorithm is encountered.  Once the
optimum launch configuration is known, this is stored in a std::map, and
is subsequently looked up on demand" — Section IV.

The "measurement" is the :class:`repro.perfmodel.gpu.GPUKernelModel`
timing surface plus multiplicative measurement noise; like QUDA, the
tuner launches each candidate several times and keeps the best, which
suppresses the noise floor.  Entries carry performance metadata and
live in the tuner's in-memory map for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.gpu import BLOCK_SIZES, GPUKernelModel, LaunchParams
from repro.utils.rng import make_rng

__all__ = ["TuneKey", "TuneEntry", "KernelAutotuner"]


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


class KernelAutotuner:
    """Brute-force launch-parameter tuner with an in-memory cache.

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

    def __contains__(self, key: TuneKey) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)
