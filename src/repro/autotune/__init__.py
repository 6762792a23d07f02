"""Run-time autotuning (Section V).

Two tuners, mirroring QUDA's:

* :class:`KernelAutotuner` — brute-force search over kernel launch
  parameters the first time an untuned kernel is met, best result cached
  in a map under a unique key and looked up on demand thereafter.
* :class:`CommPolicyTuner` — the paper's extension of the same machinery
  to the communication-policy space: staged/zero-copy/GDR x fused/
  fine-grained, per (machine, problem, GPU count).
"""

from repro.autotune.kernel import KernelAutotuner, TuneKey, TuneEntry
from repro.autotune.comm import CommPolicyTuner, CommTuneResult

__all__ = [
    "KernelAutotuner",
    "TuneKey",
    "TuneEntry",
    "CommPolicyTuner",
    "CommTuneResult",
]
