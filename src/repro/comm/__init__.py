"""Communication substrate: halo exchange policies, modeled and executed.

Models the multi-process stencil communication options of Section V —
CPU-staged MPI, zero-copy, GPU Direct RDMA, CUDA IPC within the node,
fused vs fine-grained halo updates — as a cost model over the Table II
machine parameters.  The communication-policy autotuner
(:mod:`repro.autotune.comm`) searches exactly this space.

Beyond the model, the package *executes* a decomposition: per-rank
subdomains (:mod:`repro.comm.decomp`), worker fabrics over threads or
``multiprocessing.shared_memory`` (:mod:`repro.comm.shm`), real halo
exchange in one blocking round per hopping (:mod:`repro.comm.exchange`),
and a rank-parallel Wilson/even-odd/CG runtime bitwise-equivalent to the
serial operators (:mod:`repro.comm.distributed`).
"""

from repro.comm.policies import (
    CommPolicy,
    HaloGranularity,
    TransferPath,
    available_policies,
)
from repro.comm.halo import Decomposition, best_decomposition, halo_message_bytes
from repro.comm.model import CommCostModel
from repro.comm.decomp import LocalGeometry, RankGrid, slab_grid
from repro.comm.exchange import HaloExchanger
from repro.comm.shm import CommTimeoutError
from repro.comm.distributed import (
    DecompRuntime,
    DistributedCG,
    DistributedEvenOddOperator,
    DistributedWilsonOperator,
)

__all__ = [
    "CommPolicy",
    "TransferPath",
    "HaloGranularity",
    "available_policies",
    "Decomposition",
    "best_decomposition",
    "halo_message_bytes",
    "CommCostModel",
    "LocalGeometry",
    "RankGrid",
    "slab_grid",
    "CommTimeoutError",
    "HaloExchanger",
    "DecompRuntime",
    "DistributedCG",
    "DistributedEvenOddOperator",
    "DistributedWilsonOperator",
]
