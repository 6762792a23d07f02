"""The halo-exchange policy space of Section V.

Two orthogonal choices define a policy:

* the *transfer path* for inter-node halos — stage through CPU memory
  with GPU DMA + regular MPI, zero-copy reads/writes over PCIe, or GPU
  Direct RDMA straight between GPU and NIC; and
* the *granularity* — wait for all dimensions and launch one fused halo
  kernel (fewer launches, less overlap), per-dimension fine-grained
  updates (more launches, better compute/comm overlap), or the full
  interior/boundary split that computes the bulk while every face is in
  flight (QUDA's overlapping ``dslash-policy``).

Intra-node transfers always use CUDA IPC over NVLink where the machine
has it (the dense-node optimization of Section V).

One enum serves both the *modeled* policy space (ranked through
:class:`repro.perfmodel.solver.SolverPerfModel`) and the *executed* one
(raced wall-clock by the decomposition runtime): each granularity maps
to an executed schedule via :attr:`HaloGranularity.schedule`, and each
transfer path to a local transport via :attr:`CommPolicy.transport` —
``staged-cpu`` runs as worker processes staging through
``multiprocessing.shared_memory``, ``zero-copy`` as worker threads
sharing one address space, and ``gdr`` has no local analogue
(:attr:`CommPolicy.executable` is false).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.machines.registry import MachineSpec

__all__ = ["TransferPath", "HaloGranularity", "CommPolicy", "available_policies"]


class TransferPath(Enum):
    """How inter-node halo bytes reach the NIC."""

    STAGED_CPU = "staged-cpu"
    ZERO_COPY = "zero-copy"
    GDR = "gdr"

    @property
    def transport(self) -> str | None:
        """Local executed transport emulating this path (None if none)."""
        return _EXECUTED_TRANSPORT.get(self)


class HaloGranularity(Enum):
    """How halo updates are scheduled against the stencil kernels.

    ``FUSED`` waits for all dimensions then runs one halo kernel;
    ``FINE_GRAINED`` updates per dimension; ``OVERLAP`` computes the
    interior while every face is in flight and patches boundary slabs
    afterwards (QUDA's overlapping dslash policy).
    """

    FUSED = "fused"
    FINE_GRAINED = "fine-grained"
    OVERLAP = "overlap"

    @property
    def schedule(self) -> str:
        """Name of the executed halo schedule implementing this granularity."""
        return _EXECUTED_SCHEDULE[self]


#: granularity -> executed schedule raced by the decomposition runtime
_EXECUTED_SCHEDULE = {
    HaloGranularity.FUSED: "blocking",
    HaloGranularity.FINE_GRAINED: "pairwise",
    HaloGranularity.OVERLAP: "overlap",
}

#: transfer path -> local worker transport (GDR has no local analogue)
_EXECUTED_TRANSPORT = {
    TransferPath.STAGED_CPU: "processes",
    TransferPath.ZERO_COPY: "threads",
}


@dataclass(frozen=True)
class CommPolicy:
    """One point of the communication-policy space."""

    path: TransferPath
    granularity: HaloGranularity

    @property
    def name(self) -> str:
        return f"{self.path.value}/{self.granularity.value}"

    # -- path characteristics (model constants) --------------------------
    @property
    def latency_s(self) -> float:
        """Per-message software latency of the path."""
        return {
            TransferPath.STAGED_CPU: 12e-6,  # DMA + MPI rendezvous + sync
            TransferPath.ZERO_COPY: 7e-6,  # no staging copy
            TransferPath.GDR: 3e-6,  # NIC reads GPU memory directly
        }[self.path]

    @property
    def hops(self) -> int:
        """Extra memory copies between GPU and wire."""
        return {
            TransferPath.STAGED_CPU: 2,  # GPU->CPU and CPU->GPU staging
            TransferPath.ZERO_COPY: 1,
            TransferPath.GDR: 0,
        }[self.path]

    @property
    def cpu_overhead_s(self) -> float:
        """CPU time consumed per exchange (contended on dense nodes)."""
        return {
            TransferPath.STAGED_CPU: 8e-6,
            TransferPath.ZERO_COPY: 4e-6,
            TransferPath.GDR: 1e-6,
        }[self.path]

    @property
    def overlap_fraction(self) -> float:
        """Fraction of the comm time hidden under interior compute.

        Without GPU Direct RDMA every transfer synchronizes through the
        CPU, so overlap is poor (the paper names this the main limit on
        multi-node scaling); fine-grained pipelining recovers part of
        it.  The interior/boundary split can only hide what the path
        lets it: staged transfers stall the GPU on CPU synchronization
        mid-flight and the boundary fixup runs at reduced efficiency,
        so ``OVERLAP`` pays off decisively only over GDR — which is
        exactly why the paper's GDR-less Sierra/Summit runs were
        halo-limited.
        """
        if self.granularity is not HaloGranularity.OVERLAP:
            return {
                HaloGranularity.FUSED: 0.25,
                HaloGranularity.FINE_GRAINED: 0.55,
            }[self.granularity]
        return {
            TransferPath.STAGED_CPU: 0.45,
            TransferPath.ZERO_COPY: 0.55,
            TransferPath.GDR: 0.95,
        }[self.path]

    @property
    def kernel_launches(self) -> int:
        """Halo-update kernel launches per stencil application."""
        return {
            HaloGranularity.FUSED: 1,
            HaloGranularity.FINE_GRAINED: 8,
            HaloGranularity.OVERLAP: 2,  # interior pass + boundary fixup
        }[self.granularity]

    # -- executed-policy mapping ------------------------------------------
    @property
    def executable(self) -> bool:
        """Whether the local decomposition runtime can race this policy."""
        return self.path.transport is not None

    @property
    def schedule(self) -> str:
        """Executed halo schedule name (``blocking``/``pairwise``/``overlap``)."""
        return self.granularity.schedule

    @property
    def transport(self) -> str | None:
        """Executed transport name (``threads``/``processes``), if any."""
        return self.path.transport

    @classmethod
    def from_executed(cls, transport: str, schedule: str) -> "CommPolicy":
        """The modeled policy corresponding to an executed combination
        (``shm`` is the ``processes`` transport's public name)."""
        paths = {t: p for p, t in _EXECUTED_TRANSPORT.items()}
        paths["shm"] = TransferPath.STAGED_CPU
        grans = {s: g for g, s in _EXECUTED_SCHEDULE.items()}
        if transport not in paths or schedule not in grans:
            raise ValueError(f"no modeled policy for {transport}/{schedule}")
        return cls(paths[transport], grans[schedule])


def available_policies(machine: MachineSpec) -> list[CommPolicy]:
    """All policies runnable on a machine.

    GDR policies are excluded where the system software does not support
    GPU Direct RDMA — true of Sierra and Summit at submission time,
    which the paper identifies as its main multi-node limitation.
    """
    out = []
    for path in TransferPath:
        if path is TransferPath.GDR and not machine.gdr_supported:
            continue
        for gran in HaloGranularity:
            out.append(CommPolicy(path, gran))
    return out
