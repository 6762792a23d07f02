"""Machine models of the systems in the paper's Table II.

Titan, Ray, Sierra and Summit are encoded as data — node counts, GPU
generations, bandwidths, interconnects and software stacks — so the
performance model and the cluster simulator can reproduce the scaling
figures without the actual hardware.
"""

from repro.machines.registry import (
    MACHINES,
    GPUSpec,
    MachineSpec,
    get_machine,
    GPU_K20X,
    GPU_P100,
    GPU_V100,
)
from repro.machines.attributes import PERFORMANCE_ATTRIBUTES
from repro.machines.mpi import MPI_IMPLEMENTATIONS, MPIImplementation
from repro.machines.software import SOFTWARE_STACK, SoftwarePackage

__all__ = [
    "MACHINES",
    "MachineSpec",
    "GPUSpec",
    "get_machine",
    "GPU_K20X",
    "GPU_P100",
    "GPU_V100",
    "PERFORMANCE_ATTRIBUTES",
    "MPI_IMPLEMENTATIONS",
    "MPIImplementation",
    "SOFTWARE_STACK",
    "SoftwarePackage",
]
