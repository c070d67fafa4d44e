"""repro.kernels — physical join kernels behind one registry.

Every engine routes the per-bag / per-cube join through this layer:
``wcoj`` (vectorized Leapfrog triejoin), ``binary`` (vectorized hash
joins) or ``adaptive`` (the default: per-subquery choice recorded as a
``kernel_select`` span + ``kernel.selected.*`` counter).  Configure via
``RunConfig.kernel`` / ``REPRO_KERNEL`` / CLI ``run --kernel``; see
docs/kernels.md.
"""

from .adaptive import (
    BLOWUP_FACTOR,
    AdaptiveKernel,
    KernelChoice,
    choose_kernel,
    select_kernel,
)
from .base import KERNELS, JoinKernel, create_kernel
from .binary import BinaryKernel
from .wcoj import WcojKernel

__all__ = [
    "JoinKernel",
    "KERNELS",
    "KernelChoice",
    "WcojKernel",
    "BinaryKernel",
    "AdaptiveKernel",
    "create_kernel",
    "choose_kernel",
    "select_kernel",
    "BLOWUP_FACTOR",
]

KERNELS.register("wcoj", WcojKernel,
                 summary="vectorized Leapfrog triejoin (worst-case optimal)")
KERNELS.register("binary", BinaryKernel,
                 summary="left-deep vectorized hash joins (greedy plan)")
KERNELS.register("adaptive", AdaptiveKernel,
                 summary="per-subquery choice: binary when acyclic/low-"
                         "blowup, wcoj otherwise")
