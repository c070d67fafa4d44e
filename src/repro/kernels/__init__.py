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
from .base import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    JoinKernel,
    KernelSpec,
    available_kernels,
    create_kernel,
    default_kernel,
    kernel_spec,
    register_kernel,
)
from .binary import BinaryKernel
from .wcoj import WcojKernel

__all__ = [
    "JoinKernel",
    "KernelSpec",
    "KernelChoice",
    "WcojKernel",
    "BinaryKernel",
    "AdaptiveKernel",
    "register_kernel",
    "available_kernels",
    "kernel_spec",
    "create_kernel",
    "default_kernel",
    "choose_kernel",
    "select_kernel",
    "BLOWUP_FACTOR",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
]

register_kernel("wcoj", WcojKernel,
                summary="vectorized Leapfrog triejoin (worst-case optimal)")
register_kernel("binary", BinaryKernel,
                summary="left-deep vectorized hash joins (greedy plan)")
register_kernel("adaptive", AdaptiveKernel,
                summary="per-subquery choice: binary when acyclic/low-"
                        "blowup, wcoj otherwise")
