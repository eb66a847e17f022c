"""Retired: the columnar batch kernels.

The tuple kernels (:mod:`repro.engine.kernel`) are the top engine
rung.  Only the name below remains.
"""

from __future__ import annotations

__all__ = ["clear_batch_kernel_cache"]


# perfbench compatibility — drop with the next benchmark PR
def clear_batch_kernel_cache() -> None:
    pass
