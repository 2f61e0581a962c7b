"""repro.testing — fault-injection, robustness and legacy-format test
utilities."""

from .faults import (FaultReport, bit_flip, byte_swap, inject,
                     random_fault, truncate, zero_region)
from .legacy import to_v2_bytes, to_v3_bytes

__all__ = ["FaultReport", "bit_flip", "byte_swap", "inject",
           "random_fault", "to_v2_bytes", "to_v3_bytes", "truncate",
           "zero_region"]
