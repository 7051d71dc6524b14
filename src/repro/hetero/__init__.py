"""Heterogeneous computing layer (paper Sec. 3).

A pure-Python build cannot run real AVX512 kernels or CUDA, so this
package pairs *real algorithmic implementations* (the blocked
cache-aware batch search, the multi-round large-k GPU kernel logic,
runtime SIMD dispatch) with an *analytical hardware model* whose
constants are calibrated against the paper's own measurements
(Sec. 7.4: cache-aware gain 1.5x-2.7x, AVX512 ~1.5x over AVX2,
effective PCIe 1-2 GB/s).  Benchmarks report modelled times where the
paper reports wall-clock on real silicon; tests verify both the real
outputs (exactness of blocked search, k>1024 kernel) and the model's
qualitative shape.
"""

from repro.hetero.hardware import (
    CPUSpec,
    GPUSpec,
    SIMDLevel,
    XEON_PLATINUM_8269,
    CORE_I7_8700,
    TESLA_T4,
)
from repro.hetero.cache import (
    query_block_size,
    CacheAwareSearcher,
    CacheTrafficModel,
)
from repro.hetero.simd import SimdDispatcher, SimdKernel, simd_kernel_registry
from repro.hetero.gpu import GPUDevice, gpu_topk_large_k
from repro.hetero.sq8h import SQ8HExecutor, SQ8HConfig, ExecutionPlan
from repro.hetero.scheduler import SegmentScheduler, SearchTask
from repro.hetero.engine import GPUSearchEngine, GPUSearchOutcome
from repro.hetero.fpga import FPGAPQExecutor, FPGASpec

__all__ = [
    "GPUSearchEngine",
    "GPUSearchOutcome",
    "FPGAPQExecutor",
    "FPGASpec",
    "CPUSpec",
    "GPUSpec",
    "SIMDLevel",
    "XEON_PLATINUM_8269",
    "CORE_I7_8700",
    "TESLA_T4",
    "query_block_size",
    "CacheAwareSearcher",
    "CacheTrafficModel",
    "SimdDispatcher",
    "SimdKernel",
    "simd_kernel_registry",
    "GPUDevice",
    "gpu_topk_large_k",
    "SQ8HExecutor",
    "SQ8HConfig",
    "ExecutionPlan",
    "SegmentScheduler",
    "SearchTask",
]
