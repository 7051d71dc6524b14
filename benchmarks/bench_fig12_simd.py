"""Figure 12: SIMD optimizations — AVX512 vs AVX2.

Reproduces the modeled kernel times across data sizes (paper: AVX512
roughly 1.5x faster than AVX2 on the Xeon), plus the runtime dispatch
mechanism: the same "binary" (kernel registry) linked against
different CPU flag sets selects different builds.
"""

from __future__ import annotations

import pytest

from repro.bench import print_series
from repro.hetero import CORE_I7_8700, XEON_PLATINUM_8269, SimdDispatcher
from repro.hetero.hardware import SIMDLevel
from repro.hetero.simd import simd_kernel_registry

BATCH = 1000
DIM = 128
SIZES = (10**3, 10**4, 10**5, 10**6, 10**7)


def run_figure():
    registry = simd_kernel_registry()
    avx2 = registry[("l2", SIMDLevel.AVX2)]
    avx512 = registry[("l2", SIMDLevel.AVX512)]
    rows = []
    for n in SIZES:
        rows.append((n, avx2.modeled_seconds(BATCH, n, DIM),
                     avx512.modeled_seconds(BATCH, n, DIM)))
    return rows


def test_avx512_ratio_is_paperlike():
    for __, t2, t5 in run_figure():
        assert t2 / t5 == pytest.approx(1.5, abs=0.05)


def test_dispatch_selects_per_cpu():
    assert SimdDispatcher.for_cpu(XEON_PLATINUM_8269).selected_level is SIMDLevel.AVX512
    assert SimdDispatcher.for_cpu(CORE_I7_8700).selected_level is SIMDLevel.AVX2


def main():
    print(f"=== Figure 12: modeled kernel time, batch={BATCH}, d={DIM} ===")
    rows = run_figure()
    print_series("AVX2", [n for n, *__ in rows], [f"{t:.3f}s" for __, t, ___ in rows])
    print_series("AVX512", [n for n, *__ in rows], [f"{t:.3f}s" for __, ___, t in rows])
    for cpu in (CORE_I7_8700, XEON_PLATINUM_8269):
        d = SimdDispatcher.for_cpu(cpu)
        print(f"runtime dispatch on {cpu.name}: flags={cpu.simd_flags} "
              f"-> linked {d.selected_level.name} kernels")


if __name__ == "__main__":
    main()
