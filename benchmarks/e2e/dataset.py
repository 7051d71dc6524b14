"""Seeded inputs and exact ground truth for the served-path benchmark.

The program never sees anything from here but the generated JSON
bodies.  Vectors are a 64-d Gaussian mixture (512 centres ~ N(0, I),
unit within-cluster std): unlike ``sift_like``, IVF recall on it moves
with ``nprobe``, so a recall-for-speed trade shows in ``recall_at_10``.
Row id *i* is the *i*-th generated row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

DIM = 64
CENTRES = 512
K = 10
PRICE_MAX = 10000.0
#: bytes of user data per row: the vector, the price, the row id
USER_ROW_BYTES = DIM * 4 + 8 + 8


@dataclass
class Dataset:
    vectors: np.ndarray   #: (rows, DIM) float32; row id = position
    prices: np.ndarray    #: (rows,) float64, uniform in [0, PRICE_MAX]
    queries: np.ndarray   #: (n_queries, DIM) float32, held out
    #: (low, high) price ranges, one per requested pass fraction
    filters: List[Tuple[float, float]]


def make_dataset(
    seed: int, rows: int, n_queries: int,
    pass_fractions: Tuple[float, ...] = (),
) -> Dataset:
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((CENTRES, DIM))

    def draw(n: int) -> np.ndarray:
        picks = rng.integers(0, CENTRES, n)
        return (centres[picks] + rng.standard_normal((n, DIM))).astype(np.float32)

    vectors = draw(rows)
    queries = draw(n_queries)
    prices = rng.uniform(0.0, PRICE_MAX, rows)
    filters = []
    for fraction in pass_fractions:
        width = fraction * PRICE_MAX
        low = float(rng.uniform(0.0, PRICE_MAX - width))
        filters.append((low, low + width))
    return Dataset(vectors, prices, queries, filters)


def exact_topk(
    queries: np.ndarray, vectors: np.ndarray, ids: Optional[np.ndarray] = None,
    k: int = K,
) -> np.ndarray:
    """Exact L2 top-k row ids, (nq, k), padded with -1 when short.

    ``ids`` maps positions of ``vectors`` to row ids (default: the
    position itself).  float64 throughout, so the truth does not share
    the program's float32 rounding.
    """
    data = vectors.astype(np.float64)
    norms = (data * data).sum(axis=1)
    out = np.full((len(queries), k), -1, dtype=np.int64)
    k_eff = min(k, len(data))
    if k_eff == 0:
        return out
    for lo in range(0, len(queries), 64):
        block = queries[lo:lo + 64].astype(np.float64)
        dists = norms[np.newaxis, :] - 2.0 * block @ data.T
        part = np.argpartition(dists, k_eff - 1, axis=1)[:, :k_eff]
        order = np.argsort(np.take_along_axis(dists, part, axis=1), axis=1)
        top = np.take_along_axis(part, order, axis=1)
        out[lo:lo + len(block), :k_eff] = top if ids is None else ids[top]
    return out


def recall(returned: List[List[int]], truth: np.ndarray) -> Tuple[int, int]:
    """(hits, possible) of returned id lists against truth rows."""
    hits = possible = 0
    for got, want in zip(returned, truth):
        want = want[want >= 0]
        hits += len(set(got) & set(want.tolist()))
        possible += len(want)
    return hits, possible
