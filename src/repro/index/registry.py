"""Index registry: index-type name -> constructor.

This is the "high-level abstraction" of Sec. 2.2 that lets Milvus
"easily incorporate new indexes": registering a class makes it
constructible by name everywhere (collections, benchmarks, config).
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Type

from repro.index.annoy import AnnoyIndex
from repro.index.base import VectorIndex
from repro.index.binary_flat import BinaryFlatIndex
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf_flat import IVFFlatIndex
from repro.index.ivf_pq import IVFOPQIndex, IVFPQIndex
from repro.index.ivf_sq8 import IVFSQ8Index
from repro.index.nsg import NSGIndex

_REGISTRY: Dict[str, Type[VectorIndex]] = {}


def register_index(cls: Type[VectorIndex], overwrite: bool = False) -> Type[VectorIndex]:
    """Register an index class under ``cls.index_type``.

    Usable as a decorator for third-party indexes::

        @register_index
        class MyIndex(VectorIndex):
            index_type = "MY_INDEX"
            ...
    """
    name = cls.index_type
    if not name:
        raise ValueError("index class must define index_type")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"index type {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def _registered(index_type: str) -> Type[VectorIndex]:
    cls = _REGISTRY.get(index_type.upper()) if isinstance(index_type, str) else None
    if cls is None:
        raise ValueError(
            f"index_type: unknown index type {index_type!r}; "
            f"available: {sorted(_REGISTRY)}"
        )
    return cls


def create_index(index_type: str, dim: int, metric="l2", **params) -> VectorIndex:
    """Instantiate an index by registry name."""
    return _registered(index_type)(dim, metric=metric, **params)


def resolved_index_params(index_type: str, params: Dict[str, object]) -> Dict[str, object]:
    """``params`` with the registered constructor's defaults filled in:
    two requests that resolve equal build the same index."""
    signature = inspect.signature(_registered(index_type).__init__)
    resolved = {
        name: p.default for name, p in signature.parameters.items()
        if p.default is not p.empty and name != "metric"
    }
    resolved.update(params)
    return resolved


def search_params_of(index_type: str) -> frozenset:
    """The per-call search parameters the registered class honors."""
    return _registered(index_type).SEARCH_PARAMS


def available_index_types() -> List[str]:
    """Names of every registered index type."""
    return sorted(_REGISTRY)


for _cls in (
    FlatIndex,
    BinaryFlatIndex,
    IVFFlatIndex,
    IVFSQ8Index,
    IVFPQIndex,
    IVFOPQIndex,
    HNSWIndex,
    NSGIndex,
    AnnoyIndex,
):
    register_index(_cls)
