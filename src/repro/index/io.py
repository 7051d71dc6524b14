"""Index (de)serialization for the quantization family.

Persisting FLAT / BIN_FLAT / IVF_FLAT / IVF_SQ8 / IVF_PQ indexes lets
deployments skip the (k-means) rebuild on restart.  Graph and tree
indexes are rebuilt instead — their construction is the index, and
Milvus likewise rebuilds asynchronously (Sec. 5.1).

Format: one uncompressed npz blob with a JSON ``meta`` entry, written
by the writer segments use too (:func:`repro.utils.npz.npz_bytes`) and
read by ``np.load`` (zlib saved 9 % of an IVF_FLAT blob for 35x the
write time).  IVF lists are stored as their three CSR arrays (``offsets``,
``ids``, ``codes``); blobs from before that layout — one ``ids__<b>`` /
``codes__<b>`` pair per bucket, zlib-compressed — still load.
"""

from __future__ import annotations

import io
import json
from typing import Dict

import numpy as np

from repro.index.base import VectorIndex
from repro.index.binary_flat import BinaryFlatIndex
from repro.index.flat import FlatIndex
from repro.index.ivf_common import IVFIndexBase
from repro.index.ivf_flat import IVFFlatIndex
from repro.index.ivf_pq import IVFOPQIndex, IVFPQIndex
from repro.index.ivf_sq8 import IVFSQ8Index
from repro.utils.npz import npz_bytes

SERIALIZABLE_TYPES = ("FLAT", "BIN_FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ", "IVF_OPQ")


def index_to_bytes(index: VectorIndex) -> bytes:
    """Serialize a supported index; raises ``TypeError`` otherwise."""
    if index.index_type not in SERIALIZABLE_TYPES:
        raise TypeError(
            f"{index.index_type} does not serialize; rebuild it instead "
            f"(supported: {SERIALIZABLE_TYPES})"
        )
    meta: Dict[str, object] = {
        "index_type": index.index_type,
        "dim": index.dim,
        "metric": index.metric.name,
    }
    arrays: Dict[str, np.ndarray] = {}

    if isinstance(index, (FlatIndex, BinaryFlatIndex)):
        data, ids = index._compacted() if index.ntotal else (
            np.empty((0, getattr(index, "code_bytes", index.dim))),
            np.empty(0, dtype=np.int64),
        )
        arrays["data"] = data
        arrays["ids"] = ids
    elif isinstance(index, IVFIndexBase):
        meta["nlist"] = index.nlist
        arrays["centroids"] = index.centroids
        snap = index.lists.snapshot()
        arrays["offsets"] = snap.offsets
        arrays["ids"] = snap.ids
        if snap.codes is not None:
            arrays["codes"] = snap.codes
        if isinstance(index, IVFSQ8Index):
            arrays["sq_vmin"] = index.sq.vmin
            arrays["sq_vdiff"] = index.sq.vdiff
        if isinstance(index, IVFPQIndex):
            meta["pq_m"] = index.pq.m
            meta["pq_nbits"] = index.pq.nbits
            arrays["pq_codebooks"] = index.pq.codebooks
        if isinstance(index, IVFOPQIndex):
            meta["opq_iters"] = index.opq_iters
            arrays["opq_rotation"] = index.rotation

    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return npz_bytes(arrays)


def index_from_bytes(blob: bytes) -> VectorIndex:
    """Reconstruct an index serialized by :func:`index_to_bytes`."""
    with np.load(io.BytesIO(blob)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        itype = meta["index_type"]
        dim = meta["dim"]
        metric = meta["metric"]

        if itype == "FLAT":
            index = FlatIndex(dim, metric=metric)
            if len(archive["ids"]):
                index.add(archive["data"], ids=archive["ids"])
            return index
        if itype == "BIN_FLAT":
            index = BinaryFlatIndex(dim, metric=metric)
            if len(archive["ids"]):
                index.add(archive["data"], ids=archive["ids"])
            return index

        nlist = meta["nlist"]
        if itype == "IVF_FLAT":
            index = IVFFlatIndex(dim, metric=metric, nlist=nlist)
        elif itype == "IVF_SQ8":
            index = IVFSQ8Index(dim, metric=metric, nlist=nlist)
        elif itype == "IVF_PQ":
            index = IVFPQIndex(
                dim, metric=metric, nlist=nlist,
                m=meta["pq_m"], nbits=meta["pq_nbits"],
            )
        elif itype == "IVF_OPQ":
            index = IVFOPQIndex(
                dim, metric=metric, nlist=nlist,
                m=meta["pq_m"], nbits=meta["pq_nbits"],
                opq_iters=meta["opq_iters"],
            )
        else:  # pragma: no cover - guarded by SERIALIZABLE_TYPES
            raise TypeError(f"unknown serialized index type {itype!r}")

        index.centroids = archive["centroids"]
        if itype == "IVF_SQ8":
            index.sq.vmin = archive["sq_vmin"]
            index.sq.vdiff = archive["sq_vdiff"]
        if itype in ("IVF_PQ", "IVF_OPQ"):
            index.pq.codebooks = archive["pq_codebooks"]
        if itype == "IVF_OPQ":
            index.rotation = archive["opq_rotation"]
        index._trained = True
        if "offsets" in archive:
            counts, ids = np.diff(archive["offsets"]), archive["ids"]
            codes = archive["codes"] if len(ids) else None
        else:
            per_bucket = [archive[f"ids__{b}"] for b in range(nlist)]
            counts = np.array([len(part) for part in per_bucket])
            ids = np.concatenate(per_bucket)
            codes = np.concatenate(
                [archive[f"codes__{b}"] for b in np.flatnonzero(counts)]
            ) if len(ids) else None
        index.lists.append(counts, ids, codes)
        index._ntotal = len(ids)
        return index
