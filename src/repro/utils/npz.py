"""The one writer of the system's blobs: an uncompressed ``.npz``.

Segments (:mod:`repro.storage.segment`) and serialized indexes
(:mod:`repro.index.io`) are both a zip of ``.npy`` entries, stored
without deflate, that ``np.load`` reads back.  Deflate used to cost a
segment 395 ms of a 30k-row flush to save 11 % of its bytes; the
arrays are float vectors and sorted ids, which zlib barely shrinks.
Blobs written deflated by earlier versions still load: ``np.load``
reads either kind of entry.
"""

from __future__ import annotations

import io
import zipfile
from typing import Dict

import numpy as np


def npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """An uncompressed ``.npz`` of ``arrays``, as ``np.savez`` lays it out.

    ``np.savez`` copies each array through ``tobytes()`` on its way into
    the zip; for the codes of a 30k x 64 IVF_FLAT that transient copy is
    7.3 MiB of peak RSS (+4 %).  Here each array's buffer is written
    straight into its entry.
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            with archive.open(name + ".npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(
                    entry, np.lib.format.header_data_from_array_1_0(array)
                )
                entry.write(array.reshape(-1).view(np.uint8))
    return buf.getvalue()
