"""Mixed read/write: inline vs background flush engine.

The tentpole claim of the background write engine, measured: with the
flusher off the write path, an insert that lands on the freeze
threshold pays an O(1) hand-off instead of segment persistence, so
insert tail latency (p99) drops — while queries return bit-identical
results, because the background engine seals the exact same frozen
arrays the inline one does, in the same FIFO order.  The checks assert
the mechanism — which thread persists each flush — and the identical
results; main prints the latencies.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bench import print_table
from repro.datasets import random_queries, sift_like
from repro.storage import InMemoryObjectStore, LSMConfig, LSMManager, TieredMergePolicy

DIM = 32
BATCHES = 60
BATCH_ROWS = 250
NUM_QUERIES = 50
K = 10
#: ~5-6 batches of float32[250, 32] per memtable -> ~10 freezes a run
FLUSH_BYTES = 160 << 10

SPECS = {"emb": (DIM, "l2")}


def build_lsm(background):
    cfg = LSMConfig(
        memtable_flush_bytes=FLUSH_BYTES,
        index_build_min_rows=1 << 30,
        merge_policy=TieredMergePolicy(merge_factor=4, min_segment_bytes=1),
        auto_merge=True,
        background=background,
    )
    return LSMManager(SPECS, (), cfg, fs=InMemoryObjectStore())


def run_mode(background, data):
    """Ingest all batches, recording per-insert wall time; then query."""
    lsm = build_lsm(background)
    flushed_on = []
    flush = lsm._process_flush_locked

    def recording_flush(fid):
        flushed_on.append(threading.current_thread().name)
        flush(fid)

    lsm._process_flush_locked = recording_flush
    insert_seconds = []
    started = time.perf_counter()
    for b in range(BATCHES):
        sl = slice(b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
        t0 = time.perf_counter()
        lsm.insert(np.arange(sl.start, sl.stop), {"emb": data[sl]})
        insert_seconds.append(time.perf_counter() - t0)
    lsm.flush()  # barrier: all frozen memtables sealed
    ingest_seconds = time.perf_counter() - started
    if background:
        lsm.close()
    queries = random_queries(data, NUM_QUERIES, seed=1)
    t0 = time.perf_counter()
    result = lsm.search("emb", queries, K)
    query_qps = NUM_QUERIES / (time.perf_counter() - t0)
    lat = np.asarray(insert_seconds)
    return {
        "mode": "background" if background else "inline",
        "p50": float(np.percentile(lat, 50)),
        "p99": float(np.percentile(lat, 99)),
        "qps": query_qps,
        "seconds": ingest_seconds,
        "counters": {
            "flush_count": lsm.flush_count,
            "merge_count": lsm.merge_count,
            "live_segments": len(lsm.manifest.live_segment_ids()),
        },
        "flushed_on": flushed_on,
    }, result


def run_comparison():
    data = sift_like(BATCHES * BATCH_ROWS, dim=DIM, seed=0)
    inline_row, inline_res = run_mode(False, data)
    bg_row, bg_res = run_mode(True, data)
    identical = bool(
        np.array_equal(inline_res.ids, bg_res.ids)
        and np.array_equal(inline_res.scores, bg_res.scores)
    )
    return [inline_row, bg_row], identical


@pytest.fixture(scope="module")
def comparison():
    return run_comparison()


def test_query_results_bit_identical(comparison):
    __, identical = comparison
    assert identical


def test_background_does_equivalent_flush_work(comparison):
    rows, __ = comparison
    inline, bg = rows
    assert bg["counters"]["flush_count"] == inline["counters"]["flush_count"]
    assert bg["counters"]["live_segments"] == inline["counters"]["live_segments"]


def test_background_flushes_off_the_writer_thread(comparison):
    """The insert p99 gain (printed by main) comes from here: inline,
    the writer persists every segment itself; with the flusher on, it
    persists none."""
    rows, __ = comparison
    inline, bg = rows
    writer = threading.current_thread().name
    assert inline["flushed_on"] and set(inline["flushed_on"]) == {writer}
    assert bg["flushed_on"] and set(bg["flushed_on"]) == {"lsm-flusher"}


def main():
    print("=== Mixed read/write: inline vs background flush ===")
    print(f"  ({BATCHES} batches x {BATCH_ROWS} rows, dim={DIM}, "
          f"freeze every ~{FLUSH_BYTES // (BATCH_ROWS * DIM * 4)} batches)")
    rows, identical = run_comparison()
    print_table(
        ["mode", "insert p50 (ms)", "insert p99 (ms)", "ingest (s)", "query qps"],
        [
            (r["mode"], f"{r['p50'] * 1e3:.3f}", f"{r['p99'] * 1e3:.3f}",
             f"{r['seconds']:.2f}", f"{r['qps']:.1f}")
            for r in rows
        ],
    )
    inline, bg = rows
    print(f"  insert p99 background/inline: {bg['p99'] / inline['p99']:.2f}x")
    print(f"  query results bit-identical: {identical}")


if __name__ == "__main__":
    main()
