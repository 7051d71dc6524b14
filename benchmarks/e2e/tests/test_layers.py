"""Stall partition and per-request aggregation over synthetic spans."""

from trace import Span

import layers


def sp(sid, name, start, end, parent, rid):
    return Span(sid, name, start, end, parent, rid, 1)


def test_stall_phases_partition_the_insert_after_the_first_marker():
    insert = sp(1, "storage.lsm.insert", 0.0, 10.0, 0, 0)
    inside = [
        sp(2, "storage.wal.append", 0.0, 1.0, 1, 0),
        sp(3, "storage.memtable.to_segment", 2.0, 3.0, 1, 0),
        sp(4, "storage.segment.to_bytes", 3.0, 4.0, 1, 0),
        sp(5, "storage.segment.merge", 5.0, 6.0, 1, 0),
        sp(6, "storage.segment.build_index", 8.0, 9.5, 1, 0),
    ]
    assert layers.stall_phases(insert, inside) == {
        "flush": 3.0, "merge": 3.0, "build": 2.0}
    assert layers.stall_phases(insert, inside[:1]) == {}


def test_analyse_splits_layers_by_request_kind_and_window():
    spans = [
        # a search request: 0..10, rest 1..9, index 3..7
        sp(0, "request", 0.0, 10.0, None, 0),
        sp(1, "codec.json", 0.0, 1.0, 0, 0),
        sp(2, "client.rest", 1.0, 9.0, 0, 0),
        sp(3, "index", 3.0, 7.0, 2, 0),
        sp(4, "codec.json", 9.0, 10.0, 0, 0),
        # an insert request with one stalled lsm.insert
        sp(5, "request", 20.0, 30.0, None, 1),
        sp(6, "client.rest", 20.0, 30.0, 5, 1),
        sp(7, "storage.lsm.insert", 21.0, 29.0, 6, 1),
        sp(8, "storage.memtable.to_segment", 23.0, 24.0, 7, 1),
        # a search before the window: ignored
        sp(9, "request", -5.0, -4.0, None, 2),
        sp(10, "client.rest", -5.0, -4.0, 9, 2),
    ]
    kinds = {0: "search", 1: "insert", 2: "search"}
    m, share, counts = layers.analyse(spans, kinds, (0.0, 100.0))
    assert m["codec.json.self_us"] == 2.0e6 and counts["codec.json.self_us"] == 1
    assert m["client.rest.self_us"] == 4.0e6
    assert m["index.self_us"] == 4.0e6
    assert m["storage.attributes.self_us"] is None      # never fired
    assert m["stack.overhead_ratio"] == 0.6
    assert m["client.rest.insert_self_us"] == 2.0e6
    assert m["storage.lsm.stalled_inserts"] == 1
    assert m["storage.lsm.flush_s"] == 6.0
    assert m["index.build_count"] == 0                   # inserts fired, no build
    assert m["trace.coverage"] == 1.0
    assert share == {"codec.json": 0.2, "client.rest": 0.4, "index": 0.4}
