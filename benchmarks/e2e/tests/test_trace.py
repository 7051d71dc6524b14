"""Span self-time arithmetic, and install/uninstall of the wrappers."""

import threading

import pytest

from trace import Span, TraceTargetError, Tracer, self_times

import repro.storage.segment as segment_module
from repro.storage.bufferpool import BufferPool
from repro.storage.segment import Segment


def span(sid, start, end, parent=None, thread=1, name="s"):
    return Span(sid, name, start, end, parent, 0, thread)


class TestSelfTime:
    def test_nested(self):
        spans = [span(0, 0, 10), span(1, 2, 8, parent=0), span(2, 3, 5, parent=1)]
        assert self_times(spans) == {0: 4, 1: 4, 2: 2}

    def test_siblings(self):
        spans = [span(0, 0, 10), span(1, 1, 3, parent=0), span(2, 6, 9, parent=0)]
        assert self_times(spans)[0] == 10 - 2 - 3

    def test_cross_thread_children_overlap(self):
        # children on two other threads overlap in [4, 6]: the parent's
        # interval they cover is the union [2, 8], not the sum 4 + 4
        spans = [
            span(0, 0, 10, thread=1),
            span(1, 2, 6, parent=0, thread=2),
            span(2, 4, 8, parent=0, thread=3),
        ]
        selfs = self_times(spans)
        assert selfs[0] == 4
        assert selfs[1] == selfs[2] == 4

    def test_child_outliving_parent_is_clipped(self):
        spans = [span(0, 0, 10), span(1, 8, 15, parent=0, thread=2)]
        assert self_times(spans)[0] == 8

    def test_recorded_tree(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.request("search") as rid:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].sid
        assert by_name["outer"].parent == by_name["request"].sid
        assert by_name["request"].parent is None
        assert {s.rid for s in tracer.spans} == {rid}
        assert tracer.request_kinds[rid] == "search"
        selfs = self_times(tracer.spans)
        # clock ticks: request 0..5, outer 1..4, inner 2..3
        assert selfs[by_name["request"].sid] == 2
        assert selfs[by_name["outer"].sid] == 2
        assert selfs[by_name["inner"].sid] == 1

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(kind):
            with tracer.request(kind):
                barrier.wait(timeout=5)
                with tracer.span("leaf"):
                    pass

        threads = [threading.Thread(target=work, args=(k,)) for k in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        roots = {s.rid: s for s in tracer.spans if s.name == "request"}
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        assert len(roots) == len(leaves) == 2
        for leaf in leaves:
            assert leaf.parent == roots[leaf.rid].sid
            assert leaf.thread == roots[leaf.rid].thread


class TestInstall:
    TARGETS = (
        ("storage.bufferpool", "repro.storage.bufferpool:BufferPool.get"),
        ("storage.segment.merge", "repro.storage.segment:Segment.merge"),
        ("metrics.pairwise", "repro.storage.segment:l2_squared_pairwise"),
    )

    def test_install_wraps_and_uninstall_restores(self):
        before = (
            vars(BufferPool)["get"], vars(Segment)["merge"],
            segment_module.l2_squared_pairwise,
        )
        tracer = Tracer()
        tracer.install(self.TARGETS)
        try:
            assert vars(BufferPool)["get"] is not before[0]
            assert isinstance(vars(Segment)["merge"], classmethod)
            assert vars(Segment)["merge"] is not before[1]
            assert segment_module.l2_squared_pairwise.__wrapped__ is before[2]
            pool = BufferPool(1 << 20, loader=lambda seg_id: None)
            with pytest.raises(RuntimeError):
                pool.unpin(7)           # untouched method still works
        finally:
            tracer.uninstall()
        after = (
            vars(BufferPool)["get"], vars(Segment)["merge"],
            segment_module.l2_squared_pairwise,
        )
        assert all(a is b for a, b in zip(before, after))

    def test_wrapped_call_records_a_span(self):
        tracer = Tracer()
        tracer.install(self.TARGETS[:1])
        try:
            sentinel = object()
            pool = BufferPool(1 << 20, loader=lambda seg_id: sentinel)
            with pytest.raises(AttributeError):
                pool.get(3)             # the loader's object is no Segment
        finally:
            tracer.uninstall()
        assert [s.name for s in tracer.spans] == ["storage.bufferpool"]

    @pytest.mark.parametrize("target", [
        "repro.storage.segment:Segment.no_such_method",
        "repro.no_such_module:thing",
        "repro.storage.segment:NoSuchClass.search",
        "repro.storage.segment:Segment._brute_force",    # not public
        "repro.index.ivf_flat:IVFFlatIndex.search",      # inherited, not defined
        "repro.storage.segment",                         # no qualname
    ])
    def test_unresolved_target_is_a_hard_error(self, target):
        before = vars(BufferPool)["get"]
        tracer = Tracer()
        with pytest.raises(TraceTargetError):
            tracer.install(self.TARGETS[:1] + (("x", target),))
        # all-or-nothing: the resolvable first target was not patched
        assert vars(BufferPool)["get"] is before

    def test_benchmark_targets_all_resolve(self):
        import layers

        tracer = Tracer()
        tracer.install(layers.TARGETS)
        tracer.uninstall()
