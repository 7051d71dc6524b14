"""Percentile support rule, closed-loop cycling, open-loop due times."""

import numpy as np

from loadgen import Request, closed_loop, latencies_ms, open_loop, percentile


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        values = np.arange(1000.0)
        assert percentile(values, 99) is not None       # 10 beyond
        assert percentile(values[:999], 99) is not None
        assert percentile(values[:900], 99) is None     # 9 beyond
        assert percentile(values[:900], 95) is not None

    def test_median_needs_twenty(self):
        assert percentile(np.arange(19.0), 50) is None
        assert percentile(np.arange(21.0), 50) == 10.0

    def test_empty_and_override(self):
        assert percentile([], 50) is None
        assert percentile([1.0, 2.0, 3.0], 50, min_beyond=1) == 2.0

    def test_ties_do_not_count_as_beyond(self):
        # 95 equal samples and 5 larger: nothing lies beyond p99's value
        # but the 5 largest, which is fewer than ten
        values = [1.0] * 995 + [2.0] * 5
        assert percentile(values, 99) is None


class FakeTime:
    """A clock that only moves when something sleeps or a call 'runs'."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_closed_loop_cycles_from_first_until_told_to_stop():
    requests = [Request("GET", f"/{i}", None) for i in range(3)]
    seen = []

    def call(request):
        seen.append(request.path)
        return 200, "{}"

    samples = closed_loop(call, requests, lambda: len(seen) >= 5, first=2)
    assert seen == ["/2", "/0", "/1", "/2", "/0"]
    assert [s.index for s in samples] == [2, 3, 4, 5, 6]


def test_open_loop_times_from_due_and_reports_lateness():
    fake = FakeTime()
    service = iter([0.25, 0.01, 0.01, 0.01])   # the first call stalls

    def call(request):
        fake.now += next(service)
        return 201, "{}"

    schedule = [(i * 0.1, Request("POST", "/x", "{}", "insert")) for i in range(4)]
    samples = open_loop(call, schedule, clock=fake.clock, sleep=fake.sleep)

    due = [round(s.start - 100.0, 6) for s in samples]
    assert due == [0.0, 0.1, 0.2, 0.3]                # the schedule, not the sends
    lateness = [round(s.sent - s.start, 6) for s in samples]
    # request 1 was due at 0.1 but the stall held the generator to 0.25;
    # request 2 (due 0.2) went out at 0.26; request 3 was on time again
    assert lateness == [0.0, 0.15, 0.06, 0.0]
    latency = [round(v, 3) for v in latencies_ms(samples)]
    assert latency == [250.0, 160.0, 70.0, 10.0]      # stall counted on 1 and 2
    assert [round(s, 6) for s in fake.slept] == [0.03]  # only before request 3


def test_open_loop_sends_a_zero_slack_follow_up_immediately():
    fake = FakeTime()

    def call(request):
        fake.now += 0.02
        return 200, "{}"

    insert = Request("POST", "/x", "{}", "insert")
    delete = Request("DELETE", "/x", "{}", "delete")
    samples = open_loop(
        call, [(0.0, insert), (0.0, delete), (0.1, insert)],
        clock=fake.clock, sleep=fake.sleep)
    assert round(samples[1].sent - samples[1].start, 6) == 0.02
    assert round(samples[2].sent - samples[2].start, 6) == 0.0
