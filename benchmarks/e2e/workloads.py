"""The four workloads, and the two sizes (full, smoke) they run at.

Each ``why`` is the reason the workload exists: which layers dominate
it, so which changes should move it and which should not.  The same
text is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from loadgen import MIN_BEYOND

COLLECTION = "bench"
FIELD = "emb"
NLIST = 128

#: mixed_rw writer: open loop, fixed rate, fixed batch; after every
#: DELETE_EVERY-th batch one delete of DELETE_ROWS seeded earlier ids.
#: 600 rows/s keeps the writer about a third busy, fsyncs and stalls
#: included: an open loop much nearer saturation falls behind whenever
#: the sandbox slows, and then every number measures the backlog.
WRITE_RATE = 50.0
WRITE_BATCH_ROWS = 12
DELETE_EVERY = 10
DELETE_ROWS = 20
#: mixed_rw flush policy, the same on both sides of any comparison.
#: A 128 KiB memtable seals ~480 rows (~120 KiB compressed, the middle
#: of tier 3 of the default tiered merge policy, so the merge schedule
#: does not depend on the seed): a 10 s window completes 12 flushes and
#: three tier-4 merges.  See FULL.mixed_rows for the fourth merge.
MIXED_MEMTABLE_BYTES = 128 * 1024
#: rows per insert request during set-up
SETUP_BATCH_ROWS = 1000
MIXED_SETUP_BATCH_ROWS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nq: int
    nprobe: int
    #: the highest percentile the window supports (>= 10 samples beyond
    #: it), fixed per workload so two runs always compare like with like
    tail_pct: int
    #: the tail is the median over this many time slices of the slice's
    #: percentile: as many as still leave every slice its 10 samples
    #: beyond, so one hiccup in the window cannot set the reported tail
    tail_slices: int = 1
    pass_fractions: Tuple[float, ...] = ()
    mixed: bool = False
    #: the run fails below this recall (full profile only)
    recall_floor: Optional[float] = None

    @property
    def threads(self) -> int:
        """Load-generator threads; a run is refused when above nproc."""
        return 2 if self.mixed else 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "search_single",
        "nq=1 nprobe=8: fixed per-request cost dominates (codec, REST, SDK, "
        "Collection, LSM, segment wrappers); stack-overhead changes show "
        "here, kernel changes should not",
        nq=1, nprobe=8, tail_pct=99, tail_slices=5, recall_floor=0.85,
    ),
    Workload(
        "search_batch",
        "nq=64 nprobe=32: GEMM, gather and top-k in index and metrics do "
        "nearly all the work; list-layout and kernel changes show here, "
        "wrapper trimming should not",
        nq=64, nprobe=32, tail_pct=95, recall_floor=0.95,
    ),
    Workload(
        "search_filtered",
        "nq=8 nprobe=16, range filters passing 1%/10%/50% cycled: attribute "
        "lookup, admissible set and pushdown dominate; the only workload "
        "where filtering changes show",
        nq=8, nprobe=16, tail_pct=95, tail_slices=3,
        pass_fractions=(0.01, 0.10, 0.50),
    ),
    Workload(
        "mixed_rw",
        "open-loop writer (WAL, memtable, flush, merge, index build, "
        "deletes) beside a closed-loop nq=1 reader on local disk: a read "
        "gain that taxes ingest, or the reverse, shows only here",
        nq=1, nprobe=8, tail_pct=99, mixed=True,
    ),
)}


@dataclass(frozen=True)
class Profile:
    name: str
    rows: int            #: collection size of the three search workloads
    mixed_rows: int      #: rows preloaded before the mixed_rw window
    setups: int          #: set-ups per untraced run; setup_s is their median
    warmup_s: float
    query_pool: int      #: held-out queries cycled by the readers
    recoveries: int      #: restarts per run; recovery_s is their median
    explain_requests: int
    gate_recall: bool
    #: samples that must lie beyond a percentile for it to be reported
    min_beyond: int


#: 14000 preloaded rows (28 flushes of 500) leave one 8k-row tier-5
#: segment and three 2k-row tier-4 segments, so the window's first
#: tier-4 merge (~3 s in) completes a tier-5 merge and its automatic
#: index build: one ~1 s stall with time to drain, and no tier-6 cascade
#: rewriting the whole collection.
FULL = Profile(
    "full", rows=30000, mixed_rows=14000, setups=3, warmup_s=1.5,
    query_pool=1024, recoveries=5, explain_requests=50, gate_recall=True,
    min_beyond=MIN_BEYOND,
)
#: small N, short windows: exercises every code path in seconds
SMOKE = Profile(
    "smoke", rows=4000, mixed_rows=3000, setups=1, warmup_s=0.2,
    query_pool=128, recoveries=1, explain_requests=5, gate_recall=False,
    min_beyond=1,
)
