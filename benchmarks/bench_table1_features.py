"""Table 1: system feature comparison.

Regenerates the paper's feature matrix from live capability probes of
each engine class built in this repo.
"""

from __future__ import annotations

from repro.baselines import (
    CAPABILITY_KEYS,
    LibraryStyleEngine,
    MilvusEngine,
    RelationalVectorEngine,
    SPTAGLikeEngine,
    VearchLikeEngine,
)
from repro.bench import print_table

#: engine factory per Table 1 row (paper row -> architectural stand-in).
ENGINES = {
    "Faiss (library)": lambda: LibraryStyleEngine(nlist=64),
    "SPTAG (tree)": lambda: SPTAGLikeEngine(n_trees=8),
    "Vearch (service)": lambda: VearchLikeEngine(nlist=64),
    "AnalyticDB-V/PASE (relational)": lambda: RelationalVectorEngine(use_index=True),
    "Milvus (this repro)": lambda: MilvusEngine(nlist=64),
}


def build_feature_matrix():
    headers = ["System"] + [key.replace("_", " ") for key in CAPABILITY_KEYS]
    rows = []
    for name, factory in ENGINES.items():
        rows.append([name, *factory().capability_row()])
    return headers, rows


def test_milvus_row_is_all_yes():
    __, rows = build_feature_matrix()
    milvus_row = next(r for r in rows if r[0].startswith("Milvus"))
    assert all(cell == "yes" for cell in milvus_row[1:])


def test_every_baseline_misses_something():
    __, rows = build_feature_matrix()
    for row in rows:
        if row[0].startswith("Milvus"):
            continue
        assert "no" in row[1:], f"{row[0]} should lack at least one feature"


def main():
    headers, rows = build_feature_matrix()
    print_table(headers, rows, title="Table 1: system comparison (live capability probes)")


if __name__ == "__main__":
    main()
