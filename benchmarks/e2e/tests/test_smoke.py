"""``--smoke`` drives all four workloads end to end in seconds."""

import json
import os
import subprocess
import sys
import time

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
RUN = os.path.join(E2E, "run.py")


def run(*args, env=None):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, timeout=170,
    )


def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_smoke_runs_every_workload_under_thirty_seconds(tmp_path):
    out = tmp_path / "results.json"
    started = time.monotonic()
    done = run("--smoke", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    results = json.loads(out.read_text())
    decl = declaration()
    assert [r["workload"] for r in results] == [w["name"] for w in decl["workloads"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert result["env"]["repro_env"] == []
        for metric in decl["end_to_end"]:
            assert result["metrics"][metric["name"]] > 0, metric["name"]
    mixed = results[-1]
    assert mixed["metrics"]["insert_p95_ms"] is not None
    assert elapsed < 30, elapsed


def test_contract_line_and_scrubbed_environment():
    env = dict(os.environ, REPRO_OBS="1", REPRO_PARALLEL="1")
    done = run("--smoke", "--workload", "search_filtered", "--seed", "3",
               "--seconds", "1", "--trace", "0", env=env)
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    decl = declaration()
    assert list(line["metrics"]) == [m["name"] for m in decl["end_to_end"]]
    units = {m["name"]: m["unit"] for m in decl["end_to_end"]}
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0


def test_traced_run_separates_read_and_write_layers():
    done = run("--smoke", "--workload", "mixed_rw", "--trace")
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    decl = declaration()
    assert list(line["metrics"]) == [m["name"] for m in decl["per_layer"]]
    value = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert value["storage.wal.append_us"] > 0          # write path fired
    assert value["index.self_us"] > 0                  # read path fired
    assert value["storage.attributes.self_us"] == 0    # no filter: never fired
    assert value["storage.lsm.flush_count"] >= 1
    assert value["trace.coverage"] >= 0.9


def test_unknown_workload_is_refused():
    assert run("--workload", "nope").returncode != 0
