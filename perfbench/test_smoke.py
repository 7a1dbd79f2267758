"""Smoke test of the benchmark itself.

Every workload runs at a tiny size through the same set-up, measure and
trace code as a full run; a worker killed by `--inject-fail` counts as a
lost shard; self time is checked on a hand-built span tree.

    python3 -m pytest perfbench/test_smoke.py
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from prodretrieve.rerank import RerankParams  # noqa: E402
from tracing import Tracer, installed, layer_metrics, read_spans, self_times  # noqa: E402

TINY = {
    "search_100k": workloads.Synthetic(40, 20, 1, 16, 0.15, frozen_mar=None, setup_reps=2),
    "rerank_1000": workloads.Synthetic(12, 5, 2, 16, 0.35, frozen_mar=None, setup_reps=2,
                                       rerank=RerankParams(8, 3, 0.3)),
    # the shipped pipeline steps are small already, so their frozen MAR@10 holds
    "pipeline_mining": workloads.Pipeline(100, 12, 64, 0.07, threshold=0.8, target=300,
                                          frozen_mar=(0.96875, 0.9708333), setup_reps=2),
}

EXPECTED = {
    "search_100k": {"search.distance_s", "search.distance_s_threads2", "search.topk_s",
                    "embed_store.load_rss_delta_mb", "evalbench.gen_s"},
    "rerank_1000": {"rerank.rerank_s", "rerank.dense_mb", "rerank.joint_items"},
    "pipeline_mining": {"harness.worker_s_max", "harness.coordinate_s", "rerank.merge_s",
                        "rerank.shard_mb", "ensemble.vote_s", "pseudolabel.components",
                        "cli.step_s.assign-mining", "cli.resume_s"},
}


@pytest.fixture
def cli_env(monkeypatch):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    monkeypatch.setenv("PYTHONPATH", path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_plain_and_traced(name, tmp_path, cli_env):
    workload, inputs = TINY[name], tmp_path / "inputs"
    setup = workloads.setup_phase(workload, 7, inputs, 2, Tracer("plain"))
    assert len(setup["setup_s"]) == 2
    plain = workloads.measure_phase(workload, 7, inputs, tmp_path / "plain", 0, Tracer("plain"))
    assert plain["failed"] == 0 and plain["attempted"] > 0, plain["failures"]
    assert len(plain["run_s"]) == 1 and plain["peak_rss_mb"] > 0

    tracer, spans_dir = Tracer("smoke"), tmp_path / "spans"
    with installed(tracer):
        workloads.setup_phase(workload, 7, inputs, 1, tracer)
        traced = workloads.measure_phase(workload, 7, inputs, tmp_path / "traced", 0,
                                         tracer, spans_dir)
    tracer.write(spans_dir)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["notes"] == plain["notes"]

    steps = [s["name"] for s in workload.config(7)["steps"]] if name == "pipeline_mining" else []
    metrics, absent = layer_metrics(read_spans(spans_dir), steps)
    assert EXPECTED[name] <= set(metrics), absent
    assert not set(metrics) & set(absent)
    if name == "pipeline_mining":
        assert metrics["harness.neighbour_builds"] == 4
        assert metrics["harness.useful_build_ratio"] == 0.25
        assert metrics["cli.steps_skipped"] == traced["notes"]["resume_skipped"]
        assert {f"cli.step_s.{s}" for s in steps} <= set(metrics)


def test_injected_worker_failure_counts_as_lost_shard(tmp_path, cli_env):
    def cli(*args):
        cmd = [sys.executable, "-m", "prodretrieve", *map(str, args)]
        return subprocess.run(cmd, capture_output=True, timeout=120).returncode

    g, q, job = tmp_path / "g.emb", tmp_path / "q.emb", tmp_path / "job"
    assert cli("gen-synth", "--classes", 8, "--gallery-per-class", 4, "--queries-per-class", 2,
               "--dim", 8, "--noise", 0.1, "--seed", 7, "--out-gallery", g,
               "--out-queries", q, "--out-gt", tmp_path / "gt.jsonl") == 0
    assert cli("shard", "--queries", q, "--gallery", g, "--n-shards", 2, "--k1", 5, "--k2", 2,
               "--job-dir", job) == 0
    assert cli("worker", "--manifest", job / "manifest.json", "--shard", 0, "--inject-fail") != 0
    assert cli("worker", "--manifest", job / "manifest.json", "--shard", 1) == 0
    missing = tmp_path / "missing.json"
    assert cli("merge", "--job-dir", job, "--out", tmp_path / "lists.jsonl",
               "--missing", missing) == 0

    tally = workloads.Tally()
    tally.count(*workloads.shard_outcomes(job / "manifest.json", missing), "shards")
    assert (tally.attempted, tally.failed) == (2, 1)


def _span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "run": "r", "name": name, "start_ns": start,
            "end_ns": end, "cpu_ns": 0, "rss_rise_kb": 0, "attrs": {}}


def test_self_time_on_hand_built_tree():
    spans = [
        _span("root", None, "bench.iteration", 0, 100),
        _span("a", "root", "search.topk", 10, 40),
        _span("b", "root", "search.topk", 30, 60),  # overlaps a
        _span("c", "root", "rerank.merge_shard_results", 90, 120),  # outlives its parent
        _span("a1", "a", "embed_store.row_norms", 15, 20),
    ]
    assert self_times(spans) == {"root": 40, "a": 25, "b": 30, "c": 30, "a1": 5}
    metrics, _ = layer_metrics(spans, [])
    assert metrics["search.self_s"] == 55e-9
    assert metrics["embed_store.self_s"] == 5e-9
    assert metrics["rerank.self_s"] == 30e-9
    assert metrics["search.topk_s"] == 60e-9  # both calls are outermost


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
