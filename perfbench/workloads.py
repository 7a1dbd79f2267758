"""The benchmark's workloads: seeded set-up, one closed-loop job, output checks.

run.py starts this file as a child process, once to set up and once to
measure, so that each phase has its own peak RSS:

    python3 perfbench/workloads.py setup   WORKLOAD SEED WORKDIR REPS
    python3 perfbench/workloads.py measure WORKLOAD SEED WORKDIR SECONDS

With `--spans DIR --run-id ID` the calls into prodretrieve are traced and
the spans written under DIR; a traced `measure` also makes the comparison
calls that only the per-layer metrics use. Each phase prints one JSON
object as the last line of standard output. prodretrieve must be
importable, which run.py arranges through PYTHONPATH.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prodretrieve import embed_store, evalbench, harness, rerank, search
from tracing import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER_CONFIG = ROOT / "configs" / "paper_pipeline.json"
K = 10
FROZEN_SEED = 7  # the seed at which the frozen MAR@10 values hold
MAR_TOL = 1e-6
SAMPLED_QUERIES = 50
PIPELINE_TIMEOUT_S = 120
SETUP_BLOCK_S = 0.5


class Tally:
    """Operations attempted and failed: pipeline steps, shards and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.count(1, 0 if ok else 1, what)
        return ok


def run_process(cmd, timeout: float) -> tuple[int, str]:
    """Run `cmd` in its own process group and return (exit code, stdout).

    On timeout the whole group, workers included, is killed and reaped.
    """
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
    return proc.returncode, out


def _check_frozen(tally, seed, frozen, value, what) -> None:
    if seed == FROZEN_SEED and frozen is not None:
        tally.check(abs(value - frozen) < MAR_TOL,
                    f"{what} MAR@10 {value!r} equals the frozen {frozen} at seed {seed}")


def _sample_rows(seed: int, n: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(n, min(SAMPLED_QUERIES, n), replace=False))


def check_topk(matrix, lists, rows, tally) -> None:
    """Sampled ranking lists against a full sort by (distance, id rank).

    Non-negative float32 distances order like their bit patterns, so the
    integer key `bits << 32 | rank of the gallery id` sorts by distance and
    breaks ties by ascending id.
    """
    if not tally.check(len(lists) == len(matrix.query_ids), "one ranking list per query"):
        return
    by_rank = np.argsort(np.asarray(matrix.gallery_ids), kind="stable")
    id_rank = np.empty(len(by_rank), dtype=np.uint64)
    id_rank[by_rank] = np.arange(len(by_rank), dtype=np.uint64)
    for qi in rows:
        row = matrix.values[qi] + np.float32(0.0)  # -0.0 sorts as +0.0
        keys = (row.view(np.uint32).astype(np.uint64) << np.uint64(32)) | id_rank
        cols = by_rank[(np.sort(keys)[:K] & np.uint64(0xFFFFFFFF)).astype(np.int64)]
        expected = tuple((matrix.gallery_ids[j], float(row[j])) for j in cols)
        tally.check(
            row.min() >= 0 and lists[qi].query_id == matrix.query_ids[qi]
            and lists[qi].entries == expected,
            f"top-{K} of {matrix.query_ids[qi]} equals a full sort",
        )


@dataclass(frozen=True)
class Synthetic:
    """`gen_synthetic` inputs written as EMB1 files, then searched or re-ranked.

    With `rerank` set the job is `kreciprocal_rerank`, else it is
    `pairwise_cosine_distance`; `topk` and `mar_at_k` follow either way.
    """

    classes: int
    gallery_per_class: int
    queries_per_class: int
    dim: int
    noise: float
    frozen_mar: float | None
    setup_reps: int
    rerank: rerank.RerankParams | None = None

    def setup(self, out: Path, seed: int) -> None:
        gallery, queries, gt = evalbench.gen_synthetic(
            self.classes, self.gallery_per_class, self.queries_per_class,
            self.dim, self.noise, seed,
        )
        embed_store.save_embeddings(gallery, out / "gallery.emb")
        embed_store.save_embeddings(queries, out / "queries.emb")
        evalbench.save_ground_truth(gt, out / "gt.jsonl")

    def _load(self, inputs: Path):
        return (
            embed_store.load_embeddings(inputs / "queries.emb"),
            embed_store.load_embeddings(inputs / "gallery.emb"),
        )

    def iterate(self, inputs, work, seed, tracer, spans_dir, tally) -> dict:
        queries, gallery = self._load(inputs)
        gt = evalbench.load_ground_truth(inputs / "gt.jsonl")
        if self.rerank is None:
            matrix = search.pairwise_cosine_distance(queries, gallery)
        else:
            matrix = rerank.kreciprocal_rerank(queries, gallery, self.rerank)
        lists = search.topk(matrix, K)
        mar = evalbench.mar_at_k(lists, gt, K).mar_at_k

        rows = _sample_rows(seed, len(queries))
        if self.rerank is None:
            direct = 1.0 - queries.vectors[rows] @ gallery.vectors.T
            tally.check(np.abs(matrix.values[rows] - np.clip(direct, 0.0, 2.0)).max() < 1e-5,
                        "sampled distances equal 1 - q.g")
        check_topk(matrix, lists, rows, tally)
        _check_frozen(tally, seed, self.frozen_mar, mar, "final")
        return {"mar_at_10": mar}

    def extras(self, inputs, work, seed, tracer, tally) -> None:
        if self.rerank is not None:
            return
        queries, gallery = self._load(inputs)
        with tracer.span("bench.threads2"):
            search.pairwise_cosine_distance(queries, gallery, threads=2)


@dataclass(frozen=True)
class Pipeline:
    """`prodretrieve pipeline` as a subprocess: the shipped paper config with
    its seeds rewritten, four pseudo-label mining steps, then `--resume`."""

    mining_classes: int
    mining_per_class: int
    mining_dim: int
    mining_noise: float
    threshold: float
    target: int
    frozen_mar: tuple[float, float] | None  # (fused, voted)
    setup_reps: int

    def config(self, seed: int) -> dict:
        with open(PAPER_CONFIG, encoding="utf-8") as fh:
            config = json.load(fh)
        config.pop("workdir", None)
        for step in config["steps"]:
            if step["op"] == "gen-synth":
                step["params"]["seed"] = seed
        config["steps"] += [
            {"name": "gen-mining", "op": "gen-synth",
             "params": {"classes": self.mining_classes,
                        "gallery-per-class": self.mining_per_class,
                        "queries-per-class": 1, "dim": self.mining_dim,
                        "noise": self.mining_noise, "seed": seed},
             "outputs": {"out-gallery": "mining.emb", "out-queries": "mining_q.emb",
                         "out-gt": "mining_gt.jsonl"}},
            {"name": "cluster-mining", "op": "cluster",
             "params": {"threshold": self.threshold},
             "inputs": {"in": "mining.emb"}, "outputs": {"out": "mining_clusters.json"}},
            {"name": "filter-mining", "op": "filter-clusters",
             "inputs": {"in": "mining_clusters.json"}, "outputs": {"out": "mining_kept.json"}},
            {"name": "assign-mining", "op": "assign-labels",
             "params": {"target": self.target, "seed": seed},
             "inputs": {"clusters": "mining_kept.json"}, "outputs": {"out": "mining_labels.jsonl"}},
        ]
        return config

    def setup(self, out: Path, seed: int) -> None:
        with open(out / "pipeline.json", "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh, indent=1)

    def _run(self, inputs, work, tracer, spans_dir, resume, tally):
        argv = ["pipeline", "--config", str(inputs / "pipeline.json"), "--workdir", str(work)]
        argv += ["--resume"] if resume else []
        with tracer.span("bench.pipeline_resume" if resume else "bench.pipeline") as attrs:
            if spans_dir is None:
                cmd = [sys.executable, "-m", "prodretrieve", *argv]
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir),
                       tracer.run_id, tracer.current(), "--", *argv]
            code, out = run_process(cmd, PIPELINE_TIMEOUT_S)
        steps = json.loads((inputs / "pipeline.json").read_text())["steps"]
        lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        done = min(len(lines), len(steps))
        failed = 0 if code == 0 and len(lines) == len(steps) + 1 else 1
        tally.count(done + failed, failed, "pipeline --resume steps" if resume else "pipeline steps")
        return steps, dict(zip((s["name"] for s in steps), lines[:done])), attrs

    def iterate(self, inputs, work, seed, tracer, spans_dir, tally) -> dict:
        steps, status, _ = self._run(inputs, work, tracer, spans_dir, False, tally)
        for step in steps:
            name = step["name"]
            if step["op"] == "coordinate" and name in status:
                tally.check(status[name].get("n_missing") == 0, f"{name} reports n_missing = 0")
                missing = step["outputs"].get("missing")
                n, lost = shard_outcomes(work / step["inputs"]["manifest"],
                                         work / missing if missing else None)
                tally.count(n, lost, f"{name} shards")
        assign = status.get("assign-mining")
        if assign is not None:
            kept = json.loads((work / "mining_kept.json").read_text())["clusters"]
            tally.check(assign["n_classes"] == self.target, "assign-labels n_classes = target")
            tally.check(
                assign["n_cluster_classes"] == len(kept)
                and assign["n_images"] == sum(map(len, kept)) + assign["n_singleton_classes"],
                "assign-labels n_images = clustered images + singletons",
            )
        fused = status.get("eval-fused", {}).get("mar_at_k")
        voted = status.get("eval-voted", {}).get("mar_at_k")
        if tally.check(fused is not None and voted is not None, "both eval steps report MAR@10"):
            frozen = self.frozen_mar or (None, None)
            _check_frozen(tally, seed, frozen[0], fused, "fused")
            _check_frozen(tally, seed, frozen[1], voted, "voted")

        _, status, attrs = self._run(inputs, work, tracer, spans_dir, True, tally)
        rerun = []
        for step in steps:
            outputs = [work / p for p in step.get("outputs", {}).values()]
            if not outputs or step["name"] not in status:
                continue
            skipped = status[step["name"]].get("skipped") is True
            if any(p.is_dir() for p in outputs):
                # resume hashes files only, so a step whose output is a
                # directory (a shard job) always runs again
                rerun += [] if skipped else [step["name"]]
            else:
                tally.check(skipped, f"{step['name']} is skipped on --resume")
        attrs["skipped"] = sum(1 for s in status.values() if s.get("skipped") is True)
        return {"mar_at_10": fused, "mar_at_10_voted": voted,
                "resume_skipped": attrs["skipped"], "resume_reran_dir_output": rerun}

    def extras(self, inputs, work, seed, tracer, tally) -> None:
        """Re-run the fused shard job in-process, with its shard count and with
        one shard, and check both against the pipeline's merged lists."""
        steps = json.loads((inputs / "pipeline.json").read_text())["steps"]
        step = next(s for s in steps if s["name"] == "shard-fused")
        p = step["params"]
        params = rerank.RerankParams(p["k1"], p["k2"], p["lam"])
        merged = (work / "fused_lists.jsonl").read_bytes()
        for n_shards, span in ((p["n-shards"], "bench.shards"), (1, "bench.reference")):
            job = work / f"bench_job_{n_shards}"
            with tracer.span(span, n_shards=n_shards):
                manifest = harness.create_job(
                    job, work / step["inputs"]["queries"], work / step["inputs"]["gallery"],
                    params, n_shards=n_shards, depth=p["depth"],
                )
                for shard in range(n_shards):
                    harness.worker_run(job / harness.MANIFEST_NAME, shard)
                results, report = rerank.merge_shard_results(manifest.shards, job)
            tally.count(n_shards, len(report.reasons), f"in-process {n_shards}-shard job shards")
            search.write_ranking_lists(results, job / "lists.jsonl")
            tally.check((job / "lists.jsonl").read_bytes() == merged,
                        f"in-process {n_shards}-shard lists are byte-equal to the pipeline's "
                        f"merged {p['n-shards']}-shard fused lists")


def shard_outcomes(manifest_path: Path, missing_path: Path | None) -> tuple[int, int]:
    """(shards in the job, shards lost) from a job manifest and its missing report."""
    n = json.loads(manifest_path.read_text())["shards"]["n_shards"]
    lost = len(json.loads(missing_path.read_text())["reasons"]) if missing_path else 0
    return n, lost


WORKLOADS = {
    "search_100k": Synthetic(1000, 100, 1, 256, 0.15, frozen_mar=0.4945, setup_reps=3),
    "rerank_1000": Synthetic(100, 4, 6, 64, 0.35, frozen_mar=0.1254167, setup_reps=9,
                             rerank=rerank.RerankParams(30, 10, 0.3)),
    "pipeline_mining": Pipeline(1333, 12, 64, 0.07, threshold=0.8, target=5000,
                                frozen_mar=(0.96875, 0.9708333), setup_reps=9),
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process: this one or a waited-for descendant."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb * 1024 / 1e6


def setup_phase(workload, seed: int, inputs: Path, reps: int, tracer: Tracer,
                block_s: float = SETUP_BLOCK_S) -> dict:
    """`reps` set-up times. Each is the mean over a block of back-to-back
    set-ups lasting at least `block_s`: on a shared 2-vCPU VM the speed of
    short operations swings by half within a tenth of a second, which a
    sub-millisecond set-up would show."""
    inputs.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(reps):
        start, n = time.perf_counter(), 0
        while n == 0 or time.perf_counter() - start < block_s:
            with tracer.span("bench.setup"):
                workload.setup(inputs, seed)
            n += 1
        times.append((time.perf_counter() - start) / n)
    return {"setup_s": times}


def measure_phase(workload, seed, inputs, work, seconds, tracer, spans_dir=None) -> dict:
    """Closed loop: start the job again, once the previous run has finished,
    until `seconds` have passed; at least one run.

    The peak RSS is taken after the first run, as a user running one job in
    a fresh process sees it: later runs in the same process can only add
    what the allocator kept from earlier ones, which varies from run to run.
    """
    tally = Tally()
    run_s, cpu_s, notes, peak_rss_mb = [], [], {}, None
    start = time.monotonic()
    while True:
        it_dir = work / f"iter{len(run_s)}"
        it_dir.mkdir(parents=True)
        cpu = _cpu_s()
        t0 = time.perf_counter()
        with tracer.span("bench.iteration"):
            result = workload.iterate(inputs, it_dir, seed, tracer, spans_dir, tally)
        run_s.append(time.perf_counter() - t0)
        cpu_s.append(_cpu_s() - cpu)
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        if notes:
            tally.check(result == notes, "outputs repeat exactly across runs")
        notes = result
        if spans_dir is not None:
            workload.extras(inputs, it_dir, seed, tracer, tally)
        shutil.rmtree(it_dir)
        if time.monotonic() - start >= seconds:
            break
    return {
        "run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("amount", type=float, help="set-up repetitions, or seconds to measure")
    parser.add_argument("--spans", type=Path, help="trace, and write spans under this directory")
    parser.add_argument("--run-id", default="untraced")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = args.workdir / "inputs"
    tracer = Tracer(args.run_id)
    with installed(tracer) if args.spans else contextlib.nullcontext():
        if args.phase == "setup":
            # a traced set-up is a single one, so its calls are counted once
            result = setup_phase(workload, args.seed, inputs, int(args.amount), tracer,
                                 0.0 if args.spans else SETUP_BLOCK_S)
        else:
            result = measure_phase(workload, args.seed, inputs, args.workdir / "run",
                                   args.amount, tracer, args.spans)
    if args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
