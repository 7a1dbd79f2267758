"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Frozen regression constants were computed once with the finished
pipeline (plus the naive oracles in oracles.py) and must reproduce within
1e-6 on every re-run.
"""
import contextlib
import time

import numpy as np
import pytest

from oracles import naive_rerank
from prodretrieve.embed_store import (
    EmbeddingSet,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from prodretrieve.ensemble import max_ensemble, vote_ensemble
from prodretrieve.evalbench import GroundTruth, gen_synthetic, mar_at_k
from prodretrieve.harness import (
    MANIFEST_NAME,
    coordinator_run,
    create_job,
    load_manifest,
)
from prodretrieve.pseudolabel import ClusterResult, assign_pseudo_labels
from prodretrieve.rerank import (
    RerankParams,
    kreciprocal_rerank,
    merge_shard_results,
    read_shard_result,
    shard_result_bytes,
)
from prodretrieve.search import (
    DistanceMatrix,
    RankingList,
    pairwise_cosine_distance,
    ranking_to_json,
    topk,
)

# Frozen [DERIVED] constants: computed once on the standard synthetic
# benchmark (200 classes x 10 gallery, 2 queries/class, dim 64, sigma 0.35,
# seed 7; rerank k1=30 k2=10 lambda=0.3) and on the mid-noise variant.
FROZEN_RAW_MAR = 0.042
FROZEN_RERANK_MAR = 0.0465
FROZEN_MID_RAW_MAR = 0.747
FROZEN_MID_RERANK_MAR = 0.985


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def small_instance(seed, n_queries=6, dim=8):
    """6 queries x 30 gallery with genuine cluster structure."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(6, dim))
    gallery_rows = [
        centroids[c] + 0.3 * rng.normal(size=dim)
        for c in range(6) for _ in range(5)
    ]
    query_rows = [
        centroids[c % 6] + 0.3 * rng.normal(size=dim) for c in range(n_queries)
    ]
    gallery = l2_normalize(EmbeddingSet(
        tuple(f"g{i:03d}" for i in range(30)),
        np.asarray(gallery_rows, dtype=np.float32),
    ))
    queries = l2_normalize(EmbeddingSet(
        tuple(f"q{i:03d}" for i in range(n_queries)),
        np.asarray(query_rows, dtype=np.float32),
    ))
    return queries, gallery


def test_1_rerank_oracle_equivalence():
    with criterion(1, "re-ranking matches naive dense oracle"):
        queries, gallery = small_instance(7)
        start = time.perf_counter()
        for k1, k2, lam in [(5, 2, 0.3), (10, 3, 0.0), (10, 3, 1.0)]:
            got = kreciprocal_rerank(queries, gallery, RerankParams(k1, k2, lam))
            expect = naive_rerank(
                queries.vectors.tolist(), gallery.vectors.tolist(), k1, k2, lam
            )
            assert np.abs(got.values - np.asarray(expect)).max() < 1e-5
        assert time.perf_counter() - start < 1.0


def test_2_degenerate_lambda_laws():
    with criterion(2, "lambda degenerate ends"):
        for seed in range(20):
            queries, gallery = small_instance(seed)
            original = pairwise_cosine_distance(queries, gallery)
            identity = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 1.0))
            for a, b in zip(topk(original, 30), topk(identity, 30)):
                assert a.gallery_ids == b.gallery_ids
        # lambda=0 equals pure Jaccard: recover dJ from the convex
        # combination at lambda=0.5 and compare
        queries, gallery = small_instance(3)
        pure = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 0.0))
        mixed = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 0.5))
        original = pairwise_cosine_distance(queries, gallery).values.astype(np.float64)
        recovered = 2.0 * mixed.values.astype(np.float64) - original
        assert np.abs(pure.values - recovered).max() < 1e-6


@pytest.fixture(scope="module")
def shard_job_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acc3")
    gallery, queries, _ = gen_synthetic(16, 4, 4, 16, 0.3, seed=7)  # 64 queries
    qpath, gpath = base / "q.emb", base / "g.emb"
    save_embeddings(queries, qpath)
    save_embeddings(gallery, gpath)
    return base, str(qpath), str(gpath)


def test_3_shard_invariance(shard_job_inputs):
    with criterion(3, "shard-count and parallelism invariance"):
        base, qpath, gpath = shard_job_inputs
        merged = {}
        for n_shards in (1, 2, 7):
            for parallelism in (1, 2):
                job_dir = base / f"job_{n_shards}_{parallelism}"
                job_dir.mkdir()
                create_job(
                    str(job_dir), qpath, gpath,
                    RerankParams(k1=10, k2=3, lam=0.3), n_shards=n_shards,
                )
                results, report = coordinator_run(
                    str(job_dir / MANIFEST_NAME), parallelism=parallelism
                )
                assert report.ok
                merged[(n_shards, parallelism)] = b"".join(
                    (ranking_to_json(rl) + "\n").encode() for rl in results
                )
        baseline = merged[(1, 1)]
        assert all(blob == baseline for blob in merged.values())

        # delete one shard file from the 7-shard job and re-merge
        job_dir = base / "job_7_1"
        manifest = load_manifest(job_dir / MANIFEST_NAME)
        victim = 3
        (job_dir / manifest.shards.result_files[victim]).unlink()
        results, report = merge_shard_results(manifest.shards, str(job_dir))
        expect_missing = sorted(
            manifest.shards.query_ids[r]
            for r in manifest.shards.shard_rows(victim)
        )
        assert sorted(report.missing_queries) == expect_missing
        survivors = {rl.query_id: rl for rl in results}
        full_lists = {}
        for line in baseline.decode().splitlines():
            import json

            obj = json.loads(line)
            full_lists[obj["query"]] = line
        for qid, rl in survivors.items():
            assert ranking_to_json(rl) == full_lists[qid]


def test_4_retrieval_improvement_regression():
    with criterion(4, "re-ranking improves MAR@10, frozen regression"):
        start = time.perf_counter()
        gallery, queries, gt = gen_synthetic(200, 10, 2, 64, 0.35, seed=7)
        raw = mar_at_k(
            topk(pairwise_cosine_distance(queries, gallery), 10), gt, 10
        ).mar_at_k
        reranked = mar_at_k(
            topk(kreciprocal_rerank(queries, gallery, RerankParams(30, 10, 0.3)), 10),
            gt, 10,
        ).mar_at_k
        assert reranked >= raw
        assert abs(raw - FROZEN_RAW_MAR) < 1e-6
        assert abs(reranked - FROZEN_RERANK_MAR) < 1e-6
        assert time.perf_counter() - start < 30.0

        # mid-noise variant where the improvement is large
        gallery, queries, gt = gen_synthetic(100, 10, 2, 64, 0.15, seed=7)
        raw = mar_at_k(
            topk(pairwise_cosine_distance(queries, gallery), 10), gt, 10
        ).mar_at_k
        reranked = mar_at_k(
            topk(kreciprocal_rerank(queries, gallery, RerankParams()), 10), gt, 10
        ).mar_at_k
        assert reranked >= raw
        assert abs(raw - FROZEN_MID_RAW_MAR) < 1e-6
        assert abs(reranked - FROZEN_MID_RERANK_MAR) < 1e-6


def test_5_ensemble_laws():
    with criterion(5, "ensemble identity, rescaling, Borda example"):
        base = [RankingList(
            "q", tuple((f"g{i}", float(i)) for i in range(10))
        )]
        for m in (1, 3, 20):
            out = vote_ensemble([base] * m, k=10)
            assert out[0].gallery_ids == base[0].gallery_ids

        rng = np.random.default_rng(55)
        a = DistanceMatrix(
            tuple(f"q{i}" for i in range(4)), tuple(f"g{j}" for j in range(12)),
            rng.random((4, 12)).astype(np.float32),
        )
        b = DistanceMatrix(a.query_ids, a.gallery_ids,
                           rng.random((4, 12)).astype(np.float32))
        plain = max_ensemble([a, b])
        rescaled = max_ensemble([
            DistanceMatrix(a.query_ids, a.gallery_ids, 3.0 * a.values + 7.0), b,
        ])
        for r1, r2 in zip(topk(plain, 12), topk(rescaled, 12)):
            assert r1.gallery_ids == r2.gallery_ids

        def ballot(order):
            return [RankingList(
                "q", tuple((g, float(i)) for i, g in enumerate(order))
            )]
        out = vote_ensemble(
            [ballot("xyz"), ballot("yxz"), ballot("yzx")], k=3
        )
        assert out[0].gallery_ids == ("y", "x", "z")


def test_6_pseudo_label_arithmetic():
    with criterion(6, "pseudo-label bookkeeping matches reported counts"):
        # 87,125 clusters totaling 246,926 images: 10,382 of size 9,
        # 1 of size 4, 76,742 of size 2
        sizes = [9] * 10382 + [4] + [2] * 76742
        assert len(sizes) == 87125 and sum(sizes) == 246926
        clusters, n = [], 0
        for s in sizes:
            clusters.append(tuple(f"i{n + j:07d}" for j in range(s)))
            n += s
        pool = tuple(f"p{i:07d}" for i in range(12875))
        kept = ClusterResult(tuple(clusters), pool, 0.8)
        out = assign_pseudo_labels(kept, target_classes=100000, seed=0)
        assert out.n_cluster_classes == 87125
        assert out.n_singleton_classes == 12875
        assert out.n_classes == 100000
        # the bookkeeping identity: 246,926 clustered + 12,875 singletons
        assert out.n_images == 259801

        # the identity as a law over random fixtures
        rng = np.random.default_rng(66)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            fsizes = [int(s) for s in rng.integers(2, 9, size=k)]
            clusters, n = [], 0
            for s in fsizes:
                clusters.append(tuple(f"c{n + j:05d}" for j in range(s)))
                n += s
            fpool = tuple(f"q{i:05d}" for i in range(int(rng.integers(3, 20))))
            target = k + int(rng.integers(0, len(fpool) + 1))
            out = assign_pseudo_labels(
                ClusterResult(tuple(clusters), fpool, 0.5), target, seed=1
            )
            assert out.n_classes == out.n_cluster_classes + out.n_singleton_classes
            assert out.n_images == sum(fsizes) + out.n_singleton_classes


def test_7_metric_sanity():
    with criterion(7, "MAR@10 sanity: zero noise, clamp, missing queries"):
        gallery, queries, gt = gen_synthetic(10, 10, 2, 16, 0.0, seed=4)
        lists = topk(pairwise_cosine_distance(
            l2_normalize(queries), l2_normalize(gallery)), 10)
        assert mar_at_k(lists, gt, 10).mar_at_k == 1.0

        clamp_gt = GroundTruth({"q": {f"r{i}" for i in range(30)}})
        clamp_list = [RankingList(
            "q", tuple((f"r{i}", float(i)) for i in range(10))
        )]
        report = mar_at_k(clamp_list, clamp_gt, 10)
        assert report.per_query["q"] == 1.0

        gt2 = GroundTruth({"q0": {"a"}, "q1": {"a"}})
        report = mar_at_k([RankingList("q0", (("a", 0.0),))], gt2, 10)
        assert report.n_missing == 1
        assert report.per_query["q1"] == 0.0
        assert report.mar_at_k == 0.5


def test_8_format_bit_exactness(tmp_path):
    with criterion(8, "EMB1 round-trip x500, checksum catches any byte flip"):
        rng = np.random.default_rng(88)
        path = tmp_path / "rt.emb"
        for trial in range(500):
            n = int(rng.integers(0, 8))
            dim = int(rng.integers(1, 12))
            ids = tuple(f"t{trial}_{i}_{rng.integers(0, 1 << 30)}" for i in range(n))
            emb = EmbeddingSet(
                ids, (rng.normal(size=(n, dim)) * 1e3).astype(np.float32)
            )
            save_embeddings(emb, path)
            back = load_embeddings(path)
            assert back.ids == emb.ids
            assert back.vectors.tobytes() == emb.vectors.tobytes()

        lists = [RankingList(
            f"q{i}", ((f"g{i}", 0.5), ("gz", 1.0))
        ) for i in range(3)]
        data = shard_result_bytes(lists)
        payload_len = data.rindex(b"\n", 0, len(data) - 1) + 1
        from prodretrieve.errors import CorruptShard

        for pos in range(payload_len):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x01
            with pytest.raises(CorruptShard):
                read_shard_result(bytes(corrupted))


def test_9_performance_floor():
    with criterion(9, "1000x100k brute-force search under 60s, thread-stable"):
        rng = np.random.default_rng(99)
        gal = rng.standard_normal((100_000, 256)).astype(np.float32)
        gal /= np.linalg.norm(gal.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        qry = rng.standard_normal((1_000, 256)).astype(np.float32)
        qry /= np.linalg.norm(qry.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        gallery = EmbeddingSet(tuple(f"g{i:06d}" for i in range(100_000)), gal)
        queries = EmbeddingSet(tuple(f"q{i:04d}" for i in range(1_000)), qry)

        start = time.perf_counter()
        matrix = pairwise_cosine_distance(queries, gallery, threads=4)
        lists = topk(matrix, 10)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

        blob = b"".join((ranking_to_json(rl) + "\n").encode() for rl in lists)
        for threads in (1, 2):
            m2 = pairwise_cosine_distance(queries, gallery, threads=threads)
            assert m2.values.tobytes() == matrix.values.tobytes()
            blob2 = b"".join(
                (ranking_to_json(rl) + "\n").encode() for rl in topk(m2, 10)
            )
            assert blob2 == blob


FROZEN_PIPELINE_FUSED_MAR = 0.96875
FROZEN_PIPELINE_VOTED_MAR = 0.9708333333333334


def test_demo_pipeline_regression(tmp_path, capsys):
    """The shipped demo config reproduces its frozen MAR@10 values."""
    import json
    import os
    import shutil

    from prodretrieve.cli import run

    repo_config = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "paper_pipeline.json")
    cfg = tmp_path / "paper_pipeline.json"
    shutil.copy(repo_config, cfg)
    assert run([
        "pipeline", "--config", str(cfg), "--workdir", str(tmp_path / "work"),
    ]) == 0
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    mars = [
        json.loads(l)["mar_at_k"] for l in out_lines if "mar_at_k" in l
    ]
    assert len(mars) == 2
    assert abs(mars[0] - FROZEN_PIPELINE_FUSED_MAR) < 1e-6
    assert abs(mars[1] - FROZEN_PIPELINE_VOTED_MAR) < 1e-6
