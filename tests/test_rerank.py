import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from oracles import naive_rerank
from prodretrieve import search
from prodretrieve.embed_store import EmbeddingSet, l2_normalize
from prodretrieve.evalbench import gen_synthetic
from prodretrieve.errors import CorruptShard, InvalidParams, TooFewItems
from prodretrieve.rerank import (
    MissingReport,
    RerankParams,
    ShardManifest,
    build_neighbours,
    build_shard_manifest,
    kreciprocal_rerank,
    merge_shard_results,
    read_shard_result,
    rerank_rows,
    shard_result_bytes,
    write_shard_result,
)
from prodretrieve.search import RankingList, pairwise_cosine_distance, topk


def clustered_instance(seed, n_classes=6, per_class=5, n_queries=6, dim=8, sigma=0.3):
    """Small synthetic instance with genuine neighborhood structure."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(n_classes, dim))
    gallery_rows, query_rows = [], []
    for c in range(n_classes):
        for _ in range(per_class):
            gallery_rows.append(centroids[c] + sigma * rng.normal(size=dim))
    for c in range(n_queries):
        query_rows.append(centroids[c % n_classes] + sigma * rng.normal(size=dim))
    gallery = l2_normalize(EmbeddingSet(
        tuple(f"g{i:03d}" for i in range(len(gallery_rows))),
        np.asarray(gallery_rows, dtype=np.float32),
    ))
    queries = l2_normalize(EmbeddingSet(
        tuple(f"q{i:03d}" for i in range(n_queries)),
        np.asarray(query_rows, dtype=np.float32),
    ))
    return queries, gallery


def duplicate_instance():
    """5 exact copies of each base vector: every probe has 4 neighbors at
    distance 0, then a tied group of 5."""
    rng = np.random.default_rng(0)
    base = rng.normal(size=(6, 6))
    rows = l2_normalize(EmbeddingSet(
        tuple(f"i{k}" for k in range(30)),
        np.repeat(base, 5, axis=0).astype(np.float32),
    )).vectors
    perm = rng.permutation(30)
    queries = EmbeddingSet(tuple(f"q{k}" for k in range(7)), rows[perm[:7]])
    gallery = EmbeddingSet(tuple(f"g{k}" for k in range(23)), rows[perm[7:]])
    return queries, gallery


class TestParams:
    def test_defaults(self):
        p = RerankParams()
        assert (p.k1, p.k2, p.lam) == (20, 6, 0.3)

    @pytest.mark.parametrize("k1,k2,lam", [(5, 6, 0.3), (5, 0, 0.3), (5, 2, 1.5), (5, 2, -0.1)])
    def test_invalid(self, k1, k2, lam):
        with pytest.raises(InvalidParams):
            RerankParams(k1=k1, k2=k2, lam=lam)


class TestKReciprocal:
    def test_matches_naive_oracle_seed7(self):
        queries, gallery = clustered_instance(7)
        for k1, k2, lam in [(5, 2, 0.3), (10, 3, 0.0), (10, 3, 1.0)]:
            got = kreciprocal_rerank(queries, gallery, RerankParams(k1, k2, lam))
            expect = naive_rerank(
                queries.vectors.tolist(), gallery.vectors.tolist(), k1, k2, lam
            )
            np.testing.assert_allclose(got.values, expect, atol=1e-5)

    def test_lambda_one_preserves_order(self):
        for seed in range(5):
            queries, gallery = clustered_instance(seed)
            original = pairwise_cosine_distance(queries, gallery)
            reranked = kreciprocal_rerank(
                queries, gallery, RerankParams(5, 2, 1.0)
            )
            for a, b in zip(topk(original, 30), topk(reranked, 30)):
                assert a.gallery_ids == b.gallery_ids

    def test_lambda_zero_is_pure_jaccard(self):
        queries, gallery = clustered_instance(3)
        pure = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 0.0))
        mixed = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 0.4))
        original = pairwise_cosine_distance(queries, gallery).values.astype(np.float64)
        # recover jaccard from the mixed output and compare
        recovered = (mixed.values.astype(np.float64) - 0.4 * original) / 0.6
        np.testing.assert_allclose(pure.values, recovered, atol=1e-6)

    def test_jaccard_bounds(self):
        queries, gallery = clustered_instance(9)
        out = kreciprocal_rerank(queries, gallery, RerankParams(6, 3, 0.0))
        assert (out.values >= -1e-7).all() and (out.values <= 1.0 + 1e-7).all()

    def test_identical_probes_get_zero(self):
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(12, 6))
        rows[0] = rows[5]  # query 0 duplicates gallery row 1
        emb = l2_normalize(EmbeddingSet(
            tuple(f"i{k}" for k in range(12)), rows.astype(np.float32)
        ))
        queries = EmbeddingSet(("q0",), emb.vectors[0:1])
        gallery = EmbeddingSet(tuple(f"g{k}" for k in range(8)), emb.vectors[4:])
        out = kreciprocal_rerank(queries, gallery, RerankParams(4, 2, 0.3))
        assert out.values[0, 1] < 1e-6

    def test_too_few_items(self):
        queries, gallery = clustered_instance(1, n_classes=2, per_class=2, n_queries=2)
        with pytest.raises(TooFewItems):
            kreciprocal_rerank(queries, gallery, RerankParams(k1=10, k2=2))

    def test_query_rows_restriction_is_bit_identical(self):
        queries, gallery = clustered_instance(5)
        full = kreciprocal_rerank(queries, gallery, RerankParams(5, 2, 0.3))
        part = kreciprocal_rerank(
            queries, gallery, RerankParams(5, 2, 0.3), query_rows=[1, 4]
        )
        assert part.values.tobytes() == full.values[[1, 4]].tobytes()

    def test_duplicate_vectors_tie_at_k_boundaries(self):
        # the k2=3 boundary falls inside the first tie and the k1=6 boundary
        # inside the second; only the index tie-break decides who is in N(p,k)
        queries, gallery = duplicate_instance()
        params = RerankParams(6, 3, 0.3)
        got = kreciprocal_rerank(queries, gallery, params)
        expect = naive_rerank(
            queries.vectors.tolist(), gallery.vectors.tolist(), 6, 3, 0.3
        )
        np.testing.assert_allclose(got.values, expect, atol=1e-5)
        part = kreciprocal_rerank(queries, gallery, params, query_rows=[6, 0, 3])
        assert part.values.tobytes() == got.values[[6, 0, 3]].tobytes()

    def test_pruned_selection_matches_oracle_on_ties(self, monkeypatch):
        # chunks of 4 columns force the pruned top-k1 selector, with the
        # tied groups straddling chunk boundaries
        queries, gallery = duplicate_instance()
        params = RerankParams(6, 3, 0.3)
        monkeypatch.setattr(search, "_chunk_width", lambda ng, take: 4)
        got = kreciprocal_rerank(queries, gallery, params)
        expect = naive_rerank(
            queries.vectors.tolist(), gallery.vectors.tolist(), 6, 3, 0.3
        )
        np.testing.assert_allclose(got.values, expect, atol=1e-5)
        monkeypatch.setattr(search, "_chunk_width", lambda ng, take: 0)
        whole = kreciprocal_rerank(queries, gallery, params)
        assert got.values.tobytes() == whole.values.tobytes()

    def test_pruned_pass_one_is_byte_equal_at_3000(self, monkeypatch):
        # at 3,000 joint items and k1=10, pass 1 prunes by chunk on its own
        gallery, queries, _ = gen_synthetic(300, 6, 4, 64, 0.35, seed=7)
        assert len(queries) + len(gallery) == 3000
        assert search._chunk_width(3000, 10) > 0
        params = RerankParams(10, 4, 0.3)
        pruned = kreciprocal_rerank(queries, gallery, params)
        monkeypatch.setattr(search, "_chunk_width", lambda ng, take: 0)
        whole = kreciprocal_rerank(queries, gallery, params)
        assert pruned.values.tobytes() == whole.values.tobytes()

    def test_memory_stays_far_below_dense(self):
        """4,000 joint items: six dense n x n arrays would take 48 n^2 bytes,
        about 770 MB; the sparse form holds O(QUERY_BLOCK n + n k1^2 +
        k2 nnz(V)) bytes besides its output and must peak under 100 MB."""
        gallery, queries, _ = gen_synthetic(400, 8, 2, 64, 0.35, seed=7)
        assert len(queries) + len(gallery) == 4000
        tracemalloc.start()
        try:
            kreciprocal_rerank(queries, gallery, RerankParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_reciprocity_on_small_instance(self):
        # direct set check of mutual neighborhoods
        queries, gallery = clustered_instance(2)
        feats = np.vstack([queries.vectors, gallery.vectors]).astype(np.float64)
        d = 1.0 - feats @ feats.T
        k = 5
        neigh = []
        for p in range(len(feats)):
            order = sorted(
                (q for q in range(len(feats)) if q != p), key=lambda q: (d[p][q], q)
            )
            neigh.append(set(order[:k]))
        recip = [
            {g for g in neigh[p] if p in neigh[g]} for p in range(len(feats))
        ]
        for p in range(len(feats)):
            for g in recip[p]:
                assert p in recip[g]


def rerank_1000_instance():
    """The benchmark's rerank_1000 shape at seed 7: 600 queries, 400 gallery."""
    gallery, queries, _ = gen_synthetic(100, 4, 6, 64, 0.35, seed=7)
    return queries, gallery, RerankParams(30, 10, 0.3)


class TestNeighbourIndex:
    @pytest.mark.parametrize("case", ["rerank_1000", "ties", "modulo"])
    def test_rows_of_index_equal_kreciprocal(self, case):
        if case == "ties":
            queries, gallery = duplicate_instance()
            params, rows = RerankParams(6, 3, 0.3), [6, 0, 3]
        else:
            queries, gallery, params = rerank_1000_instance()
            rows = None if case == "rerank_1000" else range(1, len(queries), 4)
        got = rerank_rows(build_neighbours(queries, gallery, params), rows)
        want = kreciprocal_rerank(queries, gallery, params, query_rows=rows)
        assert got.query_ids == want.query_ids
        assert got.values.tobytes() == want.values.tobytes()

    def test_one_index_serves_every_shard(self):
        queries, gallery, params = rerank_1000_instance()
        index = build_neighbours(queries, gallery, params)
        full = rerank_rows(index)
        for shard in range(4):
            rows = list(range(shard, len(queries), 4))
            assert rerank_rows(index, rows).values.tobytes() == full.values[rows].tobytes()

    def test_index_is_read_only(self):
        queries, gallery = duplicate_instance()
        index = build_neighbours(queries, gallery, RerankParams(6, 3, 0.3))
        with pytest.raises(ValueError):
            index.d[0, 0] = 0.0
        with pytest.raises(ValueError):
            index.post_vals[0] = 0.0

    def test_index_memory_bound(self):
        """The index holds d (4 nq ng bytes) and each nonzero of V once, as an
        int64 index and a float64 value; at 4,000 joint items that is about
        18 MB, and the build peaks under 100 MB like the whole re-rank."""
        gallery, queries, _ = gen_synthetic(400, 8, 2, 64, 0.35, seed=7)
        assert len(queries) + len(gallery) == 4000
        build_neighbours(*duplicate_instance(), RerankParams(6, 3, 0.3))  # warm imports
        tracemalloc.start()
        try:
            index = build_neighbours(queries, gallery, RerankParams())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nq, ng = index.d.shape
        nnz = index.q_cols.size + index.post_rows.size
        assert held < 1.05 * (4 * nq * ng + 16 * nnz + 32 * (nq + ng))
        assert peak < 100e6


class TestSharding:
    def test_single_shard(self, tmp_path):
        m = build_shard_manifest(10, 1, tmp_path)
        assert m.shard_rows(0) == list(range(10))

    def test_modulo_assignment(self, tmp_path):
        m = build_shard_manifest(10, 3, tmp_path)
        assert m.shard_rows(0) == [0, 3, 6, 9]
        assert m.shard_rows(1) == [1, 4, 7]
        assert m.shard_rows(2) == [2, 5, 8]

    def test_exact_division(self, tmp_path):
        m = build_shard_manifest(1000, 100, tmp_path)
        assert all(len(m.shard_rows(i)) == 10 for i in range(100))

    def test_round_trip_dict(self, tmp_path):
        m = build_shard_manifest(7, 2, tmp_path, query_ids=[f"q{i}" for i in range(7)])
        back = ShardManifest.from_dict(m.to_dict())
        assert back == m

    def test_old_manifest_with_assignment_key(self, tmp_path):
        m = build_shard_manifest(7, 2, tmp_path)
        assert ShardManifest.from_dict({**m.to_dict(), "assignment": "modulo"}) == m
        with pytest.raises(InvalidParams):
            ShardManifest.from_dict({**m.to_dict(), "assignment": "blocked"})


class TestShardFiles:
    def _lists(self, n=4):
        return [
            RankingList(f"q{i}", ((f"g{i}", 0.1 * i), ("g9", 0.5)), k=10)
            for i in range(n)
        ]

    def test_sha256_trailer(self):
        data = shard_result_bytes(self._lists())
        payload, trailer = data[:-1].rsplit(b"\n", 1)
        assert json.loads(trailer) == {
            "sha256": hashlib.sha256(payload + b"\n").hexdigest()
        }

    def test_old_checksum_trailer_refused(self, tmp_path):
        """A shard written with the former FNV-1a {"checksum": ...} trailer
        (a valid one) is corrupt, and the merge reports it, never merges it."""
        old = (
            b'{"query":"q0","ranks":[["g0",0.25],["g1",0.5]],"orientation":"distance"}\n'
            b'{"checksum": "26f73f83976871fb"}\n'
        )
        with pytest.raises(CorruptShard):
            read_shard_result(old)
        manifest = build_shard_manifest(1, 1, tmp_path, query_ids=["q0"])
        (tmp_path / "shard_0.jsonl").write_bytes(old)
        results, report = merge_shard_results(manifest, tmp_path)
        assert results == [] and report.reasons == {0: "checksum"}

    def test_write_read_round_trip(self, tmp_path):
        lists = self._lists()
        path = tmp_path / "shard_0.jsonl"
        write_shard_result(lists, path)
        back = read_shard_result(path.read_bytes())
        assert [rl.query_id for rl in back] == [rl.query_id for rl in lists]
        assert back[0].entries == lists[0].entries

    def test_flipped_byte_detected(self, tmp_path):
        data = bytearray(shard_result_bytes(self._lists()))
        # flip one payload byte (not in the checksum trailer)
        data[10] ^= 0x01
        with pytest.raises(CorruptShard):
            read_shard_result(bytes(data))

    def test_every_single_byte_flip_detected(self):
        data = shard_result_bytes(self._lists(2))
        payload_len = data.rindex(b"\n", 0, len(data) - 1) + 1
        for pos in range(payload_len):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x01
            with pytest.raises(CorruptShard):
                read_shard_result(bytes(corrupted))


class TestMerge:
    def _job(self, tmp_path, n_queries=9, n_shards=3):
        qids = [f"q{i:02d}" for i in range(n_queries)]
        manifest = build_shard_manifest(n_queries, n_shards, tmp_path, query_ids=qids)
        for shard in range(n_shards):
            lists = [
                RankingList(qids[r], ((f"g{r}", float(r)),), k=10)
                for r in manifest.shard_rows(shard)
            ]
            write_shard_result(lists, tmp_path / manifest.result_files[shard])
        return manifest, qids

    def test_all_present(self, tmp_path):
        manifest, qids = self._job(tmp_path)
        results, report = merge_shard_results(manifest, tmp_path)
        assert report.ok
        assert [rl.query_id for rl in results] == qids

    def test_deleted_shard_reported(self, tmp_path):
        manifest, qids = self._job(tmp_path)
        full, _ = merge_shard_results(manifest, tmp_path)
        (tmp_path / manifest.result_files[1]).unlink()
        results, report = merge_shard_results(manifest, tmp_path)
        assert report.reasons == {1: "absent"}
        assert sorted(report.missing_queries) == [qids[r] for r in manifest.shard_rows(1)]
        survivors = {rl.query_id: rl for rl in results}
        for rl in full:
            if rl.query_id not in report.missing_queries:
                assert survivors[rl.query_id] == rl

    def test_corrupt_shard_reported(self, tmp_path):
        manifest, qids = self._job(tmp_path)
        path = tmp_path / manifest.result_files[2]
        data = bytearray(path.read_bytes())
        data[5] ^= 0x01
        path.write_bytes(bytes(data))
        _, report = merge_shard_results(manifest, tmp_path)
        assert report.reasons == {2: "checksum"}
        assert sorted(report.missing_queries) == [qids[r] for r in manifest.shard_rows(2)]

    @pytest.mark.parametrize("with_ids", [True, False])
    def test_stale_shard_from_reused_job_dir(self, tmp_path, with_ids):
        # the directory still holds shard_0.jsonl of an earlier 4-shard job
        self._job(tmp_path, n_queries=40, n_shards=4)
        qids = [f"q{i:02d}" for i in range(40)] if with_ids else None
        manifest = build_shard_manifest(40, 1, tmp_path, query_ids=qids)
        results, report = merge_shard_results(manifest, tmp_path)
        assert not report.ok
        assert report.reasons == {0: "stale"}
        assert len(report.missing_queries) == 40
        assert results == []

    def test_foreign_query_ids_are_stale(self, tmp_path):
        manifest, qids = self._job(tmp_path)
        foreign = [
            RankingList(f"x{r}", (("g0", 0.0),), k=10) for r in manifest.shard_rows(1)
        ]
        write_shard_result(foreign, tmp_path / manifest.result_files[1])
        results, report = merge_shard_results(manifest, tmp_path)
        assert report.reasons == {1: "stale"}
        assert sorted(report.missing_queries) == [qids[r] for r in manifest.shard_rows(1)]
        assert len(results) == len(qids) - len(manifest.shard_rows(1))

    def test_directory_at_shard_path_is_unreadable(self, tmp_path):
        manifest, qids = self._job(tmp_path)
        path = tmp_path / manifest.result_files[1]
        path.unlink()
        path.mkdir()
        results, report = merge_shard_results(manifest, tmp_path)
        assert report.reasons == {1: "unreadable"}
        assert sorted(report.missing_queries) == [qids[r] for r in manifest.shard_rows(1)]
        assert len(results) == len(qids) - len(manifest.shard_rows(1))
