import tracemalloc

import numpy as np
import pytest

from oracles import naive_cosine_distance, naive_group_min, naive_topk
from prodretrieve import search
from prodretrieve.embed_store import EmbeddingSet, l2_normalize, row_norms
from prodretrieve.errors import (
    DimMismatch, InvalidParams, MalformedFile, NotNormalized, UnmappedCropId,
)
from prodretrieve.search import (
    MIN_CHUNK,
    NORM_SLICE,
    QUERY_BLOCK,
    CropGroupMap,
    DistanceMatrix,
    RankingList,
    aggregate_crops,
    load_crop_map,
    load_matrix,
    pairwise_cosine_distance,
    read_ranking_lists,
    save_crop_map,
    save_matrix,
    topk,
    write_ranking_lists,
)


def unit_set(ids, rows):
    return l2_normalize(
        EmbeddingSet(ids=tuple(ids), vectors=np.asarray(rows, dtype=np.float32))
    )


def random_unit(rng, ids, dim):
    return unit_set(ids, rng.normal(size=(len(ids), dim)))


def shuffled_ids(rng, n):
    """Gallery ids whose sort order differs from their column order."""
    return tuple(f"g{j:05d}" for j in rng.permutation(n))


def chunks_of(width):
    """A _chunk_width that forces the top-k selector's branch: 0 selects over
    whole rows, any other width prunes by chunks of that many columns."""
    return lambda ng, take: width


class TestPairwiseDistance:
    def test_self_distance_zero(self):
        emb = unit_set(["a", "b"], [[1.0, 2.0], [3.0, -1.0]])
        m = pairwise_cosine_distance(emb, emb)
        assert np.abs(np.diag(m.values)).max() < 1e-6

    def test_orthogonal_is_one(self):
        q = unit_set(["q"], [[1.0, 0.0]])
        g = unit_set(["g"], [[0.0, 1.0]])
        m = pairwise_cosine_distance(q, g)
        assert abs(m.values[0, 0] - 1.0) < 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        q = random_unit(rng, [f"q{i}" for i in range(4)], 16)
        g = random_unit(rng, [f"g{i}" for i in range(7)], 16)
        m = pairwise_cosine_distance(q, g)
        expect = naive_cosine_distance(q.vectors.tolist(), g.vectors.tolist())
        np.testing.assert_allclose(m.values, expect, atol=1e-5)

    def test_symmetric_on_self(self):
        rng = np.random.default_rng(12)
        emb = random_unit(rng, [f"i{k}" for k in range(9)], 8)
        m = pairwise_cosine_distance(emb, emb)
        assert np.abs(m.values - m.values.T).max() < 1e-6

    def test_dim_mismatch(self):
        q = unit_set(["q"], [[1.0, 0.0]])
        g = unit_set(["g"], [[1.0, 0.0, 0.0]])
        with pytest.raises(DimMismatch):
            pairwise_cosine_distance(q, g)

    def test_not_normalized(self):
        q = unit_set(["q"], [[1.0, 0.0]])
        raw = EmbeddingSet(ids=("g",), vectors=np.array([[2.0, 0.0]], np.float32))
        with pytest.raises(NotNormalized):
            pairwise_cosine_distance(q, raw)

    def test_not_normalized_in_last_norm_slice(self):
        # the only bad row is the last one, alone in the final norm slice;
        # the message gives the deviation over all rows, as a whole-set
        # row_norms does
        rng = np.random.default_rng(20)
        dim = 64
        n = 3 * (NORM_SLICE // dim) + 1
        g = random_unit(rng, [f"g{i}" for i in range(n)], dim)
        vecs = g.vectors.copy()
        vecs[-1] *= np.float32(1.01)
        bad = EmbeddingSet(g.ids, vecs)
        dev = np.abs(row_norms(vecs) - 1.0).max()
        q = random_unit(rng, ["q"], dim)
        with pytest.raises(NotNormalized) as err:
            pairwise_cosine_distance(q, bad)
        assert str(err.value) == f"gallery rows deviate from unit norm by up to {dev:.2e}"

    def test_nan_in_last_row_block_rejected(self):
        vals = np.zeros((2 * QUERY_BLOCK + 3, 4), np.float32)
        vals[-1, 2] = np.nan
        ids = tuple(f"q{i}" for i in range(len(vals)))
        with pytest.raises(ValueError, match="NaN or inf"):
            DistanceMatrix(ids, ("a", "b", "c", "d"), vals)

    def test_memory_about_one_matrix(self):
        """Distances plus top-k peak near the output's own size: no full-size
        temporary, only O(NORM_SLICE) norms and per-block selector arrays."""
        rng = np.random.default_rng(21)
        q = random_unit(rng, [f"q{i}" for i in range(512)], 64)
        g = random_unit(rng, [f"g{i}" for i in range(20000)], 64)
        tracemalloc.start()
        try:
            m = pairwise_cosine_distance(q, g)
            topk(m, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * m.values.nbytes

    def test_thread_count_does_not_change_bytes(self):
        rng = np.random.default_rng(13)
        q = random_unit(rng, [f"q{i}" for i in range(300)], 32)
        g = random_unit(rng, [f"g{i}" for i in range(50)], 32)
        base = pairwise_cosine_distance(q, g, threads=1).values.tobytes()
        for threads in (2, 4):
            assert pairwise_cosine_distance(q, g, threads=threads).values.tobytes() == base

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, threads):
        rng = np.random.default_rng(13)
        q = random_unit(rng, ["q0"], 8)
        with pytest.raises(InvalidParams, match=f"threads must be >= 1, got {threads}"):
            pairwise_cosine_distance(q, q, threads=threads)


class TestTopK:
    def test_identity_retrieval(self):
        rng = np.random.default_rng(14)
        g = random_unit(rng, [f"g{i}" for i in range(5)], 8)
        q = EmbeddingSet(ids=("q",), vectors=g.vectors[2:3])
        m = pairwise_cosine_distance(q, g)
        lists = topk(m, 1)
        assert lists[0].gallery_ids == ("g2",)

    def test_tie_break_by_gallery_id(self):
        m = DistanceMatrix(
            ("q",), ("zz", "aa", "mm"), np.array([[0.5, 0.5, 0.5]], np.float32)
        )
        assert topk(m, 2)[0].gallery_ids == ("aa", "mm")

    def test_fewer_gallery_than_k(self):
        m = DistanceMatrix(("q",), ("a", "b"), np.array([[0.2, 0.1]], np.float32))
        lists = topk(m, 10)
        assert lists[0].gallery_ids == ("b", "a")

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(15)
        gallery_ids = tuple(f"g{i:04d}" for i in range(1000))
        vals = rng.random((100, 1000)).astype(np.float32)
        m = DistanceMatrix(tuple(f"q{i}" for i in range(100)), gallery_ids, vals)
        lists = topk(m, 10)
        for qi, rl in enumerate(lists):
            expect = naive_topk(vals[qi].tolist(), gallery_ids, 10)
            assert list(rl.entries) == [(g, pytest.approx(d)) for g, d in expect]

    @staticmethod
    def assert_matches_oracle(vals, gallery_ids, k):
        m = DistanceMatrix(tuple(f"q{i}" for i in range(len(vals))), gallery_ids, vals)
        for qi, rl in enumerate(topk(m, k)):
            expect = naive_topk(vals[qi].tolist(), gallery_ids, k)
            # repr tells -0.0 from 0.0
            assert [(g, repr(d)) for g, d in rl.entries] == [
                (g, repr(d)) for g, d in expect
            ]

    @pytest.mark.parametrize("width", [None, 0, 1, 7, 12])
    def test_selector_branches_match_oracle(self, monkeypatch, width):
        """Ties straddle chunk boundaries, 503 columns are no multiple of any
        forced width, and one row is all equal; None keeps the natural choice."""
        if width is not None:
            monkeypatch.setattr(search, "_chunk_width", chunks_of(width))
        rng = np.random.default_rng(22)
        ng = 503
        vals = np.round(rng.random((QUERY_BLOCK + 5, ng)), 2).astype(np.float32)
        vals[0] = 0.25
        vals[1, 5:14] = 0.01  # a tie group across the 7- and 12-column boundaries
        vals[2, 496:] = 0.0  # the best values sit in the last, partial chunk
        for k in (1, 3, 10, 40):
            self.assert_matches_oracle(vals, shuffled_ids(rng, ng), k)

    @pytest.mark.parametrize("width", [None, 0, 1])
    def test_narrow_gallery_matches_oracle(self, monkeypatch, width):
        # ng < k, and ng == k: every column is selected
        if width is not None:
            monkeypatch.setattr(search, "_chunk_width", chunks_of(width))
        rng = np.random.default_rng(23)
        vals = np.round(rng.random((4, 6)), 1).astype(np.float32)
        for k in (6, 10):
            self.assert_matches_oracle(vals, shuffled_ids(rng, 6), k)

    @pytest.mark.parametrize("width", [None, 0, 3])
    def test_signed_zero_matches_oracle(self, monkeypatch, width):
        if width is not None:
            monkeypatch.setattr(search, "_chunk_width", chunks_of(width))
        rng = np.random.default_rng(24)
        vals = rng.random((3, 60)).astype(np.float32)
        vals[:, ::4] = np.float32(-0.0)
        vals[:, 1::4] = np.float32(0.0)
        vals[2] = np.float32(-0.0)
        for k in (5, 20):
            self.assert_matches_oracle(vals, shuffled_ids(rng, 60), k)

    def test_branch_point(self):
        # pruning starts where the chunk width reaches MIN_CHUNK: ng = 256 k
        k = 4
        assert search._chunk_width(256 * k, k) == MIN_CHUNK
        assert search._chunk_width(256 * k - 1, k) == 0
        rng = np.random.default_rng(25)
        for ng in (256 * k - 1, 256 * k):
            vals = np.round(rng.random((5, ng)), 3).astype(np.float32)
            self.assert_matches_oracle(vals, shuffled_ids(rng, ng), k)

    def test_invariant_under_gallery_permutation(self):
        rng = np.random.default_rng(16)
        ids = tuple(f"g{i}" for i in range(30))
        vals = np.round(rng.random((4, 30)), 2).astype(np.float32)  # force ties
        m = DistanceMatrix(("a", "b", "c", "d"), ids, vals)
        perm = rng.permutation(30)
        m2 = DistanceMatrix(
            m.query_ids, tuple(ids[j] for j in perm), vals[:, perm]
        )
        for r1, r2 in zip(topk(m, 5), topk(m2, 5)):
            assert r1.entries == r2.entries


class TestCropAggregation:
    def test_single_crop_parents_identity(self):
        m = DistanceMatrix(
            ("q",), ("c1", "c2"), np.array([[0.3, 0.6]], np.float32)
        )
        cmap = CropGroupMap({"c1": "p1", "c2": "p2"})
        out = aggregate_crops(m, cmap)
        assert out.gallery_ids == ("p1", "p2")
        np.testing.assert_array_equal(out.values, m.values)

    def test_min_of_five(self):
        crops = tuple(f"c{i}" for i in range(5))
        m = DistanceMatrix(
            ("q",), crops, np.array([[0.9, 0.4, 0.7, 0.8, 0.95]], np.float32)
        )
        cmap = CropGroupMap({c: "p" for c in crops}, scheme="index5crop")
        out = aggregate_crops(m, cmap)
        assert out.values[0, 0] == np.float32(0.4)

    def test_matches_group_min_oracle(self):
        rng = np.random.default_rng(17)
        parents = ["pa", "pb", "pc"]
        crop_to_parent = {f"{p}_crop{i}": p for p in parents for i in range(6)}
        crop_ids = tuple(sorted(crop_to_parent))
        vals = rng.random((2, len(crop_ids))).astype(np.float32)
        m = DistanceMatrix(("q0", "q1"), crop_ids, vals)
        out = aggregate_crops(m, CropGroupMap(crop_to_parent, scheme="index6crop"))
        expect_parents, expect = naive_group_min(
            vals.tolist(), crop_ids, crop_to_parent
        )
        assert list(out.gallery_ids) == expect_parents
        np.testing.assert_allclose(out.values, expect, atol=0)

    def test_monotone_in_extra_crop(self):
        rng = np.random.default_rng(18)
        vals = rng.random((3, 4)).astype(np.float32)
        m3 = DistanceMatrix(("a", "b", "c"), ("x1", "x2", "x3"), vals[:, :3])
        m4 = DistanceMatrix(("a", "b", "c"), ("x1", "x2", "x3", "x4"), vals)
        cmap3 = CropGroupMap({"x1": "p", "x2": "p", "x3": "p"})
        cmap4 = CropGroupMap({"x1": "p", "x2": "p", "x3": "p", "x4": "p"})
        out3 = aggregate_crops(m3, cmap3).values
        out4 = aggregate_crops(m4, cmap4).values
        assert (out4 <= out3).all()

    def test_unmapped_crop(self):
        m = DistanceMatrix(("q",), ("c1",), np.array([[0.1]], np.float32))
        with pytest.raises(UnmappedCropId):
            aggregate_crops(m, CropGroupMap({"other": "p"}))

    def test_scheme_arity_enforced(self):
        with pytest.raises(ValueError):
            CropGroupMap({"c1": "p"}, scheme="index5crop")


class TestOnDiskFormats:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        m = DistanceMatrix(
            ("q0", "q1"), ("g0", "g1", "g2"),
            rng.random((2, 3)).astype(np.float32),
        )
        path = tmp_path / "m.npz"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.query_ids == m.query_ids
        assert back.gallery_ids == m.gallery_ids
        assert back.values.tobytes() == m.values.tobytes()

    def test_matrix_ids_round_trip_without_pickle(self, tmp_path):
        """Non-ASCII ids, ids of unequal lengths and an inner NUL come back
        exactly, from arrays that load with allow_pickle=False."""
        qids = ("q", "quéry-ünïcode", "查询", "q\0inner")
        gids = ("g" * 40, "ガ", "g 2")
        m = DistanceMatrix(qids, gids, np.arange(12, dtype=np.float32).reshape(4, 3))
        path = tmp_path / "m.npz"
        save_matrix(m, path)
        with np.load(path, allow_pickle=False) as npz:
            assert [npz[k].dtype.kind for k in ("query_ids", "gallery_ids")] == ["U", "U"]
        back = load_matrix(path)
        assert (back.query_ids, back.gallery_ids) == (qids, gids)
        assert back.values.tobytes() == m.values.tobytes()

    def test_matrix_id_ending_in_nul_refused(self, tmp_path):
        """Fixed-width unicode would drop the NUL, so the id is not changed."""
        m = DistanceMatrix(("q",), ("g\0",), np.zeros((1, 1), np.float32))
        with pytest.raises(MalformedFile, match="NUL"):
            save_matrix(m, tmp_path / "m.npz")
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("query_ids", [
        np.array(["q0", "q1"], dtype=object),
        np.array([["q0", "q1"]]),
        np.array([0, 1]),
        np.array([b"q0", b"q1"]),
        None,
    ], ids=["object", "2-d", "int", "bytes", "absent"])
    def test_foreign_matrix_file_refused(self, tmp_path, query_ids):
        """The earlier object-array format is refused like any foreign file."""
        arrays = {"gallery_ids": np.array(["g0"]), "values": np.zeros((2, 1), np.float32)}
        if query_ids is not None:
            arrays["query_ids"] = query_ids
        path = tmp_path / "m.npz"
        np.savez(path, **arrays)
        with pytest.raises(MalformedFile):
            load_matrix(path)

    @pytest.mark.parametrize("text", [
        '{"query": "q1", "ranks": [["g0", 0.5]], "orie',
        '{"query": "q1"}',
        '{"query": "q1", "ranks": [["g0", 0.5], ["g0", 0.6]]}',
        '{"query": "q1", "ranks": [["g0"]]}',
        '["q1", [["g0", 0.5]]]',
        '{"query": "q1", "ranks": ["a1", "b2"]}',
        '{"query": "q1", "ranks": [["g0", "0.5"]]}',
        '{"query": "q1", "ranks": [["g0", true]]}',
        '{"query": "q1", "ranks": [[0, 0.5]]}',
        '{"query": 1, "ranks": [["g0", 0.5]]}',
        '{"query": "q\xff", "ranks": [["g0", 0.5]]}',
    ], ids=["truncated", "no-ranks", "duplicate-id", "not-a-pair", "not-an-object",
            "ranks-strings", "score-a-string", "score-a-bool", "id-a-number",
            "query-a-number", "not-utf8"])
    def test_malformed_ranking_line_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "r.jsonl"
        line = text.encode("latin-1")  # "\xff" stays one byte that is not UTF-8
        path.write_bytes(b'{"query": "q0", "ranks": [["g0", 0.5]]}\n\n' + line + b"\n")
        with pytest.raises(MalformedFile, match=" line 3: "):
            read_ranking_lists(path)

    def test_ranking_lists_round_trip(self, tmp_path):
        lists = [
            RankingList("q0", (("g1", 0.25), ("g0", 0.5))),
            RankingList("q1", (("g2", 0.0),)),
        ]
        path = tmp_path / "r.jsonl"
        write_ranking_lists(lists, path)
        back = read_ranking_lists(path)
        assert [rl.query_id for rl in back] == ["q0", "q1"]
        assert back[0].entries == lists[0].entries

    def test_crop_map_round_trip(self, tmp_path):
        cmap = CropGroupMap(
            {f"p{j}_c{i}": f"p{j}" for j in range(2) for i in range(5)},
            scheme="index5crop",
        )
        path = tmp_path / "crops.json"
        save_crop_map(cmap, path)
        back = load_crop_map(path)
        assert back.crop_to_parent == cmap.crop_to_parent
        assert back.scheme == "index5crop"
