import tracemalloc

import numpy as np
import pytest

from oracles import naive_gen_synthetic, naive_recall_at_k
from prodretrieve import evalbench
from prodretrieve.embed_store import EmbeddingSet, save_embeddings
from prodretrieve.errors import DuplicateBallot, InvalidParams, MalformedFile, UnknownGalleryId
from prodretrieve.evalbench import (
    GroundTruth,
    gen_synthetic,
    load_ground_truth,
    mar_at_k,
    save_ground_truth,
)
from prodretrieve.search import RankingList, pairwise_cosine_distance, topk


def rl(query, gids):
    return RankingList(query, tuple((g, float(i)) for i, g in enumerate(gids)))


class TestMarAtK:
    def test_perfect_retrieval(self):
        gt = GroundTruth({"q0": {"a", "b"}, "q1": {"c"}})
        lists = [rl("q0", ["a", "b", "x"]), rl("q1", ["c", "y"])]
        report = mar_at_k(lists, gt, k=10)
        assert report.mar_at_k == 1.0
        assert report.n_missing == 0

    def test_two_of_three(self):
        gt = GroundTruth({"q": {"a", "b", "c"}})
        report = mar_at_k([rl("q", ["a", "x", "b", "y"])], gt, k=10)
        assert report.per_query["q"] == pytest.approx(2 / 3)
        assert report.mar_at_k == pytest.approx(0.666667, abs=1e-6)

    def test_clamped_denominator(self):
        relevant = {f"r{i}" for i in range(30)}
        gt = GroundTruth({"q": relevant})
        report = mar_at_k([rl("q", [f"r{i}" for i in range(10)])], gt, k=10)
        assert report.per_query["q"] == 1.0

    def test_missing_query_scores_zero(self):
        gt = GroundTruth({"q0": {"a"}, "q1": {"b"}})
        report = mar_at_k([rl("q0", ["a"])], gt, k=10)
        assert report.n_missing == 1
        assert report.per_query["q1"] == 0.0
        assert report.mar_at_k == pytest.approx(0.5)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(50)
        gallery = [f"g{i}" for i in range(20)]
        gt = {}
        lists = []
        for qi in range(5):
            qid = f"q{qi}"
            gt[qid] = set(rng.choice(gallery, size=int(rng.integers(1, 6)), replace=False))
            ranked = list(rng.permutation(gallery)[:10])
            lists.append(rl(qid, ranked))
        report = mar_at_k(lists, GroundTruth(gt), k=10)
        expected = [
            naive_recall_at_k(list(r.gallery_ids), gt[r.query_id], 10) for r in lists
        ]
        assert report.mar_at_k == pytest.approx(sum(expected) / len(expected))

    def test_monotone_in_hits(self):
        gt = GroundTruth({"q": {"a", "b"}})
        worse = mar_at_k([rl("q", ["a", "x"])], gt, k=10).mar_at_k
        better = mar_at_k([rl("q", ["a", "b"])], gt, k=10).mar_at_k
        assert better >= worse

    def test_query_order_invariance(self):
        gt = GroundTruth({"q0": {"a"}, "q1": {"b"}})
        lists = [rl("q0", ["a"]), rl("q1", ["x"])]
        a = mar_at_k(lists, gt, k=10).mar_at_k
        b = mar_at_k(list(reversed(lists)), gt, k=10).mar_at_k
        assert a == b

    def test_unknown_gallery_id(self):
        gt = GroundTruth({"q": {"a"}})
        with pytest.raises(UnknownGalleryId):
            mar_at_k([rl("q", ["mystery"])], gt, k=10, gallery_ids={"a", "b"})

    def test_two_lists_for_one_query(self):
        gt = GroundTruth({"q": {"a"}})
        with pytest.raises(DuplicateBallot):
            mar_at_k([rl("q", ["x"]), rl("q", ["a"])], gt, k=10)

    def test_bad_k(self):
        with pytest.raises(InvalidParams):
            mar_at_k([], GroundTruth({"q": {"a"}}), k=0)


class TestGenSynthetic:
    def test_zero_noise_perfect_knn(self):
        gallery, queries, gt = gen_synthetic(
            n_classes=8, gallery_per_class=4, queries_per_class=2,
            dim=16, noise_sigma=0.0, seed=5,
        )
        lists = topk(pairwise_cosine_distance(queries, gallery), 10)
        report = mar_at_k(lists, gt, k=10)
        assert report.mar_at_k == 1.0

    def test_same_seed_bit_identical(self):
        a = gen_synthetic(3, 2, 1, 8, 0.3, seed=9)
        b = gen_synthetic(3, 2, 1, 8, 0.3, seed=9)
        assert a[0].vectors.tobytes() == b[0].vectors.tobytes()
        assert a[1].vectors.tobytes() == b[1].vectors.tobytes()
        assert a[2].relevant == b[2].relevant

    def test_different_seed_differs(self):
        a = gen_synthetic(3, 2, 1, 8, 0.3, seed=9)
        b = gen_synthetic(3, 2, 1, 8, 0.3, seed=10)
        assert a[0].vectors.tobytes() != b[0].vectors.tobytes()

    def test_unit_rows(self):
        gallery, queries, _ = gen_synthetic(4, 3, 2, 32, 0.5, seed=2)
        for emb in (gallery, queries):
            norms = np.linalg.norm(emb.vectors.astype(np.float64), axis=1)
            assert np.abs(norms - 1.0).max() < 1e-6

    def test_gt_references_gallery(self):
        gallery, queries, gt = gen_synthetic(4, 3, 2, 8, 0.2, seed=3)
        gallery_ids = set(gallery.ids)
        assert set(gt.relevant) == set(queries.ids)
        for rel in gt.relevant.values():
            assert rel <= gallery_ids
            assert len(rel) == 3

    @pytest.mark.parametrize("budget", ["one-class", "three-classes", "default"])
    def test_chunked_draw_equals_one_draw(self, tmp_path, monkeypatch, budget):
        """EMB1 and ground-truth bytes equal the oracle's one-draw benchmark with
        one class per chunk, with 3 classes per chunk (8 classes: the last chunk
        holds 2), and with the default budget (one chunk here)."""
        shape = (8, 5, 2, 12, 0.2, 17)
        per_class = (1 + 5 + 2) * 12  # float64 elements
        if budget != "default":
            classes = 3 if budget == "three-classes" else 1
            monkeypatch.setattr(evalbench, "DRAW_BUDGET", classes * per_class)
        g_ids, g_rows, q_ids, q_rows, relevant = naive_gen_synthetic(*shape)
        gallery, queries, gt = gen_synthetic(*shape)
        for got, ids, rows in ((gallery, g_ids, g_rows), (queries, q_ids, q_rows)):
            save_embeddings(got, tmp_path / "got.emb")
            save_embeddings(EmbeddingSet(ids, rows), tmp_path / "want.emb")
            assert (tmp_path / "got.emb").read_bytes() == (tmp_path / "want.emb").read_bytes()
        save_ground_truth(gt, tmp_path / "got.jsonl")
        save_ground_truth(GroundTruth(relevant), tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_memory_bound_at_mining_shape(self):
        """1333 classes x 14 vectors x 64 (the pipeline's mining set): beside
        its float32 outputs the draw holds one DRAW_BUDGET float64 chunk and
        the ids; one float64 draw of the whole set peaked at 17.5 MB here."""
        gen_synthetic(2, 2, 1, 4, 0.1, seed=1)  # numpy.random's first use allocates once
        tracemalloc.start()
        try:
            gallery, queries, _ = gen_synthetic(1333, 12, 1, 64, 0.07, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = gallery.vectors.nbytes + queries.vectors.nbytes
        assert peak <= outputs + 4e6, f"peak {peak / 1e6:.1f} MB, outputs {outputs / 1e6:.1f} MB"

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            gen_synthetic(0, 1, 1, 8, 0.1, seed=0)
        with pytest.raises(InvalidParams):
            gen_synthetic(1, 1, 1, 1, 0.1, seed=0)
        with pytest.raises(InvalidParams):
            gen_synthetic(1, 1, 1, 8, -0.1, seed=0)


def test_ground_truth_round_trip(tmp_path):
    gt = GroundTruth({"q0": {"a", "b"}, "q1": {"c"}})
    path = tmp_path / "gt.jsonl"
    save_ground_truth(gt, path)
    assert load_ground_truth(path).relevant == gt.relevant


def test_ground_truth_empty_relevant_rejected():
    with pytest.raises(ValueError):
        GroundTruth({"q": set()})


@pytest.mark.parametrize("text,line", [
    ('{"query": "q0", "relevant": ["a"]}\n{"query": "q1", "rel', 2),
    ('{"query": "q0", "relevant": ["a"]}\n\n{"query": "q1"}\n', 3),
    ('["q0", ["a"]]\n', 1),
    ('{"query": "q0", "relevant": ["a"]}\n{"query": "q0", "relevant": ["b"]}\n', 2),
    ('{"query": "q0", "relevant": "ab"}\n', 1),
    ('{"query": "q0", "relevant": ["a"]}\n{"query": "q1", "relevant": []}\n', 2),
    ('{"query": "q0", "relevant": ["a", 1]}\n', 1),
    ('{"query": 0, "relevant": ["a"]}\n', 1),
    (b'{"query": "q0", "relevant": ["a"]}\n{"query": "q1", "relevant": ["\xff"]}\n', 2),
], ids=["truncated", "no-relevant", "not-an-object", "query-twice", "relevant-a-string",
        "relevant-empty", "relevant-id-a-number", "query-a-number", "not-utf8"])
def test_malformed_ground_truth_names_its_line(tmp_path, text, line):
    path = tmp_path / "gt.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(MalformedFile, match=f" line {line}: "):
        load_ground_truth(path)
