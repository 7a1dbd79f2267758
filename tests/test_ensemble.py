import tracemalloc

import numpy as np
import pytest

from oracles import naive_borda
from prodretrieve.ensemble import max_ensemble, vote_ensemble
from prodretrieve.errors import DuplicateBallot, IdMismatch, ShapeMismatch
from prodretrieve.search import DistanceMatrix, RankingList, topk


def matrix(vals, qids=None, gids=None):
    vals = np.asarray(vals, dtype=np.float32)
    qids = qids or tuple(f"q{i}" for i in range(vals.shape[0]))
    gids = gids or tuple(f"g{j}" for j in range(vals.shape[1]))
    return DistanceMatrix(qids, gids, vals)


def rl(query, gids):
    return RankingList(query, tuple((g, float(i)) for i, g in enumerate(gids)))


class TestMaxEnsemble:
    def test_single_model_preserves_order(self):
        rng = np.random.default_rng(30)
        m = matrix(rng.random((3, 8)))
        out = max_ensemble([m])
        for a, b in zip(topk(m, 8), topk(out, 8)):
            assert a.gallery_ids == b.gallery_ids

    def test_identical_models_equal_single(self):
        rng = np.random.default_rng(31)
        m = matrix(rng.random((2, 5)))
        single = max_ensemble([m])
        double = max_ensemble([m, m])
        np.testing.assert_array_equal(single.values, double.values)

    def test_hand_computed_cells(self):
        a = matrix([[0.2, 0.6, 1.0], [0.0, 0.5, 1.0]])
        b = matrix([[0.9, 0.1, 0.5], [1.0, 1.0, 1.0]])
        out = max_ensemble([a, b])
        # row-wise: sim_a row0 = (1, .5, 0); sim_b row0 = (0, 1, .5)
        # max = (1, 1, .5) -> distance (0, 0, .5)
        np.testing.assert_allclose(out.values[0], [0.0, 0.0, 0.5], atol=1e-7)
        # b row1 is constant -> all-zero similarity; a row1 sim = (1, .5, 0)
        np.testing.assert_allclose(out.values[1], [0.0, 0.5, 1.0], atol=1e-7)

    def test_member_order_invariance(self):
        rng = np.random.default_rng(32)
        ms = [matrix(rng.random((4, 6))) for _ in range(3)]
        a = max_ensemble(ms)
        b = max_ensemble(list(reversed(ms)))
        np.testing.assert_array_equal(a.values, b.values)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(33)
        a = matrix(rng.random((3, 10)))
        b = matrix(rng.random((3, 10)))
        base = max_ensemble([a, b])
        rescaled = max_ensemble([matrix(3.0 * a.values + 7.0), b])
        for r1, r2 in zip(topk(base, 10), topk(rescaled, 10)):
            assert r1.gallery_ids == r2.gallery_ids

    def test_all_zero_similarity_member_is_neutral(self):
        rng = np.random.default_rng(34)
        a = matrix(rng.random((3, 5)))
        flat = matrix(np.full((3, 5), 0.7))  # constant rows -> zero similarity
        np.testing.assert_array_equal(
            max_ensemble([a]).values, max_ensemble([a, flat]).values
        )

    def test_peak_memory_independent_of_member_count(self):
        """Members folded in as an iterator yields them: the peak is one
        float32 member plus two float64 arrays of its shape (5x its bytes),
        at 5 members as at 20. Holding every member took 13x at 5."""
        qids = tuple(f"q{i}" for i in range(100))
        gids = tuple(f"g{j}" for j in range(4000))

        def traced_peak(n):
            members = (
                matrix(np.random.default_rng(s).random((100, 4000), np.float32), qids, gids)
                for s in range(n)
            )
            tracemalloc.start()
            try:
                max_ensemble(members)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak5, peak20 = traced_peak(5), traced_peak(20)
        assert peak20 <= 1.05 * peak5
        assert peak5 < 6 * 100 * 4000 * 4

    def test_shape_and_id_mismatch(self):
        a = matrix(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            max_ensemble([a, matrix(np.zeros((2, 4)))])
        with pytest.raises(IdMismatch):
            max_ensemble([a, matrix(np.zeros((2, 3)), qids=("x", "y"))])


class TestVoteEnsemble:
    def test_single_model_unchanged(self):
        lists = [rl("q0", ["x", "y", "z"]), rl("q1", ["z", "x"])]
        out = vote_ensemble([lists], k=3)
        assert out[0].gallery_ids == ("x", "y", "z")
        assert out[1].gallery_ids == ("z", "x")

    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_identical_models_unchanged(self, m):
        lists = [rl("q0", ["c", "a", "b"])]
        out = vote_ensemble([lists] * m, k=3)
        assert out[0].gallery_ids == ("c", "a", "b")

    def test_borda_example(self):
        models = [
            [rl("q", ["x", "y", "z"])],
            [rl("q", ["y", "x", "z"])],
            [rl("q", ["y", "z", "x"])],
        ]
        out = vote_ensemble(models, k=3)
        assert out[0].gallery_ids == ("y", "x", "z")
        # weights k+1-r with k=3: x = 3+2+1, y = 2+3+3, z = 1+1+2
        assert dict(out[0].entries) == {"x": 6.0, "y": 8.0, "z": 4.0}

    def test_matches_naive_borda(self):
        rng = np.random.default_rng(35)
        items = [f"g{i}" for i in range(12)]
        models = []
        oracle_models = []
        for _ in range(4):
            per_model, oracle = [], {}
            for q in ["qa", "qb", "qc"]:
                if rng.random() < 0.2:
                    continue  # missing ballot
                picks = list(rng.permutation(items)[:6])
                per_model.append(rl(q, picks))
                oracle[q] = picks
            models.append(per_model)
            oracle_models.append(oracle)
        out = vote_ensemble(models, k=10)
        expect = naive_borda(oracle_models, 10)
        assert len(out) == len(expect)
        for got in out:
            assert list(got.entries) == [
                (g, float(p)) for g, p in expect[got.query_id]
            ]

    def test_member_order_invariance(self):
        models = [
            [rl("q", ["x", "y"])],
            [rl("q", ["y", "z"])],
            [rl("q", ["z", "x"])],
        ]
        a = vote_ensemble(models, k=3)
        b = vote_ensemble(list(reversed(models)), k=3)
        assert a[0].entries == b[0].entries

    def test_missing_ballot_changes_only_that_query(self):
        m1 = [rl("q0", ["x", "y"]), rl("q1", ["y", "x"])]
        m2 = [rl("q0", ["y", "x"]), rl("q1", ["x", "y"])]
        full = {r.query_id: r for r in vote_ensemble([m1, m2], k=3)}
        partial = {r.query_id: r for r in vote_ensemble([m1, m2[:1]], k=3)}
        assert full["q0"].entries == partial["q0"].entries
        assert full["q1"].entries != partial["q1"].entries

    def test_duplicate_ballot(self):
        with pytest.raises(DuplicateBallot):
            vote_ensemble([[rl("q", ["x"]), rl("q", ["y"])]], k=3)

    def test_tie_break_cascade(self):
        # equal points: "b" ranked by two models, "a" by one
        models = [
            [rl("q", ["b"])],       # b: 2 points
            [rl("q", ["a", "b"])],  # a: 2 points, b: +1
        ]
        out = vote_ensemble(models, k=2)
        # b has 3 points, a has 2 -> b first
        assert out[0].gallery_ids == ("b", "a")
        # now engineer an exact points tie with different voter counts
        models = [
            [rl("q", ["a", "b"])],  # a:2 b:1
            [rl("q", ["b"])],       # b:2 -> a:2, b:3
            [rl("q", ["a"])],       # a:2 -> a:4... adjust
        ]
        # simpler: a gets rank1 once (2 pts); b gets rank2 twice (1+1 pts=2)
        models = [
            [rl("q", ["a", "b"])],
            [rl("q", ["c", "b"])],
        ]
        out = vote_ensemble(models, k=3)
        # points: a=2, b=2, c=2; voters: a=1, b=2, c=1 -> b, then a, c by id
        assert out[0].gallery_ids == ("b", "a", "c")
