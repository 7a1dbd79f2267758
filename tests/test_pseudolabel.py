import io
import json
import tracemalloc

import numpy as np
import pytest

from oracles import naive_components, naive_pairs
from prodretrieve import pseudolabel
from prodretrieve.embed_store import EmbeddingSet, l2_normalize
from prodretrieve.errors import NotNormalized, PoolTooSmall, TargetBelowClusterCount
from prodretrieve.evalbench import gen_synthetic
from prodretrieve.search import NORM_SLICE
from prodretrieve.pseudolabel import (
    ClusterResult,
    assign_pseudo_labels,
    cluster_features,
    filter_confident,
    load_clusters,
    save_clusters,
)


def unit_set(ids, rows):
    return l2_normalize(
        EmbeddingSet(ids=tuple(ids), vectors=np.asarray(rows, dtype=np.float32))
    )


def grouped_points(seed, n_groups=10, per_group=5, n_noise=0, dim=16, sigma=0.05):
    rng = np.random.default_rng(seed)
    ids, rows = [], []
    for g in range(n_groups):
        centroid = rng.normal(size=dim)
        for i in range(per_group):
            ids.append(f"c{g:02d}_{i}")
            rows.append(centroid + sigma * rng.normal(size=dim))
    for i in range(n_noise):
        ids.append(f"noise_{i}")
        rows.append(rng.normal(size=dim))
    return unit_set(ids, rows)


def traced_cluster_features(emb, threshold):
    """cluster_features and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = cluster_features(emb, threshold)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def n_pairs(emb, threshold):
    return sum(len(rows) for rows, _ in pseudolabel._similar_pairs(emb.vectors, threshold))


class TestClusterFeatures:
    def test_orthogonal_yields_no_clusters(self):
        emb = unit_set(["a", "b", "c"], np.eye(3))
        result = cluster_features(emb, 0.99)
        assert result.clusters == ()
        assert set(result.unclustered_pool) == {"a", "b", "c"}

    def test_two_identical_one_orthogonal(self):
        emb = unit_set(["a", "b", "c"], [[1, 0], [1, 0], [0, 1]])
        result = cluster_features(emb, 0.9)
        assert result.clusters == (("a", "b"),)
        assert result.unclustered_pool == ("c",)

    def test_matches_union_find_oracle(self):
        emb = grouped_points(40, n_noise=10)
        result = cluster_features(emb, 0.8)
        clusters, pool = naive_components(
            emb.vectors.tolist(), list(emb.ids), 0.8
        )
        assert result.clusters == tuple(clusters)
        assert result.unclustered_pool == tuple(pool)

    def test_requires_normalized(self):
        two_rows = EmbeddingSet(("a", "b"), np.array([[2.0, 0], [0, 2.0]], np.float32))
        # unit rows but the last, which sits alone in the last slice of the
        # sliced unit-norm check
        dim = 64
        n = NORM_SLICE // dim + 1
        unit = unit_set([f"r{i}" for i in range(n)],
                        np.random.default_rng(5).normal(size=(n, dim)))
        vecs = unit.vectors.copy()
        vecs[-1] *= 2
        for emb in (two_rows, EmbeddingSet(unit.ids, vecs)):
            with pytest.raises(NotNormalized):
                cluster_features(emb, 0.5)

    def test_threshold_monotone(self):
        emb = grouped_points(41, n_groups=6, sigma=0.3)
        low = cluster_features(emb, 0.6)
        high = cluster_features(emb, 0.9)

        def component_of(result):
            comp = {}
            for ci, cluster in enumerate(result.clusters):
                for item in cluster:
                    comp[item] = ci
            return comp

        low_comp, high_comp = component_of(low), component_of(high)
        # same high-threshold component implies same low-threshold component
        for cluster in high.clusters:
            roots = {low_comp.get(item, ("pool", item)) for item in cluster}
            assert len(roots) == 1

    def test_partition_preserved(self):
        emb = grouped_points(42, n_noise=7)
        result = cluster_features(emb, 0.8)
        assert result.all_ids == frozenset(emb.ids)

    @pytest.mark.parametrize("block,tile", [(None, None), (16, 24), (24, 16)],
                             ids=["None", "16", "24"])
    def test_matches_oracle_across_block_boundaries(self, monkeypatch, block, tile):
        """n a multiple of neither BLOCK nor TILE, groups scattered over
        several blocks, and exact duplicates on both sides of a row-block
        boundary and in the first and last column of a column tile. The id
        is the block size."""
        if block is not None:
            monkeypatch.setattr(pseudolabel, "BLOCK", block)
            monkeypatch.setattr(pseudolabel, "TILE", tile)
        block, tile = pseudolabel.BLOCK, pseudolabel.TILE
        base = grouped_points(43, n_groups=block // 5 + 10, per_group=6, n_noise=13, dim=8)
        n = len(base)
        assert n > block + 40 and n % block and n % tile
        order = np.random.default_rng(43).permutation(n)
        rows = base.vectors[order].copy()
        # (source, copy): across a row-block boundary, in the first and last
        # blocks, and a third copy
        copies = [(block - 1, block), (0, n - 1), (block - 1, block + 1)]
        if tile < n:
            # first and last column of a tile of row block 0, first column of
            # the second tile of row block 1
            copies += [(1, tile), (2, tile - 1), (block + 2, block + tile)]
        for src, dst in copies:
            rows[dst] = rows[src]
        emb = EmbeddingSet(tuple(f"x{i:04d}" for i in range(n)), rows)
        for threshold in (0.8, 0.95):
            result = cluster_features(emb, threshold)
            clusters, pool = naive_components(emb.vectors.tolist(), list(emb.ids), threshold)
            assert result.clusters == tuple(clusters)
            assert result.unclustered_pool == tuple(pool)
            found = [
                pair for r, c in pseudolabel._similar_pairs(emb.vectors, threshold)
                for pair in zip(r.tolist(), c.tolist())
            ]
            assert sorted(found) == naive_pairs(emb.vectors.tolist(), threshold)
            blocks_of = [{int(i[1:]) // block for i in c} for c in result.clusters]
            assert sum(len(b) > 1 for b in blocks_of) >= 5
            for i, j in copies:
                assert any(f"x{i:04d}" in c and f"x{j:04d}" in c for c in result.clusters)

    @pytest.mark.parametrize("block,tile", [(None, None), (16, 24), (24, 16)],
                             ids=["None", "16", "24"])
    def test_chain_across_tiles_in_reverse_order(self, monkeypatch, block, tile):
        """One chain whose links (cos 0.9 between neighbours, 0.8 two apart,
        threshold 0.85) run from the last row to the first, across every row
        block and column tile, plus rows joined to nothing. Each link joins two
        trees the union-find built in earlier tiles. The id is the block size."""
        if block is not None:
            monkeypatch.setattr(pseudolabel, "BLOCK", block)
            monkeypatch.setattr(pseudolabel, "TILE", tile)
        length, window = (130, 10) if block is not None else (2 * pseudolabel.BLOCK + 60, 10)
        dim = length + window + 3
        rows = np.zeros((length + 3, dim), np.float32)
        for k in range(length):  # link k sits at row length - 1 - k
            rows[length - 1 - k, k:k + window] = 1.0
        rows[length:, dim - 3:] = np.eye(3)
        emb = unit_set([f"x{i:04d}" for i in range(len(rows))], rows)
        result = cluster_features(emb, 0.85)
        assert result.clusters == (tuple(emb.ids[:length]),)
        assert result.unclustered_pool == emb.ids[length:]
        if block is not None:
            clusters, pool = naive_components(emb.vectors.tolist(), list(emb.ids), 0.85)
            assert result.clusters == tuple(clusters)
            assert result.unclustered_pool == tuple(pool)

    def test_threshold_edge_decided_in_float64(self):
        """At a threshold equal to a pair's float64 dot the pair is joined,
        one float64 step above it is not. Both thresholds round to the same
        float32 value, so a float32-only decision fails one of the two."""
        rng = np.random.default_rng(45)
        a = rng.normal(size=16)
        emb = unit_set(["a", "b", "c"], [a, a + 0.3 * rng.normal(size=16), rng.normal(size=16)])
        threshold = 0.0
        for x, y in zip(emb.vectors[0].tolist(), emb.vectors[1].tolist()):
            threshold += x * y  # float64, left to right
        above = np.nextafter(threshold, 1.0)
        assert 0.5 < threshold < 0.99
        assert np.float32(threshold) == np.float32(above)
        assert cluster_features(emb, threshold).clusters == (("a", "b"),)
        assert cluster_features(emb, above).clusters == ()

    def test_memory_bound_at_mining_shape(self):
        """15,996 x 64 (the pipeline's mining set): one 512-row float32 block
        is 33 MB; the full-width float64 scan this replaced peaked at 271 MB."""
        emb, _, _ = gen_synthetic(1333, 12, 1, 64, 0.07, seed=7)
        assert len(emb) == 15996
        tracemalloc.start()
        try:
            result = cluster_features(emb, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.clusters) > 1000
        assert peak < 64e6

    def test_tiled_memory_bound_at_mining_shape(self):
        """One 1024 x 256 float32 tile is 1.0 MB and the union-find 4 bytes a
        row; 512 x 4096 tiles and a Python union-find peaked at 11.2 MB here,
        a scan through one 512-row x n block at 41.6 MB."""
        emb, _, _ = gen_synthetic(1333, 12, 1, 64, 0.07, seed=7)
        assert len(emb) == 15996
        result, peak = traced_cluster_features(emb, 0.8)
        assert len(result.clusters) > 1000
        assert peak < 4e6

    def test_traced_peak_independent_of_n(self):
        """From n to 2n (both above TILE) the peak may grow only by what is
        O(n) anyway, the input and the pairs (two int64 indices each), plus
        1 MB: the tile buffer must not grow. A BLOCK x n block would add
        16 MB here."""
        small, _, _ = gen_synthetic(666, 12, 1, 64, 0.07, seed=7)
        large, _, _ = gen_synthetic(1332, 12, 1, 64, 0.07, seed=7)
        assert len(large) == 2 * len(small) > 2 * pseudolabel.TILE
        (_, small_peak), (_, large_peak) = (
            traced_cluster_features(emb, 0.8) for emb in (small, large)
        )
        pair_growth = n_pairs(large, 0.8) - n_pairs(small, 0.8)
        slack = large.vectors.nbytes - small.vectors.nbytes + 16 * pair_growth + 1e6
        assert large_peak - small_peak <= slack


class TestFilterConfident:
    def _result(self, sizes):
        clusters = []
        n = 0
        for s in sizes:
            clusters.append(tuple(f"i{n + j:04d}" for j in range(s)))
            n += s
        return ClusterResult(tuple(clusters), ("pool_a", "pool_b"), 0.8)

    def test_all_small_unchanged(self):
        r = self._result([2, 2, 3])
        assert filter_confident(r).clusters == r.clusters

    def test_size_ten_rejected(self):
        r = self._result([10])
        out = filter_confident(r)
        assert out.clusters == ()
        assert len(out.unclustered_pool) == 12

    def test_mixed_sizes(self):
        r = self._result([3, 9, 10, 40])
        out = filter_confident(r)
        assert sorted(len(c) for c in out.clusters) == [3, 9]
        assert len(out.unclustered_pool) == 2 + 50
        # the demoted ids ("i...") sort before the pool's own ("pool_...")
        assert out.unclustered_pool == tuple(sorted(out.unclustered_pool))

    def test_idempotent(self):
        r = self._result([2, 9, 10, 15])
        once = filter_confident(r)
        twice = filter_confident(once)
        assert once == twice

    def test_partition_preserved(self):
        r = self._result([2, 10, 5])
        out = filter_confident(r)
        assert out.all_ids == r.all_ids


class TestAssignLabels:
    def test_small_enumerated_case(self):
        kept = ClusterResult(
            (("a", "b"), ("c", "d"), ("e", "f", "g")),
            tuple(f"p{i}" for i in range(10)),
            0.8,
        )
        a1 = assign_pseudo_labels(kept, target_classes=5, seed=123)
        a2 = assign_pseudo_labels(kept, target_classes=5, seed=123)
        assert a1.class_of == a2.class_of  # same seed, same assignment
        assert a1.n_cluster_classes == 3
        assert a1.n_singleton_classes == 2
        assert a1.n_images == 7 + 2
        assert set(a1.class_of.values()) == set(range(5))
        singles = [i for i, c in a1.class_of.items() if c >= 3]
        assert all(s.startswith("p") for s in singles)

    def test_no_fill_needed(self):
        kept = ClusterResult((("a", "b"), ("c", "d")), ("p0",), 0.8)
        out = assign_pseudo_labels(kept, target_classes=2, seed=0)
        assert out.n_singleton_classes == 0
        assert out.n_images == 4

    def test_seed_changes_selection(self):
        kept = ClusterResult(
            (("a", "b"),), tuple(f"p{i}" for i in range(50)), 0.8
        )
        picks = {
            frozenset(
                i for i, c in assign_pseudo_labels(kept, 11, seed).class_of.items()
                if c >= 1
            )
            for seed in range(5)
        }
        assert len(picks) > 1

    def test_errors(self):
        kept = ClusterResult((("a", "b"),), ("p0",), 0.8)
        with pytest.raises(TargetBelowClusterCount):
            assign_pseudo_labels(kept, target_classes=0, seed=0)
        with pytest.raises(PoolTooSmall):
            assign_pseudo_labels(kept, target_classes=5, seed=0)

    def test_arithmetic_law_random_fixtures(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            n_clusters = int(rng.integers(1, 8))
            sizes = rng.integers(2, 9, size=n_clusters)
            clusters, n = [], 0
            for s in sizes:
                clusters.append(tuple(f"i{n + j:04d}" for j in range(int(s))))
                n += int(s)
            pool = tuple(f"p{i}" for i in range(int(rng.integers(5, 30))))
            kept = ClusterResult(tuple(clusters), pool, 0.8)
            target = n_clusters + int(rng.integers(0, len(pool) + 1))
            out = assign_pseudo_labels(kept, target, seed=1)
            assert out.n_classes == out.n_cluster_classes + out.n_singleton_classes
            assert out.n_images == int(sizes.sum()) + out.n_singleton_classes
            assert sorted(set(out.class_of.values())) == list(range(out.n_classes))


def test_cluster_file_round_trip(tmp_path):
    result = ClusterResult((("a", "b"),), ("c",), 0.85)
    path = tmp_path / "clusters.json"
    save_clusters(result, path)
    assert load_clusters(path) == result



def test_cluster_file_bytes_equal_json_dump(tmp_path):
    # ids with non-ASCII and escaped characters, 3,000 clusters
    clusters = tuple((f"é{i}", f'q"{i}\\') for i in range(3000))
    result = ClusterResult(clusters, ("ü\n", "z"), 0.85)
    path = tmp_path / "clusters.json"
    save_clusters(result, path)
    want = io.StringIO()
    json.dump({"threshold": 0.85, "clusters": [list(c) for c in clusters],
               "pool": ["ü\n", "z"]}, want)
    assert path.read_bytes() == (want.getvalue() + "\n").encode("utf-8")
