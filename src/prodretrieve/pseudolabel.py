"""Confidence-filtered pseudo-label clustering over training embeddings.

Clusters are connected components of the thresholded cosine-similarity
graph. Only small components count as confident pseudo-classes; everything
else falls back to a pool from which singleton classes are sampled to
reach a target class count.

`cluster_features` scans the upper triangle of the similarity matrix in
float32, one tile of `BLOCK` rows x `TILE` columns at a time, and re-decides
in float64 every pair whose float32 score lies within a rounding-error
margin of the threshold. Its scan memory is O(BLOCK * TILE) float32 plus the
candidate pairs of one tile, independent of n (8.4 MB of float32 and a 2.1 MB
mask); beside it only the input and O(n) union-find state grow with n. Its
clusters do not depend on the tile shape, the BLAS kernel or its thread count.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingSet
from .errors import (
    InvalidParams,
    MalformedClusters,
    NotNormalized,
    PoolTooSmall,
    TargetBelowClusterCount,
)
from .fileio import atomic_open, compact_json, read_json, string_list
from .search import NORM_TOL, _norm_deviation

CONFIDENT_MAX_SIZE = 10  # kept clusters must be strictly smaller than this
BLOCK = 512  # rows per similarity tile
TILE = 4096  # columns per similarity tile: BLOCK x TILE float32 is 8.4 MB


@dataclass(frozen=True)
class ClusterResult:
    """Disjoint clusters plus the unclustered singleton pool."""

    clusters: tuple[tuple[str, ...], ...]
    unclustered_pool: tuple[str, ...]
    similarity_threshold: float

    def __post_init__(self):
        object.__setattr__(
            self, "clusters", tuple(tuple(c) for c in self.clusters)
        )
        object.__setattr__(self, "unclustered_pool", tuple(self.unclustered_pool))
        t = self.similarity_threshold
        if not isinstance(t, float) or not 0.0 < t < 1.0:
            raise ValueError(f"threshold must be a number in (0,1), got {t!r:.60}")
        seen = set()
        for cluster in self.clusters:
            if len(cluster) < 2:
                raise ValueError("kept clusters must have size >= 2")
            for item in cluster:
                if item in seen:
                    raise ValueError(f"id {item!r} appears twice")
                seen.add(item)
        for item in self.unclustered_pool:
            if item in seen:
                raise ValueError(f"id {item!r} in both a cluster and the pool")
            seen.add(item)

    @property
    def all_ids(self) -> frozenset:
        ids = set(self.unclustered_pool)
        for cluster in self.clusters:
            ids.update(cluster)
        return frozenset(ids)


@dataclass(frozen=True)
class PseudoLabelAssignment:
    class_of: dict
    n_classes: int
    n_cluster_classes: int
    n_singleton_classes: int
    n_images: int


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _similar_pairs(vectors: np.ndarray, threshold: float):
    """Yield (rows, cols) index arrays, rows < cols, one tile at a time, of
    every pair whose float64 dot (`_dot64`) is >= threshold.

    The upper triangle is walked in tiles of `BLOCK` rows x `TILE` columns,
    each row block's tiles starting at its own first row, so only a tile that
    crosses the diagonal holds pairs with cols <= rows. All tiles share one
    float32 buffer and one bool mask: the memory beside the input is
    O(BLOCK * TILE) plus the candidates of one tile, whatever n is.

    A float32 dot of d terms is within gamma_d * |a| |b| ~= d * eps32 / 2 *
    (1 + NORM_TOL)^2 of the exact dot in any summation order (Higham,
    "Accuracy and Stability of Numerical Algorithms", eq. 3.5), and the
    float64 dot is within d * eps64 of it. The margin 2 (d + 2) eps32 is
    more than four times that and also covers rounding threshold +- margin
    to float32. So a float32 score below threshold - margin is a sure no,
    one at or above threshold + margin a sure yes, and only the scores in
    between are decided in float64. The pairs therefore do not depend on
    the tile shape either.
    """
    n, d = vectors.shape
    margin = 2 * (d + 2) * float(np.finfo(np.float32).eps)
    lo, hi = np.float32(threshold - margin), np.float32(threshold + margin)
    size = min(BLOCK, n) * min(TILE, n)
    buf = np.empty(size, dtype=np.float32)
    mask_buf = np.empty(size, dtype=bool)
    for r0 in range(0, n, BLOCK):
        block = vectors[r0:r0 + BLOCK]
        r1 = r0 + len(block)
        for c0 in range(r0, n, TILE):
            tile = vectors[c0:c0 + TILE]
            width = len(tile)
            sims = buf[:len(block) * width].reshape(len(block), width)
            np.matmul(block, tile.T, out=sims)
            mask = mask_buf[:sims.size].reshape(sims.shape)
            flat = np.flatnonzero(np.greater_equal(sims, lo, out=mask))
            rows, cols = np.divmod(flat, width)
            rows += r0
            cols += c0
            if c0 < r1:  # the tile crosses the diagonal
                upper = cols > rows
                flat, rows, cols = flat[upper], rows[upper], cols[upper]
            keep = sims.ravel()[flat] >= hi
            unsure = ~keep
            keep[unsure] = _dot64(vectors[rows[unsure]], vectors[cols[unsure]]) >= threshold
            yield rows[keep], cols[keep]


def _dot64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise float64 dot, summed left to right: float32 products are exact
    in float64, and a running sum fixes the order of the additions."""
    return np.cumsum(a.astype(np.float64) * b.astype(np.float64), axis=1)[:, -1]


def cluster_features(emb: EmbeddingSet, threshold: float) -> ClusterResult:
    """Connected components of the cos(v_i, v_j) >= threshold graph, where
    cos is the float64 dot summed left to right (see `_similar_pairs`).

    Components of size >= 2 become clusters (listed by smallest member id,
    members ascending); singletons go to the pool.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidParams(f"threshold must be in (0,1), got {threshold}")
    n = len(emb)
    if _norm_deviation(emb.vectors) > NORM_TOL:
        raise NotNormalized("cluster_features requires unit-norm rows")

    uf = _UnionFind(n)
    for rows, cols in _similar_pairs(emb.vectors, threshold):
        for i, j in zip(rows.tolist(), cols.tolist()):
            uf.union(i, j)

    members: dict[int, list[str]] = {}
    for i in range(n):
        members.setdefault(uf.find(i), []).append(emb.ids[i])
    clusters = []
    pool = []
    for group in members.values():
        if len(group) >= 2:
            clusters.append(tuple(sorted(group)))
        else:
            pool.extend(group)
    clusters.sort(key=lambda c: c[0])
    return ClusterResult(
        clusters=tuple(clusters),
        unclustered_pool=tuple(sorted(pool)),
        similarity_threshold=threshold,
    )


def filter_confident(
    result: ClusterResult, max_size: int = CONFIDENT_MAX_SIZE
) -> ClusterResult:
    """Keep clusters strictly smaller than max_size; demote the rest."""
    kept = []
    pool = list(result.unclustered_pool)
    for cluster in result.clusters:
        if len(cluster) < max_size:
            kept.append(cluster)
        else:
            pool.extend(cluster)
    return ClusterResult(
        clusters=tuple(kept),
        unclustered_pool=tuple(sorted(pool)),
        similarity_threshold=result.similarity_threshold,
    )


def assign_pseudo_labels(
    kept: ClusterResult, target_classes: int, seed: int
) -> PseudoLabelAssignment:
    """One class per kept cluster plus seeded singleton fill from the pool."""
    n_cluster = len(kept.clusters)
    if target_classes < n_cluster:
        raise TargetBelowClusterCount(
            f"target {target_classes} < {n_cluster} kept clusters"
        )
    n_single = target_classes - n_cluster
    pool = list(kept.unclustered_pool)
    if len(pool) < n_single:
        raise PoolTooSmall(
            f"pool of {len(pool)} cannot supply {n_single} singleton classes"
        )

    class_of: dict[str, int] = {}
    n_images = 0
    for ci, cluster in enumerate(kept.clusters):
        for item in cluster:
            class_of[item] = ci
        n_images += len(cluster)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n_single, replace=False)
    for offset, pi in enumerate(chosen):
        class_of[pool[int(pi)]] = n_cluster + offset
    n_images += n_single

    return PseudoLabelAssignment(
        class_of=class_of,
        n_classes=target_classes,
        n_cluster_classes=n_cluster,
        n_singleton_classes=n_single,
        n_images=n_images,
    )


# --- on-disk formats ---

def save_clusters(result: ClusterResult, path) -> None:
    payload = {
        "threshold": result.similarity_threshold,
        "clusters": [list(c) for c in result.clusters],
        "pool": list(result.unclustered_pool),
    }
    with atomic_open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_clusters(path) -> ClusterResult:
    """Read a `save_clusters` file; a truncated or foreign file, ids that are
    not arrays of strings, or a threshold outside (0,1) raise MalformedClusters."""
    return read_json(path, lambda obj: ClusterResult(
        [string_list(c) for c in obj["clusters"]], string_list(obj["pool"]), obj["threshold"]
    ), MalformedClusters)


def save_assignment(assignment: PseudoLabelAssignment, path) -> None:
    """JSON Lines of {"id": ..., "class": int}, in ascending id order."""
    with atomic_open(path, "w") as fh:
        for item in sorted(assignment.class_of):
            fh.write(compact_json(
                {"id": item, "class": assignment.class_of[item]}
            ) + "\n")
