"""Confidence-filtered pseudo-label clustering over training embeddings.

Clusters are connected components of the thresholded cosine-similarity
graph. Only small components count as confident pseudo-classes; everything
else falls back to a pool from which singleton classes are sampled to
reach a target class count.

`cluster_features` scans the upper triangle of the similarity matrix in
float32, one tile of `BLOCK` rows x `TILE` columns at a time, and re-decides
in float64 every pair whose float32 score lies within a rounding-error
margin of the threshold, joining each tile's pairs in an int32 union-find
array. Beside the input and the result it holds 4n bytes, the 1.0 MB tile, a
0.26 MB mask and one tile's pairs: a traced 1.5 MB at 16k x 64 (4.5 MB at 48k),
where 512 x 4096 tiles and a Python union-find took 11.2 MB (12.5 MB). Its
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
from .stages import stage

CONFIDENT_MAX_SIZE = 10  # kept clusters must be strictly smaller than this
BLOCK = 1024  # rows per similarity tile
TILE = 256  # columns per similarity tile: BLOCK x TILE float32 is 1.0 MB


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


def _find(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root of each node in x, which then points straight at it; each step
    points the nodes it passes at their grandparents, halving the paths x covers."""
    root = parent[x]
    while not np.array_equal(up := parent[root], root):
        parent[root] = up = parent[up]
        root = up
    parent[x] = root
    return root


def _hook(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of a[i] and b[i] for every i in the forest
    `parent`, where parent[x] <= x: each round points the larger root of every
    edge whose roots differ at the smallest root it meets, until none do."""
    while a.size:
        ra, rb = _find(parent, a), _find(parent, b)
        join = ra != rb
        a, b = np.maximum(ra[join], rb[join]), np.minimum(ra[join], rb[join])
        np.minimum.at(parent, a, b)


def cluster_features(emb: EmbeddingSet, threshold: float, stages=None) -> ClusterResult:
    """Connected components of the cos(v_i, v_j) >= threshold graph, where
    cos is the float64 dot summed left to right (see `_similar_pairs`).

    Components of size >= 2 become clusters (listed by smallest member id,
    members ascending); singletons go to the pool. `stages`, a dict, receives
    the "scan" and "components" stages (see `stages.stage`).
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidParams(f"threshold must be in (0,1), got {threshold}")
    n = len(emb)
    if _norm_deviation(emb.vectors) > NORM_TOL:
        raise NotNormalized("cluster_features requires unit-norm rows")

    with stage("scan", stages):
        parent = np.arange(n, dtype=np.int32)  # int32 union-find: 4 bytes a row
        for rows, cols in _similar_pairs(emb.vectors, threshold):
            _hook(parent, rows, cols)
    with stage("components", stages):
        root = _find(parent, np.arange(n))
        size = np.bincount(root)[root]
        pool = sorted(emb.ids[i] for i in np.flatnonzero(size == 1).tolist())
        grouped = np.flatnonzero(size > 1)
        grouped = grouped[np.argsort(root[grouped], kind="stable")]  # components in turn
        clusters = [tuple(sorted(emb.ids[i] for i in group.tolist()))
                    for group in np.split(grouped, np.flatnonzero(np.diff(root[grouped])) + 1)
                    if group.size]
    clusters.sort(key=lambda c: c[0])
    return ClusterResult(
        clusters=tuple(clusters),
        unclustered_pool=tuple(pool),
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
        # json.dumps, not json.dump: only a one-shot encode uses the C encoder
        fh.write(json.dumps(payload) + "\n")


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
