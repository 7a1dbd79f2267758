"""Confidence-filtered pseudo-label clustering over training embeddings.

Clusters are connected components of the thresholded cosine-similarity
graph. Only small components count as confident pseudo-classes; everything
else falls back to a pool from which singleton classes are sampled to
reach a target class count.

`cluster_features` scans the upper triangle of the similarity matrix in
float32, one block of `BLOCK` rows at a time, and re-decides in float64
every pair whose float32 score lies within a rounding-error margin of the
threshold. Its memory beside the input is O(BLOCK * n) float32 for one
block plus the candidate pairs, and its clusters do not depend on the
BLAS kernel or its thread count.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .embed_store import EmbeddingSet
from .errors import (
    MalformedClusters,
    NotNormalized,
    PoolTooSmall,
    TargetBelowClusterCount,
)
from .fileio import atomic_open, compact_json
from .search import NORM_TOL, _norm_deviation

CONFIDENT_MAX_SIZE = 10  # kept clusters must be strictly smaller than this
BLOCK = 512  # rows per similarity block: a BLOCK x n float32 buffer


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
    """Yield (rows, cols) index arrays, rows < cols, one row block at a time,
    of every pair whose float64 dot (`_dot64`) is >= threshold.

    A float32 dot of d terms is within gamma_d * |a| |b| ~= d * eps32 / 2 *
    (1 + NORM_TOL)^2 of the exact dot in any summation order (Higham,
    "Accuracy and Stability of Numerical Algorithms", eq. 3.5), and the
    float64 dot is within d * eps64 of it. The margin 2 (d + 2) eps32 is
    more than four times that and also covers rounding threshold +- margin
    to float32. So a float32 score below threshold - margin is a sure no,
    one at or above threshold + margin a sure yes, and only the scores in
    between are decided in float64.
    """
    n, d = vectors.shape
    margin = 2 * (d + 2) * float(np.finfo(np.float32).eps)
    lo, hi = np.float32(threshold - margin), np.float32(threshold + margin)
    # one buffer for every block, so no two blocks are ever held at once
    buf = np.empty(min(BLOCK, n) * n, dtype=np.float32)
    for start in range(0, n, BLOCK):
        block = vectors[start:start + BLOCK]
        width = n - start  # the upper triangle: columns start..n-1
        sims = buf[:len(block) * width].reshape(len(block), width)
        np.matmul(block, vectors[start:].T, out=sims)
        flat = np.flatnonzero(sims >= lo)
        rows, cols = np.divmod(flat, width)
        upper = cols > rows
        flat, rows, cols = flat[upper], rows[upper] + start, cols[upper] + start
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
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
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
    """Read a `save_clusters` file; a truncated or foreign file raises
    MalformedClusters."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            return ClusterResult(
                clusters=tuple(tuple(c) for c in obj["clusters"]),
                unclustered_pool=tuple(obj["pool"]),
                similarity_threshold=obj["threshold"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedClusters(
                f"{path} is not a cluster file: {type(exc).__name__}: {exc}"
            ) from exc


def save_assignment(assignment: PseudoLabelAssignment, path) -> None:
    """JSON Lines of {"id": ..., "class": int}, in ascending id order."""
    with atomic_open(path, "w") as fh:
        for item in sorted(assignment.class_of):
            fh.write(compact_json(
                {"id": item, "class": assignment.class_of[item]}
            ) + "\n")
