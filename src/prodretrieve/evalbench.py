"""MAR@10 evaluation, ground-truth files, and a seeded synthetic benchmark.

Recall for one query is |top-k intersect relevant| / min(|relevant|, k),
so a query with more than k relevant items can still score 1.0. Queries
with no ranking list score 0 and are counted separately; the mean is over
every ground-truth query either way.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingSet
from .errors import InvalidParams, UnknownGalleryId
from .fileio import atomic_open, compact_json
from .search import RankingList

DEFAULT_K = 10


@dataclass(frozen=True)
class GroundTruth:
    """Query id -> set of relevant gallery ids (each query has >= 1)."""

    relevant: dict

    def __post_init__(self):
        cleaned = {}
        for qid, rel in self.relevant.items():
            rel = frozenset(rel)
            if not rel:
                raise ValueError(f"query {qid!r} has no relevant items")
            cleaned[qid] = rel
        object.__setattr__(self, "relevant", cleaned)


@dataclass(frozen=True)
class EvalReport:
    mar_at_k: float
    k: int
    per_query: dict
    n_missing: int

    def to_dict(self, include_per_query: bool = False) -> dict:
        obj = {
            "mar_at_k": self.mar_at_k,
            "k": self.k,
            "n_queries": len(self.per_query),
            "n_missing": self.n_missing,
        }
        if include_per_query:
            obj["per_query"] = dict(self.per_query)
        return obj


def mar_at_k(lists, gt: GroundTruth, k: int = DEFAULT_K, gallery_ids=None) -> EvalReport:
    """Mean average recall at depth k over all ground-truth queries."""
    if k < 1:
        raise InvalidParams("k must be >= 1")
    known = set(gallery_ids) if gallery_ids is not None else None
    by_query: dict[str, RankingList] = {}
    for rl in lists:
        by_query[rl.query_id] = rl
        if known is not None:
            for gid in rl.gallery_ids:
                if gid not in known:
                    raise UnknownGalleryId(
                        f"query {rl.query_id!r} ranked unknown gallery id {gid!r}"
                    )

    per_query = {}
    n_missing = 0
    for qid in sorted(gt.relevant):
        rl = by_query.get(qid)
        if rl is None:
            per_query[qid] = 0.0
            n_missing += 1
            continue
        rel = gt.relevant[qid]
        hits = sum(1 for gid in rl.gallery_ids[:k] if gid in rel)
        per_query[qid] = hits / min(len(rel), k)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return EvalReport(mar_at_k=mean, k=k, per_query=per_query, n_missing=n_missing)


def gen_synthetic(
    n_classes: int,
    gallery_per_class: int,
    queries_per_class: int,
    dim: int,
    noise_sigma: float,
    seed: int,
):
    """Seeded class-centroid benchmark: (gallery, queries, ground truth).

    Each class gets a random unit centroid; members are the centroid plus
    per-coordinate gaussian noise, renormalized. noise_sigma scales a unit
    gaussian draw, so different sigmas share the same underlying stream.
    """
    if n_classes < 1 or gallery_per_class < 1 or queries_per_class < 1:
        raise InvalidParams("all counts must be >= 1")
    if dim < 2:
        raise InvalidParams("dim must be >= 2")
    if noise_sigma < 0:
        raise InvalidParams("noise_sigma must be >= 0")

    rng = np.random.default_rng(seed)
    g_ids, g_rows, q_ids, q_rows = [], [], [], []
    relevant = {}
    for c in range(n_classes):
        centroid = rng.standard_normal(dim)
        # np.linalg.norm's own 1-D formula (same bits), without its overhead
        centroid /= math.sqrt(centroid.dot(centroid))
        class_gallery = []
        for i in range(gallery_per_class):
            vec = centroid + noise_sigma * rng.standard_normal(dim)
            gid = f"g{c:05d}_{i:03d}"
            g_ids.append(gid)
            g_rows.append(vec / math.sqrt(vec.dot(vec)))
            class_gallery.append(gid)
        for i in range(queries_per_class):
            vec = centroid + noise_sigma * rng.standard_normal(dim)
            qid = f"q{c:05d}_{i:03d}"
            q_ids.append(qid)
            q_rows.append(vec / math.sqrt(vec.dot(vec)))
            relevant[qid] = set(class_gallery)

    gallery = EmbeddingSet(tuple(g_ids), np.asarray(g_rows, dtype=np.float32))
    queries = EmbeddingSet(tuple(q_ids), np.asarray(q_rows, dtype=np.float32))
    return gallery, queries, GroundTruth(relevant)


# --- on-disk formats ---

def save_ground_truth(gt: GroundTruth, path) -> None:
    with atomic_open(path, "w") as fh:
        fh.write("".join(
            compact_json({"query": qid, "relevant": sorted(gt.relevant[qid])}) + "\n"
            for qid in sorted(gt.relevant)
        ))


def load_ground_truth(path) -> GroundTruth:
    relevant = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            relevant[obj["query"]] = set(obj["relevant"])
    return GroundTruth(relevant)
