"""MAR@10 evaluation, ground-truth files, and a seeded synthetic benchmark.

Recall for one query is |top-k intersect relevant| / min(|relevant|, k),
so a query with more than k relevant items can still score 1.0. Queries
with no ranking list score 0 and are counted separately; the mean is over
every ground-truth query either way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingSet
from .errors import DuplicateBallot, InvalidParams, MalformedFile, UnknownGalleryId
from .fileio import atomic_open, compact_json, read_json_lines, string_list
from .search import RankingList

DEFAULT_K = 10
DRAW_BUDGET = 1 << 17  # float64 elements per gen_synthetic draw: 1 MiB


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
        if rl.query_id in by_query:
            raise DuplicateBallot(f"two ranking lists for query {rl.query_id!r}")
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


def _unit_rows(vecs: np.ndarray) -> None:
    """Each last-axis row divided by its norm in place, with the bits of
    `row / math.sqrt(row.dot(row))`: a 1 x d @ d x 1 matmul runs that dot."""
    vecs /= np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None]))[..., 0]


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

    Memory: the float32 outputs, their ids and one float64 draw of DRAW_BUDGET
    elements (or one class, if larger): a traced 8.1 MB at 1333 x 14 x 64 (4.4 MB
    of outputs), 146 MB at 1000 x 102 x 256 (103 MB); one draw took 17.5, 354 MB.
    """
    if n_classes < 1 or gallery_per_class < 1 or queries_per_class < 1:
        raise InvalidParams("all counts must be >= 1")
    if dim < 2:
        raise InvalidParams("dim must be >= 2")
    if noise_sigma < 0:
        raise InvalidParams("noise_sigma must be >= 0")

    # in the order of a per-vector loop: per class the centroid, its gallery
    # members, then its queries; the draws continue one stream, whatever `step`
    rng = np.random.default_rng(seed)
    per_class = 1 + gallery_per_class + queries_per_class
    step = max(1, DRAW_BUDGET // (per_class * dim))  # classes per chunk
    parts = (np.empty((n_classes, gallery_per_class, dim), np.float32),
             np.empty((n_classes, queries_per_class, dim), np.float32))
    for c0 in range(0, n_classes, step):
        vecs = rng.standard_normal((min(step, n_classes - c0), per_class, dim))
        _unit_rows(vecs[:, :1])
        members = vecs[:, 1:]
        members *= noise_sigma
        members += vecs[:, :1]
        _unit_rows(members)
        parts[0][c0:c0 + len(vecs)] = members[:, :gallery_per_class]
        parts[1][c0:c0 + len(vecs)] = members[:, gallery_per_class:]
    del vecs, members  # the last chunk, before the ids are built

    g_ids = [[f"g{c:05d}_{i:03d}" for i in range(gallery_per_class)] for c in range(n_classes)]
    q_ids = [[f"q{c:05d}_{i:03d}" for i in range(queries_per_class)] for c in range(n_classes)]
    relevant = {qid: set(gids) for gids, qids in zip(g_ids, q_ids) for qid in qids}
    gallery, queries = (
        EmbeddingSet([i for row in ids for i in row], part.reshape(-1, dim))
        for ids, part in zip((g_ids, q_ids), parts)
    )
    return gallery, queries, GroundTruth(relevant)


# --- on-disk formats ---

def save_ground_truth(gt: GroundTruth, path) -> None:
    with atomic_open(path, "w") as fh:
        fh.write("".join(
            compact_json({"query": qid, "relevant": sorted(gt.relevant[qid])}) + "\n"
            for qid in sorted(gt.relevant)
        ))


def load_ground_truth(path) -> GroundTruth:
    """A line that is not a {"query": id, "relevant": [id, ...]} object, or
    that lists a query again, raises MalformedFile naming file and line."""
    relevant = {}

    def add(obj) -> None:
        qid, rel = obj["query"], frozenset(string_list(obj["relevant"]))
        if type(qid) is not str or not rel:
            raise ValueError(f"query {qid!r:.60} needs a string id and relevant ids")
        if qid in relevant:
            raise ValueError(f"query {qid!r} is listed twice")
        relevant[qid] = rel

    read_json_lines(path, add, MalformedFile)
    return GroundTruth(relevant)
