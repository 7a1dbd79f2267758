"""Score-level maximum ensemble and rank-level voting ensemble.

Maximum ensemble: per query row, min-max normalize each model's distances
into similarities, take the elementwise maximum across models, and report
1 - max as a distance again. Voting ensemble: each model's top-k list
casts Borda-style positional votes (k+1-r points for rank r).
"""
from __future__ import annotations

import numpy as np

from .errors import DuplicateBallot, IdMismatch, ShapeMismatch
from .search import DistanceMatrix, RankingList

DEFAULT_K = 10


def _row_minmax_similarity(values: np.ndarray) -> np.ndarray:
    """Per-row (max - v) / (max - min); constant rows map to all zeros."""
    vals = values.astype(np.float64)
    row_max = vals.max(axis=1, keepdims=True)
    row_min = vals.min(axis=1, keepdims=True)
    span = row_max - row_min
    sim = np.zeros_like(vals)
    np.divide(row_max - vals, span, out=sim, where=span > 0)
    return sim


def max_ensemble(matrices) -> DistanceMatrix:
    """Elementwise maximum of per-query min-max-normalized similarities."""
    matrices = list(matrices)
    if not matrices:
        raise ShapeMismatch("need at least one matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.values.shape != first.values.shape:
            raise ShapeMismatch(
                f"member shape {m.values.shape} != {first.values.shape}"
            )
        if m.query_ids != first.query_ids or m.gallery_ids != first.gallery_ids:
            raise IdMismatch("ensemble members disagree on query/gallery ids")
    best = _row_minmax_similarity(first.values)
    for m in matrices[1:]:
        np.maximum(best, _row_minmax_similarity(m.values), out=best)
    return DistanceMatrix(
        first.query_ids, first.gallery_ids, (1.0 - best).astype(np.float32)
    )


def vote_ensemble(model_lists, k: int = DEFAULT_K) -> list[RankingList]:
    """Borda voting over per-model top-k ranking lists.

    Rank r (1-based, r <= k) earns k+1-r points. Items are ordered by
    descending points, then descending number of models that ranked the
    item, then ascending gallery id. Absent queries are tolerated: a
    missing ballot simply contributes no points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ballots: list[dict[str, RankingList]] = []
    for lists in model_lists:
        per_query: dict[str, RankingList] = {}
        for rl in lists:
            if rl.query_id in per_query:
                raise DuplicateBallot(
                    f"model submitted two lists for query {rl.query_id!r}"
                )
            per_query[rl.query_id] = rl
        ballots.append(per_query)
    if not ballots:
        raise ValueError("need at least one model")

    query_ids = sorted({q for per_query in ballots for q in per_query})
    results = []
    for qid in query_ids:
        points: dict[str, float] = {}
        voters: dict[str, int] = {}
        for per_query in ballots:
            rl = per_query.get(qid)
            if rl is None:
                continue
            for r, (gid, _) in enumerate(rl.entries[:k], start=1):
                points[gid] = points.get(gid, 0.0) + (k + 1 - r)
                voters[gid] = voters.get(gid, 0) + 1
        ordered = sorted(points, key=lambda g: (-points[g], -voters[g], g))[:k]
        entries = tuple((g, points[g]) for g in ordered)
        results.append(RankingList(qid, entries, orientation="similarity"))
    return results
