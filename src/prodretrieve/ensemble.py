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
    sim = values.astype(np.float64)
    row_max = sim.max(axis=1, keepdims=True)
    span = row_max - sim.min(axis=1, keepdims=True)
    np.subtract(row_max, sim, out=sim)  # all zeros on a constant row
    np.divide(sim, span, out=sim, where=span > 0)
    return sim


def max_ensemble(matrices) -> DistanceMatrix:
    """Elementwise maximum of per-query min-max-normalized similarities.

    Each member is checked and folded in as it arrives, so given an iterator
    that loads members in turn, the peak is one nq x ng float32 member plus
    two float64 arrays of its shape (the running maximum and the member's
    similarities), whatever the member count.
    """
    members = iter(matrices)
    first = next(members, None)
    if first is None:
        raise ShapeMismatch("need at least one matrix")
    ids, best = (first.query_ids, first.gallery_ids), _row_minmax_similarity(first.values)
    del first  # a member is released once folded in
    for m in members:
        if m.values.shape != best.shape:
            raise ShapeMismatch(f"member shape {m.values.shape} != {best.shape}")
        if (m.query_ids, m.gallery_ids) != ids:
            raise IdMismatch("ensemble members disagree on query/gallery ids")
        np.maximum(best, _row_minmax_similarity(m.values), out=best)
    return DistanceMatrix(*ids, np.subtract(1.0, best, out=best).astype(np.float32))


def vote_ensemble(model_lists, k: int = DEFAULT_K) -> list[RankingList]:
    """Borda voting over per-model top-k ranking lists.

    Rank r (1-based, r <= k) earns k+1-r points. Items are ordered by
    descending points, then descending number of models that ranked the
    item, then ascending gallery id. Absent queries are tolerated: a
    missing ballot simply contributes no points. Each model's lists are
    tallied as they are read, so an iterator that reads models in turn
    holds one model's lists plus the per-query tallies.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tallies: dict[str, dict[str, tuple[float, int]]] = {}  # query -> id -> (points, voters)
    n_models = 0
    for n_models, lists in enumerate(model_lists, start=1):
        seen = set()
        for rl in lists:
            if rl.query_id in seen:
                raise DuplicateBallot(f"model submitted two lists for query {rl.query_id!r}")
            seen.add(rl.query_id)
            tally = tallies.setdefault(rl.query_id, {})
            for r, (gid, _) in enumerate(rl.entries[:k], start=1):
                points, voters = tally.get(gid, (0.0, 0))
                tally[gid] = (points + (k + 1 - r), voters + 1)
    if not n_models:
        raise ValueError("need at least one model")

    results = []
    for qid in sorted(tallies):
        tally = tallies[qid]
        ordered = sorted(tally, key=lambda g: (-tally[g][0], -tally[g][1], g))[:k]
        entries = tuple((g, tally[g][0]) for g in ordered)
        results.append(RankingList(qid, entries, orientation="similarity"))
    return results
