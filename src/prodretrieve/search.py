"""Exact pairwise cosine distance, top-K extraction, and crop aggregation.

All scores travel in a DistanceMatrix (lower is better). Tie-breaks are
always by ascending gallery id, so every stage is deterministic and shard
merges can be compared byte-for-byte.

Memory: `pairwise_cosine_distance` holds its nq x ng float32 output plus
O(NORM_SLICE) float64 for the unit-norm check; sgemm writes each block
straight into the output. `topk` adds, per QUERY_BLOCK rows, the selector's
chunk minima and the chunks it gathers: about `k` chunks of ~2 sqrt(ng/k)
columns per row. The worst case, rows of ties or a gallery narrower than
256 k (selected over whole rows), is O(QUERY_BLOCK * ng). Selection is
exact: every column tied with the k-th value is kept until the final sort,
following the chunk-bound pruning of Johnson, Douze and Jegou,
"Billion-scale similarity search with GPUs" (arXiv:1702.08734).
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .embed_store import EmbeddingSet, row_norms
from .errors import DimMismatch, NotNormalized, UnmappedCropId
from .fileio import atomic_open, compact_json, write_json

NORM_TOL = 1e-4

# Elements per slice of the unit-norm check, which works in float64.
NORM_SLICE = 1 << 14

# Narrowest chunk that the top-k selector prunes with; below it, selecting
# over whole rows is faster.
MIN_CHUNK = 32

# Fixed query-block size: parallelism fans blocks out to threads, but the
# work per block never depends on the thread count, so outputs are
# byte-identical for any --threads value.
QUERY_BLOCK = 256

CROP_SCHEMES = {"index5crop": 5, "index6crop": 6, "custom": None}


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense query x gallery distances, float32, lower is better."""

    query_ids: tuple[str, ...]
    gallery_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "query_ids", tuple(self.query_ids))
        object.__setattr__(self, "gallery_ids", tuple(self.gallery_ids))
        vals = np.ascontiguousarray(self.values, dtype=np.float32)
        expect = (len(self.query_ids), len(self.gallery_ids))
        if vals.shape != expect:
            raise ValueError(f"values shape {vals.shape}, expected {expect}")
        for start in range(0, len(vals), QUERY_BLOCK):
            if not np.isfinite(vals[start:start + QUERY_BLOCK]).all():
                raise ValueError("distance matrix contains NaN or inf")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RankingList:
    """Per-query ordered top-K gallery ids with scores, best first."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    k: int
    orientation: str = "distance"

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((g, float(s)) for g, s in self.entries)
        )
        if len(self.entries) > self.k:
            raise ValueError(f"{len(self.entries)} entries exceed k={self.k}")
        gids = [g for g, _ in self.entries]
        if len(set(gids)) != len(gids):
            raise ValueError("duplicate gallery id in ranking list")

    @property
    def gallery_ids(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.entries)


@dataclass(frozen=True)
class CropGroupMap:
    """Crop-variant id -> parent gallery id, with scheme arity checks."""

    crop_to_parent: dict
    scheme: str = "custom"

    def __post_init__(self):
        if self.scheme not in CROP_SCHEMES:
            raise ValueError(f"unknown crop scheme {self.scheme!r}")
        arity = CROP_SCHEMES[self.scheme]
        counts = {}
        for parent in self.crop_to_parent.values():
            counts[parent] = counts.get(parent, 0) + 1
        if not counts:
            raise ValueError("crop map is empty")
        if arity is not None:
            off = {p: c for p, c in counts.items() if c != arity}
            if off:
                raise ValueError(
                    f"scheme {self.scheme} needs {arity} crops per parent, "
                    f"violated by {sorted(off)[:5]}"
                )


def _check_pair(queries: EmbeddingSet, gallery: EmbeddingSet) -> None:
    """Refuse mismatched dims and rows that are not unit-norm."""
    if queries.dim != gallery.dim:
        raise DimMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    for name, emb in (("query", queries), ("gallery", gallery)):
        step = max(1, NORM_SLICE // max(1, emb.dim))
        dev = max(
            (np.abs(row_norms(emb.vectors[s:s + step]) - 1.0).max()
             for s in range(0, len(emb), step)),
            default=0.0,
        )
        if dev > NORM_TOL:
            raise NotNormalized(
                f"{name} rows deviate from unit norm by up to {dev:.2e}"
            )


def _distance_block(queries: np.ndarray, gallery_t: np.ndarray, start: int, out=None):
    """Rows [start, start + QUERY_BLOCK) of 1 - queries @ gallery_t, float32.

    Every caller cuts the same fixed blocks, so a distance has the same bits
    whichever function computes it. Writes into `out` when given.
    """
    block = queries[start:start + QUERY_BLOCK]
    if out is None:
        out = np.empty((len(block), gallery_t.shape[1]), dtype=np.float32)
    np.matmul(block, gallery_t, out=out)
    np.subtract(np.float32(1.0), out, out=out)
    # float roundoff can leave tiny negatives on exact matches
    return np.clip(out, 0.0, 2.0, out=out)


def _map_blocks(fn, n_rows: int, threads: int = 1) -> list:
    """fn(start) for each QUERY_BLOCK-row block, results in block order."""
    starts = range(0, n_rows, QUERY_BLOCK)
    if threads <= 1:
        return [fn(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, starts))


def pairwise_cosine_distance(
    queries: EmbeddingSet, gallery: EmbeddingSet, threads: int = 1
) -> DistanceMatrix:
    """values[i, j] = 1 - dot(query_i, gallery_j) for unit-norm rows.

    The gallery is shared read-only; query rows are processed in fixed-size
    blocks so the result is independent of `threads`.
    """
    _check_pair(queries, gallery)
    nq = len(queries)
    out = np.empty((nq, len(gallery)), dtype=np.float32)
    gt = gallery.vectors.T

    def run_block(start):
        _distance_block(queries.vectors, gt, start, out=out[start:start + QUERY_BLOCK])

    _map_blocks(run_block, nq, threads)
    return DistanceMatrix(queries.ids, gallery.ids, out)


def _id_ranks(gallery_ids) -> np.ndarray:
    """Column index -> rank in ascending lexicographic id order."""
    order = sorted(range(len(gallery_ids)), key=gallery_ids.__getitem__)
    ranks = np.empty(len(gallery_ids), dtype=np.int64)
    ranks[order] = np.arange(len(gallery_ids))
    return ranks


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated aranges [s, s+l) for each start s and length l."""
    idx = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    idx += np.arange(idx.size)
    return idx


def _chunk_width(ng: int, take: int) -> int:
    """Columns per chunk for pruned selection of `take` of `ng`, or 0 when
    whole-row selection is faster.

    Pruning costs one pass over the row plus about `take` gathered chunks;
    a width of ~2 sqrt(ng/take) balances the two and leaves at least
    8 * take chunks once it reaches MIN_CHUNK.
    """
    width = int(2 * math.sqrt(ng / take))
    return width if width >= MIN_CHUNK else 0


def _smallest(block: np.ndarray, rank: np.ndarray, take: int) -> np.ndarray:
    """Per row, the columns of the `take` smallest values, ordered by
    (value, rank[column]); `block` is read, never written.

    Every column tied with the take-th value is kept until the final sort,
    so the order is the one a full sort by (value, rank) gives. Wide rows
    are pruned by chunk: the take-th smallest chunk minimum bounds the
    take-th value from above, so only chunks whose minimum is within the
    bound are gathered.
    """
    m, ng = block.shape
    if take == 0:
        return np.empty((m, 0), dtype=np.intp)
    width = _chunk_width(ng, take)
    if width:
        chunk_min = np.minimum.reduceat(block, np.arange(0, ng, width), axis=1)
        bound = np.partition(chunk_min, take - 1, axis=1)[:, take - 1]
        rows, chunks = np.nonzero(chunk_min <= bound[:, None])
        lengths = np.minimum(width, ng - chunks * width)
        cols = _ranges(chunks * width, lengths)
        rows = np.repeat(rows, lengths)
        vals = block[rows, cols]
        keep = vals <= bound[rows]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    else:
        bound = np.partition(block, take - 1, axis=1)[:, take - 1]
        rows, cols = np.nonzero(block <= bound[:, None])
        vals = block[rows, cols]
    order = np.lexsort((rank[cols], vals, rows))
    counts = np.bincount(rows, minlength=m)
    at = (np.cumsum(counts) - counts)[:, None] + np.arange(take)
    return cols[order][at]


def topk(matrix: DistanceMatrix, k: int) -> list[RankingList]:
    """Per query, the k smallest distances; ties by ascending gallery id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gids = matrix.gallery_ids
    idrank = _id_ranks(gids)
    take = min(k, len(gids))
    results = []
    for start in range(0, len(matrix.query_ids), QUERY_BLOCK):
        block = matrix.values[start:start + QUERY_BLOCK]
        cols = _smallest(block, idrank, take)
        dists = np.take_along_axis(block, cols, axis=1)
        for qid, row_cols, row_dists in zip(
            matrix.query_ids[start:start + QUERY_BLOCK], cols.tolist(), dists.tolist()
        ):
            entries = tuple(zip([gids[j] for j in row_cols], row_dists))
            results.append(RankingList(qid, entries, k=k))
    return results


def aggregate_crops(matrix: DistanceMatrix, crop_map: CropGroupMap) -> DistanceMatrix:
    """Reduce crop-variant columns to parents by minimum distance.

    The best-matching local crop represents its parent image; parents are
    ordered by the first appearance of any of their crops.
    """
    parents = []
    cols_of = {}
    for j, gid in enumerate(matrix.gallery_ids):
        parent = crop_map.crop_to_parent.get(gid)
        if parent is None:
            raise UnmappedCropId(f"gallery id {gid!r} has no parent in crop map")
        if parent not in cols_of:
            cols_of[parent] = []
            parents.append(parent)
        cols_of[parent].append(j)
    out = np.empty((len(matrix.query_ids), len(parents)), dtype=np.float32)
    for pi, parent in enumerate(parents):
        out[:, pi] = matrix.values[:, cols_of[parent]].min(axis=1)
    return DistanceMatrix(matrix.query_ids, tuple(parents), out)


# --- on-disk formats ---

def save_matrix(matrix: DistanceMatrix, path) -> None:
    # saved through a handle, np.savez adds no ".npz" suffix to `path`
    with atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            query_ids=np.array(matrix.query_ids, dtype=object),
            gallery_ids=np.array(matrix.gallery_ids, dtype=object),
            values=matrix.values,
        )


def load_matrix(path) -> DistanceMatrix:
    with np.load(path, allow_pickle=True) as npz:
        return DistanceMatrix(
            tuple(npz["query_ids"].tolist()),
            tuple(npz["gallery_ids"].tolist()),
            npz["values"],
        )


def ranking_to_json(rl: RankingList) -> str:
    return compact_json({
        "query": rl.query_id,
        "ranks": [[g, s] for g, s in rl.entries],
        "orientation": rl.orientation,
    })


def ranking_from_json(line: str, k: int | None = None) -> RankingList:
    obj = json.loads(line)
    ranks = obj["ranks"]
    return RankingList(
        query_id=obj["query"],
        entries=tuple((g, float(s)) for g, s in ranks),
        k=len(ranks) if k is None else k,
        orientation=obj.get("orientation", "distance"),
    )


def write_ranking_lists(lists, path) -> None:
    with atomic_open(path, "w") as fh:
        for rl in lists:
            fh.write(ranking_to_json(rl) + "\n")


def read_ranking_lists(path) -> list[RankingList]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ranking_from_json(line))
    return out


def save_crop_map(crop_map: CropGroupMap, path) -> None:
    groups = {}
    for crop, parent in crop_map.crop_to_parent.items():
        groups.setdefault(parent, []).append(crop)
    payload = {
        "scheme": crop_map.scheme,
        "groups": {p: sorted(c) for p, c in sorted(groups.items())},
    }
    write_json(path, payload)


def load_crop_map(path) -> CropGroupMap:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    crop_to_parent = {}
    for parent, crops in obj["groups"].items():
        for crop in crops:
            if crop in crop_to_parent:
                raise ValueError(f"crop id {crop!r} listed under two parents")
            crop_to_parent[crop] = parent
    return CropGroupMap(crop_to_parent=crop_to_parent, scheme=obj["scheme"])
