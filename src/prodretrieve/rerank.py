"""k-reciprocal re-ranking and the file-based sharding primitives around it.

The re-ranker refines the cosine distance using mutual nearest-neighbor
evidence over the joint query+gallery set P of n items:

 1. original distance d over P
 2. N(p,k) = k nearest neighbors of p in P (excluding p, ties by index);
    R(p,k) = mutual subset {g in N(p,k) : p in N(g,k)}
 3. expansion: R*(p,k1) adds R(c, ceil(k1/2)) for each c in R(p,k1) whose
    half-size reciprocal set overlaps R(p,k1) by at least two thirds
 4. sparse encoding V_p[g] = exp(-d(p,g)) on R*(p,k1)
 5. local query expansion: V_p <- mean of V_q over {p} union N(p,k2)
 6. weighted Jaccard distance dJ = 1 - sum(min)/sum(max)
 7. final distance (1-lambda)*dJ + lambda*d, reported for query x gallery

The work splits in two. `build_neighbours` does steps 1-5 once over the
whole joint set and returns a read-only `NeighbourIndex`; `rerank_rows`
does steps 6-7 for any subset of its query rows, and `kreciprocal_rerank`
is the two in turn. No n x n array is ever built. d is streamed twice in
the fixed QUERY_BLOCK-row blocks of `search`, so each distance has the bits
`pairwise_cosine_distance` gives it: the first pass keeps the top-k1 lists
N(p,k1), the second gathers d on R*(p,k1) and on the query x gallery block.
The reciprocal sets and the expansion work on sorted flat keys p*n+g; V and
its query expansion are CSR arrays, and the expansion sums each group in
the order the dense mean over {p} + N(p,k2) does. The Jaccard step walks an
inverted index over the gallery rows' columns and takes
sum(max) = |v_q|_1 + |v_g|_1 - sum(min), the trick of Zhong et al.,
"Re-ranking Person Re-identification with k-reciprocal Encoding"
(CVPR 2017). The build holds O(QUERY_BLOCK*n + n*k1^2 + k2*nnz(V)) bytes
at its peak, where nnz(V) <= n*k1*(1 + ceil(k1/2)). The index it keeps is
4*nq*ng bytes for d plus 16 bytes per nonzero of the query-expanded V,
which has at most (k2 + 1)*nnz(V). `rerank_rows` adds only its
len(rows) x ng output.

Large jobs are split by query index modulo the shard count. The job
harness builds the index once and each shard re-ranks its own rows of it;
a shard run on its own builds the same index itself. A row's bits depend
only on the index, so merged results are bit-identical regardless of shard
count or of which process built the index. A shard result file is
committed by fsync + rename and ends in a {"sha256": ...} trailer over its
payload, so a partial, corrupted or old-format file is refused, never merged.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .embed_store import EmbeddingSet
from .errors import CorruptShard, InvalidParams, TooFewItems
from .fileio import atomic_open
from .search import (
    DistanceMatrix,
    RankingList,
    _check_pair,
    _distance_block,
    _map_blocks,
    _ranges,
    _smallest,
    ranking_from_json,
    ranking_to_json,
)

EXPANSION_OVERLAP = 2.0 / 3.0


@dataclass(frozen=True)
class RerankParams:
    """Neighborhood sizes and the original-distance mixing weight."""

    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def __post_init__(self):
        if not (1 <= self.k2 <= self.k1):
            raise InvalidParams(f"need 1 <= k2 <= k1, got k1={self.k1} k2={self.k2}")
        if not (0.0 <= self.lam <= 1.0):
            raise InvalidParams(f"lambda must be in [0,1], got {self.lam}")


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """Start of each of the n groups once `rows` is sorted (a CSR pointer)."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _in_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership of each probe in the sorted, non-empty array `keys`."""
    pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return keys[pos] == probe


def _top_k(block: np.ndarray, start: int, k: int) -> np.ndarray:
    """Per block row, the k nearest other items ordered by (distance, index),
    the order a stable full argsort gives."""
    rows = np.arange(len(block))
    block[rows, start + rows] = np.inf
    return _smallest(block, np.arange(block.shape[1]), k)


def _reciprocal_keys(nbr: np.ndarray, k: int) -> np.ndarray:
    """Sorted keys p*n+g of R(p,k) for every probe p."""
    n = len(nbr)
    heads = nbr[:, :k]
    probes = np.arange(n)[:, None]
    keys = probes * n + heads
    mutual = _in_sorted(np.sort(keys.ravel()), heads * n + probes)
    return np.sort(keys[mutual])


def _expanded_keys(nbr: np.ndarray, k1: int) -> np.ndarray:
    """Sorted keys p*n+g of R*(p,k1) for every probe p."""
    n = len(nbr)
    full = _reciprocal_keys(nbr, k1)
    half_rows, half_cols = np.divmod(_reciprocal_keys(nbr, math.ceil(k1 / 2)), n)
    half_ptr = _indptr(half_rows, n)
    probe, cand = np.divmod(full, n)
    sizes = np.diff(half_ptr)[cand]
    idx = _ranges(half_ptr[cand], sizes)
    pair = np.repeat(np.arange(full.size), sizes)
    added = probe[pair] * n + half_cols[idx]
    overlap = np.bincount(pair[_in_sorted(full, added)], minlength=full.size)
    accepted = overlap >= EXPANSION_OVERLAP * sizes
    return np.unique(np.concatenate((full, added[accepted[pair]])))


def _query_expansion(nbr: np.ndarray, k2: int, rows, cols, v):
    """Mean of the CSR rows of V over {p} + N(p,k2), per probe p.

    The entries stay in group order [p] + N(p,k2), so bincount adds each
    column in the order a dense mean over the group's rows does.
    """
    n, width = len(nbr), k2 + 1
    indptr = _indptr(rows, n)
    group = np.hstack((np.arange(n)[:, None], nbr[:, :k2])).ravel()
    lengths = np.diff(indptr)[group]
    idx = _ranges(indptr[group], lengths)
    owner = np.repeat(np.arange(n) * n, lengths.reshape(n, width).sum(axis=1))
    keys, inverse = np.unique(owner + cols[idx], return_inverse=True)
    rows, cols = np.divmod(keys, n)
    return rows, cols, np.bincount(inverse, weights=v[idx]) / width


@dataclass(frozen=True, eq=False)
class NeighbourIndex:
    """Everything the Jaccard step reads of the joint set, built once.

    `q_ptr`, `q_cols` and `q_vals` are the query rows of the expanded V in
    CSR form. `col_ptr`, `post_rows` and `post_vals` are its gallery rows as
    an inverted index: for each column, the gallery rows that hold it.
    `norms` is |V_p|_1 for all n items and `d` the nq x ng original
    distances. Each nonzero of the query-expanded V is held once, as an
    int64 index and a float64 value, so the index takes
    4*nq*ng + 16*nnz(V) + O(n) bytes.
    Its arrays are read-only, so no caller can change what another reads.
    """

    query_ids: tuple[str, ...]
    gallery_ids: tuple[str, ...]
    params: RerankParams
    q_ptr: np.ndarray
    q_cols: np.ndarray
    q_vals: np.ndarray
    norms: np.ndarray
    col_ptr: np.ndarray
    post_rows: np.ndarray
    post_vals: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for f in fields(self)[3:]:
            getattr(self, f.name).setflags(write=False)


def build_neighbours(
    query_feats: EmbeddingSet,
    gallery_feats: EmbeddingSet,
    params: RerankParams,
    threads: int = 1,
) -> NeighbourIndex:
    """Steps 1-5 over the full joint set: pass 1, the expansion, pass 2 and
    the query expansion. `threads` spreads the distance blocks over threads
    without changing any output byte."""
    nq, ng = len(query_feats), len(gallery_feats)
    n = nq + ng
    if n <= params.k1:
        raise TooFewItems(f"joint set of {n} items needs > k1={params.k1}")
    _check_pair(query_feats, gallery_feats)
    vecs = np.vstack([query_feats.vectors, gallery_feats.vectors])
    vt = vecs.T

    # pass 1: the top-k1 lists N(p,k1)
    nbr = np.concatenate(_map_blocks(
        lambda s: _top_k(_distance_block(vecs, vt, s), s, params.k1), n, threads
    ))
    rows, cols = np.divmod(_expanded_keys(nbr, params.k1), n)
    indptr = _indptr(rows, n)

    # pass 2: d on R*(p,k1) for every p, and on the query x gallery block
    d_v = np.empty(rows.size, dtype=np.float32)
    d = np.empty((nq, ng), dtype=np.float32)

    def gather(start):
        block = _distance_block(vecs, vt, start)
        stop = start + len(block)
        lo, hi = indptr[start], indptr[stop]
        d_v[lo:hi] = block[rows[lo:hi] - start, cols[lo:hi]]
        if start < nq:
            d[start:stop] = block[:nq - start, nq:]

    _map_blocks(gather, n, threads)

    rows, cols, v = _query_expansion(
        nbr, params.k2, rows, cols, np.exp(-d_v.astype(np.float64))
    )
    indptr = _indptr(rows, n)
    gal = indptr[nq]
    by_col = np.argsort(cols[gal:], kind="stable")
    return NeighbourIndex(
        query_feats.ids, gallery_feats.ids, params,
        q_ptr=indptr[:nq + 1].copy(),
        q_cols=cols[:gal].copy(),
        q_vals=v[:gal].copy(),
        norms=np.bincount(rows, weights=v, minlength=n),
        col_ptr=_indptr(cols[gal:], n),
        post_rows=rows[gal:][by_col] - nq,
        post_vals=v[gal:][by_col],
        d=d,
    )


def rerank_rows(index: NeighbourIndex, rows=None) -> DistanceMatrix:
    """Steps 6-7 for the query rows `rows` (all of them when None).

    Each row reads only the shared index, so a row has the same bits
    whichever rows are asked for with it.
    """
    nq, ng = index.d.shape
    qrows = np.arange(nq)
    if rows is not None:
        qrows = qrows[np.asarray(list(rows), dtype=np.intp)]
    lam = index.params.lam
    q_ptr, q_cols, q_vals = index.q_ptr, index.q_cols, index.q_vals
    col_ptr, post_rows, post_vals = index.col_ptr, index.post_rows, index.post_vals
    col_len = np.diff(col_ptr)
    g_norms = index.norms[nq:]
    out = np.empty((qrows.size, ng), dtype=np.float32)
    for i, qi in enumerate(qrows):
        q = slice(q_ptr[qi], q_ptr[qi + 1])
        lengths = col_len[q_cols[q]]
        idx = _ranges(col_ptr[q_cols[q]], lengths)
        mins = np.minimum(np.repeat(q_vals[q], lengths), post_vals[idx])
        mins = np.bincount(post_rows[idx], weights=mins, minlength=ng)
        maxs = index.norms[qi] + g_norms - mins
        jaccard = np.ones(ng, dtype=np.float64)
        nz = maxs > 0
        jaccard[nz] = 1.0 - mins[nz] / maxs[nz]
        out[i] = (1.0 - lam) * jaccard + lam * index.d[qi].astype(np.float64)

    qids = tuple(index.query_ids[i] for i in qrows)
    return DistanceMatrix(qids, index.gallery_ids, out)


def kreciprocal_rerank(
    query_feats: EmbeddingSet,
    gallery_feats: EmbeddingSet,
    params: RerankParams,
    query_rows=None,
    threads: int = 1,
) -> DistanceMatrix:
    """Re-rank gallery items for each query (or a subset of query rows).

    `query_rows` restricts the reported rows; the neighbor structures are
    always computed over the full joint set, so any row of a restricted
    run is bit-identical to the same row of a full run. `threads` spreads
    the distance blocks over threads without changing any output byte.
    The index, with its full nq x ng d, lives until the rows are done.
    """
    index = build_neighbours(query_feats, gallery_feats, params, threads)
    return rerank_rows(index, query_rows)


# --- sharding ---

@dataclass(frozen=True)
class ShardManifest:
    """Modulo assignment of query indices to shard result files."""

    n_queries: int
    n_shards: int
    result_files: tuple[str, ...]
    query_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_shards < 1:
            raise InvalidParams("n_shards must be >= 1")
        object.__setattr__(self, "result_files", tuple(self.result_files))
        if self.query_ids is not None:
            object.__setattr__(self, "query_ids", tuple(self.query_ids))
            if len(self.query_ids) != self.n_queries:
                raise InvalidParams("query_ids length disagrees with n_queries")

    def shard_rows(self, shard_index: int) -> list[int]:
        return list(range(shard_index, self.n_queries, self.n_shards))

    def to_dict(self) -> dict:
        obj = {
            "n_queries": self.n_queries,
            "n_shards": self.n_shards,
            "result_files": list(self.result_files),
        }
        if self.query_ids is not None:
            obj["query_ids"] = list(self.query_ids)
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "ShardManifest":
        # older manifests name their assignment; modulo is the only one
        if obj.get("assignment", "modulo") != "modulo":
            raise InvalidParams(f"unknown assignment {obj['assignment']!r}")
        return cls(
            n_queries=obj["n_queries"],
            n_shards=obj["n_shards"],
            result_files=tuple(obj["result_files"]),
            query_ids=tuple(obj["query_ids"]) if obj.get("query_ids") else None,
        )


@dataclass
class MissingReport:
    """Queries lost to absent, corrupt, stale or unreadable shards, with
    per-shard reasons."""

    missing_queries: list = field(default_factory=list)
    # shard index -> "absent" | "checksum" | "stale" | "unreadable" (the path
    # exists but cannot be read, e.g. it is a directory)
    reasons: dict = field(default_factory=dict)
    # shard index -> non-zero worker exit code, negative for a signal
    exit_codes: dict = field(default_factory=dict)
    # shard index -> seconds from fork to join; only a coordinator run has it
    wall_s: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.missing_queries and not self.reasons

    def to_dict(self) -> dict:
        return {
            "missing_queries": list(self.missing_queries),
            "reasons": {str(i): r for i, r in self.reasons.items()},
            "exit_codes": {str(i): c for i, c in self.exit_codes.items()},
            "wall_s": {str(i): s for i, s in self.wall_s.items()},
        }


def build_shard_manifest(
    n_queries: int, n_shards: int, job_dir, query_ids=None
) -> ShardManifest:
    """Assign query index i to shard (i mod n_shards) and name result files."""
    manifest = ShardManifest(
        n_queries=n_queries,
        n_shards=n_shards,
        result_files=tuple(f"shard_{i}.jsonl" for i in range(n_shards)),
        query_ids=tuple(query_ids) if query_ids is not None else None,
    )
    os.makedirs(job_dir, exist_ok=True)
    return manifest


def shard_result_bytes(lists) -> bytes:
    """Serialize ranking lists plus the trailing sha256 line."""
    import hashlib  # on use: it loads OpenSSL, ~4 MB of RSS
    payload = "".join(ranking_to_json(rl) + "\n" for rl in lists).encode("utf-8")
    trailer = json.dumps({"sha256": hashlib.sha256(payload).hexdigest()}) + "\n"
    return payload + trailer.encode("utf-8")


def write_shard_result(lists, path) -> None:
    """Commit one shard's lists atomically (fsync + rename)."""
    with atomic_open(path, "wb") as fh:
        fh.write(shard_result_bytes(lists))


def read_shard_result(data: bytes) -> list[RankingList]:
    """Parse and sha256-verify one shard file's bytes; any other trailer,
    such as the former FNV-1a {"checksum": ...}, raises CorruptShard."""
    import hashlib  # on use: it loads OpenSSL, ~4 MB of RSS
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    if not lines:
        raise CorruptShard("empty shard file")
    payload = "".join(lines[:-1]).encode("utf-8")
    try:
        declared = json.loads(lines[-1])["sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptShard(f"bad checksum trailer: {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != declared:
        raise CorruptShard("checksum mismatch")
    return [ranking_from_json(line) for line in lines[:-1] if line.strip()]


def merge_shard_results(manifest: ShardManifest, job_dir):
    """Collect whatever shard files exist; absences are reported, not fatal.

    Results for present shards are bit-identical to a single-shard run
    restricted to those queries. A shard whose lists do not match the
    manifest's rows in number, or in query ids when the manifest has them,
    was written for another job and is rejected as "stale"; one whose path
    cannot be opened or read (a directory, no permission) is "unreadable".
    """
    report = MissingReport()
    by_row: dict[int, RankingList] = {}
    for shard, fname in enumerate(manifest.result_files):
        path = os.path.join(job_dir, fname)
        rows = manifest.shard_rows(shard)
        reason = None
        try:
            with open(path, "rb") as fh:
                lists = read_shard_result(fh.read())
        except FileNotFoundError:
            reason = "absent"
        except CorruptShard:
            reason = "checksum"
        except OSError:
            reason = "unreadable"
        else:
            if len(lists) != len(rows) or (
                manifest.query_ids is not None
                and [rl.query_id for rl in lists] != _row_ids(manifest, rows)
            ):
                reason = "stale"
        if reason is not None:
            report.reasons[shard] = reason
            report.missing_queries.extend(_row_ids(manifest, rows))
            continue
        for row, rl in zip(rows, lists):
            by_row[row] = rl
    results = [by_row[r] for r in sorted(by_row)]
    return results, report


def _row_ids(manifest: ShardManifest, rows) -> list[str]:
    if manifest.query_ids is not None:
        return [manifest.query_ids[r] for r in rows]
    return [str(r) for r in rows]
