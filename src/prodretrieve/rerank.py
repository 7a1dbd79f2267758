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
is the two in turn. No n x n array is ever built. d is streamed in the
fixed QUERY_BLOCK-row blocks of `search`, each by the one full-width call
`_distance_block` makes, so each distance has the bits
`pairwise_cosine_distance` gives it: the first pass keeps the top-k1 lists
N(p,k1), the second gathers d on R*(p,k1), and `rerank_rows` computes the
query blocks again for the query x gallery part of d it mixes in.
The reciprocal sets and the expansion work on sorted flat keys p*n+g; V and
its query expansion are CSR arrays, and the expansion sums each group in
the order the dense mean over {p} + N(p,k2) does. The Jaccard step walks an
inverted index over the gallery rows' columns and takes
sum(max) = |v_q|_1 + |v_g|_1 - sum(min), the trick of Zhong et al.,
"Re-ranking Person Re-identification with k-reciprocal Encoding"
(CVPR 2017).

The distance blocks run on one BLAS thread, each computed by a helper
thread while the caller works on the block before it (`blas.overlapped`):
OpenBLAS's second thread would otherwise spin through the single-threaded
selection, gather and Jaccard work around each small sgemm: at 1,000 items
(k1 = 30, k2 = 10; 2 vCPUs, OpenBLAS 0.3.31) a re-rank used 1.6-1.8 CPU
seconds per wall second that way, and about 1.0 on one thread. At 10,000
items the wall time stayed within its run-to-run spread (median 3.35
against 3.22 s) at 14% less CPU; one thread without the overlap was slower.
Without a BLAS thread control the blocks are computed inline, with the
same bits.

The index the build keeps is 4*n*dim bytes for the joint vectors plus 16
bytes per nonzero of the query-expanded V, which has at most
(k2 + 1)*nnz(V), where nnz(V) <= n*k1*(1 + ceil(k1/2)). The expansion and
the query expansion run one PROBE_BLOCK of probes at a time, and the query
expansion runs twice: once to size each query row and each gallery column,
once to write every row straight into its place in the index. Beside the
index, the build holds V (16 bytes per nonzero), O(n*k1) for the neighbour
lists and reciprocal sets, two QUERY_BLOCK x n float32 distance buffers and
one probe block's work, O(PROBE_BLOCK*(n + k1*ceil(k1/2) + (k2 + 1)*max
row of V)). Traced peaks against the index kept (2 vCPUs, numpy 2.4, k1 =
30, k2 = 10): 5.8 MB against 4.0 MB at 1,000 items; 53 MB against 46.5 MB
at 10,000 items, where the index with the nq x ng d was 108 MB and its
build peaked at 121 MB. At 50,000 items with the default parameters the
build's ru_maxrss fell from 641 to 221 MB. `rerank_rows` adds its
len(rows) x ng output and the two distance buffers.

Large jobs are split by query index modulo the shard count. The job
harness builds the index once and each shard re-ranks its own rows of it;
a shard run on its own builds the same index itself. A row's bits depend
only on the index, so merged results are bit-identical regardless of shard
count or of which process built the index. A `ShardManifest` holds the
query ids and shard count; shard i's file is shard_<i>.jsonl, and a stored
manifest lacking the ids or with other counts or names is refused. Shards
commit by fsync + rename with a {"sha256": ...} trailer over the payload;
a partial, corrupt, old-format or foreign shard is refused, never merged.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import blas, heap
from .embed_store import EmbeddingSet
from .errors import CorruptShard, InvalidParams, TooFewItems
from .fileio import atomic_open, parse_json_lines, sha256_hex
from .search import (
    QUERY_BLOCK,
    DistanceMatrix,
    RankingList,
    _check_pair,
    _distance_block,
    _ranges,
    _smallest,
    parse_ranking,
    ranking_to_json,
)
from .stages import stage

EXPANSION_OVERLAP = 2.0 / 3.0

# Probes that the expansion and the query expansion handle at once. It sets
# only how much of their work is held together, never a byte of the index:
# each probe's work is independent of the others'. Of 32, 64, 128 and 256,
# 64 built fastest at 1,000 and 10,000 items, with a smaller peak than 128
# or 256.
PROBE_BLOCK = 64


@dataclass(frozen=True)
class RerankParams:
    """Neighborhood sizes and the original-distance mixing weight."""

    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def __post_init__(self):
        # `type(v) is int` refuses a JSON true, which would count as 1
        if not (type(self.k1) is type(self.k2) is int and 1 <= self.k2 <= self.k1):
            raise InvalidParams(f"need integers 1 <= k2 <= k1, got k1={self.k1!r} k2={self.k2!r}")
        if type(self.lam) not in (int, float) or not 0.0 <= self.lam <= 1.0:
            raise InvalidParams(f"lambda must be a number in [0,1], got {self.lam!r}")


def _ptr(lengths: np.ndarray) -> np.ndarray:
    """Start of each group of these lengths, laid end to end, then the total
    (a CSR pointer)."""
    return np.concatenate(([0], np.cumsum(lengths)))


def _in_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership of each probe in the sorted, non-empty array `keys`."""
    pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return keys[pos] == probe


def _unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys: np.unique by one sort, which for int64 keys
    is far faster than the hash table np.unique uses (numpy >= 2.3)."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


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


def _expansion(nbr: np.ndarray, k1: int):
    """R*(p,k1) for every probe p as CSR (indptr, cols), columns ascending,
    built one PROBE_BLOCK of probes at a time."""
    n = len(nbr)
    full = _reciprocal_keys(nbr, k1)
    full_ptr = np.searchsorted(full, np.arange(n + 1) * n)
    half_rows, half_cols = np.divmod(_reciprocal_keys(nbr, math.ceil(k1 / 2)), n)
    half_len = np.bincount(half_rows, minlength=n)
    half_ptr = _ptr(half_len)
    lengths = np.empty(n, dtype=np.intp)
    pieces = []
    in_block = np.zeros(min(PROBE_BLOCK, n) * n, dtype=bool)  # marks R(p,k1) of the block
    for start in range(0, n, PROBE_BLOCK):
        stop = min(start + PROBE_BLOCK, n)
        own = full[full_ptr[start]:full_ptr[stop]]
        probe, cand = np.divmod(own, n)
        sizes = half_len[cand]
        idx = _ranges(half_ptr[cand], sizes)
        pair = np.repeat(np.arange(own.size), sizes)
        added = probe[pair] * n + half_cols[idx]
        in_block[own - start * n] = True
        overlap = np.bincount(pair[in_block[added - start * n]], minlength=own.size)
        in_block[own - start * n] = False
        accepted = overlap >= EXPANSION_OVERLAP * sizes
        rows, cols = np.divmod(_unique(np.concatenate((own, added[accepted[pair]]))), n)
        lengths[start:stop] = np.bincount(rows - start, minlength=stop - start)
        pieces.append(cols)
    return _ptr(lengths), np.concatenate(pieces)


def _query_expansion(nbr, k2, v_ptr, v_cols, v, start, stop):
    """Rows [start, stop) of V averaged over {p} + N(p,k2) for each probe p,
    as (row - start, col, value) sorted by row then column. With v None,
    only the rows and columns.

    The entries stay in group order [p] + N(p,k2), so bincount adds each
    column in the order a dense mean over the group's rows does.
    """
    n, width = len(nbr), k2 + 1
    group = np.hstack((np.arange(start, stop)[:, None], nbr[start:stop, :k2])).ravel()
    lengths = v_ptr[group + 1] - v_ptr[group]
    idx = _ranges(v_ptr[group], lengths)
    keys = np.repeat(np.arange(stop - start) * n, lengths.reshape(-1, width).sum(axis=1))
    keys += v_cols[idx]
    if v is None:
        return np.divmod(_unique(keys), n) + (None,)
    keys, inverse = np.unique(keys, return_inverse=True)
    return np.divmod(keys, n) + (np.bincount(inverse, weights=v[idx]) / width,)


@dataclass(frozen=True, eq=False)
class NeighbourIndex:
    """Everything the Jaccard step reads of the joint set, built once.

    `q_ptr`, `q_cols` and `q_vals` are the query rows of the expanded V in
    CSR form. `col_ptr`, `post_rows` and `post_vals` are its gallery rows as
    an inverted index: for each column, the gallery rows that hold it.
    `norms` is |V_p|_1 for all n items and `vecs` the n x dim joint vectors,
    queries first, from which `rerank_rows` recomputes the original
    distances. Each nonzero of the query-expanded V is held once, as an
    int64 index and a float64 value, so the index takes
    4*n*dim + 16*nnz(V) + O(n) bytes.
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
    vecs: np.ndarray

    def __post_init__(self):
        for f in fields(self)[3:]:
            getattr(self, f.name).setflags(write=False)


def build_neighbours(
    query_feats: EmbeddingSet,
    gallery_feats: EmbeddingSet,
    params: RerankParams,
    stages=None,
) -> NeighbourIndex:
    """Steps 1-5 over the full joint set: pass 1, the expansion, pass 2 and
    the query expansion. Each distance pass runs one QUERY_BLOCK-row block
    at a time (`blas.overlapped`); the expansion and the query expansion run
    one PROBE_BLOCK of probes at a time, and the query expansion writes each
    block's rows straight into the index arrays. `stages`, a dict, receives
    the "pass1", "expansion", "pass2" and "query_expansion" stages (see
    `stages.stage`)."""
    nq, ng = len(query_feats), len(gallery_feats)
    n = nq + ng
    if n <= params.k1:
        raise TooFewItems(f"joint set of {n} items needs > k1={params.k1}")
    _check_pair(query_feats, gallery_feats)
    vecs = np.vstack([query_feats.vectors, gallery_feats.vectors])
    distances, bufs = _distances(vecs)
    starts = range(0, n, QUERY_BLOCK)

    with stage("pass1", stages):  # the top-k1 lists N(p,k1)
        nbr = np.concatenate([_top_k(block, start, params.k1)
                              for start, block in blas.overlapped(distances, starts, bufs)])
    with stage("expansion", stages):
        v_ptr, v_cols = _expansion(nbr, params.k1)
        nbr = nbr[:, :params.k2].copy()  # the query expansion reads only N(p,k2)

    with stage("pass2", stages):  # V = exp(-d) on R*(p,k1) for every p
        v = np.empty(v_cols.size)
        for start, block in blas.overlapped(distances, starts, bufs):
            stop = start + len(block)
            lo, hi = v_ptr[start], v_ptr[stop]
            rows = np.repeat(np.arange(len(block)), np.diff(v_ptr[start:stop + 1]))
            v[lo:hi] = np.exp(-block[rows, v_cols[lo:hi]].astype(np.float64))
        del bufs, block  # not held through the query expansion

    # the query expansion, twice over the probe blocks: first the length of
    # each expanded row and of each gallery column, then the rows themselves,
    # written straight into the index arrays
    with stage("query_expansion", stages):
        probe_blocks = [(start, min(start + PROBE_BLOCK, n)) for start in range(0, n, PROBE_BLOCK)]
        row_len = np.empty(n, dtype=np.intp)
        col_len = np.zeros(n, dtype=np.intp)
        for start, stop in probe_blocks:
            rows, cols, _ = _query_expansion(nbr, params.k2, v_ptr, v_cols, None, start, stop)
            row_len[start:stop] = np.bincount(rows, minlength=stop - start)
            col_len += np.bincount(cols[np.searchsorted(rows, nq - start):], minlength=n)
        del rows, cols
        q_ptr = _ptr(row_len[:nq])
        col_ptr = _ptr(col_len)
        q_cols = np.empty(q_ptr[-1], dtype=np.intp)
        q_vals = np.empty(q_ptr[-1])
        post_rows = np.empty(col_ptr[-1], dtype=np.intp)
        post_vals = np.empty(col_ptr[-1])
        norms = np.empty(n)
        cursor = col_ptr[:-1].copy()  # next free slot of each gallery column
        for start, stop in probe_blocks:
            rows, cols, vals = _query_expansion(nbr, params.k2, v_ptr, v_cols, v, start, stop)
            norms[start:stop] = np.bincount(rows, weights=vals, minlength=stop - start)
            cut = np.searchsorted(rows, nq - start)  # rows before it are query rows
            if cut:
                lo = q_ptr[start]
                q_cols[lo:lo + cut] = cols[:cut]
                q_vals[lo:lo + cut] = vals[:cut]
            # gallery rows join their columns' postings, rows ascending in each
            rows, cols, vals = rows[cut:], cols[cut:], vals[cut:]
            counts = np.bincount(cols, minlength=n)
            order = np.argsort(cols * (stop - start) + rows)  # the keys are distinct
            at = (cursor - (np.cumsum(counts) - counts))[cols[order]] + np.arange(order.size)
            post_rows[at] = rows[order] + (start - nq)
            post_vals[at] = vals[order]
            cursor += counts
            del rows, cols, vals, order, at  # not held through the next block
    return NeighbourIndex(
        query_feats.ids, gallery_feats.ids, params,
        q_ptr=q_ptr, q_cols=q_cols, q_vals=q_vals, norms=norms,
        col_ptr=col_ptr, post_rows=post_rows, post_vals=post_vals, vecs=vecs,
    )


def _distances(vecs: np.ndarray):
    """The `produce(start, buf)` that `blas.overlapped` calls, and its two
    QUERY_BLOCK x n float32 buffers. It writes rows [start, start +
    QUERY_BLOCK) of the joint set's distances to all n items by the one
    full-width `_distance_block` call, so a distance has the same bits in
    both passes and in `rerank_rows`."""
    n, vt = len(vecs), vecs.T

    def distances(start, buf):
        rows = min(QUERY_BLOCK, n - start)
        return _distance_block(vecs, vt, start, out=buf[:rows * n].reshape(rows, n))

    return distances, [np.empty(min(QUERY_BLOCK, n) * n, dtype=np.float32) for _ in range(2)]


def rerank_rows(index: NeighbourIndex, rows=None, stages=None) -> DistanceMatrix:
    """Steps 6-7 for the query rows `rows` (all of them when None), in any
    order. `stages`, a dict, receives the "jaccard" stage.

    Each QUERY_BLOCK that holds a requested row has its original distances
    recomputed, overlapped with the Jaccard step of the block before it.
    Each row reads only the shared index, so a row has the same bits
    whichever rows are asked for with it.
    """
    nq, ng = len(index.query_ids), len(index.gallery_ids)
    qrows = np.arange(nq)
    if rows is not None:
        qrows = qrows[np.asarray(list(rows), dtype=np.intp)]
    lam = index.params.lam
    q_ptr, q_cols, q_vals = index.q_ptr, index.q_cols, index.q_vals
    col_ptr, post_rows, post_vals = index.col_ptr, index.post_rows, index.post_vals
    col_len = np.diff(col_ptr)
    g_norms = index.norms[nq:]
    out = np.empty((qrows.size, ng), dtype=np.float32)
    block_of = qrows // QUERY_BLOCK
    by_block = np.argsort(block_of, kind="stable")  # positions in out, block by block
    blocks, counts = np.unique(block_of, return_counts=True)
    groups = np.split(by_block, np.cumsum(counts)[:-1])
    distances, bufs = _distances(index.vecs)
    with stage("jaccard", stages):
        for (start, block), group in zip(
                blas.overlapped(distances, blocks * QUERY_BLOCK, bufs), groups):
            for i in group:
                qi = qrows[i]
                q = slice(q_ptr[qi], q_ptr[qi + 1])
                lengths = col_len[q_cols[q]]
                idx = _ranges(col_ptr[q_cols[q]], lengths)
                mins = np.minimum(np.repeat(q_vals[q], lengths), post_vals[idx])
                mins = np.bincount(post_rows[idx], weights=mins, minlength=ng)
                maxs = index.norms[qi] + g_norms - mins
                jaccard = np.ones(ng, dtype=np.float64)
                nz = maxs > 0
                jaccard[nz] = 1.0 - mins[nz] / maxs[nz]
                out[i] = (1.0 - lam) * jaccard + lam * block[qi - start, nq:].astype(np.float64)

    qids = tuple(index.query_ids[i] for i in qrows)
    return DistanceMatrix(qids, index.gallery_ids, out)


def kreciprocal_rerank(
    query_feats: EmbeddingSet,
    gallery_feats: EmbeddingSet,
    params: RerankParams,
    query_rows=None,
    stages=None,
) -> DistanceMatrix:
    """Re-rank gallery items for each query (or a subset of query rows).

    `query_rows` restricts the reported rows; the neighbor structures are
    always computed over the full joint set, so any row of a restricted
    run is bit-identical to the same row of a full run. `stages`, a dict,
    receives the stages of `build_neighbours` and `rerank_rows`.

    The index and the build's transient arrays are freed before the call
    returns, and their pages given back to the OS (`heap.trim`), so the
    resident set the caller keeps does not depend on the heap's layout.
    """
    index = build_neighbours(query_feats, gallery_feats, params, stages)
    matrix = rerank_rows(index, query_rows, stages)
    del index
    heap.trim()
    return matrix


# --- sharding ---

@dataclass(frozen=True)
class ShardManifest:
    """Query row r goes to shard r mod n_shards, whose file is shard_<i>.jsonl."""

    query_ids: tuple[str, ...]
    n_shards: int

    def __post_init__(self):
        if type(self.n_shards) is not int or self.n_shards < 1:
            raise InvalidParams(f"n_shards must be an integer >= 1, got {self.n_shards!r}")
        object.__setattr__(self, "query_ids", tuple(self.query_ids))

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)

    @property
    def result_files(self) -> tuple[str, ...]:
        return tuple(f"shard_{i}.jsonl" for i in range(self.n_shards))

    def shard_rows(self, shard_index: int) -> list[int]:
        return list(range(shard_index, self.n_queries, self.n_shards))

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_shards": self.n_shards,
            "result_files": list(self.result_files),
            "query_ids": list(self.query_ids),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ShardManifest":
        # older manifests name their assignment; modulo is the only one
        if obj.get("assignment", "modulo") != "modulo":
            raise InvalidParams(f"unknown assignment {obj['assignment']!r}")
        if "query_ids" not in obj:
            raise InvalidParams("shard manifest has no query_ids")
        manifest = cls(obj["query_ids"], obj["n_shards"])
        for key, derived in manifest.to_dict().items():
            if obj.get(key) != derived:
                raise InvalidParams(f"stored {key} disagrees with query_ids and n_shards")
        return manifest


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


def _trailer(payload: bytes) -> bytes:
    return b'{"sha256": "%s"}\n' % sha256_hex(payload).encode()


def shard_result_bytes(lists) -> bytes:
    """Serialize ranking lists plus the trailing sha256 line."""
    payload = "".join(ranking_to_json(rl) + "\n" for rl in lists).encode("utf-8")
    return payload + _trailer(payload)


def write_shard_result(lists, path) -> None:
    """Commit one shard's lists atomically (fsync + rename)."""
    with atomic_open(path, "wb") as fh:
        fh.write(shard_result_bytes(lists))


def read_shard_result(data: bytes) -> list[RankingList]:
    """Parse and sha256-verify one shard file's bytes. A last line other
    than the one `shard_result_bytes` writes for the lines before it, such
    as the former FNV-1a {"checksum": ...}, or a verified line that is not
    a ranking list raises CorruptShard."""
    payload = data[:data.rfind(b"\n", 0, -1) + 1]  # all lines but the last
    if data[len(payload):] != _trailer(payload):
        raise CorruptShard("last line is not the sha256 trailer of the lines before it")
    return parse_json_lines(payload, parse_ranking, CorruptShard, "shard")


def merge_shard_results(manifest: ShardManifest, job_dir):
    """Collect whatever shard files exist; absences are reported, not fatal.

    Results for present shards are bit-identical to a single-shard run
    restricted to those queries. A shard whose lists are not the manifest's
    query ids for its rows, in order, was written for another job and is
    rejected as "stale"; one whose path cannot be opened or read (a
    directory, no permission) is "unreadable".
    """
    report = MissingReport()
    by_row: dict[int, RankingList] = {}
    for shard, fname in enumerate(manifest.result_files):
        path = os.path.join(job_dir, fname)
        rows = manifest.shard_rows(shard)
        ids = [manifest.query_ids[r] for r in rows]
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
            if [rl.query_id for rl in lists] != ids:
                reason = "stale"
        if reason is not None:
            report.reasons[shard] = reason
            report.missing_queries.extend(ids)
            continue
        for row, rl in zip(rows, lists):
            by_row[row] = rl
    results = [by_row[r] for r in sorted(by_row)]
    return results, report
