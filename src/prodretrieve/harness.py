"""Coordinator/worker execution of sharded re-ranking over a job directory.

There is no network protocol. The coordinator loads the job's inputs and
builds the re-ranking neighbour index (`rerank.build_neighbours`) once,
then forks one worker process per shard. Each worker inherits the index
copy-on-write and re-ranks only its own query rows; it recomputes their
original distances with BLAS pinned to one thread (`blas.one_blas_thread`).
The job directory carries the manifest in and the shard files out. Since
the build runs before any fork, a data error in the inputs (too few items,
rows not unit-norm, mismatched dims) ends the job with that error, not with
every shard lost. The manifest stores the query ids and the shard count;
shard i's file is always shard_<i>.jsonl, and a manifest that lacks the ids
or stores other counts or file names is refused. The coordinator removes
the job's shard files before its first fork, and a worker commits its file
by fsync + rename, so a killed worker's shard is "absent", never an earlier
run's lists. Missing shards are tolerated (or fatal, under the strict
policy) and reported by query id, with every non-zero worker exit code and
each worker's wall time. The `worker` CLI subcommand runs one shard by
hand, or on another host that sees the job directory; it builds the index
itself with the same function, so its shard file has the same bytes.
"""
from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait

from .embed_store import load_embeddings
from .errors import InvalidParams, ManifestInvalid, ShardsMissing
from .fileio import read_json, write_json
from .rerank import (
    NeighbourIndex,
    RerankParams,
    ShardManifest,
    build_neighbours,
    kreciprocal_rerank,
    merge_shard_results,
    rerank_rows,
    write_shard_result,
)
from .search import DEFAULT_K, topk
from .stages import stage

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class JobManifest:
    """One sharded re-ranking job rooted at a shared directory."""

    query_path: str
    gallery_path: str
    params: RerankParams
    shards: ShardManifest
    depth: int = DEFAULT_K  # top-k depth of the ranking lists workers emit

    def __post_init__(self):
        if type(self.depth) is not int or self.depth < 1:
            raise ManifestInvalid(f"depth must be an integer >= 1, got {self.depth!r}")

    def to_dict(self) -> dict:
        return {
            "stage": "rerank",  # the only stage a job runs
            "inputs": {"queries": self.query_path, "gallery": self.gallery_path},
            "params": {
                "k1": self.params.k1,
                "k2": self.params.k2,
                "lambda": self.params.lam,
            },
            "depth": self.depth,
            "shards": self.shards.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "JobManifest":
        if obj.get("stage", "rerank") != "rerank":
            raise ManifestInvalid(f"unknown stage {obj['stage']!r}")
        params = obj["params"]
        try:
            return cls(
                query_path=os.fspath(obj["inputs"]["queries"]),  # a path, or TypeError
                gallery_path=os.fspath(obj["inputs"]["gallery"]),
                params=RerankParams(
                    k1=params["k1"], k2=params["k2"], lam=params["lambda"]
                ),
                shards=ShardManifest.from_dict(obj["shards"]),
                depth=obj.get("depth", DEFAULT_K),
            )
        except InvalidParams as exc:
            raise ManifestInvalid(f"bad manifest: {exc}") from exc


def create_job(
    job_dir,
    query_path,
    gallery_path,
    params: RerankParams,
    n_shards: int,
    depth: int = DEFAULT_K,
) -> JobManifest:
    """Validate inputs, assign query rows to shards, write job_dir/manifest.json."""
    for path in (query_path, gallery_path):
        if not os.path.isfile(path):
            raise ManifestInvalid(f"input file missing: {path}")
    manifest = JobManifest(
        query_path=os.path.abspath(query_path),
        gallery_path=os.path.abspath(gallery_path),
        params=params,
        shards=ShardManifest(load_embeddings(query_path).ids, n_shards),
        depth=depth,
    )
    os.makedirs(job_dir, exist_ok=True)
    write_json(os.path.join(job_dir, MANIFEST_NAME), manifest.to_dict())
    return manifest


def load_manifest(path) -> JobManifest:
    """A `create_job` manifest; anything else, or a gone input, is ManifestInvalid."""
    if not os.path.isfile(path):
        raise ManifestInvalid(f"manifest not found: {path}")
    manifest = read_json(path, JobManifest.from_dict, ManifestInvalid)
    for path_ in (manifest.query_path, manifest.gallery_path):
        if not os.path.isfile(path_):
            raise ManifestInvalid(f"input file missing: {path_}")
    return manifest


def worker_run(
    manifest_path,
    shard_index: int,
    inject_fail: bool = False,
    index: NeighbourIndex | None = None,
) -> str:
    """Commit this shard's re-ranked top-k lists atomically; return the path.

    `index` is the job's neighbour index when the coordinator built it
    before forking. Without it the worker loads the inputs and builds its
    own with the same function (`kreciprocal_rerank` composes it with
    `rerank_rows`), so shard outputs depend neither on the shard count nor
    on who built the index.
    """
    manifest = load_manifest(manifest_path)
    if not (0 <= shard_index < manifest.shards.n_shards):
        raise ManifestInvalid(
            f"shard {shard_index} out of range 0..{manifest.shards.n_shards - 1}"
        )
    job_dir = os.path.dirname(os.path.abspath(manifest_path))
    rows = manifest.shards.shard_rows(shard_index)
    if index is None:
        matrix = kreciprocal_rerank(
            load_embeddings(manifest.query_path),
            load_embeddings(manifest.gallery_path),
            manifest.params, query_rows=rows,
        )
    else:
        matrix = rerank_rows(index, rows)
    lists = topk(matrix, manifest.depth)
    out_path = os.path.join(job_dir, manifest.shards.result_files[shard_index])
    if inject_fail:
        # simulate a worker dying mid-write: temp file only, no commit
        with open(out_path + ".tmp.injected", "wb") as fh:
            fh.write(b"partial")
        raise RuntimeError("injected failure before commit")
    write_shard_result(lists, out_path)
    return out_path


def coordinator_run(
    manifest_path,
    parallelism: int = 1,
    fail_policy: str = "tolerate",
    stages=None,
):
    """Build the neighbour index, fan shards out to forked workers that
    share it, then merge whatever landed.

    Errors in the inputs raise here, before any fork. Workers are forked,
    not spawned: a fresh interpreter would re-import numpy and could not
    inherit the index. The "fork" context is named explicitly because the
    platform default may be forkserver. The index (4*n*dim + 16*nnz(V)
    bytes, see `rerank.NeighbourIndex`) is released once the last worker is
    forked; the inputs, as soon as it is built. `stages`, a dict, receives
    the build's stages and "jaccard", the shard phase from the first fork
    to the last join, whose cpu_s counts the workers' CPU.
    """
    # loaded once here, not by each worker for its sha256 trailer; at module
    # level it would add ~4 MB to every process that imports the harness
    import hashlib  # noqa: F401
    if fail_policy not in ("tolerate", "strict"):
        raise InvalidParams(f"unknown fail policy {fail_policy!r}")
    if parallelism < 1:
        raise InvalidParams("parallelism must be >= 1")
    manifest = load_manifest(manifest_path)
    job_dir = os.path.dirname(os.path.abspath(manifest_path))
    # an earlier run's shard would be merged as this run's if its worker
    # died; a path that cannot be removed (a directory) the merge reports
    for fname in manifest.shards.result_files:
        with contextlib.suppress(OSError):
            os.remove(os.path.join(job_dir, fname))
    index = build_neighbours(
        load_embeddings(manifest.query_path),
        load_embeddings(manifest.gallery_path),
        manifest.params, stages,
    )

    fork = multiprocessing.get_context("fork")
    pending = list(range(manifest.shards.n_shards))
    running: dict = {}  # sentinel -> (shard, process, start time)
    exit_codes: dict[int, int] = {}
    wall_s: dict[int, float] = {}
    with stage("jaccard", stages):
        while pending or running:
            while pending and len(running) < parallelism:
                shard = pending.pop(0)
                proc = fork.Process(
                    target=worker_run, args=(manifest_path, shard),
                    kwargs={"index": index},
                )
                started = time.monotonic()
                proc.start()  # drops the Process's own reference to its kwargs
                running[proc.sentinel] = (shard, proc, started)
            if not pending:
                index = None  # every worker holds its own copy from here on
            for sentinel in wait(list(running)):
                shard, proc, started = running.pop(sentinel)
                proc.join()
                wall_s[shard] = time.monotonic() - started
                if proc.exitcode:
                    exit_codes[shard] = proc.exitcode

    results, report = merge_shard_results(manifest.shards, job_dir)
    report.exit_codes.update(sorted(exit_codes.items()))  # in shard order
    report.wall_s.update(sorted(wall_s.items()))
    if fail_policy == "strict" and not report.ok:
        raise ShardsMissing(
            f"shards {sorted(report.reasons)} missing, corrupt, stale or unreadable"
        )
    return results, report
