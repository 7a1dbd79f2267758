"""Spans around the public functions of prodretrieve's modules.

`installed` rebinds every public module-level function of each layer module,
in every module that holds a reference to it, to a wrapper that records one
span per call: name, start, end, parent span and run id, plus the CPU time
and the rise in peak RSS during the call. Spans stay in memory until
`Tracer.write` stores them, once, at the end of the process. Calls through
a dispatch table (`cli.HANDLERS`) and method calls are not wrapped; the
library functions they call are.

`layer_metrics` turns the spans of one traced run into the per-layer
metrics that BENCHMARK.json lists.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import threading
import time
from collections import defaultdict

LAYERS = (
    "embed_store", "search", "rerank", "ensemble",
    "pseudolabel", "harness", "evalbench", "cli",
)


def _n_shards(manifest_path) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        return json.load(fh)["shards"]["n_shards"]


# Counts taken at a layer boundary: span name -> f(bound arguments, result).
ATTRS = {
    "embed_store.load_embeddings": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "search.pairwise_cosine_distance": lambda a, r: {
        "nq": len(a["queries"]), "ng": len(a["gallery"]),
        "dim": a["queries"].dim, "threads": a["threads"],
    },
    "rerank.kreciprocal_rerank": lambda a, r: {
        "joint_items": len(a["query_feats"]) + len(a["gallery_feats"]),
    },
    "rerank.write_shard_result": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "rerank.read_shard_result": lambda a, r: {"bytes": len(a["data"])},
    "rerank.fnv1a64": lambda a, r: {"bytes": len(a["payload"])},
    "harness.coordinator_run": lambda a, r: {
        "shards": _n_shards(a["manifest_path"]), "failed": len(r[1].reasons),
    },
    "pseudolabel.cluster_features": lambda a, r: {
        "n": len(a["emb"]), "dim": a["emb"].dim, "clusters": len(r.clusters),
    },
    "pseudolabel.filter_confident": lambda a, r: {"clusters": len(r.clusters)},
}


# Metrics computed from array shapes, file sizes and result counts rather
# than timed; they repeat exactly for a given seed.
COMPUTED = frozenset({
    "search.distance_gflops", "search.matrix_mb", "rerank.dense_mb", "rerank.joint_items",
    "rerank.shard_mb", "pseudolabel.cluster_gflops", "pseudolabel.components",
    "pseudolabel.kept_clusters", "harness.neighbour_builds", "harness.useful_build_ratio",
    "harness.shards_attempted", "cli.steps_skipped",
})


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects the spans of one process; `root_parent` links them to a
    span of the process that started this one."""

    def __init__(self, run_id: str, root_parent: str | None = None):
        self.run_id = run_id
        self.root_parent = root_parent
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the caller may add counts to the yielded dict."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else self.root_parent
        stack.append(span_id)
        start, cpu, rss = time.monotonic_ns(), time.process_time_ns(), _maxrss_kb()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "run": self.run_id, "name": name,
                "start_ns": start, "end_ns": time.monotonic_ns(),
                "cpu_ns": time.process_time_ns() - cpu,
                "rss_rise_kb": _maxrss_kb() - rss, "attrs": attrs,
            })

    def current(self) -> str | None:
        stack = self._local.__dict__.get("stack")
        return stack[-1] if stack else self.root_parent

    def wrap(self, name: str, fn):
        hook = ATTRS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    attrs.update(hook(bound.arguments, result))
                except Exception as exc:  # a count must not break the traced call
                    attrs["attrs_error"] = repr(exc)
            return result

        return traced

    def write(self, spans_dir) -> None:
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call to a public function of a layer module through
    `tracer`; the original functions are restored on exit."""
    modules = {layer: importlib.import_module(f"prodretrieve.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for mod in (*modules.values(), importlib.import_module("prodretrieve")):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def read_spans(spans_dir) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return out


# benchmark spans around the work a workload's metrics describe
RUN_SCOPES = ("bench.setup", "bench.iteration")


class _Spans:
    """Queries over the merged spans of one traced run."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self._scope = {}

    def ancestors(self, s):
        while s["parent"] in self.by_id:
            s = self.by_id[s["parent"]]
            yield s

    def scope(self, s) -> str | None:
        """Name of the outermost benchmark span around `s`."""
        if s["id"] not in self._scope:
            bench = [a["name"] for a in self.ancestors(s) if a["name"].startswith("bench.")]
            self._scope[s["id"]] = bench[-1] if bench else None
        return self._scope[s["id"]]

    def outer(self, name, scopes=RUN_SCOPES, where=None):
        """Calls of `name` in the given scopes, not nested in another call of it."""
        return [
            s for s in self.spans
            if s["name"] == name and self.scope(s) in scopes
            and (where is None or where(s))
            and not any(a["name"] == name for a in self.ancestors(s))
        ]

    def children(self, parent, name):
        return sorted(
            (s for s in self.spans if s["parent"] == parent["id"] and s["name"] == name),
            key=lambda s: s["start_ns"],
        )


def _secs(spans) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans) / 1e9


def _attr_sum(spans, key):
    return sum(s["attrs"].get(key, 0) for s in spans)


def _rise_mb(spans) -> float:
    return sum(s["rss_rise_kb"] for s in spans) * 1024 / 1e6


def layer_metrics(spans, step_names) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and why each one is absent.

    A `*_s` metric named after a function sums the durations of its
    outermost calls in the set-up and the timed iteration; the comparison
    calls a traced run makes afterwards feed only the metrics named after
    them, except that the in-process sharded job (`bench.shards`) counts for
    the rerank layer. `<layer>.self_s` sums the self time of the layer's
    spans in the set-up and the timed iteration.
    """
    q = _Spans(spans)
    m, source = {}, {}

    def derived(metric, fn, found, value):
        source[metric] = fn
        if found:
            m[metric] = value()
        return found

    def timed(metric, fn, **kw):
        found = q.outer(fn, **kw)
        return derived(metric, fn, found, lambda: _secs(found))

    load = "embed_store.load_embeddings"
    loads = timed("embed_store.load_s", load)
    derived("embed_store.load_mb_per_s", load, loads,
            lambda: _attr_sum(loads, "bytes") / 1e6 / _secs(loads))
    derived("embed_store.load_rss_delta_mb", load, loads, lambda: _rise_mb(loads))
    timed("embed_store.save_s", "embed_store.save_embeddings")
    timed("embed_store.fuse_s", "embed_store.fuse_multiscale")

    pcd = "search.pairwise_cosine_distance"
    dist = timed("search.distance_s", pcd, where=lambda s: s["attrs"].get("threads") == 1)
    derived("search.distance_gflops", pcd, dist, lambda: sum(
        2 * s["attrs"]["nq"] * s["attrs"]["ng"] * s["attrs"]["dim"] for s in dist) / 1e9)
    derived("search.matrix_mb", pcd, dist, lambda: max(
        4 * s["attrs"]["nq"] * s["attrs"]["ng"] for s in dist) / 1e6)
    tk = timed("search.topk_s", "search.topk")
    derived("search.rss_delta_mb", pcd, dist, lambda: _rise_mb(dist + tk))
    timed("search.distance_s_threads2", pcd, scopes=("bench.threads2",))

    # the pipeline's shards re-rank in untraced worker processes, so the
    # in-process run of its sharded job stands for them
    shards = {"scopes": (*RUN_SCOPES, "bench.shards")}
    kr = "rerank.kreciprocal_rerank"
    rr = timed("rerank.rerank_s", kr, **shards)
    derived("rerank.rerank_cpu_s", kr, rr, lambda: sum(s["cpu_ns"] for s in rr) / 1e9)
    joint = max((s["attrs"]["joint_items"] for s in rr), default=0)
    derived("rerank.joint_items", kr, rr, lambda: joint)
    derived("rerank.dense_mb", kr, rr, lambda: 48 * joint ** 2 / 1e6)
    derived("rerank.rss_delta_mb", kr, rr, lambda: _rise_mb(rr))
    writes = timed("rerank.shard_write_s", "rerank.write_shard_result", **shards)
    derived("rerank.shard_mb", "rerank.write_shard_result", writes,
            lambda: _attr_sum(writes, "bytes") / 1e6)
    timed("rerank.shard_read_s", "rerank.read_shard_result", **shards)
    hashes = q.outer("rerank.fnv1a64", **shards)
    derived("rerank.checksum_mb_per_s", "rerank.fnv1a64", hashes,
            lambda: _attr_sum(hashes, "bytes") / 1e6 / _secs(hashes))
    timed("rerank.merge_s", "rerank.merge_shard_results", **shards)

    timed("harness.create_job_s", "harness.create_job")
    coord = timed("harness.coordinate_s", "harness.coordinator_run")
    derived("harness.shards_attempted", "harness.coordinator_run", coord,
            lambda: _attr_sum(coord, "shards"))
    derived("harness.shards_failed", "harness.coordinator_run", coord,
            lambda: _attr_sum(coord, "failed"))
    sharded = [s for s in spans if s["name"] == "bench.shards"]
    workers = [w for job in sharded for w in q.children(job, "harness.worker_run")]
    sharded_ids = {s["id"] for s in sharded}
    builds = sum(
        1 for s in spans
        if s["name"] == kr and any(a["id"] in sharded_ids for a in q.ancestors(s))
    )
    wr = "harness.worker_run"
    derived("harness.worker_s_max", wr, workers, lambda: max(_secs([w]) for w in workers))
    derived("harness.worker_s_sum", wr, workers, lambda: _secs(workers))
    derived("harness.neighbour_builds", wr, workers, lambda: builds / len(sharded))
    derived("harness.useful_build_ratio", wr, workers, lambda: len(sharded) / builds)

    timed("ensemble.vote_s", "ensemble.vote_ensemble")

    cf = "pseudolabel.cluster_features"
    cl = timed("pseudolabel.cluster_s", cf)
    derived("pseudolabel.cluster_gflops", cf, cl, lambda: sum(
        2 * s["attrs"]["n"] ** 2 * s["attrs"]["dim"] for s in cl) / 1e9)
    derived("pseudolabel.components", cf, cl, lambda: _attr_sum(cl, "clusters"))
    kept = timed("pseudolabel.filter_s", "pseudolabel.filter_confident")
    derived("pseudolabel.kept_clusters", "pseudolabel.filter_confident", kept,
            lambda: _attr_sum(kept, "clusters"))
    timed("pseudolabel.assign_s", "pseudolabel.assign_pseudo_labels")

    timed("evalbench.gen_s", "evalbench.gen_synthetic")
    timed("evalbench.mar_s", "evalbench.mar_at_k")

    # the pipeline's steps are the cli.run calls made by its cmd_pipeline call
    for bench in (s for s in spans if s["name"] == "bench.pipeline"):
        for top in q.children(bench, "cli.run"):
            for pipe in q.children(top, "cli.cmd_pipeline"):
                for name, step in zip(step_names, q.children(pipe, "cli.run")):
                    m[f"cli.step_s.{name}"] = _secs([step])
    resumes = [s for s in spans if s["name"] == "bench.pipeline_resume"]
    resume_runs = [t for r in resumes for t in q.children(r, "cli.run")]
    derived("cli.resume_s", "cli.run", resume_runs, lambda: _secs(resume_runs))
    derived("cli.steps_skipped", "cli.run", resume_runs,
            lambda: sum(r["attrs"]["skipped"] for r in resumes))

    selfs = self_times(spans)
    for layer in LAYERS:
        own = [
            selfs[s["id"]] for s in spans
            if s["name"].startswith(layer + ".") and q.scope(s) in RUN_SCOPES
        ]
        derived(f"{layer}.self_s", f"{layer}.*", own, lambda: sum(own) / 1e9)

    absent = {
        metric: f"this workload's traced run made no {fn} call"
        for metric, fn in source.items() if metric not in m
    }
    return m, absent
