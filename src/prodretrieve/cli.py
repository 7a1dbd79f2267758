"""Single command-line entry point exposing the pipeline as subcommands.

Every subcommand is a thin adapter over library operations: same inputs,
same outputs, byte-identical results to calling them in-process. The dense
ops (`search`, `rerank`, `max-ensemble`) write ranking lists of depth
`search.DEFAULT_K`, never a distance matrix. Exit codes: 0 success, 1 usage
error, 2 data error, 3 manifest/config error. All randomness takes an
explicit --seed. The flags that name files are declared once, in
FILE_FLAGS, which the parser and the `pipeline` runner both read.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple

from . import embed_store, ensemble, evalbench, harness, pseudolabel, rerank, search
from .errors import MalformedFile, ManifestInvalid, ProdRetrieveError
from .fileio import compact_json, read_json, sha256_file, sha256_hex, write_json
from .stages import stage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cores() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity off Linux
        return os.cpu_count() or 1


def _status(outputs, **extra) -> dict:
    """The one-line JSON status an op returns and `run` prints."""
    return {"ok": True, "outputs": [str(p) for p in outputs], **extra}


class FileFlag(NamedTuple):
    """A flag naming a file, or one or more (nargs "+"), or a directory holding `key_file`."""

    output: bool = False
    nargs: str | None = None
    required: bool = True
    help: str | None = None
    key_file: str | None = None


IN, OUT = FileFlag(), FileFlag(output=True)
MISSING = FileFlag(output=True, required=False, help="write the missing-query report here")
MEMBERS = FileFlag(nargs="+", help="EMB1 files, one per member")

# op -> its flags that name files; every other flag is a param. `build_parser` adds
# them, and `pipeline` takes each step's files from here, never from its config.
FILE_FLAGS = {
    "normalize": {"in": IN, "out": OUT},
    "fuse": {"in": FileFlag(nargs="+", help="EMB1 files, aligned ids"), "out": OUT},
    "search": {"queries": IN, "gallery": IN, "out": OUT, "map": FileFlag(
        required=False, help="crop map: reduce crop columns to parents by min before top-k")},
    "rerank": {"queries": IN, "gallery": IN, "out": OUT},
    "shard": {"queries": IN, "gallery": IN,
              "job-dir": FileFlag(output=True, key_file=harness.MANIFEST_NAME)},
    "worker": {"manifest": IN},
    "coordinate": {"manifest": IN, "out": OUT, "missing": MISSING},
    "merge": {"job-dir": IN, "out": OUT, "missing": MISSING},
    "max-ensemble": {"queries": MEMBERS, "gallery": MEMBERS, "out": OUT},
    "vote-ensemble": {"lists": FileFlag(nargs="+", help="RankingList .jsonl files"), "out": OUT},
    "cluster": {"in": IN, "out": OUT},
    "filter-clusters": {"in": IN, "out": OUT},
    "assign-labels": {"clusters": IN, "out": OUT},
    "gen-synth": {"out-gallery": OUT, "out-queries": OUT, "out-gt": OUT},
    "eval": {"lists": IN, "gt": IN,
             "gallery": FileFlag(required=False, help="EMB1 file for gallery id validation")},
}


@functools.cache  # `pipeline` parses every step's argv with the same parser
def build_parser() -> _Parser:
    parser = _Parser(prog="prodretrieve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_op(name, help):
        p = sub.add_parser(name, help=help)
        for flag, f in FILE_FLAGS[name].items():
            p.add_argument(f"--{flag}", dest={"in": "inp", "map": "crop_map"}.get(flag),
                           nargs=f.nargs, required=f.required, help=f.help)
        return p

    def add_rerank_params(p):  # --k1, --k2 and --lam, defaulting to RerankParams()'s fields
        for name, default in vars(rerank.RerankParams()).items():
            p.add_argument(f"--{name}", type=type(default), default=default)

    add_op("normalize", "l2-normalize an embedding file")
    add_op("fuse", "fuse multi-scale embedding files")

    p = add_op("search", "exact cosine search to top-k ranking lists")
    p.add_argument(
        "--threads", type=_positive_int, default=_cores(),
        help="threads over the fixed query blocks, each with one BLAS thread "
             "(default: the available cores); never changes output bytes",
    )

    add_rerank_params(add_op("rerank", "k-reciprocal re-ranking to top-k ranking lists"))

    p = add_op("shard", "create a sharded rerank job directory")
    p.add_argument("--n-shards", type=int, required=True)
    add_rerank_params(p)
    p.add_argument("--depth", type=int, default=search.DEFAULT_K)

    p = add_op("worker", "run one shard of a rerank job")
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--inject-fail", action="store_true")

    p = add_op("coordinate", "run all shards as forked worker processes, then merge")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--fail-policy", choices=["tolerate", "strict"], default="tolerate")

    add_op("merge", "merge whatever shard files exist")
    add_op("max-ensemble", "score-level maximum ensemble to top-k lists")

    p = add_op("vote-ensemble", "Borda voting over ranking lists")
    p.add_argument("--k", type=int, default=search.DEFAULT_K)

    p = add_op("cluster", "threshold-graph connected components")
    p.add_argument("--threshold", type=float, required=True)

    p = add_op("filter-clusters", "drop low-confidence (large) clusters")
    p.add_argument("--max-size", type=int, default=pseudolabel.CONFIDENT_MAX_SIZE)

    p = add_op("assign-labels", "clusters + sampled singletons -> classes")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add_op("gen-synth", "seeded synthetic retrieval benchmark")
    for flag in ("classes", "gallery-per-class", "queries-per-class", "dim"):
        p.add_argument(f"--{flag}", type=int, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add_op("eval", "MAR@k of ranking lists against ground truth")
    p.add_argument("--k", type=int, default=search.DEFAULT_K)
    p.add_argument("--per-query", action="store_true")

    p = sub.add_parser("pipeline", help="run a multi-step pipeline config")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", help="base for relative paths (default: config dir)")
    p.add_argument("--resume", action="store_true")

    return parser


# --- subcommand handlers ---

def cmd_normalize(args) -> dict:
    emb = embed_store.l2_normalize(embed_store.load_embeddings(args.inp))
    embed_store.save_embeddings(emb, args.out)
    return _status([args.out])


def cmd_fuse(args) -> dict:
    members = [(os.path.basename(p), embed_store.load_embeddings(p)) for p in args.inp]
    fused = embed_store.fuse_multiscale(embed_store.ScaleGroup(tuple(members)))
    embed_store.save_embeddings(fused, args.out)
    return _status([args.out])


def _write_topk(matrix, out, stages) -> dict:
    """Each query's top DEFAULT_K of `matrix`, written to `out` as ranking lists."""
    with stage("topk", stages):
        lists = search.topk(matrix, search.DEFAULT_K)
    with stage("write", stages):
        search.write_ranking_lists(lists, out)
    return _status([out], stages=stages)


def cmd_search(args) -> dict:
    stages = {}
    with stage("load", stages):
        queries = embed_store.load_embeddings(args.queries)
        gallery = embed_store.load_embeddings(args.gallery)
        crop_map = None if args.crop_map is None else search.load_crop_map(args.crop_map)
    with stage("distance", stages):
        matrix = search.pairwise_cosine_distance(queries, gallery, threads=args.threads)
        if crop_map is not None:
            matrix = search.aggregate_crops(matrix, crop_map)
    return _write_topk(matrix, args.out, stages)


def cmd_rerank(args) -> dict:
    stages = {}
    params = rerank.RerankParams(k1=args.k1, k2=args.k2, lam=args.lam)
    with stage("load", stages):
        queries = embed_store.load_embeddings(args.queries)
        gallery = embed_store.load_embeddings(args.gallery)
    matrix = rerank.kreciprocal_rerank(queries, gallery, params, stages=stages)
    return _write_topk(matrix, args.out, stages)


def cmd_shard(args) -> dict:
    params = rerank.RerankParams(k1=args.k1, k2=args.k2, lam=args.lam)
    harness.create_job(args.job_dir, args.queries, args.gallery, params,
                       n_shards=args.n_shards, depth=args.depth)
    return _status([os.path.join(args.job_dir, harness.MANIFEST_NAME)])


def cmd_worker(args) -> dict:
    out = harness.worker_run(args.manifest, args.shard, inject_fail=args.inject_fail)
    return _status([out])


def cmd_coordinate(args) -> dict:
    stages = {}
    results, report = harness.coordinator_run(
        args.manifest, parallelism=args.parallelism, fail_policy=args.fail_policy, stages=stages)
    return _write_merge_outputs(results, report, args.out, args.missing, stages=stages)


def cmd_merge(args) -> dict:
    manifest = harness.load_manifest(os.path.join(args.job_dir, harness.MANIFEST_NAME))
    results, report = rerank.merge_shard_results(manifest.shards, args.job_dir)
    return _write_merge_outputs(results, report, args.out, args.missing)


def _write_merge_outputs(results, report, out, missing_path, **extra) -> dict:
    search.write_ranking_lists(results, out)
    outputs = [out]
    if missing_path:
        write_json(missing_path, report.to_dict())
        outputs.append(missing_path)
    return _status(outputs, n_missing=len(report.missing_queries), **extra)


def cmd_max_ensemble(args) -> dict:
    if len(args.queries) != len(args.gallery):
        raise SystemExit(_usage("--queries and --gallery need one file per member each"))
    matrices = (  # lazy: max_ensemble folds each member in before the next is searched
        search.pairwise_cosine_distance(*map(embed_store.load_embeddings, pair), threads=_cores())
        for pair in zip(args.queries, args.gallery)
    )
    stages = {}
    with stage("ensemble", stages):
        matrix = ensemble.max_ensemble(matrices)
    return _write_topk(matrix, args.out, stages)


def cmd_vote_ensemble(args) -> dict:
    if args.k < 1:
        raise SystemExit(_usage(f"--k must be >= 1, got {args.k}"))
    model_lists = (search.read_ranking_lists(p) for p in args.lists)  # read in turn
    fused = ensemble.vote_ensemble(model_lists, k=args.k)
    search.write_ranking_lists(fused, args.out)
    return _status([args.out])


def cmd_cluster(args) -> dict:
    stages = {}
    with stage("load", stages):
        emb = embed_store.load_embeddings(args.inp)
    result = pseudolabel.cluster_features(emb, args.threshold, stages)
    with stage("write", stages):
        pseudolabel.save_clusters(result, args.out)
    return _status([args.out], n_clusters=len(result.clusters),
                   n_pool=len(result.unclustered_pool), stages=stages)


def cmd_filter_clusters(args) -> dict:
    result = pseudolabel.filter_confident(
        pseudolabel.load_clusters(args.inp), max_size=args.max_size
    )
    pseudolabel.save_clusters(result, args.out)
    return _status([args.out], n_clusters=len(result.clusters),
                   n_pool=len(result.unclustered_pool))


def cmd_assign_labels(args) -> dict:
    kept = pseudolabel.load_clusters(args.clusters)
    assignment = pseudolabel.assign_pseudo_labels(kept, args.target, args.seed)
    pseudolabel.save_assignment(assignment, args.out)
    return _status(
        [args.out],
        n_classes=assignment.n_classes,
        n_cluster_classes=assignment.n_cluster_classes,
        n_singleton_classes=assignment.n_singleton_classes,
        n_images=assignment.n_images,
    )


def cmd_gen_synth(args) -> dict:
    stages = {}
    with stage("draw", stages):
        gallery, queries, gt = evalbench.gen_synthetic(
            args.classes, args.gallery_per_class, args.queries_per_class,
            args.dim, args.noise, args.seed)
    with stage("write", stages):
        embed_store.save_embeddings(gallery, args.out_gallery)
        embed_store.save_embeddings(queries, args.out_queries)
        evalbench.save_ground_truth(gt, args.out_gt)
    return _status([args.out_gallery, args.out_queries, args.out_gt], stages=stages)


def cmd_eval(args) -> dict:
    stages = {}
    with stage("load", stages):
        lists = search.read_ranking_lists(args.lists)
        gt = evalbench.load_ground_truth(args.gt)
        gallery_ids = None
        if args.gallery:
            gallery_ids = embed_store.load_embeddings(args.gallery).ids
    with stage("eval", stages):
        report = evalbench.mar_at_k(lists, gt, k=args.k, gallery_ids=gallery_ids)
    return _status([], **report.to_dict(include_per_query=args.per_query), stages=stages)


# step op -> handler (`max-ensemble` runs cmd_max_ensemble); `pipeline` is dispatched apart
HANDLERS = {op: globals()["cmd_" + op.replace("-", "_")] for op in FILE_FLAGS}


def _usage(message: str) -> int:
    print(f"prodretrieve: error: {message}", file=sys.stderr)
    return EXIT_USAGE


# --- pipeline runner ---

def _step_argv(step: dict, base: str) -> tuple[list, list, list]:
    """(argv, input paths, output paths) of one pipeline step, each flag in
    the group its FILE_FLAGS role gives it; a directory flag's path is its key_file."""
    name, op = step.get("name"), step.get("op")
    if op not in FILE_FLAGS:
        raise PipelineConfigError(f"step {name!r}: unknown op {op!r}")
    argv = [op]
    inputs, outputs = [], []
    for group in ("params", "inputs", "outputs"):
        for key, value in step.get(group, {}).items():
            spec = FILE_FLAGS[op].get(key)
            belongs = "params" if spec is None else "outputs" if spec.output else "inputs"
            if spec is None and group != "params":
                raise PipelineConfigError(f"step {name!r}: --{key} is not a file flag "
                                          f"of {op}, so it cannot go under {group!r}")
            if group != belongs:
                raise PipelineConfigError(f"step {name!r}: --{key} of {op} belongs under "
                                          f"{belongs!r}, not {group!r}")
            values = value if isinstance(value, list) else [value]
            if spec:
                values = [os.path.join(base, str(v)) for v in values]  # an absolute v stays
                (outputs if spec.output else inputs).extend(
                    os.path.join(v, spec.key_file) if spec.key_file else v for v in values)
            argv.append(f"--{key}")
            if not (len(values) == 1 and values[0] is True):  # not a bare flag
                argv.extend(str(v) for v in values)
    return argv, inputs, outputs


class PipelineConfigError(ProdRetrieveError):
    pass


def _plan(args, config) -> tuple[str, list]:
    """The base directory and each step's (name, argv, inputs, outputs)."""
    here = os.path.dirname(os.path.abspath(args.config))  # a relative workdir's base
    base = os.path.join(here, args.workdir or config.get("workdir") or "")
    plans, produced = [], set()
    for step in config.get("steps", []):
        argv, inputs, outputs = _step_argv(step, base)
        for path in inputs:
            # an earlier step's output, or a directory holding one (a job dir)
            made = any(p == path or p.startswith(path.rstrip(os.sep) + os.sep) for p in produced)
            if not made and not os.path.exists(path):
                raise PipelineConfigError(
                    f"step {step.get('name')!r}: input {path} is neither an "
                    "existing file nor an earlier step's output"
                )
        produced.update(outputs)
        plans.append((step.get("name", argv[0]), argv, inputs, outputs))
    return base, plans


def _step_key(previous: str, argv: list, paths: list) -> str:
    """sha256 of the previous step's key, the argv and each declared file's
    sha256 (null if no file), so a changed step changes every later key."""
    digests = [sha256_file(p) if os.path.isfile(p) else None for p in paths]
    return sha256_hex(compact_json([previous, argv, digests]).encode())


def cmd_pipeline(args) -> dict:
    base, plans = read_json(args.config, functools.partial(_plan, args), PipelineConfigError)
    os.makedirs(base, exist_ok=True)
    state_path = os.path.join(base, ".pipeline_state.json")
    stored = {}
    if args.resume and os.path.isfile(state_path):
        stored = read_json(state_path, dict.copy, MalformedFile)  # refuses all but an object
    state, key = {}, ""  # step key -> step name, written anew: no earlier key lingers

    for name, argv, inputs, outputs in plans:
        paths = inputs + outputs  # a step with no output (eval) or a directory input (merge) runs
        skippable = args.resume and outputs and all(map(os.path.isfile, paths))
        if skippable and (new_key := _step_key(key, argv, paths)) in stored:
            print(json.dumps({"step": name, "skipped": True}))
        else:
            write_json(state_path, state)  # the steps done so far, should this one fail
            code = run(argv, step=name)
            if code != EXIT_OK:
                print(f"pipeline step {name!r} failed with exit {code}", file=sys.stderr)
                raise SystemExit(code)
            new_key = _step_key(key, argv, paths)
        key = new_key
        state[key] = name
    write_json(state_path, state)
    return _status([p for *_, outputs in plans for p in outputs], steps=len(plans))


# --- entry ---

def run(argv=None, step=None) -> int:
    """Run one command and print its status line, naming `step` if given; return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        line = (cmd_pipeline if args.command == "pipeline" else HANDLERS[args.command])(args)
        print(json.dumps(line if step is None else {"step": step, **line}))
    except SystemExit as exc:
        return int(exc.code or 0)
    except ProdRetrieveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, (ManifestInvalid, PipelineConfigError)):
            return EXIT_CONFIG
        return EXIT_DATA
    except OSError as exc:  # a missing input, a directory where a file belongs, ...
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK
