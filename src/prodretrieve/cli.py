"""Single command-line entry point exposing the pipeline as subcommands.

Every subcommand is a thin adapter over one library operation: same
inputs, same outputs, byte-identical results to calling the operation
in-process. Exit codes: 0 success, 1 usage error, 2 data error, 3
manifest/config error. All randomness takes an explicit --seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _status(outputs, **extra) -> None:
    line = {"ok": True, "outputs": [str(p) for p in outputs]}
    line.update(extra)
    print(json.dumps(line))


@functools.cache  # `pipeline` parses every step's argv with the same parser
def build_parser() -> _Parser:
    parser = _Parser(prog="prodretrieve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", help="l2-normalize an embedding file")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fuse", help="fuse multi-scale embedding files")
    p.add_argument("--in", dest="inp", nargs="+", required=True, help="EMB1 files, aligned ids")
    p.add_argument("--out", required=True)

    p = sub.add_parser("search", help="exact cosine distance matrix")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--threads", type=_positive_int, default=_cores(),
        help="threads over the fixed query blocks, each with one BLAS thread "
             "(default: the available cores); never changes output bytes",
    )

    p = sub.add_parser("crop-agg", help="reduce crop columns to parents by min")
    p.add_argument("--matrix", required=True)
    p.add_argument("--map", dest="crop_map", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerank", help="k-reciprocal re-ranking, in-process")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k1", type=int, default=20)
    p.add_argument("--k2", type=int, default=6)
    p.add_argument("--lam", type=float, default=0.3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("shard", help="create a sharded rerank job directory")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--n-shards", type=int, required=True)
    p.add_argument("--k1", type=int, default=20)
    p.add_argument("--k2", type=int, default=6)
    p.add_argument("--lam", type=float, default=0.3)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--job-dir", required=True)

    p = sub.add_parser("worker", help="run one shard of a rerank job")
    p.add_argument("--manifest", required=True)
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--inject-fail", action="store_true")

    p = sub.add_parser(
        "coordinate", help="run all shards as forked worker processes, then merge"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--fail-policy", choices=["tolerate", "strict"], default="tolerate")
    p.add_argument("--out", required=True)
    p.add_argument("--missing", help="write the missing-query report here")

    p = sub.add_parser("merge", help="merge whatever shard files exist")
    p.add_argument("--job-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--missing", help="write the missing-query report here")

    p = sub.add_parser("max-ensemble", help="score-level maximum ensemble")
    p.add_argument("--matrices", nargs="+", required=True, help="distance matrix .npz files")
    p.add_argument("--out", required=True)

    p = sub.add_parser("vote-ensemble", help="Borda voting over ranking lists")
    p.add_argument("--lists", nargs="+", required=True, help="RankingList .jsonl files")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cluster", help="threshold-graph connected components")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter-clusters", help="drop low-confidence (large) clusters")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--max-size", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("assign-labels", help="clusters + sampled singletons -> classes")
    p.add_argument("--clusters", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-synth", help="seeded synthetic retrieval benchmark")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--gallery-per-class", type=int, required=True)
    p.add_argument("--queries-per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-gallery", required=True)
    p.add_argument("--out-queries", required=True)
    p.add_argument("--out-gt", required=True)

    p = sub.add_parser("eval", help="MAR@k of ranking lists against ground truth")
    p.add_argument("--lists", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gallery", help="EMB1 file for gallery id validation")
    p.add_argument("--per-query", action="store_true")

    p = sub.add_parser("pipeline", help="run a multi-step pipeline config")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", help="base for relative paths (default: config dir)")
    p.add_argument("--resume", action="store_true")

    return parser


# --- subcommand handlers ---

def cmd_normalize(args) -> None:
    emb = embed_store.l2_normalize(embed_store.load_embeddings(args.inp))
    embed_store.save_embeddings(emb, args.out)
    _status([args.out])


def cmd_fuse(args) -> None:
    members = [(os.path.basename(p), embed_store.load_embeddings(p)) for p in args.inp]
    fused = embed_store.fuse_multiscale(embed_store.ScaleGroup(tuple(members)))
    embed_store.save_embeddings(fused, args.out)
    _status([args.out])


def cmd_search(args) -> None:
    stages = {}
    with stage("load", stages):
        queries = embed_store.load_embeddings(args.queries)
        gallery = embed_store.load_embeddings(args.gallery)
    with stage("distance", stages):
        matrix = search.pairwise_cosine_distance(queries, gallery, threads=args.threads)
    with stage("write", stages):
        search.save_matrix(matrix, args.out)
    _status([args.out], stages=stages)


def cmd_crop_agg(args) -> None:
    matrix = search.load_matrix(args.matrix)
    crop_map = search.load_crop_map(args.crop_map)
    search.save_matrix(search.aggregate_crops(matrix, crop_map), args.out)
    _status([args.out])


def cmd_rerank(args) -> None:
    stages = {}
    params = rerank.RerankParams(k1=args.k1, k2=args.k2, lam=args.lam)
    with stage("load", stages):
        queries = embed_store.load_embeddings(args.queries)
        gallery = embed_store.load_embeddings(args.gallery)
    matrix = rerank.kreciprocal_rerank(queries, gallery, params, stages=stages)
    with stage("write", stages):
        search.save_matrix(matrix, args.out)
    _status([args.out], stages=stages)


def cmd_shard(args) -> None:
    params = rerank.RerankParams(k1=args.k1, k2=args.k2, lam=args.lam)
    harness.create_job(
        args.job_dir, args.queries, args.gallery, params,
        n_shards=args.n_shards, depth=args.depth,
    )
    _status([os.path.join(args.job_dir, harness.MANIFEST_NAME)])


def cmd_worker(args) -> None:
    out = harness.worker_run(args.manifest, args.shard, inject_fail=args.inject_fail)
    _status([out])


def cmd_coordinate(args) -> None:
    stages = {}
    results, report = harness.coordinator_run(
        args.manifest, parallelism=args.parallelism, fail_policy=args.fail_policy,
        stages=stages,
    )
    _write_merge_outputs(results, report, args.out, args.missing, stages=stages)


def cmd_merge(args) -> None:
    manifest = harness.load_manifest(os.path.join(args.job_dir, harness.MANIFEST_NAME))
    results, report = rerank.merge_shard_results(manifest.shards, args.job_dir)
    _write_merge_outputs(results, report, args.out, args.missing)


def _write_merge_outputs(results, report, out, missing_path, **extra) -> None:
    search.write_ranking_lists(results, out)
    outputs = [out]
    if missing_path:
        write_json(missing_path, report.to_dict())
        outputs.append(missing_path)
    _status(outputs, n_missing=len(report.missing_queries), **extra)


def cmd_max_ensemble(args) -> None:
    matrices = (search.load_matrix(p) for p in args.matrices)  # loaded in turn
    search.save_matrix(ensemble.max_ensemble(matrices), args.out)
    _status([args.out])


def cmd_vote_ensemble(args) -> None:
    if args.k < 1:
        raise SystemExit(_usage(f"--k must be >= 1, got {args.k}"))
    model_lists = (search.read_ranking_lists(p) for p in args.lists)  # read in turn
    fused = ensemble.vote_ensemble(model_lists, k=args.k)
    search.write_ranking_lists(fused, args.out)
    _status([args.out])


def cmd_cluster(args) -> None:
    stages = {}
    with stage("load", stages):
        emb = embed_store.load_embeddings(args.inp)
    result = pseudolabel.cluster_features(emb, args.threshold, stages)
    with stage("write", stages):
        pseudolabel.save_clusters(result, args.out)
    _status([args.out], n_clusters=len(result.clusters), n_pool=len(result.unclustered_pool),
            stages=stages)


def cmd_filter_clusters(args) -> None:
    result = pseudolabel.filter_confident(
        pseudolabel.load_clusters(args.inp), max_size=args.max_size
    )
    pseudolabel.save_clusters(result, args.out)
    _status([args.out], n_clusters=len(result.clusters), n_pool=len(result.unclustered_pool))


def cmd_assign_labels(args) -> None:
    kept = pseudolabel.load_clusters(args.clusters)
    assignment = pseudolabel.assign_pseudo_labels(kept, args.target, args.seed)
    pseudolabel.save_assignment(assignment, args.out)
    _status(
        [args.out],
        n_classes=assignment.n_classes,
        n_cluster_classes=assignment.n_cluster_classes,
        n_singleton_classes=assignment.n_singleton_classes,
        n_images=assignment.n_images,
    )


def cmd_gen_synth(args) -> None:
    stages = {}
    with stage("draw", stages):
        gallery, queries, gt = evalbench.gen_synthetic(
            args.classes, args.gallery_per_class, args.queries_per_class,
            args.dim, args.noise, args.seed)
    with stage("write", stages):
        embed_store.save_embeddings(gallery, args.out_gallery)
        embed_store.save_embeddings(queries, args.out_queries)
        evalbench.save_ground_truth(gt, args.out_gt)
    _status([args.out_gallery, args.out_queries, args.out_gt], stages=stages)


def cmd_eval(args) -> None:
    stages = {}
    with stage("load", stages):
        lists = search.read_ranking_lists(args.lists)
        gt = evalbench.load_ground_truth(args.gt)
        gallery_ids = None
        if args.gallery:
            gallery_ids = embed_store.load_embeddings(args.gallery).ids
    with stage("eval", stages):
        report = evalbench.mar_at_k(lists, gt, k=args.k, gallery_ids=gallery_ids)
    _status([], **report.to_dict(include_per_query=args.per_query), stages=stages)


# subcommand -> handler: `crop-agg` runs cmd_crop_agg. `pipeline` runs the
# others as its steps, so it is dispatched apart and is no step's op.
HANDLERS = {
    name[4:].replace("_", "-"): fn for name, fn in globals().items()
    if name.startswith("cmd_") and name != "cmd_pipeline"
}


def _usage(message: str) -> int:
    print(f"prodretrieve: error: {message}", file=sys.stderr)
    return EXIT_USAGE


# --- pipeline runner ---

def _step_argv(step: dict, base: str) -> tuple[list, list, list]:
    """Build (argv, input paths, output paths) for one pipeline step."""
    op = step.get("op")
    if op not in HANDLERS:
        raise PipelineConfigError(f"step {step.get('name')!r}: unknown op {op!r}")
    argv = [op]
    inputs, outputs = [], []
    for kind in ("params", "inputs", "outputs"):
        for key, value in step.get(kind, {}).items():
            values = value if isinstance(value, list) else [value]
            if kind != "params":
                values = [os.path.join(base, str(v)) for v in values]  # an absolute v stays
                (inputs if kind == "inputs" else outputs).extend(values)
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
    plans = []
    produced = set()
    for step in config.get("steps", []):
        argv, inputs, outputs = _step_argv(step, base)
        for path in inputs:
            # a file under a directory produced earlier (e.g. a job dir's
            # manifest) counts as produced
            under_produced = any(
                path == p or path.startswith(p.rstrip(os.sep) + os.sep)
                for p in produced
            )
            if not under_produced and not os.path.exists(path):
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


def cmd_pipeline(args) -> None:
    base, plans = read_json(args.config, functools.partial(_plan, args), PipelineConfigError)
    os.makedirs(base, exist_ok=True)
    state_path = os.path.join(base, ".pipeline_state.json")
    stored = {}
    if args.resume and os.path.isfile(state_path):
        stored = read_json(state_path, dict.copy, MalformedFile)  # refuses all but an object
    state, key = {}, ""  # step key -> step name, written anew: no earlier key lingers

    for name, argv, inputs, outputs in plans:
        paths = inputs + outputs  # a step with a directory (shard) or no output (eval) runs
        skippable = args.resume and outputs and all(map(os.path.isfile, paths))
        if skippable and (new_key := _step_key(key, argv, paths)) in stored:
            print(json.dumps({"step": name, "skipped": True}))
        else:
            write_json(state_path, state)  # the steps done so far, should this one fail
            code = run(argv)
            if code != EXIT_OK:
                print(f"pipeline step {name!r} failed with exit {code}", file=sys.stderr)
                raise SystemExit(code)
            new_key = _step_key(key, argv, paths)
        key = new_key
        state[key] = name
    write_json(state_path, state)
    _status([p for *_, outputs in plans for p in outputs], steps=len(plans))


# --- entry ---

def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "pipeline":
            cmd_pipeline(args)
        else:
            HANDLERS[args.command](args)
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
