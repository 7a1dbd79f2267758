import argparse
import json
import os
import shutil

import numpy as np
import pytest

from oracles import naive_borda
from prodretrieve import cli
from prodretrieve.cli import _step_argv, run
from prodretrieve.embed_store import EmbeddingSet, l2_normalize, load_embeddings, save_embeddings
from prodretrieve.ensemble import max_ensemble, vote_ensemble
from prodretrieve.evalbench import gen_synthetic, save_ground_truth
from prodretrieve.fileio import sha256_file
from prodretrieve.rerank import RerankParams, kreciprocal_rerank
from prodretrieve.search import (
    DEFAULT_K, CropGroupMap, DistanceMatrix, RankingList, aggregate_crops,
    pairwise_cosine_distance, read_ranking_lists, save_crop_map, topk, write_ranking_lists,
)


PAPER_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "paper_pipeline.json")

# what an unchanged `--resume` of the paper config skips: every step with
# outputs, `shard` keyed by the manifest it writes; `eval` (none) re-runs
PAPER_SKIPPED = [
    "gen-scale-400", "gen-scale-512", "gen-scale-600", "normalize-queries",
    "fuse-gallery", "fuse-queries", "search-fused", "shard-fused", "rerank-fused",
    "shard-s400", "rerank-s400", "shard-s512", "rerank-s512",
    "shard-s600", "rerank-s600", "vote-scales",
]


def paper_config(path, step=None, param=None, value=None) -> str:
    """The paper config written to `path`, with `param` of `step` set to `value`."""
    with open(PAPER_CONFIG) as fh:
        config = json.load(fh)
    if step is not None:
        next(s for s in config["steps"] if s["name"] == step)["params"][param] = value
    path.write_text(json.dumps(config))
    return str(path)


def workdir_files(work) -> dict:
    """Each file under `work` but the pipeline state, by relative path, with
    the workdir's own path in JSON files blanked and no wall times."""
    files = {}
    for path in sorted(work.rglob("*")):
        if not path.is_file() or path.name == ".pipeline_state.json":
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = json.loads(data.replace(str(work).encode(), b"<work>"))
            obj.pop("wall_s", None)
            data = obj
        files[str(path.relative_to(work))] = data
    return files


def ok_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()[-1]
    obj = json.loads(out)
    assert obj["ok"] is True
    return obj


@pytest.fixture
def synth(tmp_path):
    gallery, queries, gt = gen_synthetic(
        n_classes=6, gallery_per_class=4, queries_per_class=2,
        dim=8, noise_sigma=0.2, seed=7,
    )
    paths = {
        "gallery": str(tmp_path / "gallery.emb"),
        "queries": str(tmp_path / "queries.emb"),
        "gt": str(tmp_path / "gt.jsonl"),
    }
    save_embeddings(gallery, paths["gallery"])
    save_embeddings(queries, paths["queries"])
    save_ground_truth(gt, paths["gt"])
    return paths


def _one_line_error(capsys, prefix):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return captured


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        code = run(["normalize", "--in", str(bad), "--out", str(tmp_path / "o.emb")])
        assert code == 2
        assert "MagicMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"threshold": 0.8, "clusters": [["a", "b"]], "po',  # truncated
        '{"threshold": 0.8, "pool": ["c"]}',  # no "clusters" key
        '{"threshold": 0.8, "clusters": [["a", "b"]], "pool": "cd"}',  # was the pool {c, d}
        '{"threshold": 0.8, "clusters": ["ab"], "pool": []}',  # was the cluster (a, b)
        '{"threshold": 0.8, "clusters": [["a", 1]], "pool": []}',  # an id that is no string
        '{"threshold": "x", "clusters": [], "pool": []}',  # was written back as "x"
        '{"threshold": 7, "clusters": [], "pool": []}',  # outside (0,1), written back
        '{"threshold": true, "clusters": [], "pool": []}',
    ])
    def test_malformed_cluster_file_is_2(self, tmp_path, capsys, text):
        bad = tmp_path / "clusters.json"
        bad.write_text(text)
        code = run(["filter-clusters", "--in", str(bad), "--out", str(tmp_path / "kept.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("MalformedClusters: ")
        assert not (tmp_path / "kept.json").exists()

    def test_cluster_pool_string_is_2_for_assign_labels(self, tmp_path, capsys):
        """A pool given as one string was read as its characters."""
        bad = tmp_path / "clusters.json"
        bad.write_text('{"threshold": 0.8, "clusters": [["a", "b"]], "pool": "cd"}')
        out = tmp_path / "labels.jsonl"
        code = run(["assign-labels", "--clusters", str(bad), "--target", "2",
                    "--seed", "1", "--out", str(out)])
        assert code == 2
        assert _one_line_error(capsys, f"MalformedClusters: {bad}: TypeError").out == ""
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["1.5", "nan", "0"])
    def test_cluster_threshold_outside_unit_interval_is_2(self, synth, tmp_path, capsys, threshold):
        out = tmp_path / "clusters.json"
        code = run(["cluster", "--in", synth["gallery"], "--threshold", threshold, "--out", str(out)])
        assert code == 2
        assert _one_line_error(capsys, "InvalidParams: threshold must be in (0,1)").out == ""
        assert not out.exists()

    @pytest.mark.parametrize("edit,error", [
        ("truncated", "JSONDecodeError"),
        ("arity", "ValueError"),
        ("crops-a-string", "TypeError"),
    ])
    def test_malformed_crop_map_is_2(self, synth, tmp_path, capsys, edit, error):
        crop_map = {"scheme": "custom", "groups": {"p": ["c0", "c1"]}}
        if edit == "arity":
            crop_map["scheme"] = "index5crop"
        if edit == "crops-a-string":
            crop_map["groups"]["p"] = "c0"
        text = json.dumps(crop_map)
        path = tmp_path / "map.json"
        path.write_text(text[:-5] if edit == "truncated" else text)
        out = tmp_path / "lists.jsonl"
        code = run(["search", "--queries", synth["queries"], "--gallery", synth["gallery"],
                    "--map", str(path), "--out", str(out)])
        assert code == 2
        assert _one_line_error(capsys, f"MalformedFile: {path}: {error}: ").out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "fuse"])
    def test_directory_as_input_file_is_2(self, synth, tmp_path, capsys, command):
        """An input path that names a directory ended in an IsADirectoryError
        traceback with exit 1."""
        path = tmp_path
        if command == "eval":
            argv = ["eval", "--lists", str(path), "--gt", synth["gt"]]
        else:
            argv = ["fuse", "--in", synth["gallery"], str(path), "--out", str(tmp_path / "f.emb")]
        assert run(argv) == 2
        captured = _one_line_error(capsys, "IsADirectoryError: ")
        assert str(path) in captured.err and captured.out == ""
        assert not (tmp_path / "f.emb").exists()

    @pytest.mark.parametrize("error", ["TooFewItems", "NotNormalized", "DimMismatch"])
    def test_coordinate_data_error_is_2_before_fork(self, tmp_path, capfd, error):
        """A bad joint set ends `coordinate` in the coordinator, not as every
        forked worker's failure; capfd also sees what forked workers print."""
        gallery, queries, _ = gen_synthetic(6, 4, 2, 8, 0.2, seed=7)
        k1 = "40" if error == "TooFewItems" else "6"  # 36 joint items
        if error == "NotNormalized":
            gallery = EmbeddingSet(gallery.ids, gallery.vectors * 2)
        if error == "DimMismatch":
            gallery = EmbeddingSet(gallery.ids, np.hstack([gallery.vectors] * 2))
        qpath, gpath = str(tmp_path / "q.emb"), str(tmp_path / "g.emb")
        save_embeddings(queries, qpath)
        save_embeddings(gallery, gpath)
        job_dir = tmp_path / "job"
        assert run([
            "shard", "--queries", qpath, "--gallery", gpath, "--n-shards", "2",
            "--k1", k1, "--k2", "2", "--job-dir", str(job_dir),
        ]) == 0
        capfd.readouterr()
        out = tmp_path / "merged.jsonl"
        code = run([
            "coordinate", "--manifest", str(job_dir / "manifest.json"),
            "--parallelism", "2", "--out", str(out),
        ])
        captured = capfd.readouterr()
        assert code == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{error}: "), err
        assert captured.out == ""
        assert sorted(os.listdir(job_dir)) == ["manifest.json"]
        assert not out.exists()

    def test_manifest_error_is_3(self, tmp_path, capsys):
        code = run(["worker", "--manifest", str(tmp_path / "none.json"), "--shard", "0"])
        assert code == 3

    def test_threads_before_subcommand_is_usage_error(self, synth, tmp_path, capsys):
        """`--threads` is an option of `search` only."""
        out = tmp_path / "lists.jsonl"
        code = run([
            "--threads", "2", "search", "--queries", synth["queries"],
            "--gallery", synth["gallery"], "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_search_threads_below_one_is_usage_error(self, synth, tmp_path, capsys, threads):
        out = tmp_path / "lists.jsonl"
        code = run(["search", "--queries", synth["queries"], "--gallery", synth["gallery"],
                    "--out", str(out), "--threads", threads])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("usage: prodretrieve search")
        assert f"--threads: must be >= 1, got {int(threads)}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_vote_ensemble_bad_k_is_usage_error(self, tmp_path, capsys, k):
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([RankingList("q", (("g", 0.5),))], lists)
        out = tmp_path / "voted.jsonl"
        code = run(["vote-ensemble", "--lists", str(lists), "--k", k, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--k must be >= 1" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["max-ensemble", "--queries", "q.emb", "--gallery", "g.emb", "--spec", "x"],
         "unrecognized arguments: --spec"),
        (["vote-ensemble", "--lists", "l.jsonl", "--spec", "x"], "unrecognized arguments: --spec"),
        (["max-ensemble"], "required: --queries, --gallery"),
        (["vote-ensemble"], "required: --lists"),
    ], ids=["max-spec", "vote-spec", "max-no-matrices", "vote-no-lists"])
    def test_ensemble_members_only_as_files_is_usage_error(self, tmp_path, capsys, argv, message):
        """Members are named by `--queries`/`--gallery` or `--lists` alone, and
        one is required."""
        out = tmp_path / "fused.out"
        assert run([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_queries,n_gallery", [(2, 1), (1, 3)])
    def test_max_ensemble_unequal_member_counts_is_usage_error(
        self, synth, tmp_path, capsys, n_queries, n_gallery
    ):
        """Each member is one queries file and one gallery file."""
        out = tmp_path / "fused.jsonl"
        code = run(["max-ensemble", "--queries", *[synth["queries"]] * n_queries,
                    "--gallery", *[synth["gallery"]] * n_gallery, "--out", str(out)])
        assert code == 1
        captured = _one_line_error(
            capsys, "prodretrieve: error: --queries and --gallery need one file per member")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command,line,error", [
        ("eval", None, "JSONDecodeError"),
        ("vote-ensemble", None, "JSONDecodeError"),
        ("eval", b'{"query":"q00000_001","ranks":[["g\xff",0.1]]}\n', "UnicodeDecodeError"),
        ("vote-ensemble", b'{"query":"q00000_001","ranks":[["g\xff",0.1]]}\n',
         "UnicodeDecodeError"),
        # read as ids "a", "b" with scores 1.0 and 2.0
        ("eval", b'{"query":"q00000_001","ranks":["a1","b2"]}\n', "TypeError"),
        ("vote-ensemble", b'{"query":"q00000_001","ranks":["a1","b2"]}\n', "TypeError"),
        # json.loads reads NaN as a float, and the vote went through
        ("eval", b'{"query":"q00000_001","ranks":[["a",NaN],["b",0.1]]}\n', "ValueError"),
        ("vote-ensemble", b'{"query":"q00000_001","ranks":[["a",NaN],["b",0.1]]}\n',
         "ValueError"),
    ], ids=["eval", "vote-ensemble", "eval-not-utf8", "vote-ensemble-not-utf8",
            "eval-ranks-not-pairs", "vote-ensemble-ranks-not-pairs",
            "eval-nan", "vote-ensemble-nan"])
    def test_truncated_lists_file_is_2(self, synth, tmp_path, capsys, command, line, error):
        """The file cut 10 bytes short, or with a second line given."""
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([
            RankingList("q00000_000", (("g00000_000", 0.1),)),
            RankingList("q00000_001", (("g00000_001", 0.1),)),
        ], lists)
        data = lists.read_bytes()
        lists.write_bytes(data[:-10] if line is None else data.splitlines(True)[0] + line)
        out = tmp_path / "voted.jsonl"
        rest = ["--gt", synth["gt"]] if command == "eval" else ["--out", str(out)]
        code = run([command, "--lists", str(lists), *rest])
        assert code == 2
        captured = _one_line_error(capsys, f"MalformedFile: {lists} line 2: {error}")
        assert captured.out == ""
        assert not out.exists()

    def test_eval_two_lists_for_one_query_is_2(self, synth, tmp_path, capsys):
        """Scoring either list would hide the other; both are refused."""
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([
            RankingList("q00000_000", (("g00000_000", 0.1),)),
            RankingList("q00000_000", (("g00001_000", 0.1),)),
        ], lists)
        code = run(["eval", "--lists", str(lists), "--gt", synth["gt"]])
        assert code == 2
        assert _one_line_error(capsys, "DuplicateBallot: ").out == ""

    @pytest.mark.parametrize("line", [
        '{"query":"q","relevant":"ab"}',  # was the relevant set {"a", "b"}
        '{"query":"q","relevant":[]}',
    ], ids=["relevant-a-string", "relevant-empty"])
    def test_malformed_ground_truth_is_2(self, tmp_path, capsys, line):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"query":"p","relevant":["a"]}\n' + line + "\n")
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([RankingList("q", (("a", 0.1), ("c", 0.2)))], lists)
        code = run(["eval", "--lists", str(lists), "--gt", str(gt)])
        assert code == 2
        assert _one_line_error(capsys, f"MalformedFile: {gt} line 2: ").out == ""

    def test_ground_truth_listing_a_query_twice_is_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"query":"q","relevant":["a"]}\n{"query":"q","relevant":["b"]}\n')
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([RankingList("q", (("b", 0.1),))], lists)
        code = run(["eval", "--lists", str(lists), "--gt", str(gt)])
        assert code == 2
        assert _one_line_error(capsys, f"MalformedFile: {gt} line 2: ").out == ""


class TestSubcommands:
    def test_normalize_matches_inprocess(self, synth, tmp_path, capsys):
        from prodretrieve.embed_store import l2_normalize

        out = str(tmp_path / "norm.emb")
        assert run(["normalize", "--in", synth["gallery"], "--out", out]) == 0
        ok_line(capsys)
        direct = l2_normalize(load_embeddings(synth["gallery"]))
        assert load_embeddings(out).vectors.tobytes() == direct.vectors.tobytes()

    def test_search_and_eval_perfect(self, tmp_path, capsys):
        gallery, queries, gt = gen_synthetic(4, 3, 1, 8, 0.0, seed=1)
        g, q = str(tmp_path / "g.emb"), str(tmp_path / "q.emb")
        gt_path = str(tmp_path / "gt.jsonl")
        save_embeddings(gallery, g)
        save_embeddings(queries, q)
        save_ground_truth(gt, gt_path)
        lists, lists2 = tmp_path / "lists.jsonl", tmp_path / "lists2.jsonl"
        assert run(["search", "--queries", q, "--gallery", g, "--out", str(lists)]) == 0
        assert run(["search", "--threads", "2", "--queries", q, "--gallery", g,
                    "--out", str(lists2)]) == 0
        capsys.readouterr()
        assert lists2.read_bytes() == lists.read_bytes()
        assert run(["eval", "--lists", str(lists), "--gt", gt_path, "--k", "10"]) == 0
        assert ok_line(capsys)["mar_at_k"] == 1.0

    def test_search_default_threads_writes_one_thread_bytes(self, tmp_path, capsys):
        """The default, the available cores, over three query blocks; both
        are the in-process top-k of the in-process distances."""
        gallery, queries, _ = gen_synthetic(600, 1, 1, 16, 0.2, seed=5)
        q, g = str(tmp_path / "q.emb"), str(tmp_path / "g.emb")
        save_embeddings(queries, q)
        save_embeddings(gallery, g)
        assert cli.build_parser().parse_args(
            ["search", "--queries", q, "--gallery", g, "--out", "x"]).threads == cli._cores()
        one, default, want = (tmp_path / f"{n}.jsonl" for n in ("one", "default", "want"))
        argv = ["search", "--queries", q, "--gallery", g, "--out"]
        assert run([*argv, str(one), "--threads", "1"]) == 0
        assert run([*argv, str(default)]) == 0
        capsys.readouterr()
        write_ranking_lists(topk(pairwise_cosine_distance(queries, gallery), DEFAULT_K), want)
        assert default.read_bytes() == one.read_bytes() == want.read_bytes()

    def test_search_and_eval_report_stages(self, synth, tmp_path, capsys):
        lists = tmp_path / "lists.jsonl"
        assert run(["search", "--queries", synth["queries"], "--gallery", synth["gallery"],
                    "--out", str(lists)]) == 0
        search_stages = ok_line(capsys)["stages"]
        assert run(["eval", "--lists", str(lists), "--gt", synth["gt"],
                    "--gallery", synth["gallery"]]) == 0
        status = ok_line(capsys)
        assert status["n_queries"] == 12 and status["outputs"] == []
        for stages, names in ((search_stages, ["load", "distance", "topk", "write"]),
                              (status["stages"], ["load", "eval"])):
            assert list(stages) == names
            assert all(set(s) == {"wall_s", "cpu_s", "maxrss_mb"} for s in stages.values())
            assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in stages.values())

    def test_gen_synth_deterministic(self, tmp_path, capsys):
        args = [
            "gen-synth", "--classes", "3", "--gallery-per-class", "2",
            "--queries-per-class", "1", "--dim", "8", "--noise", "0.3",
            "--seed", "11",
        ]
        for tag in ("a", "b"):
            assert run(args + [
                "--out-gallery", str(tmp_path / f"g{tag}.emb"),
                "--out-queries", str(tmp_path / f"q{tag}.emb"),
                "--out-gt", str(tmp_path / f"gt{tag}.jsonl"),
            ]) == 0
            ok_line(capsys)
        assert (tmp_path / "ga.emb").read_bytes() == (tmp_path / "gb.emb").read_bytes()
        assert (tmp_path / "gta.jsonl").read_bytes() == (tmp_path / "gtb.jsonl").read_bytes()

    def test_gen_synth_and_cluster_report_stages(self, tmp_path, capsys):
        """Each stage's wall and CPU seconds, and the process's peak RSS in MB
        by its end, which never falls from one stage to the next."""
        emb, clusters = str(tmp_path / "g.emb"), str(tmp_path / "c.json")
        assert run([
            "gen-synth", "--classes", "30", "--gallery-per-class", "4",
            "--queries-per-class", "1", "--dim", "16", "--noise", "0.05", "--seed", "3",
            "--out-gallery", emb, "--out-queries", str(tmp_path / "q.emb"),
            "--out-gt", str(tmp_path / "gt.jsonl"),
        ]) == 0
        gen = ok_line(capsys)["stages"]
        assert run(["cluster", "--in", emb, "--threshold", "0.8", "--out", clusters]) == 0
        status = ok_line(capsys)
        assert status["n_clusters"] == 30
        for stages, names in ((gen, ["draw", "write"]),
                              (status["stages"], ["load", "scan", "components", "write"])):
            assert list(stages) == names
            assert all(set(s) == {"wall_s", "cpu_s", "maxrss_mb"} for s in stages.values())
            assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in stages.values())
            rss = [s["maxrss_mb"] for s in stages.values()]
            assert rss == sorted(rss) and rss[0] > 0

    def test_rerank_and_coordinate_report_stages(self, tmp_path, capsys):
        """The re-rank's build stages and its Jaccard stage; a coordinate's
        "jaccard" is its forked workers' phase, whose CPU it counts."""
        gallery, queries, _ = gen_synthetic(30, 4, 2, 16, 0.3, seed=3)
        qpath, gpath = str(tmp_path / "q.emb"), str(tmp_path / "g.emb")
        save_embeddings(queries, qpath)
        save_embeddings(gallery, gpath)
        params = ["--queries", qpath, "--gallery", gpath, "--k1", "6", "--k2", "2"]
        assert run(["rerank", *params, "--out", str(tmp_path / "r.jsonl")]) == 0
        rerank_stages = ok_line(capsys)["stages"]
        job = tmp_path / "job"
        assert run(["shard", *params, "--n-shards", "2", "--job-dir", str(job)]) == 0
        ok_line(capsys)
        assert run(["coordinate", "--manifest", str(job / "manifest.json"),
                    "--parallelism", "2", "--out", str(tmp_path / "m.jsonl")]) == 0
        coordinate_stages = ok_line(capsys)["stages"]
        build = ["pass1", "expansion", "pass2", "query_expansion"]
        assert list(rerank_stages) == ["load", *build, "jaccard", "topk", "write"]
        assert list(coordinate_stages) == [*build, "jaccard"]
        for stages in (rerank_stages, coordinate_stages):
            assert all(set(s) == {"wall_s", "cpu_s", "maxrss_mb"} for s in stages.values())
            assert all(s["wall_s"] >= 0 and s["cpu_s"] >= 0 for s in stages.values())
        assert coordinate_stages["jaccard"]["cpu_s"] > 0  # the workers' CPU

    def test_cluster_filter_assign(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        # 3 tight pairs + 30 singles
        rows, ids = [], []
        for g in range(3):
            c = rng.normal(size=8)
            for i in range(2):
                ids.append(f"c{g}_{i}")
                rows.append(c + 0.01 * rng.normal(size=8))
        for i in range(30):
            ids.append(f"s{i:02d}")
            rows.append(rng.normal(size=8))
        from prodretrieve.embed_store import EmbeddingSet, l2_normalize

        emb = l2_normalize(EmbeddingSet(tuple(ids), np.asarray(rows, np.float32)))
        path = str(tmp_path / "e.emb")
        save_embeddings(emb, path)

        clusters = str(tmp_path / "clusters.json")
        assert run(["cluster", "--in", path, "--threshold", "0.9", "--out", clusters]) == 0
        assert ok_line(capsys)["n_clusters"] == 3

        kept = str(tmp_path / "kept.json")
        assert run(["filter-clusters", "--in", clusters, "--max-size", "10", "--out", kept]) == 0
        ok_line(capsys)

        labels = str(tmp_path / "labels.jsonl")
        assert run([
            "assign-labels", "--clusters", kept, "--target", "10",
            "--seed", "3", "--out", labels,
        ]) == 0
        status = ok_line(capsys)
        assert status["n_classes"] == 10
        assert status["n_singleton_classes"] == 7
        assert status["n_images"] == 6 + 7

    def test_shard_worker_merge_equals_rerank(self, synth, tmp_path, capsys):
        job_dir = str(tmp_path / "job")
        assert run([
            "shard", "--queries", synth["queries"], "--gallery", synth["gallery"],
            "--n-shards", "2", "--k1", "6", "--k2", "2", "--lam", "0.3",
            "--job-dir", job_dir,
        ]) == 0
        manifest = os.path.join(job_dir, "manifest.json")
        for shard in ("0", "1"):
            assert run(["worker", "--manifest", manifest, "--shard", shard]) == 0
        merged = str(tmp_path / "merged.jsonl")
        missing = str(tmp_path / "missing.json")
        assert run([
            "merge", "--job-dir", job_dir, "--out", merged, "--missing", missing,
        ]) == 0
        capsys.readouterr()
        with open(missing) as fh:
            assert json.load(fh)["missing_queries"] == []

        # byte-equivalent to in-process rerank + topk
        queries = load_embeddings(synth["queries"])
        gallery = load_embeddings(synth["gallery"])
        direct = topk(
            kreciprocal_rerank(queries, gallery, RerankParams(6, 2, 0.3)), 10
        )
        expect = str(tmp_path / "direct.jsonl")
        write_ranking_lists(direct, expect)
        with open(merged, "rb") as got, open(expect, "rb") as want:
            assert got.read() == want.read()

    def test_coordinate_shards_equal_worker_subcommand(self, synth, tmp_path, capsys):
        """Shards re-ranked from the coordinator's index have the bytes of
        shards whose worker built its own index."""
        shard_files = {}
        for how in ("coordinate", "worker"):
            job_dir = tmp_path / how
            assert run([
                "shard", "--queries", synth["queries"], "--gallery", synth["gallery"],
                "--n-shards", "4", "--k1", "6", "--k2", "2", "--job-dir", str(job_dir),
            ]) == 0
            manifest = str(job_dir / "manifest.json")
            if how == "coordinate":
                assert run([
                    "coordinate", "--manifest", manifest, "--parallelism", "2",
                    "--out", str(tmp_path / "merged.jsonl"),
                ]) == 0
            else:
                for shard in range(4):
                    assert run(["worker", "--manifest", manifest, "--shard", str(shard)]) == 0
            shard_files[how] = [
                (job_dir / f"shard_{i}.jsonl").read_bytes() for i in range(4)
            ]
        capsys.readouterr()
        assert shard_files["coordinate"] == shard_files["worker"]

    def test_vote_and_max_ensemble_cli(self, synth, tmp_path, capsys):
        q, g = synth["queries"], synth["gallery"]
        lists = tmp_path / "l.jsonl"
        assert run(["search", "--queries", q, "--gallery", g, "--out", str(lists)]) == 0
        fused, want = tmp_path / "fused.jsonl", tmp_path / "want.jsonl"
        assert run(["max-ensemble", "--queries", q, q, "--gallery", g, g,
                    "--out", str(fused)]) == 0
        capsys.readouterr()
        matrix = pairwise_cosine_distance(load_embeddings(q), load_embeddings(g))
        write_ranking_lists(topk(max_ensemble([matrix, matrix]), DEFAULT_K), want)
        assert fused.read_bytes() == want.read_bytes()

        voted = str(tmp_path / "voted.jsonl")
        assert run(["vote-ensemble", "--lists", str(lists), str(lists), "--k", "10",
                    "--out", voted]) == 0
        capsys.readouterr()
        got = read_ranking_lists(voted)
        expect = read_ranking_lists(lists)
        assert [r.gallery_ids for r in got] == [r.gallery_ids for r in expect]

    def test_paper_size_ensembles_match_inprocess(self, tmp_path, capsys):
        """20 distinct seeded members, the size of the paper's ensemble,
        through `--lists` and through `--queries`/`--gallery`. Distances on a
        grid of 8 values tie often, and each member leaves one query out; each
        max-ensemble member's gallery repeats 10 vectors 4 times, so its
        fused distances tie in groups of 4."""
        rng = np.random.default_rng(20)
        qids = tuple(f"q{i:02d}" for i in range(12))
        gids = tuple(f"g{j:03d}" for j in range(40))
        member_lists, list_paths = [], []
        for member in range(20):
            m = DistanceMatrix(qids, gids, rng.integers(0, 8, (12, 40)) / np.float32(8))
            lists = [rl for rl in topk(m, 10) if rl.query_id != qids[member % 12]]
            list_paths.append(str(tmp_path / f"l{member}.jsonl"))
            write_ranking_lists(lists, list_paths[-1])
            member_lists.append(lists)
        assert len({tuple(lists) for lists in member_lists}) == 20

        voted = tmp_path / "voted.jsonl"
        assert run(["vote-ensemble", "--lists", *list_paths, "--k", "10", "--out", str(voted)]) == 0
        oracle = naive_borda(
            [{rl.query_id: list(rl.gallery_ids) for rl in lists} for lists in member_lists], 10
        )
        assert {rl.query_id: list(rl.entries) for rl in read_ranking_lists(voted)} == oracle
        inprocess = tmp_path / "inprocess.jsonl"
        write_ranking_lists(vote_ensemble(member_lists, k=10), inprocess)
        assert voted.read_bytes() == inprocess.read_bytes()

        matrices, query_paths, gallery_paths = [], [], []
        for member in range(20):
            queries = l2_normalize(EmbeddingSet(qids, rng.normal(size=(12, 8))))
            distinct = rng.normal(size=(10, 8))
            gallery = l2_normalize(EmbeddingSet(gids, distinct[np.arange(40) % 10]))
            query_paths.append(str(tmp_path / f"q{member}.emb"))
            gallery_paths.append(str(tmp_path / f"g{member}.emb"))
            save_embeddings(queries, query_paths[-1])
            save_embeddings(gallery, gallery_paths[-1])
            matrices.append(pairwise_cosine_distance(queries, gallery))
        assert len({m.values.tobytes() for m in matrices}) == 20
        fused, want = tmp_path / "fused.jsonl", tmp_path / "want.jsonl"
        assert run(["max-ensemble", "--queries", *query_paths, "--gallery", *gallery_paths,
                    "--out", str(fused)]) == 0
        expect = topk(max_ensemble(matrices), DEFAULT_K)
        write_ranking_lists(expect, want)
        assert fused.read_bytes() == want.read_bytes()
        scores = [[s for _, s in rl.entries] for rl in expect]
        assert all(len(set(row)) < len(row) for row in scores)  # every list has a tie
        capsys.readouterr()

    def test_rerank_equals_one_shard_job(self, synth, tmp_path, capsys):
        """`rerank` writes the bytes a one-shard `shard` + `coordinate` merges,
        which are the in-process re-rank's top-k."""
        params = ["--queries", synth["queries"], "--gallery", synth["gallery"],
                  "--k1", "6", "--k2", "2", "--lam", "0.3"]
        reranked, merged, want = (tmp_path / f"{n}.jsonl" for n in ("rerank", "merged", "want"))
        assert run(["rerank", *params, "--out", str(reranked)]) == 0
        job = tmp_path / "job"
        assert run(["shard", *params, "--n-shards", "1", "--job-dir", str(job)]) == 0
        assert run(["coordinate", "--manifest", str(job / "manifest.json"),
                    "--out", str(merged)]) == 0
        capsys.readouterr()
        matrix = kreciprocal_rerank(load_embeddings(synth["queries"]),
                                    load_embeddings(synth["gallery"]), RerankParams(6, 2, 0.3))
        write_ranking_lists(topk(matrix, DEFAULT_K), want)
        assert reranked.read_bytes() == merged.read_bytes() == want.read_bytes()

    def test_search_map_equals_inprocess_crop_aggregation(self, tmp_path, capsys):
        """20 parents of 5 crops each, two of them with identical crops, so
        their aggregated distances tie."""
        gallery, queries, _ = gen_synthetic(20, 5, 1, 8, 0.3, seed=4)
        vectors = gallery.vectors.copy()
        vectors[5:10] = vectors[0:5]  # parent p00001's crops are p00000's
        gallery = EmbeddingSet(gallery.ids, vectors)
        crop_map = CropGroupMap({g: "p" + g[1:6] for g in gallery.ids}, scheme="index5crop")
        q, g, cmap = (str(tmp_path / n) for n in ("q.emb", "g.emb", "map.json"))
        save_embeddings(queries, q)
        save_embeddings(gallery, g)
        save_crop_map(crop_map, cmap)
        lists, want = tmp_path / "lists.jsonl", tmp_path / "want.jsonl"
        assert run(["search", "--queries", q, "--gallery", g, "--map", cmap,
                    "--out", str(lists)]) == 0
        assert list(ok_line(capsys)["stages"]) == ["load", "distance", "topk", "write"]
        expect = topk(aggregate_crops(pairwise_cosine_distance(queries, gallery), crop_map),
                      DEFAULT_K)
        write_ranking_lists(expect, want)
        assert lists.read_bytes() == want.read_bytes()
        (p0, d0), (p1, d1) = expect[0].entries[:2]  # query q00000_000
        assert (p0, p1) == ("p00000", "p00001") and d0 == d1


class TestPipeline:
    def _config(self, tmp_path, steps):
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps({"workdir": str(tmp_path / "work"), "steps": steps}))
        return str(cfg)

    def test_empty_pipeline(self, tmp_path, capsys):
        assert run(["pipeline", "--config", self._config(tmp_path, [])]) == 0
        assert ok_line(capsys)["outputs"] == []

    def test_dangling_reference_is_3(self, tmp_path, capsys):
        steps = [{
            "name": "bad", "op": "normalize",
            "inputs": {"in": "never_made.emb"},
            "outputs": {"out": "x.emb"},
        }]
        assert run(["pipeline", "--config", self._config(tmp_path, steps)]) == 3
        assert "never_made.emb" in capsys.readouterr().err

    def test_unknown_op_is_3(self, tmp_path, capsys):
        steps = [{"name": "bad", "op": "train-model"}]
        assert run(["pipeline", "--config", self._config(tmp_path, steps)]) == 3

    @pytest.mark.parametrize("edit,error", [
        ("truncated", "JSONDecodeError"),
        ("an-array", "AttributeError"),
        ("step-an-array", "AttributeError"),
        ("workdir-a-number", "TypeError"),
    ])
    def test_malformed_config_is_3(self, tmp_path, capsys, edit, error):
        cfg = self._config(tmp_path, [{"name": "n", "op": "normalize", "params": {}}])
        with open(cfg) as fh:
            obj = json.load(fh)
        text = {
            "truncated": json.dumps(obj)[:-7],
            "an-array": json.dumps([obj]),
            "step-an-array": json.dumps({**obj, "steps": [["normalize"]]}),
            "workdir-a-number": json.dumps({**obj, "workdir": 5}),
        }[edit]
        with open(cfg, "w") as fh:
            fh.write(text)
        assert run(["pipeline", "--config", cfg]) == 3
        assert _one_line_error(capsys, f"PipelineConfigError: {cfg}: {error}: ").out == ""
        assert not (tmp_path / "work").exists()

    def test_truncated_state_on_resume_is_2(self, tmp_path, capsys):
        steps = [{
            "name": "gen", "op": "gen-synth",
            "params": {"classes": 3, "gallery-per-class": 2,
                       "queries-per-class": 1, "dim": 8, "noise": 0.1, "seed": 2},
            "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb",
                        "out-gt": "gt.jsonl"},
        }]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 0
        capsys.readouterr()
        state = tmp_path / "work" / ".pipeline_state.json"
        state.write_text(state.read_text()[:-5])
        assert run(["pipeline", "--config", cfg, "--resume"]) == 2
        assert _one_line_error(capsys, f"MalformedFile: {state}: JSONDecodeError: ").out == ""

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        """Every step of a pipeline, and its resume, parses with one parser."""
        built = []
        real = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "prodretrieve":
                built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli.build_parser.cache_clear()
        steps = [
            {"name": f"gen{i}", "op": "gen-synth",
             "params": {"classes": 2, "gallery-per-class": 2, "queries-per-class": 1,
                        "dim": 4, "noise": 0.1, "seed": i},
             "outputs": {"out-gallery": f"g{i}.emb", "out-queries": f"q{i}.emb",
                         "out-gt": f"gt{i}.jsonl"}}
            for i in range(3)
        ]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 0
        assert run(["pipeline", "--config", cfg, "--resume"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_file_flag_under_params_is_3_before_any_step(self, tmp_path, capsys):
        """`normalize` with its `in` under params, resumed after `g.emb` is
        drawn again, once printed the step skipped and kept a stale `gn.emb`."""
        work = tmp_path / "work"
        work.mkdir()
        save_embeddings(gen_synthetic(3, 2, 1, 8, 0.1, seed=2)[0], str(work / "g.emb"))
        assert run(["normalize", "--in", str(work / "g.emb"), "--out", str(work / "gn.emb")]) == 0
        before = (work / "gn.emb").read_bytes()
        cfg = self._config(tmp_path, [{"name": "norm", "op": "normalize",
                                       "params": {"in": "g.emb"}, "outputs": {"out": "gn.emb"}}])
        capsys.readouterr()
        for seed, resume in ((5, []), (6, ["--resume"])):
            assert run(["pipeline", "--config", cfg, *resume]) == 3
            prefix = "PipelineConfigError: step 'norm': --in of normalize belongs under 'inputs'"
            assert _one_line_error(capsys, prefix).out == ""
            save_embeddings(gen_synthetic(3, 2, 1, 8, 0.1, seed=seed)[0], str(work / "g.emb"))
        assert (work / "gn.emb").read_bytes() == before
        assert not (work / ".pipeline_state.json").exists()

    @pytest.mark.parametrize("op,flag,value,group,says", [
        ("normalize", "in", "g.emb", "params", "of normalize belongs under 'inputs'"),  # one file
        ("fuse", "in", ["a.emb", "b.emb"], "params", "of fuse belongs under 'inputs'"),  # one or more
        ("search", "map", "crops.json", "params", "of search belongs under 'inputs'"),  # optional
        ("coordinate", "missing", "missing.json", "params",
         "of coordinate belongs under 'outputs'"),  # optional output
        ("shard", "job-dir", "job", "params", "of shard belongs under 'outputs'"),  # a job directory
        ("normalize", "out", "gn.emb", "inputs", "of normalize belongs under 'outputs'"),
        ("cluster", "threshold", 0.8, "inputs", "is not a file flag of cluster"),
        ("eval", "k", 10, "outputs", "is not a file flag of eval"),
        ("search", "querys", "q.emb", "inputs", "is not a file flag of search"),  # a misspelling
    ])
    def test_misfiled_flag_is_3(self, tmp_path, capsys, op, flag, value, group, says):
        """Each flag's group comes from its op's FILE_FLAGS, never from the
        config; the misfiled step is refused before the step ahead of it runs."""
        gen = {"name": "gen", "op": "gen-synth",
               "params": {"classes": 2, "gallery-per-class": 2, "queries-per-class": 1,
                          "dim": 4, "noise": 0.1, "seed": 1},
               "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb", "out-gt": "gt.jsonl"}}
        cfg = self._config(tmp_path, [gen, {"name": "bad", "op": op, group: {flag: value}}])
        assert run(["pipeline", "--config", cfg]) == 3
        message = f"PipelineConfigError: step 'bad': --{flag} {says}"
        assert _one_line_error(capsys, message).out == ""
        assert not (tmp_path / "work").exists()

    def test_file_flags_are_the_parsers_path_flags(self):
        """Every flag of a step op that takes untyped values (a path) is in
        FILE_FLAGS with its nargs and requiredness, and no other flag is."""
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) - {"pipeline"} == set(cli.FILE_FLAGS) == set(cli.HANDLERS)
        for op, files in cli.FILE_FLAGS.items():
            path_flags = {
                a.option_strings[0][2:]: (a.nargs, a.required)
                for a in sub.choices[op]._actions
                if a.nargs != 0 and a.type is None and a.choices is None
            }
            assert path_flags == {f: (s.nargs, s.required) for f, s in files.items()}, op

    def test_status_lines_name_their_steps(self, tmp_path, capsys):
        steps = [
            {"name": "gen", "op": "gen-synth",
             "params": {"classes": 3, "gallery-per-class": 2, "queries-per-class": 1,
                        "dim": 8, "noise": 0.1, "seed": 2},
             "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb", "out-gt": "gt.jsonl"}},
            {"name": "norm", "op": "normalize",
             "inputs": {"in": "q.emb"}, "outputs": {"out": "qn.emb"}},
        ]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 0
        (tmp_path / "work" / "qn.emb").unlink()
        assert run(["pipeline", "--config", cfg, "--resume"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(line.get("step"), line.get("ok"), line.get("skipped")) for line in lines] == [
            ("gen", True, None), ("norm", True, None), (None, True, None),
            ("gen", None, True), ("norm", True, None), (None, True, None),
        ]
        assert run(["normalize", "--in", str(tmp_path / "work" / "q.emb"),
                    "--out", str(tmp_path / "qn.emb")]) == 0
        assert "step" not in ok_line(capsys)  # only a pipeline step names itself

    def test_shard_then_merge_plans_in_a_fresh_workdir(self, tmp_path, capsys):
        """A job directory counts as produced by its `shard` step, whose
        key file is the manifest in it."""
        steps = [
            {"name": "gen", "op": "gen-synth",
             "params": {"classes": 3, "gallery-per-class": 3, "queries-per-class": 1,
                        "dim": 8, "noise": 0.1, "seed": 2},
             "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb", "out-gt": "gt.jsonl"}},
            {"name": "shard", "op": "shard", "params": {"n-shards": 2, "k1": 4, "k2": 2},
             "inputs": {"queries": "q.emb", "gallery": "g.emb"}, "outputs": {"job-dir": "job"}},
            *({"name": f"worker{i}", "op": "worker", "params": {"shard": i},
               "inputs": {"manifest": "job/manifest.json"}} for i in range(2)),
            {"name": "merge", "op": "merge", "inputs": {"job-dir": "job"},
             "outputs": {"out": "merged.jsonl"}},
        ]
        assert run(["pipeline", "--config", self._config(tmp_path, steps)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[-2]["n_missing"] == 0  # the merge step's line
        assert (tmp_path / "work" / "merged.jsonl").is_file()

    def test_step_argv_bare_flag(self):
        """`true` is a bare flag; 1, though equal to True, is a value."""
        step = {"op": "eval", "params": {"per-query": True, "k": 1},
                "inputs": {"lists": "l.jsonl"}}
        argv, inputs, outputs = _step_argv(step, "/base")
        lists = os.path.join("/base", "l.jsonl")
        assert argv == ["eval", "--per-query", "--k", "1", "--lists", lists]
        assert (inputs, outputs) == ([lists], [])

    def test_matches_manual_subcommands(self, tmp_path, capsys):
        steps = [
            {
                "name": "gen", "op": "gen-synth",
                "params": {"classes": 5, "gallery-per-class": 3,
                           "queries-per-class": 1, "dim": 8, "noise": 0.2, "seed": 7},
                "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb",
                            "out-gt": "gt.jsonl"},
            },
            {
                "name": "rerank", "op": "rerank",
                "params": {"k1": 6, "k2": 2, "lam": 0.3},
                "inputs": {"queries": "q.emb", "gallery": "g.emb"},
                "outputs": {"out": "rr.jsonl"},
            },
        ]
        assert run(["pipeline", "--config", self._config(tmp_path, steps)]) == 0
        capsys.readouterr()
        work = tmp_path / "work"

        manual = tmp_path / "manual"
        manual.mkdir()
        assert run([
            "gen-synth", "--classes", "5", "--gallery-per-class", "3",
            "--queries-per-class", "1", "--dim", "8", "--noise", "0.2", "--seed", "7",
            "--out-gallery", str(manual / "g.emb"),
            "--out-queries", str(manual / "q.emb"),
            "--out-gt", str(manual / "gt.jsonl"),
        ]) == 0
        assert run([
            "rerank", "--queries", str(manual / "q.emb"),
            "--gallery", str(manual / "g.emb"),
            "--k1", "6", "--k2", "2", "--lam", "0.3",
            "--out", str(manual / "rr.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert (work / "rr.jsonl").read_bytes() == (manual / "rr.jsonl").read_bytes()

    def test_unchanged_resume_of_paper_config(self, tmp_path, capsys):
        """An unchanged resume skips every step with outputs, the four
        `shard` steps too, and leaves every file's bytes as they were."""
        cfg, work = paper_config(tmp_path / "paper.json"), tmp_path / "work"
        assert run(["pipeline", "--config", cfg, "--workdir", str(work)]) == 0
        manifests = {p: p.read_bytes() for p in work.glob("job_*/manifest.json")}
        before = workdir_files(work)
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--workdir", str(work), "--resume"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [line["step"] for line in lines if line.get("skipped")] == PAPER_SKIPPED
        assert len(manifests) == 4
        assert {p: p.read_bytes() for p in manifests} == manifests
        assert workdir_files(work) == before

    def test_edited_fused_queries_rerun_shard_and_coordinate(self, tmp_path, capsys):
        """The `shard` step is keyed by the manifest it writes, so it is
        skipped while its inputs hold, and an edited input re-runs it and
        the `coordinate` step after it, as a fresh run would write them."""
        paper = tmp_path / "paper"
        assert run(["pipeline", "--config", paper_config(tmp_path / "paper.json"),
                    "--workdir", str(paper)]) == 0
        with open(PAPER_CONFIG) as fh:
            steps = [s for s in json.load(fh)["steps"] if s["name"] in ("shard-fused", "rerank-fused")]
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        for work in (resumed, fresh):
            work.mkdir()
            shutil.copy(paper / "g_fused.emb", work)
        shutil.copy(paper / "q_fused.emb", resumed)
        cfg = tmp_path / "fused.json"
        cfg.write_text(json.dumps({"steps": steps}))
        assert run(["pipeline", "--config", str(cfg), "--workdir", str(resumed)]) == 0
        capsys.readouterr()
        assert run(["pipeline", "--config", str(cfg), "--workdir", str(resumed), "--resume"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            '{"step": "shard-fused", "skipped": true}', '{"step": "rerank-fused", "skipped": true}']
        queries = load_embeddings(str(paper / "q_fused.emb"))
        edited = EmbeddingSet(queries.ids[::-1], queries.vectors[::-1])
        for work in (resumed, fresh):
            save_embeddings(edited, str(work / "q_fused.emb"))
        assert run(["pipeline", "--config", str(cfg), "--workdir", str(resumed), "--resume"]) == 0
        assert run(["pipeline", "--config", str(cfg), "--workdir", str(fresh)]) == 0
        out = capsys.readouterr().out.splitlines()
        ran = [json.loads(line).get("step") for line in out[:3]]
        assert ran == ["shard-fused", "rerank-fused", None] and '"skipped"' not in out[:3]
        assert workdir_files(resumed) == workdir_files(fresh)

    @pytest.mark.parametrize("step,param,value", [
        ("shard-fused", "k1", 8),  # rerank-fused was skipped, its k1 = 20 lists kept
        ("gen-scale-400", "noise", 0.3),  # every file step was skipped, this one too
    ], ids=["k1", "noise"])
    def test_resume_after_edit_equals_fresh_run(self, tmp_path, capsys, step, param, value):
        """The `noise` edit reaches `coordinate` only through EMB files its
        manifest names, which no step declares; the key chain re-runs it."""
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        cfg = paper_config(tmp_path / "paper.json")
        assert run(["pipeline", "--config", cfg, "--workdir", str(resumed)]) == 0
        edited = paper_config(tmp_path / "edited.json", step, param, value)
        assert run(["pipeline", "--config", edited, "--workdir", str(resumed), "--resume"]) == 0
        assert run(["pipeline", "--config", edited, "--workdir", str(fresh)]) == 0
        capsys.readouterr()
        assert workdir_files(resumed) == workdir_files(fresh)

    def test_earlier_state_file_runs_every_step_once(self, tmp_path, capsys):
        """A state file of output path -> sha256, the format before steps were
        keyed, runs every step and is replaced by one key per step. The two
        unnamed `normalize` steps share a name, and each is skipped after."""
        steps = [
            {"name": "gen", "op": "gen-synth",
             "params": {"classes": 3, "gallery-per-class": 2, "queries-per-class": 1,
                        "dim": 8, "noise": 0.1, "seed": 2},
             "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb", "out-gt": "gt.jsonl"}},
            {"op": "normalize", "inputs": {"in": "q.emb"}, "outputs": {"out": "qn.emb"}},
            {"op": "normalize", "inputs": {"in": "g.emb"}, "outputs": {"out": "gn.emb"}},
        ]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 0
        work = tmp_path / "work"
        state = work / ".pipeline_state.json"
        state.write_text(json.dumps({
            str(work / name): sha256_file(work / name)
            for name in ("g.emb", "q.emb", "gt.jsonl", "qn.emb", "gn.emb")
        }))
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--resume"]) == 0
        assert '"skipped"' not in capsys.readouterr().out
        keys = json.loads(state.read_text())  # step key -> step name
        assert sorted(keys.values()) == ["gen", "normalize", "normalize"]
        assert all(len(key) == 64 for key in keys)
        assert run(["pipeline", "--config", cfg, "--resume"]) == 0
        assert capsys.readouterr().out.count('"skipped": true') == 3

    def test_resume_after_failed_step_skips_the_steps_before_it(self, tmp_path, capsys):
        steps = [
            {"name": "gen", "op": "gen-synth",
             "params": {"classes": 3, "gallery-per-class": 2, "queries-per-class": 1,
                        "dim": 8, "noise": 0.1, "seed": 2},
             "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb", "out-gt": "gt.jsonl"}},
            {"name": "bad", "op": "normalize",  # ground truth is no EMB1 file
             "inputs": {"in": "gt.jsonl"}, "outputs": {"out": "x.emb"}},
        ]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 2
        capsys.readouterr()
        assert run(["pipeline", "--config", cfg, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == '{"step": "gen", "skipped": true}\n'
        assert "pipeline step 'bad' failed with exit 2" in captured.err

    def test_resume_skips_and_preserves_outputs(self, tmp_path, capsys):
        steps = [{
            "name": "gen", "op": "gen-synth",
            "params": {"classes": 3, "gallery-per-class": 2,
                       "queries-per-class": 1, "dim": 8, "noise": 0.1, "seed": 2},
            "outputs": {"out-gallery": "g.emb", "out-queries": "q.emb",
                        "out-gt": "gt.jsonl"},
        }]
        cfg = self._config(tmp_path, steps)
        assert run(["pipeline", "--config", cfg]) == 0
        capsys.readouterr()
        first = (tmp_path / "work" / "g.emb").read_bytes()
        assert run(["pipeline", "--config", cfg, "--resume"]) == 0
        out = capsys.readouterr().out
        assert '"skipped": true' in out
        assert (tmp_path / "work" / "g.emb").read_bytes() == first
