import json
import os

import numpy as np
import pytest

from prodretrieve.cli import _step_argv, run
from prodretrieve.embed_store import EmbeddingSet, load_embeddings, save_embeddings
from prodretrieve.evalbench import gen_synthetic, save_ground_truth
from prodretrieve.search import (
    RankingList, load_matrix, read_ranking_lists, topk, write_ranking_lists,
)


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


ONE_MEMBER = [{"label": "m", "path": "a"}]
TWIN_LABELS = [{"label": "m", "path": "a"}, {"label": "m", "path": "b"}]


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
    ])
    def test_malformed_cluster_file_is_2(self, tmp_path, capsys, text):
        bad = tmp_path / "clusters.json"
        bad.write_text(text)
        code = run(["filter-clusters", "--in", str(bad), "--out", str(tmp_path / "kept.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("MalformedClusters: ")
        assert not (tmp_path / "kept.json").exists()

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
        out = tmp_path / "d.npz"
        code = run([
            "--threads", "2", "search", "--queries", synth["queries"],
            "--gallery", synth["gallery"], "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,spec", [
        ("max-ensemble", {"method": "voting", "members": ONE_MEMBER}),
        ("vote-ensemble", {"method": "maximum", "members": ONE_MEMBER}),
        ("vote-ensemble", {"method": "borda", "members": ONE_MEMBER}),
        ("max-ensemble", {"members": TWIN_LABELS}),
        ("vote-ensemble", {"members": TWIN_LABELS}),
        ("vote-ensemble", {"members": []}),
        ("vote-ensemble", {"members": [{"label": "m"}]}),
        ("max-ensemble", {"k": 10}),
        ("vote-ensemble", {"members": ONE_MEMBER, "k": 0}),
        ("vote-ensemble", {"members": ONE_MEMBER, "k": -1}),
        ("vote-ensemble", {"members": ONE_MEMBER, "k": "10"}),
        ("max-ensemble", {"method": "maximum", "members": ONE_MEMBER, "k": 0}),
    ], ids=["voting-to-max", "maximum-to-vote", "unknown-method", "twin-labels-max",
            "twin-labels-vote", "no-members", "no-path", "no-members-key",
            "k-zero", "k-negative", "k-string", "k-zero-max"])
    def test_bad_ensemble_spec_is_3(self, tmp_path, capsys, command, spec):
        """A spec naming the other method, or a malformed one, is refused with
        one stderr line before any member is read."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "fused.out"
        code = run([command, "--spec", str(path), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ManifestInvalid: "), err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_vote_ensemble_bad_k_is_usage_error(self, tmp_path, capsys, k):
        lists = tmp_path / "l.jsonl"
        write_ranking_lists([RankingList("q", (("g", 0.5),), k=1)], lists)
        out = tmp_path / "voted.jsonl"
        code = run(["vote-ensemble", "--lists", str(lists), "--k", k, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--k must be >= 1" in err[0], err
        assert not out.exists()


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
        m = str(tmp_path / "d.npz")
        assert run(["search", "--queries", q, "--gallery", g, "--out", m]) == 0
        m2 = str(tmp_path / "d2.npz")
        assert run(["search", "--threads", "2", "--queries", q, "--gallery", g, "--out", m2]) == 0
        capsys.readouterr()
        assert load_matrix(m2).values.tobytes() == load_matrix(m).values.tobytes()

        # topk via rerank path not needed; write lists with a tiny merge:
        lists = topk(load_matrix(m), 10)
        lists_path = str(tmp_path / "lists.jsonl")
        write_ranking_lists(lists, lists_path)
        assert run(["eval", "--lists", lists_path, "--gt", gt_path, "--k", "10"]) == 0
        assert ok_line(capsys)["mar_at_k"] == 1.0

    def test_fuse_sidecars(self, synth, tmp_path, capsys):
        from prodretrieve.embed_store import make_sidecar

        make_sidecar(synth["gallery"], scale="400", model="demo")
        out = str(tmp_path / "fused.emb")
        assert run([
            "fuse", "--sidecars", f"{synth['gallery']}.json", "--out", out,
        ]) == 0
        ok_line(capsys)
        assert load_embeddings(out).ids == load_embeddings(synth["gallery"]).ids

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
        from prodretrieve.rerank import RerankParams, kreciprocal_rerank
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
        m = str(tmp_path / "d.npz")
        assert run([
            "search", "--queries", synth["queries"], "--gallery", synth["gallery"],
            "--out", m,
        ]) == 0
        out = str(tmp_path / "fused.npz")
        assert run(["max-ensemble", "--matrices", m, m, "--out", out]) == 0
        capsys.readouterr()

        lists = str(tmp_path / "l.jsonl")
        write_ranking_lists(topk(load_matrix(m), 10), lists)
        voted = str(tmp_path / "voted.jsonl")
        assert run(["vote-ensemble", "--lists", lists, lists, "--k", "10", "--out", voted]) == 0
        capsys.readouterr()
        got = read_ranking_lists(voted)
        expect = read_ranking_lists(lists)
        assert [r.gallery_ids for r in got] == [r.gallery_ids for r in expect]

        # a --spec with the command's own method, or with none, fuses the same
        for command, method, member, want in (
            ("max-ensemble", "maximum", m, tmp_path / "fused.npz"),
            ("vote-ensemble", "voting", lists, tmp_path / "voted.jsonl"),
        ):
            for spec in ({"method": method}, {}):
                spec["members"] = [{"label": "a", "path": member}, {"label": "b", "path": member}]
                spec_path = tmp_path / "spec.json"
                spec_path.write_text(json.dumps(spec))
                got_path = tmp_path / f"spec_{want.name}"
                assert run([command, "--spec", str(spec_path), "--out", str(got_path)]) == 0
                if command == "max-ensemble":
                    assert load_matrix(got_path).values.tobytes() == load_matrix(want).values.tobytes()
                else:
                    assert got_path.read_bytes() == want.read_bytes()
        capsys.readouterr()


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
                "outputs": {"out": "rr.npz"},
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
            "--out", str(manual / "rr.npz"),
        ]) == 0
        capsys.readouterr()
        a = load_matrix(work / "rr.npz")
        b = load_matrix(manual / "rr.npz")
        assert a.values.tobytes() == b.values.tobytes()

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
