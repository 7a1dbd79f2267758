import json
import math
import os
import signal
import subprocess
import sys

import pytest

from prodretrieve import cli
from prodretrieve.embed_store import save_embeddings
from prodretrieve.errors import ManifestInvalid, ShardsMissing
from prodretrieve.evalbench import gen_synthetic
from prodretrieve.harness import (
    MANIFEST_NAME,
    coordinator_run,
    create_job,
    load_manifest,
    worker_run,
)
from prodretrieve.rerank import RerankParams, merge_shard_results
from prodretrieve.search import ranking_to_json


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    gallery, queries, _ = gen_synthetic(
        n_classes=8, gallery_per_class=5, queries_per_class=2,
        dim=8, noise_sigma=0.3, seed=7,
    )
    qpath, gpath = base / "queries.emb", base / "gallery.emb"
    save_embeddings(queries, qpath)
    save_embeddings(gallery, gpath)
    return str(qpath), str(gpath)


def make_job(tmp_path, small_inputs, n_shards, depth=10):
    qpath, gpath = small_inputs
    job_dir = tmp_path / f"job{n_shards}"
    job_dir.mkdir(parents=True)
    create_job(
        str(job_dir), qpath, gpath,
        RerankParams(k1=6, k2=2, lam=0.3), n_shards=n_shards, depth=depth,
    )
    return job_dir


def merged_bytes(results):
    return "".join(ranking_to_json(rl) + "\n" for rl in results).encode()


class TestManifest:
    def test_round_trip(self, tmp_path, small_inputs):
        job_dir = make_job(tmp_path, small_inputs, 3)
        manifest = load_manifest(job_dir / MANIFEST_NAME)
        assert manifest.shards.n_shards == 3
        assert manifest.shards.n_queries == 16
        assert manifest.params == RerankParams(k1=6, k2=2, lam=0.3)

    def test_missing_input_rejected(self, tmp_path):
        with pytest.raises(ManifestInvalid):
            create_job(
                str(tmp_path), str(tmp_path / "nope.emb"), str(tmp_path / "nope.emb"),
                RerankParams(), n_shards=1,
            )

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{not json")
        with pytest.raises(ManifestInvalid):
            load_manifest(path)


class TestWorker:
    def test_single_shard_equals_inprocess(self, tmp_path, small_inputs):
        from prodretrieve.embed_store import load_embeddings
        from prodretrieve.rerank import kreciprocal_rerank
        from prodretrieve.search import topk

        job_dir = make_job(tmp_path, small_inputs, 1)
        manifest = load_manifest(job_dir / MANIFEST_NAME)
        worker_run(str(job_dir / MANIFEST_NAME), 0)
        results, report = merge_shard_results(manifest.shards, str(job_dir))
        assert report.ok

        queries = load_embeddings(manifest.query_path)
        gallery = load_embeddings(manifest.gallery_path)
        direct = topk(
            kreciprocal_rerank(queries, gallery, manifest.params), manifest.depth
        )
        assert merged_bytes(results) == merged_bytes(direct)

    def test_rerun_is_byte_identical(self, tmp_path, small_inputs):
        job_dir = make_job(tmp_path, small_inputs, 2)
        manifest_path = str(job_dir / MANIFEST_NAME)
        worker_run(manifest_path, 0)
        first = (job_dir / "shard_0.jsonl").read_bytes()
        worker_run(manifest_path, 0)
        assert (job_dir / "shard_0.jsonl").read_bytes() == first

    def test_inject_fail_leaves_no_final_file(self, tmp_path, small_inputs):
        job_dir = make_job(tmp_path, small_inputs, 2)
        with pytest.raises(RuntimeError):
            worker_run(str(job_dir / MANIFEST_NAME), 1, inject_fail=True)
        assert not (job_dir / "shard_1.jsonl").exists()

    def test_worker_killed_mid_write(self, tmp_path, small_inputs):
        # slow the final write down via a tiny wrapper, then kill the process
        job_dir = make_job(tmp_path, small_inputs, 1)
        manifest = load_manifest(job_dir / MANIFEST_NAME)
        script = (
            "import sys, time, os\n"
            "import prodretrieve.rerank as rr\n"
            "orig = rr.write_shard_result\n"
            "def slow(lists, path):\n"
            "    tmp = f'{path}.tmp.slow'\n"
            "    with open(tmp, 'wb') as fh:\n"
            "        data = rr.shard_result_bytes(lists)\n"
            "        fh.write(data[: len(data) // 2])\n"
            "        fh.flush()\n"
            "        print('PARTIAL', flush=True)\n"
            "        time.sleep(30)\n"
            "rr.write_shard_result = slow\n"
            "import prodretrieve.harness as h\n"
            f"h.worker_run({str(job_dir / MANIFEST_NAME)!r}, 0)\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ) as proc:
            assert proc.stdout.readline().strip() == "PARTIAL"
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert not (job_dir / "shard_0.jsonl").exists()
        _, report = merge_shard_results(manifest.shards, str(job_dir))
        assert report.reasons == {0: "absent"}


class TestCoordinator:
    @pytest.mark.parametrize("n_shards,parallelism", [(1, 1), (2, 2), (4, 2)])
    def test_results_match_single_shard_baseline(
        self, tmp_path, small_inputs, n_shards, parallelism
    ):
        baseline_dir = make_job(tmp_path, small_inputs, 1)
        worker_run(str(baseline_dir / MANIFEST_NAME), 0)
        baseline, _ = merge_shard_results(
            load_manifest(baseline_dir / MANIFEST_NAME).shards, str(baseline_dir)
        )

        job_dir = make_job(tmp_path / f"p{parallelism}", small_inputs, n_shards)
        results, report = coordinator_run(
            str(job_dir / MANIFEST_NAME), parallelism=parallelism
        )
        assert report.ok
        assert merged_bytes(results) == merged_bytes(baseline)

    def _rig_shard_failure(self, monkeypatch, shard):
        """Make the coordinator's worker for `shard` run with inject_fail=True.

        Workers are forked from this process, so they inherit the patch.
        """
        from prodretrieve import harness

        orig_worker_run = harness.worker_run

        def worker_run(manifest_path, shard_index, **kw):
            if shard_index == shard:
                kw["inject_fail"] = True
            return orig_worker_run(manifest_path, shard_index, **kw)

        monkeypatch.setattr(harness, "worker_run", worker_run)

    def test_tolerate_with_failing_worker(self, tmp_path, small_inputs, monkeypatch):
        job_dir = make_job(tmp_path, small_inputs, 3)
        manifest_path = str(job_dir / MANIFEST_NAME)
        manifest = load_manifest(manifest_path)
        self._rig_shard_failure(monkeypatch, 1)
        results, report = coordinator_run(manifest_path, fail_policy="tolerate")
        expected_missing = [
            manifest.shards.query_ids[r] for r in manifest.shards.shard_rows(1)
        ]
        assert sorted(report.missing_queries) == sorted(expected_missing)
        assert report.reasons == {1: "absent"}
        present = {rl.query_id for rl in results}
        assert present.isdisjoint(report.missing_queries)

        # surviving queries are bit-identical to an all-shards-succeed run
        full_dir = make_job(tmp_path / "full", small_inputs, 1)
        worker_run(str(full_dir / MANIFEST_NAME), 0)
        full, _ = merge_shard_results(
            load_manifest(full_dir / MANIFEST_NAME).shards, str(full_dir)
        )
        full_subset = [rl for rl in full if rl.query_id in present]
        assert merged_bytes(results) == merged_bytes(full_subset)

    def test_strict_mode_raises(self, tmp_path, small_inputs, monkeypatch):
        job_dir = make_job(tmp_path, small_inputs, 2)
        self._rig_shard_failure(monkeypatch, 1)
        with pytest.raises(ShardsMissing):
            coordinator_run(str(job_dir / MANIFEST_NAME), fail_policy="strict")

    def test_failed_worker_exit_code_reported(self, tmp_path, small_inputs, monkeypatch):
        job_dir = make_job(tmp_path, small_inputs, 3)
        self._rig_shard_failure(monkeypatch, 2)
        _, report = coordinator_run(str(job_dir / MANIFEST_NAME), parallelism=2)
        assert report.exit_codes == {2: 1}
        assert report.to_dict()["exit_codes"] == {"2": 1}

    def test_sigkilled_worker_reported_absent(self, tmp_path, small_inputs, monkeypatch):
        from prodretrieve import harness

        job_dir = make_job(tmp_path, small_inputs, 2)
        orig_worker_run = harness.worker_run

        def worker_run(manifest_path, shard_index, **kw):
            if shard_index == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig_worker_run(manifest_path, shard_index, **kw)

        monkeypatch.setattr(harness, "worker_run", worker_run)
        results, report = coordinator_run(str(job_dir / MANIFEST_NAME), parallelism=2)
        assert report.reasons == {0: "absent"}
        assert report.exit_codes == {0: -signal.SIGKILL}
        assert len(results) == 8

    def test_threads_reach_forked_workers(self, tmp_path, small_inputs, monkeypatch):
        from prodretrieve import harness

        job_dir = make_job(tmp_path, small_inputs, 2)
        orig_worker_run = harness.worker_run

        def worker_run(manifest_path, shard_index, threads=1, **kw):
            (job_dir / f"threads_{shard_index}").write_text(str(threads))
            return orig_worker_run(manifest_path, shard_index, threads=threads, **kw)

        monkeypatch.setattr(harness, "worker_run", worker_run)
        code = cli.run([
            "--threads", "2", "coordinate", "--manifest", str(job_dir / MANIFEST_NAME),
            "--out", str(tmp_path / "merged.jsonl"),
        ])
        assert code == 0
        assert [(job_dir / f"threads_{i}").read_text() for i in (0, 1)] == ["2", "2"]

    def test_cli_status_printed_once_to_buffered_stdout(
        self, tmp_path, small_inputs, monkeypatch
    ):
        """Forked workers must not repeat output buffered in the coordinator.

        stdout is a file, so it is block-buffered: the `shard` status line is
        still in the buffer when `coordinate` forks its workers.
        """
        qpath, gpath = small_inputs
        job_dir = tmp_path / "job"
        missing = tmp_path / "missing.json"
        self._rig_shard_failure(monkeypatch, 1)
        out_path = tmp_path / "stdout.txt"
        saved_fd, saved_stdout = os.dup(1), sys.stdout
        try:
            with open(out_path, "wb") as fh:
                os.dup2(fh.fileno(), 1)
            sys.stdout = open(1, "w", closefd=False)
            assert cli.run([
                "shard", "--queries", qpath, "--gallery", gpath, "--n-shards", "3",
                "--k1", "6", "--k2", "2", "--job-dir", str(job_dir),
            ]) == 0
            assert cli.run([
                "coordinate", "--manifest", str(job_dir / MANIFEST_NAME),
                "--parallelism", "2", "--out", str(tmp_path / "merged.jsonl"),
                "--missing", str(missing),
            ]) == 0
            sys.stdout.flush()
        finally:
            sys.stdout = saved_stdout
            os.dup2(saved_fd, 1)
            os.close(saved_fd)
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2, lines
        shard_status, coordinate_status = map(json.loads, lines)
        assert shard_status["outputs"] == [str(job_dir / MANIFEST_NAME)]
        assert coordinate_status["n_missing"] == 5
        assert json.loads(missing.read_text())["exit_codes"] == {"1": 1}

    def test_directory_at_shard_path_reported(self, tmp_path, small_inputs):
        """The worker cannot commit over a directory and the merge cannot
        read one; coordinate must still write --out and --missing."""
        job_dir = make_job(tmp_path, small_inputs, 2)
        (job_dir / "shard_1.jsonl").mkdir()
        out, missing = tmp_path / "merged.jsonl", tmp_path / "missing.json"
        code = cli.run([
            "coordinate", "--manifest", str(job_dir / MANIFEST_NAME),
            "--out", str(out), "--missing", str(missing),
        ])
        assert code == 0
        report = json.loads(missing.read_text())
        assert report["reasons"] == {"1": "unreadable"}
        assert report["exit_codes"] == {"1": 1}
        assert len(report["missing_queries"]) == 8
        assert len(out.read_text().splitlines()) == 8
        # the worker's failed commit removes its temp file
        assert not list(job_dir.glob("*.tmp.*"))

    def test_index_built_once_in_coordinator(self, tmp_path, small_inputs, monkeypatch):
        """The coordinator builds the neighbour index; its forked workers
        only run their own rows. Each build appends its pid to a file."""
        from prodretrieve import harness, rerank

        calls = tmp_path / "builds.txt"
        orig = rerank.build_neighbours

        def build_neighbours(*args, **kw):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return orig(*args, **kw)

        monkeypatch.setattr(harness, "build_neighbours", build_neighbours)
        monkeypatch.setattr(rerank, "build_neighbours", build_neighbours)
        job_dir = make_job(tmp_path, small_inputs, 4)
        _, report = coordinator_run(str(job_dir / MANIFEST_NAME), parallelism=2)
        assert report.ok
        assert calls.read_text().split() == [str(os.getpid())]

    def test_wall_time_per_shard(self, tmp_path, small_inputs):
        job_dir = make_job(tmp_path, small_inputs, 3)
        _, report = coordinator_run(str(job_dir / MANIFEST_NAME), parallelism=2)
        assert list(report.wall_s) == [0, 1, 2]
        assert all(math.isfinite(s) and s > 0 for s in report.wall_s.values())
        assert list(report.to_dict()["wall_s"]) == ["0", "1", "2"]

    def test_fork_after_threaded_blas(self, tmp_path, small_inputs):
        """Forking right after OpenBLAS ran on two threads must not hang the
        workers: a 2048 x 2048 matmul starts the threads, then the
        coordinator builds the index with BLAS and forks."""
        job_dir = make_job(tmp_path, small_inputs, 4)
        script = (
            "import numpy as np\n"
            "from prodretrieve.harness import coordinator_run\n"
            "a = np.random.default_rng(0).standard_normal((2048, 2048))\n"
            "assert np.isfinite(a @ a).all()\n"
            f"_, report = coordinator_run({str(job_dir / MANIFEST_NAME)!r}, parallelism=2)\n"
            "assert report.ok, report\n"
            "print('OK')\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["OK"]
