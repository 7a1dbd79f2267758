import hashlib
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


# manifest.json as `shard` wrote it, %-formatted with the JSON input paths
EARLIER_MANIFEST = """{
  "job_id": "job",
  "stage": "rerank",
  "inputs": {
    "queries": %s,
    "gallery": %s
  },
  "params": {
    "k1": 3,
    "k2": 2,
    "lambda": 0.3
  },
  "depth": 5,
  "shards": {
    "n_queries": 4,
    "n_shards": 3,
    "result_files": [
      "shard_0.jsonl",
      "shard_1.jsonl",
      "shard_2.jsonl"
    ],
    "query_ids": [
      "q00000_000",
      "q00000_001",
      "q00001_000",
      "q00001_001"
    ]
  },
  "created_at": "2026-10-18T23:26:14.504794+00:00"
}
"""


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

    @pytest.mark.parametrize("edit", ["not-an-object", "shards-not-an-object", "input-a-list"])
    def test_non_object_manifest_refused(self, tmp_path, small_inputs, edit):
        job_dir = make_job(tmp_path, small_inputs, 2)
        path = job_dir / MANIFEST_NAME
        obj = json.loads(path.read_text())
        if edit == "input-a-list":  # was a TypeError traceback from the input check
            obj["inputs"]["queries"] = [obj["inputs"]["queries"]]
        else:
            obj = [] if edit == "not-an-object" else {**obj, "shards": []}
        path.write_text(json.dumps(obj))
        with pytest.raises(ManifestInvalid):
            load_manifest(path)

    def test_earlier_format_loads_and_round_trips(self, tmp_path, small_inputs):
        """A manifest.json as `shard` wrote it when it still stamped a job id
        and a creation time loads, and is written back as the same dict
        without those two keys."""
        qpath, gpath = small_inputs
        text = EARLIER_MANIFEST % (json.dumps(qpath), json.dumps(gpath))
        path = tmp_path / MANIFEST_NAME
        path.write_text(text)
        expected = json.loads(text)
        del expected["job_id"], expected["created_at"]
        assert load_manifest(path).to_dict() == expected
        out = tmp_path / "merged.jsonl"
        assert cli.run(["coordinate", "--manifest", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_same_inputs_same_manifest_bytes(self, tmp_path, small_inputs):
        """A manifest is a function of its inputs: no job name, no time stamp."""
        qpath, gpath = small_inputs
        written = []
        for job_dir in (tmp_path / "a", tmp_path / "b", tmp_path / "a"):
            create_job(str(job_dir), qpath, gpath, RerankParams(k1=6, k2=2, lam=0.3),
                       n_shards=3, depth=5)
            written.append((job_dir / MANIFEST_NAME).read_bytes())
        assert written[0] == written[1] == written[2]
        assert not {"job_id", "created_at"} & set(json.loads(written[0]))

    @pytest.mark.parametrize("key,value", [
        ("depth", 2.5),  # every forked worker died of a TypeError; "ok": true, exit 0
        ("depth", True),  # ran as depth 1
        ("k1", 5.5),  # a TypeError traceback, exit 1
        ("k2", True),
        ("lambda", True),
        ("n_shards", True),
    ])
    def test_number_of_wrong_type_is_3_before_fork(self, tmp_path, small_inputs, capfd,
                                                   key, value):
        job_dir = make_job(tmp_path, small_inputs, 1)
        path = job_dir / MANIFEST_NAME
        obj = json.loads(path.read_text())
        {"depth": obj, "n_shards": obj["shards"]}.get(key, obj["params"])[key] = value
        path.write_text(json.dumps(obj))
        out = tmp_path / "merged.jsonl"
        assert cli.run(["coordinate", "--manifest", str(path), "--out", str(out)]) == 3
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("ManifestInvalid: "), err
        assert captured.out == ""
        assert sorted(os.listdir(job_dir)) == [MANIFEST_NAME]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["worker", "coordinate", "merge"])
    @pytest.mark.parametrize("edit", ["short-result-files", "path-outside-job", "no-query-ids"])
    def test_edited_shard_block_refused(self, tmp_path, small_inputs, capsys, command, edit):
        """A shard block whose stored values are not the ones its query ids
        and shard count give is refused with exit 3 before any shard runs:
        a short file list would drop queries from a strict merge, and an
        absolute file name would send a worker's output outside the job."""
        job_dir = make_job(tmp_path, small_inputs, 2)
        manifest_path = job_dir / MANIFEST_NAME
        obj = json.loads(manifest_path.read_text())
        outside = tmp_path / "outside.jsonl"
        if edit == "short-result-files":
            obj["shards"]["result_files"] = ["shard_0.jsonl"]
        elif edit == "path-outside-job":
            obj["shards"]["result_files"][1] = str(outside)
        else:
            del obj["shards"]["query_ids"]
        manifest_path.write_text(json.dumps(obj))
        out = tmp_path / "merged.jsonl"
        argv = {
            "worker": ["worker", "--manifest", str(manifest_path), "--shard", "1"],
            "coordinate": ["coordinate", "--manifest", str(manifest_path),
                           "--fail-policy", "strict", "--out", str(out)],
            "merge": ["merge", "--job-dir", str(job_dir), "--out", str(out)],
        }[command]
        assert cli.run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ManifestInvalid: "), err
        assert not out.exists() and not outside.exists()
        assert sorted(os.listdir(job_dir)) == [MANIFEST_NAME]


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

    @pytest.mark.parametrize("fail_policy", ["strict", "tolerate"])
    def test_recreated_job_never_merges_old_shards(
        self, tmp_path, small_inputs, monkeypatch, fail_policy
    ):
        """A job re-created in the same directory with new params, whose
        workers all die before they commit, merges nothing: the coordinator
        removed the earlier run's shard files before it forked."""
        from prodretrieve import harness

        qpath, gpath = small_inputs
        job_dir = tmp_path / "job"
        manifest_path = str(job_dir / MANIFEST_NAME)
        create_job(str(job_dir), qpath, gpath, RerankParams(k1=5, k2=2), n_shards=2)
        assert coordinator_run(manifest_path)[1].ok
        create_job(str(job_dir), qpath, gpath, RerankParams(k1=8, k2=2), n_shards=2)

        def write_shard_result(lists, path):
            raise OSError("disk gone")

        monkeypatch.setattr(harness, "write_shard_result", write_shard_result)
        if fail_policy == "strict":
            with pytest.raises(ShardsMissing):
                coordinator_run(manifest_path, fail_policy="strict")
        else:
            results, report = coordinator_run(manifest_path)
            assert report.reasons == {0: "absent", 1: "absent"}
            assert report.exit_codes == {0: 1, 1: 1}
            assert results == [] and len(report.missing_queries) == 16

    def test_strict_cli_exits_2(self, tmp_path, small_inputs, capsys):
        job_dir = make_job(tmp_path, small_inputs, 2)
        (job_dir / "shard_1.jsonl").mkdir()
        out = tmp_path / "merged.jsonl"
        code = cli.run([
            "coordinate", "--manifest", str(job_dir / MANIFEST_NAME),
            "--fail-policy", "strict", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("ShardsMissing: ")
        assert not out.exists()

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

    def test_merge_reports_verified_line_that_is_no_list(self, tmp_path, small_inputs, capsys):
        """A shard whose sha256 trailer holds over a line that is not a
        ranking list is reported as "checksum"; the merge writes the rest."""
        job_dir = make_job(tmp_path, small_inputs, 2)
        for shard in ("0", "1"):
            assert cli.run(["worker", "--manifest", str(job_dir / MANIFEST_NAME),
                            "--shard", shard]) == 0
        payload = b'{"not": "a ranking list"}\n'
        trailer = json.dumps({"sha256": hashlib.sha256(payload).hexdigest()}) + "\n"
        (job_dir / "shard_0.jsonl").write_bytes(payload + trailer.encode())
        capsys.readouterr()
        out, missing = tmp_path / "merged.jsonl", tmp_path / "missing.json"
        code = cli.run(["merge", "--job-dir", str(job_dir), "--out", str(out),
                        "--missing", str(missing)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["n_missing"] == 8
        assert json.loads(missing.read_text())["reasons"] == {"0": "checksum"}
        assert len(out.read_text().splitlines()) == 8

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

    def test_workers_inherit_hashlib(self, tmp_path, small_inputs):
        """The coordinator loads hashlib before it forks, so no worker loads
        OpenSSL for its shard trailer. Each worker records on entry whether
        `_hashlib` is loaded; a fresh interpreter has not loaded it yet."""
        job_dir = make_job(tmp_path, small_inputs, 2)
        flags = tmp_path / "hashlib_loaded.txt"
        script = (
            "import sys\n"
            "from prodretrieve import harness\n"
            "orig = harness.worker_run\n"
            "def worker_run(*args, **kw):\n"
            f"    with open({str(flags)!r}, 'a') as fh:\n"
            "        fh.write(f\"{'_hashlib' in sys.modules}\\n\")\n"
            "    return orig(*args, **kw)\n"
            "harness.worker_run = worker_run\n"
            "assert '_hashlib' not in sys.modules\n"
            f"_, report = harness.coordinator_run({str(job_dir / MANIFEST_NAME)!r}, parallelism=2)\n"
            "assert report.ok, report\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert flags.read_text().split() == ["True", "True"]
