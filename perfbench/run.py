"""prodretrieve benchmark: seeded workloads run against the library from outside.

    python3 perfbench/run.py --workload search_100k --seed 7 --seconds 35 --trace 0

`--workload all` (the default) runs every workload in BENCHMARK.json.
`--trace 0` reports the end-to-end metrics that BENCHMARK.json lists;
`--trace 1` makes a separate traced run and reports its per-layer metrics.
The last line of standard output is the result,
`{"correct", "attempted", "failed", "metrics"}`; the lines before it give
the machine, sample counts and quartiles, failed operations, and why any
per-layer metric is absent. The exit code is 0 only when every operation
and output check passed. Set-up and measurement run in child processes
(workloads.py) so that each has its own peak RSS.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COMPUTED, layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170  # one workload's run must end within 180 s


def machine_facts(src: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PRODRETRIEVE_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
        "emb1_reads": "served from the OS page cache, which is not dropped: "
                      "load times are page-cache numbers, not a disk's",
    }


def _child(env, deadline, *args) -> dict:
    """Run one workloads.py phase and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *map(str, args)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def run_workload(name, workload, seed, seconds, trace, env) -> tuple[dict, dict]:
    """Return (metric values, report) for one run of one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {"workload": name, "seed": seed, "trace": trace, "closed_loop_clients": 1}
    try:
        if not trace:
            setup = _child(env, deadline, "setup", name, seed, work, workload.setup_reps)
            meas = _child(env, deadline, "measure", name, seed, work, seconds)
            values = {
                "run_s": statistics.median(meas["run_s"]),
                "cpu_s": statistics.median(meas["cpu_s"]),
                "peak_rss_mb": meas["peak_rss_mb"],
                "setup_s": statistics.median(setup["setup_s"]),
                "mar_at_10": meas["notes"].get("mar_at_10"),
            }
            report["samples"] = {k: _summary(v) for k, v in
                                 (("run_s", meas["run_s"]), ("cpu_s", meas["cpu_s"]),
                                  ("setup_s", setup["setup_s"]))}
            runs = [meas]
        else:
            spans_dir = work / "spans"
            run_id = f"{name}-s{seed}-{os.getpid()}-{time.time_ns()}"
            traced = ("--spans", spans_dir, "--run-id", run_id)
            _child(env, deadline, "setup", name, seed, work, 1, *traced)
            plain = _child(env, deadline, "measure", name, seed, work, 0)
            meas = _child(env, deadline, "measure", name, seed, work, 0, *traced)
            spans = read_spans(spans_dir)
            steps = [s["name"] for s in workload.config(seed)["steps"]] \
                if hasattr(workload, "config") else []
            values, absent = layer_metrics(spans, steps)
            values["trace.overhead_s"] = meas["run_s"][0] - plain["run_s"][0]
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"spans-{name}-s{seed}.jsonl"
            spans_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
            report.update(spans_file=str(spans_file.relative_to(ROOT)), absent=absent,
                          untraced_run_s=plain["run_s"][0], traced_run_s=meas["run_s"][0])
            runs = [plain, meas]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report["fail_ratio"] = {
        "value": failed / attempted if attempted else None,
        "failed": failed, "attempted": attempted,
        "base": "operations: pipeline steps, shards and output checks",
    }
    report["failures"] = [f for r in runs for f in r["failures"]]
    report["notes"] = runs[-1]["notes"]
    return values, report


def _metrics(entries, values, report) -> dict:
    """Every metric BENCHMARK.json lists, in its unit; an absent one reads 0."""
    out = {}
    for entry in entries:
        name = entry["name"]
        if values.get(name) is None:
            report.setdefault("absent", {}).setdefault(
                name, "this workload makes no call the metric measures")
        out[name] = {"value": values.get(name) or 0, "unit": entry["unit"]}
    if report["trace"]:
        report["computed"] = sorted(n for n in out if n in COMPUTED and n in values)
    return out


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "prodretrieve" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a prodretrieve checkout "
              "(needs src/prodretrieve and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    print(json.dumps({"machine": machine_facts(src)}), flush=True)

    entries = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        values, report = run_workload(
            name, WORKLOADS[name], args.seed, args.seconds, args.trace, env
        )
        metrics = _metrics(entries, values, report)
        print(json.dumps({"report": report}), flush=True)
        if args.workload == "all":
            print(json.dumps({"workload": name, "metrics": metrics}), flush=True)
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        result["metrics"].update(metrics)
        result["attempted"] += report["fail_ratio"]["attempted"]
        result["failed"] += report["fail_ratio"]["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
