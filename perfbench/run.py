"""Benchmark for the prodval report pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's config from the seed, then runs the workload's
ops in a closed loop (one client, one process, PRODVAL_THREADS=1) in a
worker process for S seconds, checking every op's output, and times
fresh-interpreter imports of the package between ops. The workloads
are defined in gen.py; BENCHMARK.json gives the reason for each.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones (medians over the run's ops); with --trace 1 they
are the per-layer ones from a traced second half of the run. The lines
before it give the same numbers with units and sample counts, the
config's sha256 and node count, and the environment.

op_s and setup_s are in reference seconds: wall seconds scaled by the
machine's speed, sampled during each timed op or import (speed.py),
because the shared host's speed drifts too much between runs for wall
times to be compared. The wall-second medians and the measured
slowdown are printed beside them.

Run from the root of a checkout that holds src/prodval; the program is
imported from there and nowhere else. Scratch files go to
.perfbench_work/ in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from gen import WORKLOADS, write_config  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

THREADS = "1"
WORKER_TIMEOUT_S = 160


def layer_unit(name: str) -> str:
    if name == "cli.report_bytes":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_per_period")) else "count"


def child_env() -> dict:
    env = dict(os.environ, PRODVAL_THREADS=THREADS, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def versions() -> str:
    return (
        f"python {platform.python_version()} numpy {np.__version__} "
        f"nproc {os.cpu_count()} PRODVAL_THREADS={THREADS}"
    )


def run_worker(args, config: Path, sha: str, work: Path) -> dict:
    result = work / "result.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--config", str(config), "--config-sha256", sha, "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", str(result),
        ],
        cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(result.read_text())


def each(values) -> str:
    return "each " + " ".join(f"{v:.4g}" for v in values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prodval report-pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # On SIGTERM unwind normally, so that the worker is killed and waited
    # for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "prodval" / "__init__.py").is_file():
        print(f"error: no prodval package under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        sha, nodes = write_config(WORKLOADS[args.workload], args.seed, config)
        res = run_worker(args, config, sha, work)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = res["ops"] + res.get("traced_ops", [])
    failed = sum(1 for op in ops if op["problems"])
    print(f"workload {args.workload} seed {args.seed} nodes {nodes} config_sha256 {sha}")
    print(f"environment {versions()}; closed loop, 1 client")
    print(
        "reference: "
        + ("stored per-seed reports" if res["reference"] else
           "none stored for this seed; ops checked against the run's first op")
    )
    for k, op in enumerate(ops):
        for p in op["problems"]:
            print(f"op {k} failed: {p}")
    print(f"failed_ratio {failed / len(ops):.6g} ({failed} failed of {len(ops)} ops)")

    walls = [op["seconds"] for op in res["ops"]]
    op_wall_s = statistics.median(walls)
    if args.trace:
        traced = res["traced_ops"]
        layers = {
            name: statistics.median(op["layers"][name] for op in traced)
            for name in traced[0]["layers"]
        }
        traced_s = statistics.median(op["seconds"] for op in traced)
        layers["trace.op_s"] = traced_s
        layers["trace.overhead_ratio"] = traced_s / op_wall_s
        if res["absent"]:
            print(f"absent wrap targets: {', '.join(res['absent'])}")
        missing = sorted(set(LAYER_METRICS) - set(layers))
        if missing:
            print(f"absent metrics: {', '.join(missing)}")
        print(f"untraced op wall {op_wall_s:.6g} s (median of {len(walls)} ops)")
        for name, value in layers.items():
            print(f"{name} {value:.6g} {layer_unit(name)} (median of {len(traced)} traced ops)")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        rss = res["peak_rss_mb"]
        setup_walls = [wall for wall, _ in res["setup"]]
        setup = [ref for _, ref in res["setup"]]
        op_times = [op["reference_seconds"] for op in res["ops"]]
        op_s = statistics.median(op_times)
        slowdown = statistics.median(op["slowdown"] for op in res["ops"])
        print(f"op_s {op_s:.6g} s (median of {len(op_times)} ops; {each(op_times)})")
        print(
            f"op wall {op_wall_s:.6g} s at median slowdown {slowdown:.4g} "
            f"(reference speed 1; {each(walls)})"
        )
        print(
            f"setup_s {statistics.median(setup):.6g} s "
            f"(median of {len(setup)} fresh imports between ops; {each(setup)})"
        )
        print(f"setup wall {statistics.median(setup_walls):.6g} s ({each(setup_walls)})")
        print(f"peak_rss_mb {rss:.6g} MB (1 worker process)")
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
