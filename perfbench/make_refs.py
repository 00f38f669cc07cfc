"""Stores per-seed reference fingerprints of a workload's reports.

    python3 perfbench/make_refs.py --workload NAME --seeds 0-31

Run it only on a program version whose reports are trusted. Each op
must first pass the independent checks (certificates, write-down
re-validation); its report fingerprints then go to refs/NAME.json,
which the benchmark compares every op against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
from gen import WORKLOADS, write_config  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=seed_range, required=True, help="N or LO-HI")
    args = ap.parse_args(argv)

    os.environ["PRODVAL_THREADS"] = "1"
    src = worker.ROOT / "src"
    cli = worker.import_cli(src)
    w = WORKLOADS[args.workload]
    path = HERE / "refs" / f"{w.name}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    work = worker.ROOT / ".perfbench_work" / f"refs-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for seed in args.seeds:
            config = work / "config.json"
            sha, nodes = write_config(w, seed, config)
            loop = worker.Loop(cli, src, w, config, work, None)
            _, files, error = loop.run_op()
            problems = [error] if error else loop.check(files)
            if problems:
                print(f"seed {seed}: not stored: {problems}", file=sys.stderr)
                return 1
            refs[str(seed)] = {
                "config_sha256": sha,
                "nodes": nodes,
                "files": {
                    k: checks.fingerprint(k, v) for k, v in worker.reports_of(files).items()
                },
            }
            print(f"seed {seed}: stored", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
