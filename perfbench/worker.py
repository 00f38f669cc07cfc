"""Runs one workload's ops in a closed loop inside this process.

run.py starts this script in a fresh interpreter so that the peak
resident memory it reports belongs to the workload alone. One client
runs ops back to back: each op starts after the previous one finished
and was checked. An op calls ``prodval.cli.main`` once per subcommand
of the workload, on the generated config, writing reports to a fresh
directory. With ``--trace 0`` every op and every import probe is
timed under a ``speed.Sampler``, and its time is also given in
reference seconds (see speed.py). With ``--trace 1`` the loop runs
first untraced, then with the tracer installed, so that the tracing
overhead can be reported; those ops give wall seconds only.

    python3 perfbench/worker.py --workload NAME --seed N --config PATH \\
        --config-sha256 HEX --work DIR --seconds S --trace 0|1 --result PATH
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from gen import WORKLOADS  # noqa: E402

# A median needs a few ops even when one op is longer than the run.
MIN_OPS = 3
MIN_OPS_PER_TRACE_PHASE = 2
# Import probes run between ops, so that they sample the machine over
# the whole run rather than in one burst.
PROBES_PER_OP = 3
PROBE_TIMEOUT_S = 30
# Seconds between speed samples: within an op, and within an import.
OP_SAMPLE_S = 0.1
IMPORT_SAMPLE_S = 0.02
# speed imports nothing that prodval imports, so the import is timed
# from a cold start.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import speed; "
    "m, wall, ref = speed.time_import('prodval', float(sys.argv[2])); "
    "print(m.__file__); print(repr(wall)); print(repr(ref))"
)


def import_cli(src: Path):
    """prodval.cli from ``src``; refuses a prodval found anywhere else."""
    sys.path.insert(0, str(src))
    import prodval.cli

    if src.resolve() not in Path(prodval.cli.__file__).resolve().parents:
        raise SystemExit(f"prodval imported from {prodval.cli.__file__}, not {src}")
    return prodval.cli


def import_seconds(src: Path) -> tuple:
    """Wall and reference seconds a fresh interpreter takes to import
    prodval from ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(IMPORT_SAMPLE_S)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout.split()
    if src.resolve() not in Path(out[0]).resolve().parents:
        raise SystemExit(f"prodval imported from {out[0]}, not {src}")
    return float(out[1]), float(out[2])


def load_reference(workload: str, seed: int):
    path = HERE / "refs" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def reports_of(files: dict) -> dict:
    """Report files of an op; run metadata is not compared."""
    return {k: v for k, v in files.items() if not k.endswith("metadata.json")}


class Loop:
    """Ops on one generated config, each checked after it ran."""

    def __init__(self, cli, src: Path, workload, config: Path, work: Path, ref):
        self.cli = cli
        self.src = src
        self.w = workload
        self.config = config
        self.work = work
        self.ref = ref
        self.first = None  # report digests of the first good op
        self.market = None
        if any(cmd[0] == "check" for cmd in workload.commands):
            self.market = checks.Market(json.loads(config.read_bytes()))

    def _run(self, out: Path):
        for k, cmd in enumerate(self.w.commands):
            argv = [*cmd, "--config", str(self.config), "--output-dir", str(out / str(k))]
            code = self.cli.main(argv)
            if code != 0:
                return f"{' '.join(cmd)} exited with {code}"
        return None

    def run_op(self, sampler=None):
        """One op: its wall seconds, the files it wrote (path -> bytes)
        and the error that failed it, if any. With ``sampler`` the op
        runs under it."""
        out = self.work / "op"
        with sampler or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    error = self._run(out)
            except Exception:
                error = traceback.format_exc(limit=3)
            secs = perf_counter() - t0
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        shutil.rmtree(out, ignore_errors=True)
        return secs, files, error

    def check(self, files: dict) -> list:
        """Problems with one op's outputs: the stored reference if there
        is one, else equality with the run's first op; and the
        independent checks of certificates and write-downs."""
        problems = []
        for key, data in files.items():
            if key.endswith("metadata.json"):
                if json.loads(data).get("feasible", True) is not True:
                    problems.append(f"{key}: valuation infeasible")
            elif key.endswith("check.json"):
                problems += checks.verify_certificates(self.market, json.loads(data))
            elif key.endswith("adjust.json"):
                problems += checks.verify_adjust(json.loads(data))
        reports = reports_of(files)
        if self.ref is not None:
            problems += checks.compare_reports(reports, self.ref["files"])
        elif self.first is not None and self.first != checks.digests(reports):
            problems.append("reports differ from the first op of this run")
        if self.first is None and not problems:
            self.first = checks.digests(reports)
        return problems

    def phase(self, seconds: float, min_ops: int, spans=None, probes=None) -> list:
        """Ops until ``seconds`` have passed and at least ``min_ops`` ran.
        With ``probes`` (a list), each op is timed under a speed sampler
        and the (wall, reference) seconds of imports measured after each
        op are appended to it."""
        ops = []
        start = perf_counter()
        while len(ops) < min_ops or perf_counter() - start < seconds:
            if spans is not None:
                spans.reset()
            sampler = speed.Sampler(OP_SAMPLE_S) if probes is not None else None
            secs, files, error = self.run_op(sampler)
            record = {"seconds": secs, "problems": [error] if error else self.check(files)}
            if sampler is not None:
                record["reference_seconds"] = sampler.reference_seconds(secs)
                record["slowdown"] = sampler.slowdown()
            if spans is not None:
                record["layers"] = tracer.op_metrics(spans)
                record["layers"]["cli.report_bytes"] = float(sum(map(len, files.values())))
            ops.append(record)
            if probes is not None:
                probes += [import_seconds(self.src) for _ in range(PROBES_PER_OP)]
        return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--config-sha256", required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    cli = import_cli(src)
    ref = load_reference(args.workload, args.seed)
    if ref is not None and ref["config_sha256"] != args.config_sha256:
        raise SystemExit(f"seed {args.seed}: generated config differs from the reference's")
    loop = Loop(cli, src, WORKLOADS[args.workload], args.config, args.work, ref)

    result = {"reference": ref is not None}
    if args.trace:
        half = args.seconds / 2.0
        result["ops"] = loop.phase(half, MIN_OPS_PER_TRACE_PHASE)
        with tracer.Tracer() as spans:
            result["traced_ops"] = loop.phase(half, MIN_OPS_PER_TRACE_PHASE, spans)
        result["absent"] = spans.absent
    else:
        speed.warm()
        import_seconds(src)  # not counted: the first one also warms the file cache
        result["setup"] = []
        result["ops"] = loop.phase(args.seconds, MIN_OPS, probes=result["setup"])
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
