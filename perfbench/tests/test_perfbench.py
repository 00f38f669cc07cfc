"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import types

import pytest

import checks
import speed
import tracer
import worker
from gen import WORKLOADS, shrunk, write_config

# (branch, years) small enough for a test; check_lp keeps two years so
# that its restriction still names the second bond.
TINY = {
    "value_88k": (2, 2),
    "mix_es_1k": (2, 2),
    "writedown_10k": (3, 2),
    "check_lp_341": (3, 2),
}


def tiny(name):
    return shrunk(WORKLOADS[name], *TINY[name])


def make_loop(name, tmp_path, seed=3, ref=None):
    config = tmp_path / "config.json"
    write_config(tiny(name), seed, config)
    cli = worker.import_cli(worker.ROOT / "src")
    return worker.Loop(cli, worker.ROOT / "src", tiny(name), config, tmp_path, ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_config(name, tmp_path):
    a = write_config(tiny(name), 5, tmp_path / "a.json")
    b = write_config(tiny(name), 5, tmp_path / "b.json")
    c = write_config(tiny(name), 6, tmp_path / "c.json")
    assert a == b
    assert a[0] != c[0]
    assert a[1] == len(json.loads((tmp_path / "a.json").read_text())["tree"]["nodes"])


def test_full_size_node_counts():
    assert {n: w.n_nodes() for n, w in WORKLOADS.items()} == {
        "value_88k": 88573,
        "mix_es_1k": 1093,
        "writedown_10k": 9841,
        "check_lp_341": 341,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    loop = make_loop(name, tmp_path)
    ops = loop.phase(0.0, 2)
    assert len(ops) == 2
    assert [op["problems"] for op in ops] == [[], []]

    # The same reports pass against a stored reference made from them.
    _, files, error = loop.run_op()
    assert error is None
    ref = {
        "files": {k: checks.fingerprint(k, v) for k, v in worker.reports_of(files).items()}
    }
    stored = make_loop(name, tmp_path, ref=ref)
    assert stored.phase(0.0, 1)[0]["problems"] == []


def test_changed_reports_fail_the_reference(tmp_path):
    loop = make_loop("value_88k", tmp_path)
    _, files, _ = loop.run_op()
    reports = worker.reports_of(files)
    ref = {"files": {k: checks.fingerprint(k, v) for k, v in reports.items()}}
    other = make_loop("value_88k", tmp_path, seed=4, ref=ref)
    assert other.phase(0.0, 1)[0]["problems"]


def test_numeric_comparison_tolerates_last_decimals_only():
    text = b"node,vbar\nn0,100.123456789\nn1,3.000000000\n"
    ref = checks.fingerprint("x.csv", text)
    assert checks.compare_report("x.csv", text, ref) == []
    assert checks.compare_report("x.csv", text.replace(b"789", b"790"), ref) == []
    assert checks.compare_report("x.csv", text.replace(b"100.1", b"100.2"), ref)
    assert checks.compare_report("x.csv", text.replace(b"vbar", b"cost"), ref)


def test_certificate_checker_rejects_tampering(tmp_path):
    loop = make_loop("check_lp_341", tmp_path)
    _, files, error = loop.run_op()
    assert error is None
    doc = json.loads(files["0/check.json"])
    assert checks.verify_certificates(loop.market, doc) == []
    certs = doc["consistency"]["used_subspace"]
    good = [lab for lab, e in certs.items() if e["consistent"]]
    bad = [lab for lab, e in doc["consistency"]["full_space"].items() if not e["consistent"]]
    assert good and bad

    weight = copy.deepcopy(doc)
    entry = weight["consistency"]["used_subspace"][good[0]]["weights"]
    child = sorted(entry)[0]
    entry[child] += 1e-3
    assert checks.verify_certificates(loop.market, weight)

    negative = copy.deepcopy(doc)
    entry = negative["consistency"]["used_subspace"][good[0]]["weights"]
    entry[child] = -abs(entry[child]) - 1e-3
    assert checks.verify_certificates(loop.market, negative)

    violation = copy.deepcopy(doc)
    entry = violation["consistency"]["full_space"][bad[0]]
    entry["violation"] = [-v for v in entry["violation"]]
    assert checks.verify_certificates(loop.market, violation)


def test_adjust_check():
    assert checks.verify_adjust({"revalidation_ok": True, "cost_identity_max_diff": 0.0}) == []
    assert checks.verify_adjust({"revalidation_ok": False, "cost_identity_max_diff": 0.0})
    assert checks.verify_adjust({"revalidation_ok": True, "cost_identity_max_diff": 0.1})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_reports_every_layer(name, tmp_path):
    loop = make_loop(name, tmp_path)
    with tracer.Tracer() as spans:
        ops = loop.phase(0.0, 1, spans)
    assert spans.absent == []
    layers = ops[0]["layers"]
    assert set(layers) == set(tracer.LAYER_METRICS) | {"cli.report_bytes"}
    assert all(v >= 0.0 for v in layers.values())
    assert layers["config.load_s"] > 0.0
    if name == "check_lp_341":
        assert layers["engine.one_period_calls"] == 0
    else:
        assert layers["engine.one_period_calls"] > 0
    # Only the certificates (check, and the state-price bound) solve LPs.
    assert (layers["lp.solve_calls"] > 0) == (name in ("check_lp_341", "mix_es_1k"))
    if name == "writedown_10k":
        assert layers["resolution.extend_s"] > 0.0
    # Uninstalled: the program is back to its own functions.
    assert not hasattr(loop.cli.run, "__wrapped__")


def test_missing_sites_are_reported_absent_not_fatal(tmp_path):
    sites = [s for s in tracer.SITES if s[0] != "engine.one_period"] + [
        ("x.gone", "prodval.cli", "no_such_function", None),
        ("x.gone", "prodval.no_such_module", "f", None),
    ]
    spans = tracer.Tracer()
    spans.install(sites)
    try:
        loop = make_loop("value_88k", tmp_path)
        ops = loop.phase(0.0, 1, spans)
    finally:
        spans.uninstall()
    assert spans.absent == ["prodval.cli.no_such_function", "prodval.no_such_module.f"]
    layers = ops[0]["layers"]
    assert ops[0]["problems"] == []
    for gone in ("engine.one_period_s", "engine.post_pass_s", "conditions.checks_per_period"):
        assert gone not in layers
    assert layers["engine.backward_value_s"] > 0.0


def test_self_times_are_never_negative():
    mod = types.ModuleType("fake_layers")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return [mod.inner(n) for _ in range(50)]

    mod.inner, mod.outer = inner, outer
    sys.modules["fake_layers"] = mod
    try:
        spans = tracer.Tracer()
        spans.install([("a.outer", "fake_layers", "outer", None),
                       ("a.inner", "fake_layers", "inner", None)])
        mod.outer(100)
        spans.uninstall()
    finally:
        del sys.modules["fake_layers"]
    assert spans.calls["a.inner"] == 50
    assert spans.nested_calls[("a.outer", "a.inner")] == 50
    assert spans.incl["a.outer"] >= spans.nested[("a.outer", "a.inner")]
    assert min(spans.self_s.values()) >= 0.0


def test_speed_sampler_scales_and_uninstalls():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01) as s:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            sum(range(1000))
        wall = perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.samples) >= 5
    assert 0.0 < s.handler_s < wall
    ref = s.reference_seconds(wall)
    assert ref == (wall - s.handler_s) / (sum(s.samples) / len(s.samples) / speed.KERNEL_REF_S)

    # A span shorter than the interval still gets one sample.
    with speed.Sampler(10.0) as short:
        pass
    assert len(short.samples) == 1 and short.handler_s == 0.0


def test_untraced_ops_carry_reference_seconds(tmp_path):
    loop = make_loop("mix_es_1k", tmp_path)
    probes = []
    ops = loop.phase(0.0, 1, probes=probes)
    assert ops[0]["problems"] == []
    assert ops[0]["reference_seconds"] > 0.0 and ops[0]["slowdown"] > 0.0
    assert len(probes) == worker.PROBES_PER_OP


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(worker.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix_es_1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
