import ctypes
import hashlib
import json
import math
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prodval import cli, market
from prodval.cli import main, run
from prodval.conditions import FulfillmentSpec
from prodval.config import load_config, problem_from_dict, problem_to_dict
from prodval.errors import CrossRefError, ParseError, SchemaViolation
from prodval.market import TradableSet

from util import generated_config

CONFIGS = Path(__file__).parent.parent / "configs"


def two_point_doc():
    return json.loads((CONFIGS / "two_point.json").read_text())


class TestLoadConfig:
    def test_bundled_two_point(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        assert problem.grid.horizon == 1
        assert len(problem.tree.by_date[-1]) == 2
        assert problem.engine.mode == "B"

    def test_parse_error_reports_position(self):
        bad = CONFIGS.parent / "tests" / "_bad.json"
        bad.write_text("{\n  1: oops\n}")
        try:
            with pytest.raises(ParseError, match="line 2"):
                load_config(str(bad))
        finally:
            bad.unlink()

    def test_mode_a_needs_close_out(self):
        doc = two_point_doc()
        doc["engine"]["mode"] = "A"
        doc["market"]["close_out"] = False
        with pytest.raises(SchemaViolation):
            problem_from_dict(doc)

    def test_missing_price_vector_names_node(self):
        doc = two_point_doc()
        del doc["market"]["tradables"][0]["prices"]["mid"]
        with pytest.raises(CrossRefError, match="mid"):
            problem_from_dict(doc)

    def test_unknown_flow_node(self):
        doc = two_point_doc()
        doc["liability"]["outflows"]["ghost"] = 5.0
        with pytest.raises(CrossRefError, match="ghost"):
            problem_from_dict(doc)


class TestRunSubcommands:
    def test_value_on_two_point(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        bundle = run(problem, "value")
        assert bundle.exit_code == 0
        csv = bundle.files["production.csv"]
        root_row = [line for line in csv.splitlines() if line.startswith("root,")][0]
        assert ",99.128540305," in root_row

    def test_check_reports_violation_with_exit_zero(self):
        problem = load_config(str(CONFIGS / "inconsistent_market.json"))
        bundle = run(problem, "check")
        assert bundle.exit_code == 0
        doc = json.loads(bundle.files["check.json"])
        root = doc["consistency"]["used_subspace"]["root"]
        assert root["consistent"] is False
        assert len(root["violation"]) == 2

    def test_check_reports_violation_under_state_prices(self, tmp_path, capsys):
        """Under a state-price condition the inconsistent market has no
        state prices for the homogeneity audit's first year: check
        reports the violations with that audit not evaluated, and value
        keeps its error."""
        doc = json.loads((CONFIGS / "inconsistent_market.json").read_text())
        doc["financiability"] = {"type": "state_price"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = ["--config", str(config), "--output-dir"]
        assert main(["check", *argv, str(tmp_path / "check")]) == 0
        report = json.loads((tmp_path / "check" / "check.json").read_text())
        assert report["consistency"]["used_subspace"]["root"]["consistent"] is False
        assert report["audits"]["positive_homogeneity"] == {"max_deviation": None, "passed": None}
        capsys.readouterr()
        assert main(["value", *argv, str(tmp_path / "value")]) == 1
        assert capsys.readouterr().err == "error: no weights at inconsistent node 1\n"
        assert not (tmp_path / "value").exists()

    def test_value_infeasible_family_exits_two(self):
        # risk-free family with no bond in the market: nothing can fund.
        doc = json.loads((CONFIGS / "inconsistent_market.json").read_text())
        doc["engine"] = {"mode": "B", "family": {"type": "risk_free"}}
        doc["liability"] = {"outflows": {"u1": 10.0, "d1": 10.0}}
        problem = problem_from_dict(doc)
        bundle = run(problem, "value")
        assert bundle.exit_code == 2
        assert "inf" in bundle.files["production.csv"]

    def test_solvency_stages(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        for stage in (1, 2, 3):
            bundle = run(problem, "solvency", stage=stage)
            doc = json.loads(bundle.files["solvency.json"])
            assert doc["stage"] == stage
            row = doc["rows"][0]
            assert row["bel"] + row["rm"] == pytest.approx(99.128540305, abs=1e-8)

    def test_adjust_on_clean_instance(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        bundle = run(problem, "adjust")
        assert bundle.exit_code == 0
        doc = json.loads(bundle.files["adjust.json"])
        assert doc["revalidation_ok"] is True
        assert all(r["lambda"] in (1.0, None) for r in doc["rows"])


GOLDEN_TWO_POINT_CSV = (
    "node,date,vbar,capital,assets,liabilities,failure,params\n"
    "root,0,99.128540305,18.518518519,,,,risk_free;s=117.647058824\n"
    "lo,1,0.000000000,,120.000000000,80.000000000,none,\n"
    "hi,1,0.000000000,,120.000000000,120.000000000,none,\n"
)


class TestDeterminismAndRoundTrip:
    def test_two_point_csv_matches_golden_bytes(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        assert run(problem, "value").files["production.csv"] == GOLDEN_TWO_POINT_CSV

    def test_byte_identical_runs(self):
        problem1 = load_config(str(CONFIGS / "two_point.json"))
        problem2 = load_config(str(CONFIGS / "two_point.json"))
        for sub in ("value", "solvency", "check", "adjust"):
            b1 = run(problem1, sub)
            b2 = run(problem2, sub)
            assert b1.files == b2.files

    def test_round_trip_preserves_value(self):
        problem = load_config(str(CONFIGS / "two_point.json"))
        doc = problem_to_dict(problem)
        reloaded = problem_from_dict(doc)
        a = run(problem, "value").files["production.csv"]
        b = run(reloaded, "value").files["production.csv"]
        assert a == b


def test_main_writes_files(tmp_path):
    code = main(
        [
            "value",
            "--config",
            str(CONFIGS / "two_point.json"),
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "production.csv").exists()
    assert (tmp_path / "metadata.json").exists()


@pytest.mark.parametrize(
    "below, reason", [("", "File exists"), ("sub", "Not a directory")], ids=["file", "below_file"]
)
def test_unusable_output_dir_is_one_error_line(below, reason, tmp_path, capsys):
    blocker = tmp_path / "reports"
    blocker.write_text("not a directory")
    out = blocker / below if below else blocker
    argv = ["value", "--config", str(CONFIGS / "two_point.json"), "--output-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write reports to '{out}': {reason}\n"
    assert captured.out == ""
    assert blocker.read_text() == "not a directory"


def test_main_error_exit(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    missing.write_text("{}")
    code = main(["value", "--config", str(missing)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, code", [(None, 0), ("{}", 1)], ids=["valued", "rejected"])
def test_main_advises_no_huge_pages_during_the_call(text, code, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(text or (CONFIGS / "two_point.json").read_text())
    during = []

    def loading(path):
        during.append(cli._set_madvise_hugepage(False))
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", loading)
    before = cli._set_madvise_hugepage(True)
    try:
        assert main(["value", "--config", str(config), "--output-dir", str(tmp_path)]) == code
        assert during == [False]
        assert cli._set_madvise_hugepage(True) is True  # restored on return
    finally:
        cli._set_madvise_hugepage(before)


@pytest.mark.parametrize("text, code", [(None, 0), ("{}", 1)], ids=["valued", "rejected"])
def test_main_fixes_the_mmap_threshold_before_loading(text, code, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(text or (CONFIGS / "two_point.json").read_text())
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    def loading(path):
        calls.append("load")
        return load_config(path)

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(cli, "load_config", loading)
    assert main(["value", "--config", str(config), "--output-dir", str(tmp_path)]) == code
    # M_MMAP_THRESHOLD is -3 in glibc's malloc.h.
    assert calls == [(-3, 4 << 20), "load"]


def test_mmap_threshold_is_left_alone_without_mallopt(tmp_path, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    config = str(CONFIGS / "two_point.json")
    assert main(["value", "--config", config, "--output-dir", str(tmp_path)]) == 0


# Frees a 26 MiB block, then tells whether a new 5 MiB block lies in the
# brk heap; with argument 1, after cli fixed the mmap threshold.
_HEAP_PROBE = """
import ctypes, sys
from prodval import cli
if sys.argv[1] == "1":
    cli._fix_mmap_threshold()
big = bytes(26 << 20)
del big
block = bytearray(5 << 20)
at = ctypes.addressof(ctypes.c_char.from_buffer(block))
for line in open("/proc/self/maps"):
    if line.rstrip().endswith("[heap]"):
        lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
        print(lo <= at < hi)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")
def test_fixed_mmap_threshold_keeps_large_blocks_out_of_the_heap():
    def in_heap(fixed):
        out = subprocess.run(
            [sys.executable, "-c", _HEAP_PROBE, str(int(fixed))],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.split()

    assert in_heap(False) == ["True"]  # glibc raised its threshold past 5 MiB
    assert in_heap(True) == ["False"]


@pytest.mark.parametrize("price, cause", [(-0.5, ValueError), (None, TypeError)])
def test_invalid_price_is_one_error_line(price, cause, tmp_path, capsys):
    doc = two_point_doc()
    doc["market"]["tradables"][0]["prices"]["mid"] = price
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main(["value", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(SchemaViolation) as raised:
        load_config(str(config))
    assert isinstance(raised.value.__cause__, cause)


def _set(doc, flows, label, value):
    doc["market"]["tradables"][0][flows][label] = value
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: _set(doc, "prices", "mid", -0.5),
            "negative price or inflow at node 'mid'",
        ),
        (
            lambda doc: _set(doc, "prices", "mid", 0.0),
            "price vector is identically zero at node 'mid'",
        ),
        (
            lambda doc: _set(doc, "inflows", "hi", 0.5),
            "tradable 0 flagged as period-0 bond must have price 0 and inflow 1 "
            "at date 1, not at node 'hi'",
        ),
    ],
)
def test_market_errors_name_the_config_label(edit, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edit(two_point_doc())))
    code = main(["value", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"


@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file or directory"), (b"\xff\xfe{}", "is not UTF-8")],
    ids=["missing", "not_utf8"],
)
def test_unreadable_config_is_one_error_line(content, reason, tmp_path, capsys):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    code = main(["value", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(config)) in err and reason in err
    with pytest.raises(ParseError):
        load_config(str(config))


def _explicit(assignments, initial=None):
    strategy = {"assignments": assignments}
    if initial is not None:
        strategy["initial"] = initial
    return {"mode": "B", "family": {"type": "explicit", "strategy": strategy}}


@pytest.mark.parametrize(
    "section, edit, message",
    [
        (
            "prices",
            lambda doc: _set(doc, "prices", "mid", math.nan),
            "market.tradables[0].prices has non-finite value nan at node 'mid'",
        ),
        (
            "inflows",
            lambda doc: _set(doc, "inflows", "hi", math.inf),
            "market.tradables[0].inflows has non-finite value inf at node 'hi'",
        ),
        (
            "liability.outflows",
            lambda doc: doc["liability"]["outflows"].update(lo=-math.inf),
            "liability.outflows has non-finite value -inf at node 'lo'",
        ),
        (
            "liability.inflows",
            lambda doc: doc["liability"].update(inflows={"hi": math.nan}),
            "liability.inflows has non-finite value nan at node 'hi'",
        ),
        (
            "liability.terminal",
            lambda doc: doc["liability"].update(terminal={"lo": 1.0, "hi": math.inf}),
            "liability.terminal has non-finite value inf at node 'hi'",
        ),
        (
            "illiquid.inflows",
            lambda doc: doc.update(illiquid={"inflows": {"lo": math.nan}}),
            "illiquid.inflows has non-finite value nan at node 'lo'",
        ),
        (
            "strategy.assignments",
            lambda doc: doc.update(engine=_explicit({"root": [1.0], "mid": [math.nan]})),
            "engine.family.strategy.assignments has non-finite units at node 'mid'",
        ),
        (
            "strategy.initial",
            lambda doc: doc.update(engine=_explicit({}, {"root": [-math.inf]})),
            "engine.family.strategy.initial has non-finite units at node 'root'",
        ),
    ],
)
def test_non_finite_inputs_name_section_and_node(section, edit, message, tmp_path, capsys):
    doc = two_point_doc()
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))  # NaN and Infinity literals, as json.loads reads them
    code = main(["value", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        problem_from_dict(doc)


def _units(**by_label):
    """Explicit-strategy assignments on the two_point tree: one bond unit
    at every node, except where given."""
    return dict({"root": [1.0], "mid": [1.0], "lo": [0.0], "hi": [0.0]}, **by_label)


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc.update(engine=_explicit({"root": [1.0], "lo": [0.0], "hi": [0.0]})),
            "engine.family.strategy.assignments has no units at node 'mid'",
        ),
        (
            lambda doc: doc.update(
                engine=_explicit({lab: [1.0, 0.0] for lab in ("root", "mid", "lo", "hi")})
            ),
            "engine.family.strategy.assignments needs one unit per tradable (1) at node 'root'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(mid=[1.0, 2.0]))),
            "engine.family.strategy.assignments needs one unit per tradable (1) at node 'mid'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(lo=1.0))),
            "engine.family.strategy.assignments needs one unit per tradable (1) at node 'lo'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(mid=[-1.0]))),
            "engine.family.strategy.assignments has a negative unit at node 'mid'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(hi=["one"]))),
            "engine.family.strategy.assignments has a non-numeric unit at node 'hi'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(), {"root": [1.0, 1.0]})),
            "engine.family.strategy.initial needs one unit per tradable (1) at node 'root'",
        ),
        (
            lambda doc: doc.update(engine=_explicit(_units(), {"root": [-5.0]})),
            "engine.family.strategy.initial has a negative unit at node 'root'",
        ),
        (
            lambda doc: doc.update(engine=_explicit([[1.0]] * 4)),
            "engine.family.strategy.assignments must map node labels to unit vectors",
        ),
    ],
    ids=["missing", "length", "ragged", "not_a_list", "negative", "non_numeric",
         "initial_length", "initial_negative", "not_a_map"],
)
def test_explicit_strategy_errors_name_section_and_node(edit, message, tmp_path, capsys):
    doc = two_point_doc()
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main(["value", "--config", str(config), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        problem_from_dict(doc)


def test_explicit_strategy_unknown_label_is_a_cross_reference_error():
    doc = dict(two_point_doc(), engine=_explicit(_units(ghost=[1.0])))
    with pytest.raises(
        CrossRefError,
        match=r"^engine\.family\.strategy\.assignments references unknown node 'ghost'$",
    ):
        problem_from_dict(doc)


def test_explicit_strategy_config_values_its_units():
    doc = dict(two_point_doc(), engine=_explicit(_units(), {"root": [0.5]}))
    problem = problem_from_dict(doc)
    base = problem.engine.family.base
    assert base.assignment.tolist() == [[1.0], [1.0], [0.0], [0.0]]
    assert base.initial.tolist() == [[0.5], [0.0], [0.0], [0.0]]
    assert run(problem, "value").exit_code == 0


def test_round_trip_drops_explicit_zero_flows():
    """A liability listing explicit zeros reloads to an equal problem;
    the dump lists each section's nonzero entries in node order, so the
    in-memory digest is the same on the second round trip."""
    doc = two_point_doc()
    doc["liability"] = {
        "outflows": {"hi": 120.0, "root": 0.0, "lo": 80.0, "mid": 0.0},
        "inflows": {"mid": 0.0},
        "terminal": {"hi": 0.0, "lo": 5.0},
    }
    doc["illiquid"] = {"inflows": {"lo": 0.0, "mid": 2.0}}
    problem = problem_from_dict(doc)
    dumped = problem_to_dict(problem)
    assert dumped["liability"] == {
        "outflows": {"lo": 80.0, "hi": 120.0},
        "inflows": {},
        "terminal": {"lo": 5.0},
    }
    assert dumped["illiquid"] == {"inflows": {"mid": 2.0}}
    reloaded = problem_from_dict(json.loads(json.dumps(dumped)))
    for (name, want), (_, got) in zip(
        problem.liability.sections(), reloaded.liability.sections()
    ):
        assert got.tolist() == want.tolist(), name
    assert reloaded.illiquid.inflows.tolist() == problem.illiquid.inflows.tolist()
    assert problem_to_dict(reloaded) == dumped
    assert reloaded.config_sha256 == problem.config_sha256
    for subcommand in ("value", "solvency", "adjust"):
        assert run(reloaded, subcommand).files == run(problem, subcommand).files


def test_market_rejects_non_finite_prices():
    problem = load_config(str(CONFIGS / "two_point.json"))
    prices = problem.market.prices.copy()
    prices[1, 0] = math.nan
    with pytest.raises(ValueError, match="^non-finite price or inflow at node 'mid'$"):
        TradableSet(problem.tree, prices, problem.market.inflows, problem.market.bond_periods)


PLAIN_TYPES = (bool, int, float, str, type(None))


def non_plain_values(obj, path="$"):
    """Paths of every value (or key) that is not exactly a plain JSON type,
    such as a numpy scalar."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if type(key) is not str:
                yield f"{path} key {key!r}", type(key)
            yield from non_plain_values(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from non_plain_values(value, f"{path}[{i}]")
    elif type(obj) not in PLAIN_TYPES:
        yield path, type(obj)


def generated_problem(**overrides):
    doc = dict(generated_config(7, 2, 2), **overrides)
    return problem_from_dict(doc)


class TestPlainReportValues:
    """Reports and the serialized config carry no numpy scalars, which
    json.dumps either rejects (numpy.bool_) or could format differently."""

    CASES = {
        "check": {"restriction": {"indices": [0, 2, 3]}},
        "solvency": {},
        "adjust": {"fulfillment": {"type": "var", "alpha": 0.2}},
    }

    @pytest.mark.parametrize("subcommand", sorted(CASES))
    def test_json_reports_hold_plain_values(self, subcommand, monkeypatch):
        seen = []
        original = cli._json_text

        def recording(obj):
            seen.append(obj)
            return original(obj)

        monkeypatch.setattr(cli, "_json_text", recording)
        problem = generated_problem(**self.CASES[subcommand])
        bundle = run(problem, subcommand)
        assert bundle.exit_code == 0
        assert len(seen) == 2  # the report and metadata.json
        for obj in seen:
            assert list(non_plain_values(obj)) == []

    @pytest.mark.parametrize("config", ["two_point", "inconsistent_market", None])
    def test_problem_to_dict_holds_plain_values(self, config):
        if config is None:
            problem = generated_problem()
        else:
            problem = load_config(str(CONFIGS / f"{config}.json"))
        assert list(non_plain_values(problem_to_dict(problem))) == []

    @pytest.mark.parametrize("subcommand", ["value", "solvency", "check", "adjust"])
    def test_round_trip_reproduces_reports(self, subcommand, tmp_path):
        overrides = {"restriction": {"indices": [0, 2, 3]}}
        if subcommand == "adjust":
            overrides["fulfillment"] = {"type": "var", "alpha": 0.2}
        problem = generated_problem(**overrides)
        blob = json.dumps(problem_to_dict(problem), indent=1).encode()
        config = tmp_path / "config.json"
        config.write_bytes(blob)
        reloaded = load_config(str(config))
        before = run(problem, subcommand).files
        after = run(reloaded, subcommand).files
        # A loaded config's metadata.json carries the sha256 of the file's
        # bytes; every report proper must be identical.
        meta = json.loads(after.pop("metadata.json"))
        assert meta["config_sha256"] == hashlib.sha256(blob).hexdigest()
        assert json.loads(before.pop("metadata.json")) == dict(
            meta, config_sha256=problem.config_sha256
        )
        assert before and before == after
        # In memory the digest is that of the canonical problem_to_dict
        # dump, which the round trip keeps: every file is identical.
        again = problem_from_dict(json.loads(json.dumps(problem_to_dict(reloaded))))
        assert again.config_sha256 == problem.config_sha256
        assert run(again, subcommand).files == run(problem, subcommand).files


@pytest.mark.parametrize(
    "financiability, restricted",
    [("state_price", False), ("state_price", True), ("coc", True)],
)
def test_check_certifies_each_subspace_once(financiability, restricted, monkeypatch):
    """Under state_price the used subspace's certificate is the one the
    financiability condition holds; check does not compute it again."""
    overrides = {"financiability": {"type": financiability}}
    if restricted:
        overrides["restriction"] = {"indices": [0, 2, 3]}
    problem = generated_problem(**overrides)
    calls = []
    original = market.check_consistency

    def counting(mkt, tree, restriction=None):
        calls.append(restriction)
        return original(mkt, tree, restriction)

    # financiability_of looks the function up in prodval.market.
    monkeypatch.setattr(market, "check_consistency", counting)
    monkeypatch.setattr(cli, "check_consistency", counting)
    assert run(problem, "check").exit_code == 0
    assert calls == ([problem.restriction, None] if restricted else [None])


@pytest.mark.parametrize("subcommand", ["value", "check"])
@pytest.mark.parametrize(
    "restriction",
    [{"indices": [7]}, {"indices": []}, {"indices": [-1]}, {"indices": [0.5]},
     {"indices": [0, 0]}, {"basis": [[1.0, 2.0]]}, {"basis": [[math.nan]]}],
    ids=["out_of_range", "empty", "negative", "fractional", "repeated", "basis_length",
         "basis_nan"],
)
def test_bad_restriction_is_one_error_line(subcommand, restriction, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(two_point_doc(), restriction=restriction)))
    code = main([subcommand, "--config", str(config), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: restriction: ") and err.count("\n") == 1
    with pytest.raises(SchemaViolation, match="^restriction: "):
        load_config(str(config))


def _nodes(doc):
    return doc["tree"]["nodes"]


def _family(**family):
    return lambda doc: doc["engine"].update(family=family)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _nodes(doc)[2].pop("id"), "tree.nodes[2] has no 'id'"),
        (lambda doc: _nodes(doc)[1].pop("date"), "tree.nodes[1] has no 'date'"),
        (lambda doc: doc["tree"].update(nodes={"root": _nodes(doc)[0]}),
         "tree.nodes must be a list of node objects"),
        (lambda doc: _nodes(doc).__setitem__(3, "hi"), "tree.nodes[3] must be an object, not str"),
        (lambda doc: doc["market"]["tradables"][0].update(prices=[0.98, 0.99, 0.0, 0.0]),
         "market.tradables[0].prices must map node labels to numbers, not list"),
        (lambda doc: doc["market"]["tradables"][0].update(inflows=[1.0, 1.0]),
         "market.tradables[0].inflows must map node labels to numbers, not list"),
        (lambda doc: doc["market"]["tradables"].__setitem__(0, [0.98]),
         "market.tradables[0] must be an object, not list"),
        (lambda doc: doc["liability"].update(outflows=[80.0, 120.0]),
         "liability.outflows must map node labels to numbers, not list"),
        (lambda doc: doc["liability"].update(terminal=[1.0]),
         "liability.terminal must map node labels to numbers, not list"),
        (lambda doc: doc.update(liability=[]), "liability must be an object, not list"),
        (lambda doc: doc.update(illiquid=[{"lo": 1.0}]), "illiquid must be an object, not list"),
        (lambda doc: doc.update(illiquid={"inflows": [1.0]}),
         "illiquid.inflows must map node labels to numbers, not list"),
        (_family(type="fixed_mix", indices=[5]),
         "engine.family: index 5 is not a tradable index (0 to 0)"),
        (_family(type="fixed_mix", indices=[0, 0]), "engine.family: index 0 is given twice"),
        (_family(type="fixed_mix", indices=[]),
         "engine.family: indices must name at least one tradable"),
        (_family(type="fixed_mix", indices=["0"]), "engine.family: index '0' is not an integer"),
        (_family(type="fixed_mix", indices=[0.0]), "engine.family: index 0.0 is not an integer"),
        (_family(type="fixed_mix", indices=0), "engine.family: indices must be a list"),
        (lambda doc: _nodes(doc)[2].update(p="x"), "tree.nodes[2].p must be a number, not 'x'"),
        (lambda doc: _nodes(doc)[2].update(date="x"),
         "tree.nodes[2].date must be a date, not 'x'"),
        (lambda doc: _nodes(doc)[2].update(id=["x"]),
         "tree.nodes[2].id must be a string or a number, not ['x']"),
        (lambda doc: _nodes(doc)[2].update(parent=["mid"]),
         "tree.nodes[2].parent must be a node id, not ['mid']"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period="x"),
         "market.tradables[0].bond_period must be an integer, not 'x'"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period=0.5),
         "market.tradables[0].bond_period must be an integer, not 0.5"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period=0.0),
         "market.tradables[0].bond_period must be an integer, not 0.0"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period="0"),
         "market.tradables[0].bond_period must be an integer, not '0'"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period=True),
         "market.tradables[0].bond_period must be an integer, not True"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period=1),
         "market.tradables[0].bond_period must be a period from 0 to 0, not 1"),
        (lambda doc: doc["market"]["tradables"][0].update(bond_period=-1),
         "market.tradables[0].bond_period must be a period from 0 to 0, not -1"),
        (lambda doc: doc["engine"].update(mode=None), "engine.mode must be 'A' or 'B', got None"),
        (lambda doc: doc["engine"].update(mode="b"), "engine.mode must be 'A' or 'B', got 'b'"),
        (lambda doc: doc["engine"].update(mode=["A"]),
         "engine.mode must be 'A' or 'B', got ['A']"),
        (lambda doc: doc.update(engine=[]), "engine must be an object, not list"),
        (lambda doc: doc["engine"].update(family=[]), "engine.family must be an object, not list"),
        (lambda doc: doc["engine"].update(tolerances=[1e-10]),
         "engine.tolerances must be an object, not list"),
        (lambda doc: doc.update(financiability=[]), "financiability must be an object, not list"),
        (lambda doc: doc["financiability"].update(eta="x"),
         "financiability.eta must be a finite number >= 0, not 'x'"),
        (lambda doc: doc["financiability"].update(eta=True),
         "financiability.eta must be a finite number >= 0, not True"),
        (lambda doc: doc["financiability"].update(eta=math.inf),
         "financiability.eta must be a finite number >= 0, not inf"),
        (lambda doc: doc["financiability"].update(eta=-0.01),
         "financiability.eta must be a finite number >= 0, not -0.01"),
        (_family(type="risk_free", grid_depth=-1),
         "engine.family.grid_depth must be an integer >= 0, not -1"),
        (_family(type="fixed_mix", grid_depth="2"),
         "engine.family.grid_depth must be an integer >= 0, not '2'"),
        (_family(type="fixed_mix", grid_depth=2.5),
         "engine.family.grid_depth must be an integer >= 0, not 2.5"),
        (_family(type="fixed_mix", grid_depth=True),
         "engine.family.grid_depth must be an integer >= 0, not True"),
        (lambda doc: doc["engine"].update(tolerances={"bisection": 0}),
         "engine.tolerances.bisection must be a finite number > 0, not 0"),
        (lambda doc: doc["engine"].update(tolerances={"bisection": -1}),
         "engine.tolerances.bisection must be a finite number > 0, not -1"),
        (lambda doc: doc["engine"].update(tolerances={"bisection": math.nan}),
         "engine.tolerances.bisection must be a finite number > 0, not nan"),
        (lambda doc: doc["engine"].update(tolerances={"bisection": False}),
         "engine.tolerances.bisection must be a finite number > 0, not False"),
        (lambda doc: doc.update(fulfillment=[]), "fulfillment must be an object, not list"),
        (lambda doc: doc.update(fulfillment={"type": "prob", "p": True}),
         "fulfillment.p must be a number in (0, 1], not True"),
        (lambda doc: doc.update(fulfillment={"type": "prob", "p": 0}),
         "fulfillment.p must be a number in (0, 1], not 0"),
        (lambda doc: doc.update(fulfillment={"type": "prob", "p": 1.5}),
         "fulfillment.p must be a number in (0, 1], not 1.5"),
        (lambda doc: doc.update(fulfillment={"type": "var", "alpha": True}),
         "fulfillment.alpha must be a number in (0, 1), not True"),
        (lambda doc: doc.update(fulfillment={"type": "es", "alpha": "0.01"}),
         "fulfillment.alpha must be a number in (0, 1), not '0.01'"),
        (lambda doc: doc.update(fulfillment={"type": "var", "alpha": 1}),
         "fulfillment.alpha must be a number in (0, 1), not 1"),
        (lambda doc: doc.update(fulfillment={"type": "es", "alpha": math.nan}),
         "fulfillment.alpha must be a number in (0, 1), not nan"),
        (lambda doc: doc["market"].update(close_out="no"),
         "market.close_out must be true or false, not 'no'"),
        (lambda doc: doc["market"].update(close_out=1),
         "market.close_out must be true or false, not 1"),
        (lambda doc: doc["market"].update(close_out=None),
         "market.close_out must be true or false, not None"),
        (lambda doc: doc["grid"].update(T=True), "grid.T must be an integer, not True"),
        (lambda doc: doc["grid"].update(T=1.5), "grid.T must be an integer, not 1.5"),
    ],
    ids=[
        "node_without_id", "node_without_date", "nodes_not_a_list", "node_not_an_object",
        "prices_as_list", "inflows_as_list", "tradable_as_list", "outflows_as_list",
        "terminal_as_list", "liability_as_list", "illiquid_as_list", "illiquid_inflows_as_list",
        "mix_index_out_of_range", "mix_index_repeated", "mix_indices_empty",
        "mix_index_string", "mix_index_float", "mix_indices_not_a_list",
        "probability_not_a_number", "date_not_a_date", "id_not_hashable",
        "parent_not_hashable", "bond_period_not_an_integer", "bond_period_fraction",
        "bond_period_float", "bond_period_string", "bond_period_boolean",
        "bond_period_at_horizon", "bond_period_negative", "mode_null", "mode_lower_case",
        "mode_list", "engine_as_list",
        "family_as_list", "tolerances_as_list", "financiability_as_list", "eta_not_a_number",
        "eta_boolean", "eta_infinite", "eta_negative", "grid_depth_negative",
        "grid_depth_string", "grid_depth_fraction", "grid_depth_boolean", "bisection_zero",
        "bisection_negative", "bisection_nan", "bisection_boolean", "fulfillment_as_list",
        "p_boolean", "p_zero", "p_above_one", "alpha_boolean", "alpha_string", "alpha_one",
        "alpha_nan", "close_out_string", "close_out_number", "close_out_null", "horizon_boolean",
        "horizon_fraction",
    ],
)
def test_malformed_input_is_one_error_line(edit, message, tmp_path, capsys):
    doc = two_point_doc()
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["value", "--config", str(config), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$"):
        problem_from_dict(doc)


@pytest.mark.parametrize(
    "engine, financiability",
    [({"family": {"type": "fixed_mix", "grid_depth": 0}}, {"type": "coc", "eta": 0}),
     ({"tolerances": {"bisection": 1}}, {"type": "coc", "eta": 1.5}),
     ({}, {"type": "zero", "eta": "unused"})],
)
def test_edge_values_load(engine, financiability):
    """grid_depth 0, integer eta and bisection tolerances load; eta is
    read only under the cost-of-capital condition."""
    doc = two_point_doc()
    doc.update(engine=engine, financiability=financiability)
    problem = problem_from_dict(doc)
    assert problem.engine.grid_depth == engine.get("family", {}).get("grid_depth", 3)
    assert problem.engine.bisection_tol == engine.get("tolerances", {}).get("bisection", 1e-10)


@pytest.mark.parametrize(
    "fulfillment, want",
    [({"type": "prob", "p": 1}, FulfillmentSpec.probability(1.0)),
     ({"type": "prob", "p": 0.9}, FulfillmentSpec.probability(0.9)),
     ({"type": "es", "alpha": 0.01}, FulfillmentSpec.es(0.01))],
)
def test_fulfillment_levels_load(fulfillment, want):
    """An integer p of 1 is full fulfillment in probability; levels load
    as floats."""
    doc = two_point_doc()
    doc.update(fulfillment=fulfillment)
    doc["market"]["close_out"] = True
    problem = problem_from_dict(doc)
    assert problem.fulfillment == want
    assert problem.market.close_out is True


@pytest.mark.parametrize("family", [{"indices": [0]}, {}])
def test_valid_fixed_mix_indices_load(family):
    doc = two_point_doc()
    doc["engine"]["family"] = dict(family, type="fixed_mix")
    problem = problem_from_dict(doc)
    assert problem.engine.family.mix_indices == (0,)
    assert "fixed_mix;w=0:1.000000000;s=" in run(problem, "value").files["production.csv"]
