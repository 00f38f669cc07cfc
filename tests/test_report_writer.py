"""The CLI's per-date report formatting, against the node-by-node
reference.

The ``value``, ``solvency`` and ``adjust`` reports, and ``check``'s,
must equal, file for file, the node-by-node formatting frozen in
``report_reference`` (whose JSON is ``json.dumps``), on generated
problems that reach every kind of field: infeasible nodes (``inf`` and
``infeasible``), fixed-mix and explicit parameters, leaves without
capital, mode A balance sheets, write-downs, inconsistent nodes,
restricted certificates, optimal and by-construction audits flagged and
not, and labels that JSON escapes. On the same problems every JSON
report must be ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
newline of the document it parses to. Check's other audit statuses are
held to the audit LP in ``test_audit_rays.py``.

The pieces those reports are written with are held to ``json.dumps``
on their own: ``_report_text`` of a document's leaves and its rows'
texts, ``_float_texts`` of a float array, and ``_json_text``.
"""

import json
import math
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import report_reference as ref
from prodval.cli import _float_texts, _json_text, _report_text, _round, run
from prodval.config import problem_from_dict
from prodval.errors import ProdvalError
from util import generated_config


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- the writer ----------------------------------------------------------------

TEXT = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\%\n\t\x00\x1f\x7f\u2028é☃')
)
FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 9))
    | st.sampled_from([0.0, -0.0, 1e16, -1e16, 1e-7, 0.1, 1.0, 123456789.123456789])
)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | FLOATS
    | TEXT
    | st.sampled_from(["inf", "-inf"])
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=20,
)


def _row_text(row) -> str:
    """The JSON text of a row opened at nesting level 2, as the reports'
    row templates give it."""
    return textwrap.indent(json.dumps(row, sort_keys=True, indent=2), "    ")


def _assert_report_text(obj):
    doc = {key: value for key, value in obj.items() if key != "rows"}
    assert _report_text(doc, list(map(_row_text, obj["rows"]))) == dumps(obj)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    doc=st.dictionaries(TEXT.filter(lambda key: key != "rows"), LEAVES, max_size=5),
    rows=st.lists(st.dictionaries(TEXT, JSON, max_size=5), max_size=5),
    floats=st.lists(FLOATS, max_size=8),
)
def test_writer_matches_json_dumps(doc, rows, floats):
    _assert_report_text({**doc, "rows": rows})
    values = np.array(floats, dtype=float)
    rounded = [_round(x) for x in floats]
    assert "[" + ", ".join(_float_texts(values, "NaN")) + "]" == json.dumps(rounded)
    nulls = [None if isinstance(x, float) and math.isnan(x) else x for x in rounded]
    assert "[" + ", ".join(_float_texts(values, "null")) + "]" == json.dumps(nulls)
    assert _json_text({**doc, "rows": rows}) == dumps({**doc, "rows": rows})


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": []},
        {"rows": [{}]},
        {"a": None, "b": True, "c": 1, "rows": [{"x": [], "y": {}}]},
        {"rows": [{"x": 1.0}, {"x": 2.0, "y": 3.0}]},  # key sets differ
        {"%s": "%%", "rows": [{"%s": 1.0, "%(a)s": "%"}, {"%s": -0.0, "%(a)s": "%"}]},
        {"row": 1, "rowsx": 2, "a": 3, "s": 4, "rows": [{"k": 0}]},  # keys around "rows"
        {"rows": [{"n": [1, 2]}, {"n": {"k": None}}]},  # rows that are not flat
        {"rows": [{"v": [1.0, 1.0, 0.5, -0.0, 0.0, math.nan, math.inf, -math.inf]}]},
        {"t": True, "f": False, "n": None, "rows": [{"b": True, "i": 1, "z": 0, "fl": 1.0}]},
        {"é": "ü", "\u2028": "\x00", "rows": [{"é": "☃"}]},
        {"x": np.float64(0.1), "rows": [{"x": np.float64(-0.0)}]},  # float subclasses
        {"status": "inf", "rows": [{"v": "-inf"}]},
        {"x": math.nan, "y": math.inf, "z": -math.inf, "rows": []},
        {"stage": 2, "rows": [{"k": i, "label": f"n{i}"} for i in range(5)]},
        {'q"': "b\\", "rows": [{"c\x07": "\t\n"}]},  # labels that JSON escapes
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(obj):
    _assert_report_text(obj)
    assert _json_text(obj) == dumps(obj)


def test_writer_raises_what_json_dumps_raises():
    for doc in ({"x": object()}, {"x": {1, 2}}, {"x": b"bytes"}):
        with pytest.raises(TypeError):
            dumps(doc)
        with pytest.raises(TypeError):
            _json_text(doc)
        with pytest.raises(TypeError):
            _report_text(doc, [])


# --- the reports ---------------------------------------------------------------

PREFIXES = ["", 'q"', "b\\", "é", "%s", "☃", "c\x07"]


def _relabel(doc: dict, prefix: str) -> None:
    def label(old):
        return None if old is None else prefix + old

    for node in doc["tree"]["nodes"]:
        node["id"], node["parent"] = label(node["id"]), label(node["parent"])
    for tradable in doc["market"]["tradables"]:
        for section in ("prices", "inflows"):
            tradable[section] = {label(k): v for k, v in tradable[section].items()}
    for section in ("outflows", "inflows"):
        doc["liability"][section] = {label(k): v for k, v in doc["liability"][section].items()}


def _problem(seed, years, interior, family, fulfillment, no_bond, prefix, zero_price=False):
    """A generated problem: two risky assets (0 and 1) and one bond per
    year (2, 3, ...). ``no_bond`` takes the year-0 bond's flag away, so
    the risk-free family is infeasible there; the zero condition then
    stands in for the cost of capital, which needs the period rates.
    ``zero_price`` sets asset 0's price to zero at the first date-1 node:
    no mix holding asset 0 can start there, so with two or more years
    that date mixes funded and unfunded nodes."""
    doc = generated_config(seed, years, interior)
    _relabel(doc, prefix)
    if zero_price:
        first = next(node["id"] for node in doc["tree"]["nodes"] if node["date"] == "1")
        doc["market"]["tradables"][0]["prices"][first] = 0.0
    doc["fulfillment"] = fulfillment
    doc["engine"] = {"mode": "B", "family": family}
    if family["type"] == "explicit":
        n_assets = len(doc["market"]["tradables"])
        labels = [node["id"] for node in doc["tree"]["nodes"]]
        doc["engine"]["family"] = {
            "type": "explicit",
            "strategy": {"assignments": {lab: [0.0] * n_assets for lab in labels}},
        }
    if no_bond:
        del doc["market"]["tradables"][2]["bond_period"]
        doc["financiability"] = {"type": "zero"}
    return problem_from_dict(doc)


FAMILIES = [
    {"type": "risk_free"},
    {"type": "fixed_mix", "indices": [0]},
    {"type": "fixed_mix", "indices": [0, 2]},
    {"type": "fixed_mix", "indices": [2, 1, 0]},
    {"type": "explicit"},
]
FULFILLMENTS = [
    {"type": "var", "alpha": 0.005},
    {"type": "var", "alpha": 0.2},
    {"type": "full"},
    {"type": "es", "alpha": 0.1},
]


def _outcome(fn):
    try:
        return fn(), None
    except ProdvalError as e:
        return None, (type(e), str(e))


def _assert_same_reports(got, want):
    """The two calls give the same files and exit code, or raise the same
    error."""
    (got, got_error), (want, want_error) = _outcome(got), _outcome(want)
    assert got_error == want_error
    if want_error is not None:
        return
    assert got.exit_code == want.exit_code
    assert sorted(got.files) == sorted(want.files)
    for name in want.files:
        assert got.files[name] == want.files[name], name


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    years=st.integers(1, 3),
    interior=st.integers(1, 2),
    family=st.sampled_from(FAMILIES),
    fulfillment=st.sampled_from(FULFILLMENTS),
    no_bond=st.booleans(),
    prefix=st.sampled_from(PREFIXES),
    mode=st.sampled_from([None, "A", "B"]),
    zero_price=st.booleans(),
)
def test_value_report_matches_node_by_node(
    seed, years, interior, family, fulfillment, no_bond, prefix, mode, zero_price
):
    problem = _problem(seed, years, interior, family, fulfillment, no_bond, prefix, zero_price)
    _assert_same_reports(
        lambda: run(problem, "value", mode=mode), lambda: ref.run_value(problem, mode)
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    years=st.integers(1, 3),
    interior=st.integers(1, 2),
    family=st.sampled_from(FAMILIES),
    fulfillment=st.sampled_from(FULFILLMENTS),
    no_bond=st.booleans(),
    prefix=st.sampled_from(PREFIXES),
    fmt=st.sampled_from(["csv", "json", "both"]),
    zero_price=st.booleans(),
)
def test_adjust_report_matches_node_by_node(
    seed, years, interior, family, fulfillment, no_bond, prefix, fmt, zero_price
):
    problem = _problem(seed, years, interior, family, fulfillment, no_bond, prefix, zero_price)
    _assert_same_reports(
        lambda: run(problem, "adjust", fmt=fmt), lambda: ref.run_adjust(problem, fmt)
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    years=st.integers(1, 3),
    interior=st.integers(1, 2),
    fulfillment=st.sampled_from(FULFILLMENTS),
    prefix=st.sampled_from(PREFIXES),
    stage=st.sampled_from([1, 2, 3]),
    fmt=st.sampled_from(["csv", "json", "both"]),
)
def test_solvency_report_matches_node_by_node(
    seed, years, interior, fulfillment, prefix, stage, fmt
):
    problem = _problem(seed, years, interior, {"type": "risk_free"}, fulfillment, False, prefix)
    _assert_same_reports(
        lambda: run(problem, "solvency", stage=stage, fmt=fmt),
        lambda: ref.run_solvency(problem, stage, fmt),
    )


def _check_problem(seed, years, interior, financiability, restriction, mispriced, prefix):
    """A generated problem for ``check``: ``restriction`` keeps the given
    tradables; ``mispriced`` triples asset 0's price at the root, which
    puts the root outside the cone of its child payoffs."""
    doc = generated_config(seed, years, interior)
    _relabel(doc, prefix)
    doc["financiability"] = financiability
    if restriction is not None:
        doc["restriction"] = {"indices": restriction}
    if mispriced:
        root = doc["tree"]["nodes"][0]["id"]
        doc["market"]["tradables"][0]["prices"][root] *= 3.0
    return problem_from_dict(doc)


CHECK_CASES = dict(
    seed=st.integers(0, 2**16),
    years=st.integers(1, 2),
    interior=st.integers(1, 2),
    financiability=st.sampled_from(
        [{"type": "coc", "eta": 0.06}, {"type": "coc", "eta": 0.0}, {"type": "state_price"},
         {"type": "zero"}]
    ),
    restriction=st.sampled_from([None, [0, 2], [1], [0, 1]]),
    mispriced=st.booleans(),
    prefix=st.sampled_from(PREFIXES),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CHECK_CASES)
def test_check_report_matches_node_by_node(
    seed, years, interior, financiability, restriction, mispriced, prefix
):
    problem = _check_problem(
        seed, years, interior, financiability, restriction, mispriced, prefix
    )
    _assert_same_reports(lambda: run(problem, "check"), lambda: ref.run_check(problem))


def _assert_json_reports_are_canonical(fn):
    """Every JSON file of the call's reports is the ``json.dumps`` text of
    the document it parses to; a call that raises writes none."""
    bundle, error = _outcome(fn)
    for name, text in ({} if error else bundle.files).items():
        if name.endswith(".json"):
            doc = json.loads(text)
            assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n", name


# Without shrinking: each shrink step builds a problem and runs a whole
# subcommand, so a broken template would take minutes to report.
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(
    seed=st.integers(0, 2**16),
    years=st.integers(1, 3),
    interior=st.integers(1, 2),
    family=st.sampled_from(FAMILIES),
    fulfillment=st.sampled_from(FULFILLMENTS),
    prefix=st.sampled_from(PREFIXES),
    subcommand=st.sampled_from(["value", "solvency", "adjust"]),
    stage=st.sampled_from([1, 2, 3]),
)
def test_json_reports_are_json_dumps_text(
    seed, years, interior, family, fulfillment, prefix, subcommand, stage
):
    problem = _problem(seed, years, interior, family, fulfillment, False, prefix)
    _assert_json_reports_are_canonical(lambda: run(problem, subcommand, stage=stage))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CHECK_CASES)
def test_check_json_is_json_dumps_text(
    seed, years, interior, financiability, restriction, mispriced, prefix
):
    problem = _check_problem(
        seed, years, interior, financiability, restriction, mispriced, prefix
    )
    _assert_json_reports_are_canonical(lambda: run(problem, "check"))


def test_check_problems_reach_every_verdict():
    """The check generator reaches inconsistent and consistent nodes,
    inconsistent nodes in both certificates of one report, optimal and
    by-construction audits, flagged and not, unbounded audits with a null
    optimum, the homogeneity audit left not evaluated by a state-price
    bound at a mispriced root, trees whose labels sort out of node order
    (n10 before n2) and dates whose inner nodes differ in child count."""
    seen = set()
    for seed in range(4):
        for financiability in CHECK_CASES["financiability"].elements:
            for mispriced in (False, True):
                problem = _check_problem(seed, 2, 1, financiability, [0, 2], mispriced, "")
                doc = json.loads(run(problem, "check").files["check.json"])
                if doc["audits"]["positive_homogeneity"]["passed"] is None:
                    seen.add("not_evaluated")
                inconsistent = set()
                for name, certificate in doc["consistency"].items():
                    if isinstance(certificate, dict):
                        verdicts = {entry["consistent"] for entry in certificate.values()}
                        seen |= verdicts
                        if False in verdicts:
                            inconsistent.add(name)
                if inconsistent == {"used_subspace", "full_space"}:
                    seen.add("inconsistent_in_both")
                for kind in ("consistency_with_tradables", "neutrality_to_tradables"):
                    audits = doc["audits"][kind]["per_node"].values()
                    seen |= {(a["status"], a["flagged"]) for a in audits}
                    seen |= {
                        "unbounded_null" for a in audits
                        if a["status"] == "unbounded" and a["optimum"] is None
                    }
                tree = problem.tree
                inner = tree.labels[: tree.n_inner]
                if list(doc["consistency"]["used_subspace"]) != list(inner):
                    seen.add("labels_out_of_node_order")
                for nodes in tree.by_date[:-1]:
                    if len({len(tree.children_of(node)) for node in nodes}) > 1:
                        seen.add("mixed_child_counts")
    assert seen >= {
        True, False, "not_evaluated", ("optimal", False), ("optimal", True),
        ("by_construction", False), ("by_construction", True), "unbounded_null",
        "inconsistent_in_both", "labels_out_of_node_order", "mixed_child_counts",
    }


def test_generated_problems_reach_every_field():
    """The generators above reach the fields the differential tests are
    for: each parameter kind, inf and failures in production.csv, dates
    whose rows mix funded nodes and nodes without capital, and
    write-downs in adjust.csv."""
    seen = set()
    for seed in range(6):
        for family in FAMILIES:
            for no_bond, zero_price in ((False, False), (True, False), (False, True)):
                problem = _problem(
                    seed, 2, 1, family, {"type": "var", "alpha": 0.2}, no_bond, "", zero_price
                )
                text = run(problem, "value", mode="A").files["production.csv"]
                fields = [line.split(",") for line in text.splitlines()[1:]]
                seen |= {f[-1].split(";")[0] for f in fields}
                seen |= {"inf"} & {f[2] for f in fields}
                seen |= {f[6] for f in fields}
                blank = {}
                for f in fields:
                    blank.setdefault(f[1], set()).add(f[3] == "")
                if {True, False} in blank.values():
                    seen.add("mixed_date")
                if no_bond:
                    continue
                adjust = run(problem, "adjust").files.get("adjust.csv", "")
                if any(line.split(",")[2] != "1.000000000" for line in adjust.splitlines()[1:]):
                    seen.add("written_down")
    assert seen >= {
        "", "risk_free", "fixed_mix", "explicit", "infeasible", "inf",
        "none", "default", "written_down", "mixed_date",
    }
