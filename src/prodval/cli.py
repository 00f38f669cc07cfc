"""Batch front door: subcommand dispatch and report serialization.

Subcommands: value (production-cost CSV), solvency (CSV/JSON per stage),
check (consistency certificate and financiability audits, JSON), adjust
(write-down factors and re-validation, CSV/JSON). Reports are
deterministic byte-for-byte for identical configs: fixed field order and
9-decimal formatting; run metadata carries the config hash but no
timings. Exit code 0 on success, 2 when a valuation is infeasible, 1 on
any error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from . import __version__
from .conditions import (
    AUDIT_STATUSES,
    HOMOGENEITY_SCALES,
    audit_consistency_with_tradables,
    audit_neutrality_to_tradables,
    audit_positive_homogeneity,
    flat_rates,
    period_rates_from_market,
    root_homogeneity_payoffs,
    tradable_cone_facts,
)
from .config import ValuationProblem, financiability_of, load_config
from .engine import (
    FAILURE_KINDS,
    ProductionCostProcess,
    backward_value,
)
from .errors import NoBondAvailable, ProdvalError, SchemaViolation
from .market import check_consistency
from .resolution import extend_to_full_fulfillment
from .risk import RiskMeasureSpec
from .solvency import RateCurve, multi_period_solvency

try:  # numpy >= 2
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import _set_madvise_hugepage


def _fmt(x: float) -> str:
    # Infinities format as "inf" and "-inf".
    return f"{x:.9f}"


def _round(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return round(x, 9)
    return x


# --- JSON text ---------------------------------------------------------------
#
# A JSON report is ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
# newline, byte for byte. The small documents (metadata.json, check's
# homogeneity audit) are written by json.dumps itself (``_json_text``).
# solvency.json, adjust.json and check.json are written straight from
# the node arrays: each float array is rounded and encoded at once
# (``_float_texts``), each label JSON-encoded (``_json_labels``), and
# each kind of row or entry rendered from one ``%``-template whose keys
# are in ``sort_keys`` order, the labels passed in as ``%s`` arguments.


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _float_texts(values: np.ndarray, nan: str) -> np.ndarray:
    """An object array of the JSON text of each value as ``_round`` gives
    it: rounded to 9 decimals, the strings "inf"/"-inf" at the
    infinities, and ``nan`` where a value is NaN."""
    texts = np.full(values.shape, nan, dtype=object)
    finite = np.isfinite(values)
    texts[finite] = list(map(float.__repr__, map(round, values[finite].tolist(), repeat(9))))
    texts[values == math.inf] = '"inf"'
    texts[values == -math.inf] = '"-inf"'
    return texts


def _json_labels(labels) -> np.ndarray:
    """An object array of the JSON text of each label."""
    return np.array(list(map(encode_basestring_ascii, labels)), dtype=object)


def _report_text(doc: dict, rows: list) -> str:
    """``_json_text`` of ``doc`` with ``rows`` under "rows": ``doc``'s
    values are leaves, and ``rows`` holds the JSON text of each row,
    opened at nesting level 2."""
    texts = {key: json.dumps(value) for key, value in doc.items()}
    texts["rows"] = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    items = (f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts))
    return "{\n" + ",\n".join(items) + "\n}\n"


def _head_text(head: tuple) -> str:
    """The ``production.csv`` params field of a node's parameters but the
    scale: empty where no step ran, ``infeasible``, or the variant and a
    fixed mix's weights, each followed by ``;``."""
    if head in ((), ("infeasible",)):
        return "".join(head)
    text = head[0] + ";"
    if len(head) > 1:
        text += "w=" + ",".join(f"{k}:{_fmt(v)}" for k, v in head[1]) + ";"
    return text


def _params_texts(cost: ProductionCostProcess, head_texts: list, ids: slice) -> list:
    """The ``production.csv`` params field of each node in ``ids``, given
    the ``_head_text`` of each of ``cost.heads``."""
    texts = list(map(head_texts.__getitem__, cost.head[ids].tolist()))
    at = np.flatnonzero(cost.funded[ids]).tolist()
    for k, scale in zip(at, cost.scale[ids][at].tolist()):
        texts[k] = f"{texts[k]}s={_fmt(scale)}"
    return texts


def _blanked(values: np.ndarray, keep: np.ndarray) -> list:
    """``_fmt`` of each value where ``keep`` is true, "" elsewhere."""
    texts = [""] * len(values)
    at = np.flatnonzero(keep).tolist()
    for k, x in zip(at, values[at].tolist()):
        texts[k] = _fmt(x)
    return texts


@dataclass
class ReportBundle:
    files: Dict[str, str]
    exit_code: int = 0


def _engine_rates(problem: ValuationProblem):
    """The period rates, an array indexed by inner node id."""
    try:
        return period_rates_from_market(problem.market, problem.tree)
    except NoBondAvailable:
        if problem.financiability_cfg.get("type") == "coc":
            raise
        # State-price and zero conditions never read the rate.
        return flat_rates(problem.tree, 0.0)


def _metadata(problem: ValuationProblem, subcommand: str, extra=None) -> str:
    meta = {
        "subcommand": subcommand,
        "config_sha256": problem.config_sha256,
        "prodval_version": __version__,
        "tolerances": {
            "bisection": problem.engine.bisection_tol,
            "value": 1e-9,
            "probability_mass": 1e-12,
        },
    }
    if extra:
        meta.update(extra)
    return _json_text(meta)


def run_value(problem: ValuationProblem, mode: Optional[str] = None) -> ReportBundle:
    engine = problem.engine
    if mode is not None and mode != engine.mode:
        if mode == "A" and not problem.market.close_out:
            raise SchemaViolation("mode 'A' requires market.close_out = true")
        engine = replace(engine, mode=mode)
    financiability = financiability_of(problem)
    rates = _engine_rates(problem)
    cost = backward_value(
        problem.liability,
        problem.illiquid,
        engine,
        problem.fulfillment,
        financiability,
        problem.market,
        problem.tree,
        rates,
    )
    buf = io.StringIO()
    buf.write("node,date,vbar,capital,assets,liabilities,failure,params\n")
    tree = problem.tree
    head_texts = list(map(_head_text, cost.heads))
    for i in range(tree.grid.horizon + 1):
        ids = tree.slice_at(i)
        # Each date's rows come from one template; "%.9f" in it formats
        # the numbers (as _fmt does), except in the capital and params
        # fields of a date where some node ran no funded step.
        funded = cost.funded[ids]
        columns = [tree.labels[ids], cost.values[ids].tolist()]
        all_funded = bool(funded.all())
        if all_funded:
            columns.append(cost.capital[ids].tolist())
        else:
            columns.append(_blanked(cost.capital[ids], funded))
        if i > 0:
            sheet = cost.sheet
            columns += [
                sheet.assets[ids].tolist(),
                sheet.liabilities[ids].tolist(),
                list(map(FAILURE_KINDS.__getitem__, sheet.failure[ids].tolist())),
            ]
        if all_funded:
            columns += [
                list(map(head_texts.__getitem__, cost.head[ids].tolist())),
                cost.scale[ids].tolist(),
            ]
        else:
            columns.append(_params_texts(cost, head_texts, ids))
        template = "%s,{},%.9f,{},{},{}\n".format(
            i,
            "%.9f" if all_funded else "%s",
            "%.9f,%.9f,%s" if i > 0 else ",,",
            "%ss=%.9f" if all_funded else "%s",
        )
        buf.writelines(map(template.__mod__, zip(*columns)))
    files = {
        "production.csv": buf.getvalue(),
        "metadata.json": _metadata(
            problem,
            "value",
            {
                "mode": engine.mode,
                "feasible": cost.feasible,
                # The cost is a minimum over the configured family, hence
                # an upper bound on the infimum over all strategies.
                "value_semantics": "family minimum (upper bound)",
            },
        ),
    }
    return ReportBundle(files, 0 if cost.feasible else 2)


def _solvency_rho(problem: ValuationProblem) -> RiskMeasureSpec:
    spec = problem.fulfillment
    if spec.variant == "risk_measure":
        return spec.measure
    if spec.variant == "probability":
        return RiskMeasureSpec("var", 1.0 - spec.p) if spec.p < 1.0 else RiskMeasureSpec("full")
    return RiskMeasureSpec("full")


# A solvency.json row, given its date and stage.
_SOLVENCY_ROW = """    {
      "bel": %%s,
      "date": %d,
      "node": %%s,
      "p_m1": %%s,
      "rm": %%s,
      "scr": %%s,
      "stage": %s
    }"""


def run_solvency(problem: ValuationProblem, stage: int, fmt: str) -> ReportBundle:
    cfg = problem.financiability_cfg
    if cfg.get("type") != "coc":
        raise SchemaViolation(
            "solvency needs a cost_of_capital financiability condition (eta)"
        )
    eta = float(cfg.get("eta", 0.06))
    rho = _solvency_rho(problem)
    rates = RateCurve.from_market(problem.market, problem.tree)
    report = multi_period_solvency(
        problem.liability, rates, eta, rho, stage, problem.tree
    )
    tree = problem.tree
    buf = io.StringIO()
    buf.write("node,date,bel,rm,scr,p_m1,stage\n")
    rows = []
    arrays = (report.bel, report.rm, report.scr, report.p_m1)
    for i in range(tree.grid.horizon):
        ids = tree.slice_at(i)
        bel, rm, scr, p_m1 = (values[ids] for values in arrays)
        buf.writelines(map(
            f"%s,{i},%.9f,%.9f,%.9f,%.9f,{stage}\n".__mod__,
            zip(tree.labels[ids], bel.tolist(), rm.tolist(), scr.tolist(), p_m1.tolist()),
        ))
        rows += map(
            (_SOLVENCY_ROW % (i, json.dumps(stage))).__mod__,
            zip(
                _float_texts(bel, "NaN"), _json_labels(tree.labels[ids]),
                _float_texts(p_m1, "NaN"), _float_texts(rm, "NaN"), _float_texts(scr, "NaN"),
            ),
        )
    doc = {"stage": stage}
    if report.sii_formula_rm0 is not None:
        doc["sii_formula_rm0"] = _round(report.sii_formula_rm0)
    files = {"metadata.json": _metadata(problem, "solvency", {"stage": stage})}
    if fmt in ("csv", "both"):
        files["solvency.csv"] = buf.getvalue()
    if fmt in ("json", "both"):
        files["solvency.json"] = _report_text(doc, rows)
    return ReportBundle(files)


# --- check.json --------------------------------------------------------------
#
# check.json holds one dict per inner node, from the certificate and
# audit arrays. A tree has inner nodes, each with children, and a market
# has tradables, so no certificate, audit, weights or violation is
# empty. Each entry kind renders from one template; the entries are
# joined in the ``sort_keys`` order of the labels
# (``ScenarioTree.label_order``).

_BOOL_TEXTS = ("false", "true")
_STATUS_TEXTS = tuple(map(encode_basestring_ascii, AUDIT_STATUSES))

_CHECK_TEMPLATE = """{
  "audits": {
    "consistency_with_tradables": {
      "flagged": %s,
      "per_node": %s
    },
    "neutrality_to_tradables": {
      "flagged": %s,
      "per_node": %s
    },
    "positive_homogeneity": %s
  },
  "consistency": {%s
    "restriction": %s,
    "used_subspace": %s
  }
}
"""

_AUDIT_ENTRY = """        %s: {
          "flagged": %s,
          "hurdle": %s,
          "optimum": %s,
          "status": %s
        }"""

# The text of a certificate entry around its violation or its weights.
_VIOLATION_ENTRY = (
    '      %s: {\n        "consistent": false,\n        "violation": [',
    "\n        ]\n      }",
)
_WEIGHTS_ENTRY = (
    '      %s: {\n        "consistent": true,\n        "weights": {',
    "\n        }\n      }",
)


def _child_groups(tree) -> list:
    """The tree's sibling groups, each node's children sorted by label."""
    rank = np.empty(tree.n_nodes, dtype=np.int64)
    rank[tree.label_order] = np.arange(tree.n_nodes)
    groups = []
    for nodes, children in tree.sibling_groups():
        # A stable sort: numpy's default quicksort pages in code that
        # nothing else in a check runs, about 1 MB of peak memory on a
        # 341-node check.
        by_label = np.argsort(rank[children], axis=1, kind="stable")
        groups.append((nodes, np.take_along_axis(children, by_label, axis=1)))
    return groups


def _certificate_text(cert, labels: np.ndarray, order: np.ndarray, groups: list) -> str:
    """The JSON text of a certificate, opened at nesting level 2: per
    inner node, keyed by ``labels`` (JSON-encoded, by node id), whether
    it is consistent and either its weights keyed by child label or its
    violation. ``order`` and ``groups`` as in ``run_check``."""
    entries = np.empty(len(cert.consistent_at), dtype=object)
    bad = np.flatnonzero(~cert.consistent_at)
    if bad.size:
        rows = _float_texts(cert.violation[bad], "NaN")
        template = ",".join(["\n          %s"] * rows.shape[1]).join(_VIOLATION_ENTRY)
        entries[bad] = list(map(template.__mod__, zip(labels[bad].tolist(), *rows.T.tolist())))
    weights = _float_texts(cert.weights, "null")
    for nodes, children in groups:
        good = cert.consistent_at[nodes]
        nodes, children = nodes[good], children[good]
        columns = [labels[nodes].tolist()]
        for column in children.T:
            columns += [labels[column].tolist(), weights[column].tolist()]
        template = ",".join(["\n          %s: %s"] * children.shape[1]).join(_WEIGHTS_ENTRY)
        entries[nodes] = list(map(template.__mod__, zip(*columns)))
    return "{\n" + ",\n".join(entries[order].tolist()) + "\n    }"


def _audit_text(report, labels: np.ndarray, order: np.ndarray) -> str:
    """The JSON text of an audit's ``per_node``, opened at nesting level
    3: per inner node, keyed by ``labels``, its flag, hurdle, optimum
    (null where NaN) and status."""
    columns = (
        labels[order].tolist(),
        list(map(_BOOL_TEXTS.__getitem__, report.flagged[order].tolist())),
        _float_texts(report.hurdle[order], "null").tolist(),
        _float_texts(report.optimum[order], "null").tolist(),
        list(map(_STATUS_TEXTS.__getitem__, report.status[order].tolist())),
    )
    return "{\n" + ",\n".join(map(_AUDIT_ENTRY.__mod__, zip(*columns))) + "\n      }"


def run_check(problem: ValuationProblem) -> ReportBundle:
    tree = problem.tree
    financiability = financiability_of(problem)
    # A state-price condition already holds the certificate on the
    # restriction used.
    cert_used = financiability.certificate
    if cert_used is None:
        cert_used = check_consistency(problem.market, tree, problem.restriction)
    cert_raw = None
    if problem.restriction is not None:
        cert_raw = check_consistency(problem.market, tree, None)
    rates = _engine_rates(problem)
    # Both audits are read off the same cone facts: one pass for both.
    facts = tradable_cone_facts(financiability, problem.market, tree, problem.restriction)
    cons = audit_consistency_with_tradables(
        financiability, problem.market, tree, problem.restriction, rates, facts
    )
    neut = audit_neutrality_to_tradables(
        financiability, problem.market, tree, problem.restriction, rates, facts
    )
    first_year = tree.grid.index(1)
    # The state-price bound prices the root's first year through the
    # certificate's weights, and an inconsistent node before date 1 has
    # none: the homogeneity audit is then not evaluated.
    homogeneity = {"max_deviation": None, "passed": None}
    if financiability.variant != "state_price" or cert_used.consistent_at[
        tree.date_idx[: tree.n_inner] < first_year
    ].all():
        hom = audit_positive_homogeneity(
            financiability,
            root_homogeneity_payoffs(financiability, tree),
            HOMOGENEITY_SCALES,
            rate=float(rates[tree.root]),
            node=tree.root,
            horizon_index=first_year,
        )
        homogeneity = {"max_deviation": _round(hom.max_deviation), "passed": hom.passed}
    # Each node's label, JSON-encoded; the inner nodes in label order.
    labels = _json_labels(tree.labels)
    order = tree.label_order[tree.label_order < tree.n_inner]
    groups = _child_groups(tree)
    full_space = ""
    if cert_raw is not None:
        full_space = '\n    "full_space": %s,' % _certificate_text(cert_raw, labels, order, groups)
    check = _CHECK_TEMPLATE % (
        _BOOL_TEXTS[cons.any_flagged],
        _audit_text(cons, labels, order),
        _BOOL_TEXTS[neut.any_flagged],
        _audit_text(neut, labels, order),
        _json_text(homogeneity)[:-1].replace("\n", "\n    "),
        full_space,
        '"full"' if problem.restriction is None else '"custom"',
        _certificate_text(cert_used, labels, order, groups),
    )
    files = {
        "check.json": check,
        "metadata.json": _metadata(problem, "check"),
    }
    return ReportBundle(files)


# An adjust.json row, given its date.
_ADJUST_ROW = """    {
      "date": "%d",
      "lambda": %%s,
      "node": %%s,
      "xi": %%s
    }"""


def run_adjust(problem: ValuationProblem, fmt: str) -> ReportBundle:
    # Write-down resolution scales non-negative costs, so the valuation
    # runs in mode B regardless of the configured mode.
    engine = replace(problem.engine, mode="B")
    financiability = financiability_of(problem)
    rates = _engine_rates(problem)
    cost = backward_value(
        problem.liability,
        problem.illiquid,
        engine,
        problem.fulfillment,
        financiability,
        problem.market,
        problem.tree,
        rates,
    )
    if not cost.feasible:
        return ReportBundle(
            {
                "metadata.json": _metadata(
                    problem, "adjust", {"feasible": False}
                )
            },
            2,
        )
    result = extend_to_full_fulfillment(
        problem.liability,
        problem.illiquid,
        cost,
        financiability,
        problem.market,
        problem.tree,
        rates,
    )
    tree = problem.tree
    buf = io.StringIO()
    buf.write("node,date,xi,lambda,adjusted_inflow,adjusted_outflow\n")
    rows = []
    for i in range(tree.grid.horizon + 1):
        ids = tree.slice_at(i)
        nodes = range(tree.n_nodes)[ids]
        xi = np.fromiter(map(result.xi.__getitem__, nodes), float, len(nodes))
        lam = np.fromiter(map(result.lam.__getitem__, nodes), float, len(nodes))
        buf.writelines(map(
            f"%s,{i},%.9f,%.9f,%.9f,%.9f\n".__mod__,
            zip(
                tree.labels[ids], xi.tolist(), lam.tolist(),
                result.adjusted_inflows[ids].tolist(), result.adjusted_outflows[ids].tolist(),
            ),
        ))
        rows += map(
            (_ADJUST_ROW % i).__mod__,
            zip(_float_texts(lam, "NaN"), _json_labels(tree.labels[ids]), _float_texts(xi, "NaN")),
        )
    doc = {
        "revalidation_ok": result.validation.ok,
        "cost_identity_max_diff": _round(result.cost_identity_max_diff),
    }
    files = {"metadata.json": _metadata(problem, "adjust", {"mode": "B"})}
    if fmt in ("csv", "both"):
        files["adjust.csv"] = buf.getvalue()
    if fmt in ("json", "both"):
        files["adjust.json"] = _report_text(doc, rows)
    return ReportBundle(files)


def run(
    problem: ValuationProblem,
    subcommand: str,
    stage: int = 3,
    mode: Optional[str] = None,
    fmt: str = "both",
) -> ReportBundle:
    if subcommand == "value":
        return run_value(problem, mode)
    if subcommand == "solvency":
        return run_solvency(problem, stage, fmt)
    if subcommand == "check":
        return run_check(problem)
    if subcommand == "adjust":
        return run_adjust(problem, fmt)
    raise SchemaViolation(f"unknown subcommand {subcommand!r}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by
    every call: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="prodval",
        description="Production-cost valuation of insurance liabilities "
        "on finite scenario trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("value", "backward production-cost valuation"),
        ("solvency", "BEL/RM/SCR decomposition per stage"),
        ("check", "market consistency and financiability audits"),
        ("adjust", "failure write-down and full-fulfillment extension"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--output-dir", default=".", help="directory for reports")
        if name in ("solvency", "adjust"):
            p.add_argument(
                "--format", choices=("csv", "json", "both"), default="both"
            )
        if name == "solvency":
            p.add_argument("--stage", type=int, choices=(1, 2, 3), default=3)
        if name == "value":
            p.add_argument("--mode", choices=("A", "B"), default=None)
    return parser


@contextlib.contextmanager
def _base_pages():
    """numpy's huge-page advice off for one call, then restored. numpy
    advises it for each array of 4 MiB or more; faults there then take
    whole 2 MiB pages, or compact memory for them, as the host allows."""
    previous = _set_madvise_hugepage(False)
    try:
        yield
    finally:
        _set_madvise_hugepage(previous)


def _fix_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 4 MiB for the rest of the process.

    glibc raises the threshold to the size of each mapped block that is
    freed, up to 32 MiB. After one call freed a 26 MB config text, the
    5 MB dict tables and arrays of the next call came from the brk heap,
    into the holes the last call left, and the peak memory of repeated
    calls moved by up to 30 MB between runs. Now each block of 4 MiB or
    more is a mapping of its own, unmapped when freed. At glibc's 128 KiB
    default, mapping every date's columns made a valuation 15% slower."""
    import ctypes

    try:  # mallopt's parameter -3 is M_MMAP_THRESHOLD (glibc's malloc.h)
        ctypes.CDLL(None).mallopt(-3, 4 << 20)
    except (OSError, TypeError, AttributeError):  # no glibc
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _fix_mmap_threshold()
    with _base_pages():
        try:
            problem = load_config(args.config)
            bundle = run(
                problem,
                args.subcommand,
                stage=getattr(args, "stage", 3),
                mode=getattr(args, "mode", None),
                fmt=getattr(args, "format", "both"),
            )
        except ProdvalError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        out = Path(args.output_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in sorted(bundle.files.items()):
                (out / name).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"error: cannot write reports to '{out}': {e.strerror or e}", file=sys.stderr)
            return 1
        for name in sorted(bundle.files):
            print(out / name)
        return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
