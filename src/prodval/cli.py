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
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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


def _fmt_all(values: list) -> list:
    """``_fmt`` of each of a list of floats."""
    return [f"{x:.9f}" for x in values]


def _round(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return round(x, 9)
    return x


def _round_all(values: list) -> list:
    """``_round`` of each of a list of floats."""
    if all(map(math.isfinite, values)):
        return list(map(round, values, repeat(9)))
    return list(map(_round, values))


# --- JSON text ---------------------------------------------------------------
#
# ``_json_text(obj)`` is ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
# newline, byte for byte. The indenting encoder of the json module runs in
# Python; here only the structure is walked in Python, and leaves are
# encoded a whole list of siblings at a time by C functions. A list of flat
# dicts sharing one key set (a report's rows) renders from one template.
# Anything but dicts with str keys, lists and plain leaves goes to
# json.dumps itself.


class _NotPlain(Exception):
    """A value the fast writer leaves to json.dumps."""


_LEAF_TYPES = {str, int, float, bool, type(None)}


def _leaf(x) -> str:
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if t is float:
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise _NotPlain


def _leaves(values: list) -> Optional[list]:
    """The JSON text of each value, or None unless every value is a leaf."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if all(map(math.isfinite, values)):
            return list(map(float.__repr__, values))
    elif kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    elif kinds == {int}:
        return list(map(int.__repr__, values))
    elif not kinds <= _LEAF_TYPES:
        return None
    return list(map(_leaf, values))


def _rows(values: list, level: int) -> Optional[list]:
    """The JSON text of each value at nesting ``level`` when all are flat
    dicts with one non-empty key set of strings, else None."""
    first = values[0]
    if type(first) is not dict or not first or set(map(type, first)) != {str}:
        return None
    if set(map(type, values)) != {dict} or set(map(len, values)) != {len(first)}:
        return None
    names = sorted(first)
    columns = []
    for name in names:
        try:
            column = _leaves(list(map(itemgetter(name), values)))
        except KeyError:  # the key sets differ
            return None
        if column is None:
            return None
        columns.append(column)
    pad = "\n" + "  " * (level + 1)
    template = (
        "{"
        + ",".join(pad + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in names)
        + "\n" + "  " * level + "}"
    )
    return list(map(template.__mod__, zip(*columns)))


def _text(obj, level: int) -> str:
    """The JSON text of ``obj`` opened at nesting ``level``."""
    t = type(obj)
    if t is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _NotPlain
        keys = sorted(obj)
        values = _values(list(map(obj.__getitem__, keys)), level + 1)
        items = map("".join, zip(map(encode_basestring_ascii, keys), repeat(": "), values))
        brackets = "{}"
    elif t is list:
        if not obj:
            return "[]"
        items = _values(obj, level + 1)
        brackets = "[]"
    else:
        return _leaf(obj)
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _values(values: list, level: int) -> list:
    """The JSON text of each of a container's values, opened at ``level``."""
    return (
        _leaves(values)
        or _rows(values, level)
        or [_text(v, level) for v in values]
    )


def _json_text(obj) -> str:
    try:
        text = _text(obj, 0)
    except _NotPlain:
        text = json.dumps(obj, sort_keys=True, indent=2)
    return text + "\n"


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
        nodes = tree.nodes_at(i)
        ids = slice(nodes[0], nodes[-1] + 1)
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
    rows_json = []
    arrays = (report.bel, report.rm, report.scr, report.p_m1)
    for i in range(tree.grid.horizon):
        nodes = tree.nodes_at(i)
        ids = slice(nodes[0], nodes[-1] + 1)
        labels = tree.labels[ids]
        columns = [values[ids].tolist() for values in arrays]
        buf.writelines(map(
            f"%s,{i},%s,%s,%s,%s,{stage}\n".__mod__, zip(labels, *map(_fmt_all, columns))
        ))
        rows_json += [
            {"node": label, "date": i, "bel": bel, "rm": rm, "scr": scr, "p_m1": p_m1,
             "stage": stage}
            for label, bel, rm, scr, p_m1 in zip(labels, *map(_round_all, columns))
        ]
    doc = {"stage": stage, "rows": rows_json}
    if report.sii_formula_rm0 is not None:
        doc["sii_formula_rm0"] = _round(report.sii_formula_rm0)
    files = {"metadata.json": _metadata(problem, "solvency", {"stage": stage})}
    if fmt in ("csv", "both"):
        files["solvency.csv"] = buf.getvalue()
    if fmt in ("json", "both"):
        files["solvency.json"] = _json_text(doc)
    return ReportBundle(files)


def _rounded(values: np.ndarray) -> list:
    """``_round`` of each value, None where it is NaN."""
    return [None if x != x else _round(x) for x in values.tolist()]


def _certificate_json(tree, cert) -> dict:
    labels = tree.labels
    weights = _rounded(cert.weights)
    out = {}
    for node, consistent in enumerate(cert.consistent_at.tolist()):
        if consistent:
            entry = {"weights": {labels[c]: weights[c] for c in tree.children[node]}}
        else:
            entry = {"violation": _round_all(cert.violation[node].tolist())}
        entry["consistent"] = consistent
        out[labels[node]] = entry
    return out


def run_check(problem: ValuationProblem) -> ReportBundle:
    tree = problem.tree
    financiability = financiability_of(problem)
    # A state-price condition already holds the certificate on the
    # restriction used.
    cert_used = financiability.certificate
    if cert_used is None:
        cert_used = check_consistency(problem.market, tree, problem.restriction)
    doc: dict = {
        "consistency": {
            "restriction": "full"
            if problem.restriction is None
            else "custom",
            "used_subspace": _certificate_json(tree, cert_used),
        }
    }
    if problem.restriction is not None:
        cert_raw = check_consistency(problem.market, tree, None)
        doc["consistency"]["full_space"] = _certificate_json(tree, cert_raw)
    rates = _engine_rates(problem)
    cons = audit_consistency_with_tradables(
        financiability, problem.market, tree, problem.restriction, rates
    )
    neut = audit_neutrality_to_tradables(
        financiability, problem.market, tree, problem.restriction, rates
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

    def audit_json(report):
        columns = (
            map(AUDIT_STATUSES.__getitem__, report.status.tolist()),
            _rounded(report.optimum),
            _rounded(report.hurdle),
            report.flagged.tolist(),
        )
        return {
            "flagged": report.any_flagged,
            "per_node": {
                label: {"status": status, "optimum": optimum, "hurdle": hurdle, "flagged": flagged}
                for label, status, optimum, hurdle, flagged in zip(tree.labels, *columns)
            },
        }

    doc["audits"] = {
        "positive_homogeneity": homogeneity,
        "consistency_with_tradables": audit_json(cons),
        "neutrality_to_tradables": audit_json(neut),
    }
    files = {
        "check.json": _json_text(doc),
        "metadata.json": _metadata(problem, "check"),
    }
    return ReportBundle(files)


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
    rows_json = []
    for i in range(tree.grid.horizon + 1):
        date = str(i)
        nodes = tree.nodes_at(i)
        ids = slice(nodes[0], nodes[-1] + 1)
        labels = tree.labels[ids]
        xi = list(map(result.xi.__getitem__, nodes))
        lam = list(map(result.lam.__getitem__, nodes))
        buf.writelines(map(
            "%s,%s,%s,%s,%s,%s\n".__mod__,
            zip(
                labels, repeat(date), _fmt_all(xi), _fmt_all(lam),
                _fmt_all(result.adjusted_inflows[ids].tolist()),
                _fmt_all(result.adjusted_outflows[ids].tolist()),
            ),
        ))
        rows_json += [
            {"node": label, "date": date, "xi": x, "lambda": lm}
            for label, x, lm in zip(labels, _round_all(xi), _round_all(lam))
        ]
    doc = {
        "rows": rows_json,
        "revalidation_ok": result.validation.ok,
        "cost_identity_max_diff": _round(result.cost_identity_max_diff),
    }
    files = {"metadata.json": _metadata(problem, "adjust", {"mode": "B"})}
    if fmt in ("csv", "both"):
        files["adjust.csv"] = buf.getvalue()
    if fmt in ("json", "both"):
        files["adjust.json"] = _json_text(doc)
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


def build_parser() -> argparse.ArgumentParser:
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
                fmt=args.format,
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
