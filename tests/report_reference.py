"""Frozen node-by-node report formatting for ``value``, ``solvency``,
``check`` and ``adjust``.

``prodval.cli`` formats these reports one date at a time from arrays
and writes their JSON from row and entry templates. These are the loops
over one node at a time, and the ``json.dumps(..., sort_keys=True,
indent=2)`` writer of whole documents, that it replaced. They read the
cost process, the solvency report, the certificates and the audits
through the node -> value mappings of
``util.cost_mappings``, ``util.solvency_mappings``,
``util.certificate_mappings`` and ``util.audit_mappings``, as the loops
read them when they held mappings. The differential tests compare every report file
and exit code with them byte for byte, so they must not call the CLI's
formatting.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace
from typing import Optional

from prodval import __version__
from prodval.cli import ReportBundle, _engine_rates, _solvency_rho
from prodval.conditions import (
    HOMOGENEITY_SCALES,
    audit_consistency_with_tradables,
    audit_neutrality_to_tradables,
    audit_positive_homogeneity,
    root_homogeneity_payoffs,
)
from prodval.config import ValuationProblem, financiability_of
from prodval.engine import backward_value
from prodval.errors import SchemaViolation
from prodval.market import check_consistency
from prodval.resolution import extend_to_full_fulfillment
from prodval.solvency import RateCurve, multi_period_solvency

from util import audit_mappings, certificate_mappings, cost_mappings, solvency_mappings


def _fmt(x) -> str:
    return "" if x is None else f"{x:.9f}"


def _round(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return round(x, 9)
    return x


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _params_text(params: tuple) -> str:
    if not params:
        return ""
    kind = params[0]
    if kind == "risk_free":
        return f"risk_free;s={_fmt(params[1])}"
    if kind == "fixed_mix":
        w = ",".join(f"{k}:{_fmt(v)}" for k, v in params[1])
        return f"fixed_mix;w={w};s={_fmt(params[2])}"
    if kind == "explicit":
        return f"explicit;s={_fmt(params[1])}"
    return str(kind)


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


def _cost(problem: ValuationProblem, engine):
    return backward_value(
        problem.liability,
        problem.illiquid,
        engine,
        problem.fulfillment,
        financiability_of(problem),
        problem.market,
        problem.tree,
        _engine_rates(problem),
    )


def run_value(problem: ValuationProblem, mode: Optional[str] = None) -> ReportBundle:
    engine = problem.engine
    if mode is not None and mode != engine.mode:
        if mode == "A" and not problem.market.close_out:
            raise SchemaViolation("mode 'A' requires market.close_out = true")
        engine = replace(engine, mode=mode)
    tree = problem.tree
    cost = cost_mappings(_cost(problem, engine), tree)
    buf = io.StringIO()
    buf.write("node,date,vbar,capital,assets,liabilities,failure,params\n")
    for i in range(tree.grid.horizon + 1):
        date = str(i)
        for node in tree.nodes_at(i).tolist():
            row = cost.rows.get(node)
            buf.write(
                ",".join(
                    [
                        tree.labels[node],
                        date,
                        _fmt(cost.values.get(node)),
                        _fmt(cost.capital.get(node)) if node in cost.capital else "",
                        _fmt(row.assets) if row else "",
                        _fmt(row.liabilities) if row else "",
                        row.failure if row else "",
                        _params_text(cost.params.get(node, ())),
                    ]
                )
                + "\n"
            )
    feasible = not cost.infeasible_nodes
    files = {
        "production.csv": buf.getvalue(),
        "metadata.json": _metadata(
            problem,
            "value",
            {
                "mode": engine.mode,
                "feasible": feasible,
                "value_semantics": "family minimum (upper bound)",
            },
        ),
    }
    return ReportBundle(files, 0 if feasible else 2)


def run_solvency(problem: ValuationProblem, stage: int, fmt: str) -> ReportBundle:
    cfg = problem.financiability_cfg
    if cfg.get("type") != "coc":
        raise SchemaViolation(
            "solvency needs a cost_of_capital financiability condition (eta)"
        )
    eta = float(cfg.get("eta", 0.06))
    rates = RateCurve.from_market(problem.market, problem.tree)
    report = multi_period_solvency(
        problem.liability, rates, eta, _solvency_rho(problem), stage, problem.tree
    )
    tree = problem.tree
    report = solvency_mappings(report, tree)
    buf = io.StringIO()
    buf.write("node,date,bel,rm,scr,p_m1,stage\n")
    rows_json = []
    for i in range(tree.grid.horizon):
        for node in tree.nodes_at(i).tolist():
            row = report.rows[node]
            buf.write(
                ",".join(
                    [
                        tree.labels[node],
                        str(i),
                        _fmt(row.bel),
                        _fmt(row.rm),
                        _fmt(row.scr),
                        _fmt(row.p_m1),
                        str(row.stage),
                    ]
                )
                + "\n"
            )
            rows_json.append(
                {
                    "node": tree.labels[node],
                    "date": i,
                    "bel": _round(row.bel),
                    "rm": _round(row.rm),
                    "scr": _round(row.scr),
                    "p_m1": _round(row.p_m1),
                    "stage": row.stage,
                }
            )
    doc = {"stage": stage, "rows": rows_json}
    if report.sii_formula_rm0 is not None:
        doc["sii_formula_rm0"] = _round(report.sii_formula_rm0)
    files = {"metadata.json": _metadata(problem, "solvency", {"stage": stage})}
    if fmt in ("csv", "both"):
        files["solvency.csv"] = buf.getvalue()
    if fmt in ("json", "both"):
        files["solvency.json"] = _json_text(doc)
    return ReportBundle(files)


def _certificate_json(tree, cert) -> dict:
    out = {}
    for node, verdict in certificate_mappings(cert, tree).items():
        entry: dict = {"consistent": verdict.consistent}
        if verdict.consistent:
            entry["weights"] = {
                tree.labels[c]: _round(w) for c, w in sorted(verdict.weights.items())
            }
        else:
            entry["violation"] = [_round(v) for v in verdict.violation]
        out[tree.labels[node]] = entry
    return out


def run_check(problem: ValuationProblem) -> ReportBundle:
    tree = problem.tree
    financiability = financiability_of(problem)
    cert_used = financiability.certificate
    if cert_used is None:
        cert_used = check_consistency(problem.market, tree, problem.restriction)
    doc: dict = {
        "consistency": {
            "restriction": "full" if problem.restriction is None else "custom",
            "used_subspace": _certificate_json(tree, cert_used),
        }
    }
    if problem.restriction is not None:
        cert_raw = check_consistency(problem.market, tree, None)
        doc["consistency"]["full_space"] = _certificate_json(tree, cert_raw)
    rates = _engine_rates(problem)
    args = (financiability, problem.market, tree, problem.restriction, rates)
    # Under the state-price bound, an inconsistent node on a path from
    # the root to date 1 leaves the homogeneity audit not evaluated.
    verdicts = certificate_mappings(cert_used, tree)
    before_date_1 = [tree.root]
    for node in before_date_1:
        before_date_1.extend(
            c for c in tree.children_of(node).tolist() if tree.date_idx[c] < tree.grid.index(1)
        )
    homogeneity = {"max_deviation": None, "passed": None}
    if financiability.variant != "state_price" or all(
        verdicts[node].consistent for node in before_date_1
    ):
        hom = audit_positive_homogeneity(
            financiability,
            root_homogeneity_payoffs(financiability, tree),
            HOMOGENEITY_SCALES,
            rate=float(rates[tree.root]),
            node=tree.root,
            horizon_index=tree.grid.index(1),
        )
        homogeneity = {"max_deviation": _round(hom.max_deviation), "passed": hom.passed}

    def audit_json(report):
        audits = audit_mappings(report)
        return {
            "flagged": any(a.flagged for a in audits.values()),
            "per_node": {
                tree.labels[n]: {
                    "status": a.status,
                    "optimum": _round(a.optimum) if a.optimum is not None else None,
                    "hurdle": _round(a.hurdle) if a.hurdle is not None else None,
                    "flagged": a.flagged,
                }
                for n, a in sorted(audits.items())
            },
        }

    doc["audits"] = {
        "positive_homogeneity": homogeneity,
        "consistency_with_tradables": audit_json(audit_consistency_with_tradables(*args)),
        "neutrality_to_tradables": audit_json(audit_neutrality_to_tradables(*args)),
    }
    files = {
        "check.json": _json_text(doc),
        "metadata.json": _metadata(problem, "check"),
    }
    return ReportBundle(files)


def run_adjust(problem: ValuationProblem, fmt: str) -> ReportBundle:
    cost = _cost(problem, replace(problem.engine, mode="B"))
    if not cost.feasible:
        return ReportBundle(
            {"metadata.json": _metadata(problem, "adjust", {"feasible": False})}, 2
        )
    result = extend_to_full_fulfillment(
        problem.liability,
        problem.illiquid,
        cost,
        financiability_of(problem),
        problem.market,
        problem.tree,
        _engine_rates(problem),
    )
    tree = problem.tree
    buf = io.StringIO()
    buf.write("node,date,xi,lambda,adjusted_inflow,adjusted_outflow\n")
    rows_json = []
    inflows = result.adjusted_inflows.tolist()
    outflows = result.adjusted_outflows.tolist()
    for i in range(tree.grid.horizon + 1):
        date = str(i)
        for node in tree.nodes_at(i).tolist():
            label, xi, lam = tree.labels[node], result.xi[node], result.lam[node]
            inflow, outflow = inflows[node], outflows[node]
            buf.write(
                f"{label},{date},{_fmt(xi)},{_fmt(lam)},{_fmt(inflow)},{_fmt(outflow)}\n"
            )
            rows_json.append(
                {"node": label, "date": date, "xi": _round(xi), "lambda": _round(lam)}
            )
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
