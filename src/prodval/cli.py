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
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional

from . import __version__
from .conditions import (
    HOMOGENEITY_SCALES,
    audit_consistency_with_tradables,
    audit_neutrality_to_tradables,
    audit_positive_homogeneity,
    flat_rates,
    period_rates_from_market,
    root_homogeneity_payoffs,
)
from .config import ValuationProblem, financiability_of, load_config
from .engine import backward_value
from .errors import NoBondAvailable, ProdvalError, SchemaViolation
from .market import check_consistency
from .resolution import extend_to_full_fulfillment
from .risk import RiskMeasureSpec
from .solvency import RateCurve, multi_period_solvency


def _fmt(x) -> str:
    # Infinities format as "inf" and "-inf".
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
    tree = problem.tree
    buf = io.StringIO()
    buf.write("node,date,vbar,capital,assets,liabilities,failure,params\n")
    for i in range(tree.grid.horizon + 1):
        date = str(i)
        for node in tree.nodes_at(i):
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
    for i in range(tree.grid.horizon):
        for node in tree.nodes_at(i):
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


def _certificate_json(problem: ValuationProblem, cert) -> dict:
    tree = problem.tree
    out = {}
    for node, verdict in sorted(cert.verdicts.items()):
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
            "used_subspace": _certificate_json(problem, cert_used),
        }
    }
    if problem.restriction is not None:
        cert_raw = check_consistency(problem.market, tree, None)
        doc["consistency"]["full_space"] = _certificate_json(problem, cert_raw)
    rates = _engine_rates(problem)
    cons = audit_consistency_with_tradables(
        financiability, problem.market, tree, problem.restriction, rates
    )
    neut = audit_neutrality_to_tradables(
        financiability, problem.market, tree, problem.restriction, rates
    )
    hom = audit_positive_homogeneity(
        financiability,
        root_homogeneity_payoffs(financiability, tree),
        HOMOGENEITY_SCALES,
        rate=float(rates[tree.root]),
        node=tree.root,
        horizon_index=tree.grid.index(1),
    )

    def audit_json(report):
        return {
            "flagged": report.flagged,
            "per_node": {
                tree.labels[n]: {
                    "status": a.status,
                    "optimum": _round(a.optimum) if a.optimum is not None else None,
                    "hurdle": _round(a.hurdle) if a.hurdle is not None else None,
                    "flagged": a.flagged,
                }
                for n, a in sorted(report.per_node.items())
            },
        }

    doc["audits"] = {
        "positive_homogeneity": {
            "max_deviation": _round(hom.max_deviation),
            "passed": hom.passed,
        },
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
    inflows = result.adjusted_inflows.tolist()
    outflows = result.adjusted_outflows.tolist()
    for i in range(tree.grid.horizon + 1):
        date = str(i)
        for node in tree.nodes_at(i):
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_config(args.config)
        bundle = run(
            problem,
            args.subcommand,
            stage=getattr(args, "stage", 3),
            mode=getattr(args, "mode", None),
            fmt=args.format,
        )
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(bundle.files.items()):
            path = out / name
            path.write_text(text, encoding="utf-8")
            print(path)
        return bundle.exit_code
    except ProdvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
