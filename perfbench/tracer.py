"""Outside-in tracer for the benchmark's traced run.

It replaces public functions of the prodval modules at the sites where
callers look them up (the importing module's namespace, or the defining
module for module-attribute and lazy imports) with wrappers that record
spans. No file of the program changes. A span's self time is its
duration minus the spans it directly encloses; a site that no longer
exists after a refactor is listed as absent and the metrics that need
it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

WRITEDOWN_TOL = 1e-12


def _one_period_result(tracer, result):
    if getattr(result, "feasible", False):
        tracer.counts["engine.one_period.feasible"] += 1


def _lp_result(tracer, result):
    tracer.counts[f"lp.{getattr(result, 'status', 'unknown')}"] += 1


def _extend_result(tracer, result):
    xi = getattr(result, "xi", {}) or {}
    tracer.counts["resolution.writedown_nodes"] += sum(
        1 for v in xi.values() if v is not None and v < 1.0 - WRITEDOWN_TOL
    )


# (span name, module, attribute path, result hook). Several sites may
# feed one span: market.check_consistency is looked up both in the CLI
# namespace and, through the lazy import in config.financiability_of, on
# the market module itself.
SITES = (
    ("cli.main", "prodval.cli", "main", None),
    ("cli.load_config", "prodval.cli", "load_config", None),
    ("cli.run", "prodval.cli", "run", None),
    ("config.build_tree", "prodval.config", "build_tree", None),
    ("config.TradableSet", "prodval.config", "TradableSet", None),
    ("engine.backward_value", "prodval.cli", "backward_value", None),
    ("engine.one_period", "prodval.engine", "build_one_period", _one_period_result),
    ("engine.balance_sheet", "prodval.engine", "balance_sheet", None),
    ("conditions.fulfillment", "prodval.engine", "fulfillment_satisfied", None),
    ("conditions.max_capital", "prodval.engine", "max_capital", None),
    ("conditions.rates", "prodval.cli", "period_rates_from_market", None),
    ("conditions.audit", "prodval.cli", "audit_consistency_with_tradables", None),
    ("conditions.audit", "prodval.cli", "audit_neutrality_to_tradables", None),
    ("conditions.audit", "prodval.cli", "audit_positive_homogeneity", None),
    ("market.check_consistency", "prodval.cli", "check_consistency", None),
    ("market.check_consistency", "prodval.market", "check_consistency", None),
    ("lp.solve", "prodval.lp", "solve_lp", _lp_result),
    ("solvency.rates", "prodval.solvency", "RateCurve.from_market", None),
    ("solvency.recursion", "prodval.cli", "multi_period_solvency", None),
    ("resolution.extend", "prodval.cli", "extend_to_full_fulfillment", _extend_result),
    ("resolution.validate", "prodval.resolution", "validate_production_strategy", None),
)


class Tracer:
    """Collects span times and counts while installed; ``reset`` starts a
    new op."""

    def __init__(self):
        self.spans = set()  # span names with at least one installed site
        self.absent = []  # "module.attr" of sites that could not be wrapped
        self._undo = []
        self.reset()

    def reset(self):
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.nested = defaultdict(float)  # (outer span, inner span) -> seconds
        self.nested_calls = Counter()
        self.counts = Counter()
        self._stack = []  # open spans as [name, seconds of direct children]

    def _close(self, name, dt, child):
        open_names = {f[0] for f in self._stack}
        if name not in open_names:
            self.incl[name] += dt
        self.calls[name] += 1
        self.self_s[name] += max(0.0, dt - child)
        if self._stack:
            self._stack[-1][1] += dt
        for outer in open_names:
            self.nested[(outer, name)] += dt
            self.nested_calls[(outer, name)] += 1

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.counts[f"{name}!{type(e).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer._close(name, dt, frame[1])
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def install(self, sites=SITES):
        for name, modname, attr, hook in sites:
            try:
                owner = importlib.import_module(modname)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, last)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(name, raw.__func__, hook))
            elif callable(raw):
                new = self._wrap(name, raw, hook)
            else:
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(owner, last, new)
            self._undo.append((owner, last, raw))
            self.spans.add(name)

    def uninstall(self):
        while self._undo:
            owner, last, raw = self._undo.pop()
            setattr(owner, last, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric -> (spans it needs, value from a tracer after one op).
LAYER_METRICS = {
    "config.load_s": (("cli.load_config",), lambda t: t.incl["cli.load_config"]),
    "lattice.build_tree_s": (("config.build_tree",), lambda t: t.incl["config.build_tree"]),
    "market.tradables_s": (("config.TradableSet",), lambda t: t.incl["config.TradableSet"]),
    "engine.backward_value_s": (
        ("engine.backward_value",),
        lambda t: t.incl["engine.backward_value"],
    ),
    "engine.one_period_s": (("engine.one_period",), lambda t: t.incl["engine.one_period"]),
    "engine.one_period_calls": (("engine.one_period",), lambda t: t.calls["engine.one_period"]),
    "engine.feasible_ratio": (
        ("engine.one_period",),
        lambda t: _ratio(t.counts["engine.one_period.feasible"], t.calls["engine.one_period"]),
    ),
    "engine.post_pass_s": (
        ("engine.backward_value", "engine.one_period"),
        lambda t: max(
            0.0,
            t.incl["engine.backward_value"]
            - t.nested[("engine.backward_value", "engine.one_period")],
        ),
    ),
    "engine.balance_sheet_s": (("engine.balance_sheet",), lambda t: t.incl["engine.balance_sheet"]),
    "engine.balance_sheet_calls": (
        ("engine.balance_sheet",),
        lambda t: t.calls["engine.balance_sheet"],
    ),
    "conditions.fulfillment_checks": (
        ("conditions.fulfillment",),
        lambda t: t.calls["conditions.fulfillment"],
    ),
    "conditions.checks_per_period": (
        ("conditions.fulfillment", "engine.one_period"),
        lambda t: _ratio(
            t.nested_calls[("engine.one_period", "conditions.fulfillment")],
            t.calls["engine.one_period"],
        ),
    ),
    "conditions.max_capital_s": (
        ("conditions.max_capital",),
        lambda t: t.incl["conditions.max_capital"],
    ),
    "conditions.rates_s": (("conditions.rates",), lambda t: t.incl["conditions.rates"]),
    "conditions.audit_s": (("conditions.audit",), lambda t: t.incl["conditions.audit"]),
    "market.check_consistency_s": (
        ("market.check_consistency",),
        lambda t: t.incl["market.check_consistency"],
    ),
    "market.check_consistency_calls": (
        ("market.check_consistency",),
        lambda t: t.calls["market.check_consistency"],
    ),
    "lp.solve_s": (("lp.solve",), lambda t: t.incl["lp.solve"]),
    "lp.solve_calls": (("lp.solve",), lambda t: t.calls["lp.solve"]),
    "lp.optimal": (("lp.solve",), lambda t: t.counts["lp.optimal"]),
    "lp.infeasible": (("lp.solve",), lambda t: t.counts["lp.infeasible"]),
    "lp.unbounded": (("lp.solve",), lambda t: t.counts["lp.unbounded"]),
    "lp.failures": (("lp.solve",), lambda t: t.counts["lp.solve!NumericalFailure"]),
    "solvency.rates_s": (("solvency.rates",), lambda t: t.incl["solvency.rates"]),
    "solvency.recursion_s": (("solvency.recursion",), lambda t: t.incl["solvency.recursion"]),
    "resolution.extend_s": (("resolution.extend",), lambda t: t.incl["resolution.extend"]),
    "resolution.validate_s": (("resolution.validate",), lambda t: t.incl["resolution.validate"]),
    "resolution.writedown_nodes": (
        ("resolution.extend",),
        lambda t: t.counts["resolution.writedown_nodes"],
    ),
    "cli.format_s": (("cli.run",), lambda t: t.self_s["cli.run"]),
    "cli.write_s": (("cli.main",), lambda t: t.self_s["cli.main"]),
}


def op_metrics(tracer: Tracer) -> dict:
    """Layer metrics of the op just traced; metrics whose spans could not
    be installed are left out."""
    return {
        name: float(fn(tracer))
        for name, (needs, fn) in LAYER_METRICS.items()
        if all(s in tracer.spans for s in needs)
    }

