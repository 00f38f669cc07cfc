"""Config ingestion: a JSON document describing the whole valuation
problem, validated into engine-ready objects.

Top-level keys: grid, tree, market, liability, illiquid, restriction,
fulfillment, financiability, engine. Node references use the labels from
the tree section; every tradable must price every node.

The label-keyed sections (a tradable's ``prices`` and ``inflows``, the
liability's ``outflows``, ``inflows`` and ``terminal``, the illiquid
``inflows``) are read as ``_Column``s: their labels as a tuple and their
values as a float array. A file's sections become columns while it is
parsed, as each enclosing object closes, so no section's dict and float
objects outlive that object; an in-memory document's dicts become
columns through the same constructor when the problem is built.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral, Real
from typing import Dict, Mapping, NamedTuple, Optional

import numpy as np

from .conditions import FinanciabilitySpec, FulfillmentSpec
from .engine import EngineConfig, IlliquidPortfolio, LiabilitySpec, StrategyFamily
from .errors import CrossRefError, ParseError, SchemaViolation
from .lattice import DateGrid, ScenarioTree, build_tree
from .market import RestrictionSet, TradableSet, check_tradable_indices
from .strategy import Strategy


@dataclass
class ValuationProblem:
    """A validated config. Of the document itself it keeps only the
    sections ``problem_to_dict`` re-emits verbatim and ``config_sha256``:
    the sha256 of the config file's bytes for a loaded file, of the
    canonical dump of ``problem_to_dict`` for an in-memory document."""

    config_sha256: str
    fulfillment_cfg: dict
    engine_cfg: dict
    grid: DateGrid
    tree: ScenarioTree
    market: TradableSet
    liability: LiabilitySpec
    illiquid: IlliquidPortfolio
    restriction: Optional[RestrictionSet]
    fulfillment: FulfillmentSpec
    financiability_cfg: dict
    engine: EngineConfig


def load_config(path: str) -> ValuationProblem:
    """Read and validate a config file; all structural invariants are
    checked here so the engine can assume a coherent problem. A file
    that cannot be read, is not UTF-8 or is not JSON raises ParseError.
    A value the problem's constructors reject (a negative or non-numeric
    price, say) raises SchemaViolation, with their error as its cause."""
    return _problem(*_read_json(path))


def _read_json(path: str):
    """The parsed document, its label-keyed sections already columns
    (``_columns_hook``), and the sha256 of the file's bytes. Neither the
    bytes nor the text outlive the parse."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as e:
        raise ParseError(f"cannot read config {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(
            f"config {path!r} is not UTF-8: {e.reason} at byte {e.start}"
        ) from None
    digest = hashlib.sha256(data).hexdigest()
    del data
    try:
        return json.loads(text, object_hook=_columns_hook), digest
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")


def _need(doc: Mapping, key: str, path: str = "") -> object:
    if key not in doc:
        raise SchemaViolation(f"missing required key {path}{key}")
    return doc[key]


def problem_from_dict(doc: dict) -> ValuationProblem:
    """Validate an in-memory config document, raising as ``load_config``
    does; its ``config_sha256`` is the sha256 of the canonical dump of
    ``problem_to_dict``."""
    problem = _problem(doc, "")
    blob = json.dumps(problem_to_dict(problem), sort_keys=True).encode()
    problem.config_sha256 = hashlib.sha256(blob).hexdigest()
    return problem


def _problem(doc: dict, digest: str) -> ValuationProblem:
    try:
        return _checked_problem(doc, digest)
    except (ValueError, TypeError) as e:
        raise SchemaViolation(f"invalid config: {e}") from e


def _checked_problem(doc: dict, digest: str) -> ValuationProblem:
    if not isinstance(doc, dict):
        raise SchemaViolation("config root must be an object")

    grid_doc = _object(_need(doc, "grid"), "grid")
    tree_doc = _object(_need(doc, "tree"), "tree")
    market_doc = _object(_need(doc, "market"), "market")
    liab_doc = _object(_need(doc, "liability"), "liability")

    horizon = _need(grid_doc, "T", "grid.")
    if isinstance(horizon, bool) or not isinstance(horizon, Integral):
        raise SchemaViolation(f"grid.T must be an integer, not {horizon!r}")
    try:
        grid = DateGrid.build(_need(grid_doc, "dates", "grid."), horizon)
    except (TypeError, ValueError) as e:
        raise SchemaViolation(f"grid: {e}") from None

    nodes = _need(tree_doc, "nodes", "tree.")
    if not isinstance(nodes, list):
        raise SchemaViolation("tree.nodes must be a list of node objects")
    tree = build_tree(grid, nodes)
    sections = _Sections(tree)

    tradables = _need(market_doc, "tradables", "market.")
    if not isinstance(tradables, list) or not tradables:
        raise SchemaViolation("market.tradables must be a non-empty list")
    n_assets = len(tradables)
    prices = np.zeros((tree.n_nodes, n_assets))
    inflows = np.zeros((tree.n_nodes, n_assets))
    bond_periods: Dict[int, int] = {}
    for k, spec in enumerate(tradables):
        where = f"market.tradables[{k}]"
        spec = _object(spec, where)
        for column, flows, name in (
            (prices, _need(spec, "prices", f"{where}."), "prices"),
            (inflows, spec.get("inflows", {}), "inflows"),
        ):
            ids, flows = sections.column(flows, f"{where}.{name}", name == "prices")
            column[ids, k] = flows.values
        if "bond_period" in spec:
            period = spec["bond_period"]
            if isinstance(period, bool) or not isinstance(period, Integral):
                raise SchemaViolation(f"{where}.bond_period must be an integer, not {period!r}")
            if not 0 <= period < horizon:
                raise SchemaViolation(
                    f"{where}.bond_period must be a period from 0 to {horizon - 1}, not {period}"
                )
            bond_periods[k] = int(period)
    close_out = market_doc.get("close_out", False)
    if not isinstance(close_out, bool):
        raise SchemaViolation(f"market.close_out must be true or false, not {close_out!r}")
    market = TradableSet(
        tree=tree,
        prices=prices,
        inflows=inflows,
        bond_periods=bond_periods,
        close_out=close_out,
    )

    def flow_array(section: Mapping, key: str, where: str) -> np.ndarray:
        """A label-keyed flow section as an array indexed by node id; only
        terminal values may be negative."""
        ids, flows = sections.column(section.get(key, {}), f"{where}.{key}")
        bad = np.flatnonzero(flows.values < 0)
        if key != "terminal" and bad.size:
            k = int(bad[0])
            raise SchemaViolation(
                f"{where}.{key} has negative value {flows.values[k]} "
                f"at node {flows.labels[k]!r}"
            )
        out = np.zeros(tree.n_nodes)
        out[ids] = flows.values
        return out

    liability = LiabilitySpec(
        outflows=flow_array(liab_doc, "outflows", "liability"),
        inflows=flow_array(liab_doc, "inflows", "liability"),
        terminal=flow_array(liab_doc, "terminal", "liability"),
    )
    illiquid_doc = _object(doc.get("illiquid", {}), "illiquid")
    illiquid = IlliquidPortfolio(flow_array(illiquid_doc, "inflows", "illiquid"))

    restriction = None
    if "restriction" in doc:
        try:
            restriction = _restriction_from(doc["restriction"], n_assets)
        except (TypeError, ValueError) as e:
            raise SchemaViolation(f"restriction: {e}") from None

    fulfillment = _fulfillment_from(_object(doc.get("fulfillment", {"type": "full"}), "fulfillment"))
    financiability_cfg = _object(
        doc.get("financiability", {"type": "coc", "eta": 0.06}), "financiability"
    )
    if financiability_cfg.get("type") not in ("coc", "state_price", "zero"):
        raise SchemaViolation(
            f"financiability.type must be coc, state_price, or zero, "
            f"got {financiability_cfg.get('type')!r}"
        )
    if financiability_cfg["type"] == "coc" and "eta" in financiability_cfg:
        _non_negative(financiability_cfg["eta"], "financiability.eta")

    engine_doc = _object(doc.get("engine", {}), "engine")
    mode = engine_doc.get("mode", "B")
    if mode not in ("A", "B"):
        raise SchemaViolation(f"engine.mode must be 'A' or 'B', got {mode!r}")
    if mode == "A" and not close_out:
        raise SchemaViolation("engine.mode 'A' requires market.close_out = true")
    family_doc = _object(engine_doc.get("family", {"type": "risk_free"}), "engine.family")
    family = _family_from(family_doc, tree, market, tree.label_ids, restriction)
    tolerances = _object(engine_doc.get("tolerances", {}), "engine.tolerances")
    grid_depth = family_doc.get("grid_depth", 3)
    if isinstance(grid_depth, bool) or not isinstance(grid_depth, Integral) or grid_depth < 0:
        raise SchemaViolation(
            f"engine.family.grid_depth must be an integer >= 0, not {grid_depth!r}"
        )
    engine = EngineConfig(
        mode=mode,
        family=family,
        bisection_tol=_non_negative(
            tolerances.get("bisection", 1e-10), "engine.tolerances.bisection", positive=True
        ),
        grid_depth=int(grid_depth),
    )

    return ValuationProblem(
        config_sha256=digest,
        fulfillment_cfg=_plain(doc.get("fulfillment", {"type": "full"})),
        engine_cfg=_plain(doc.get("engine", {"mode": mode})),
        grid=grid,
        tree=tree,
        market=market,
        liability=liability,
        illiquid=illiquid,
        restriction=restriction,
        fulfillment=fulfillment,
        financiability_cfg=_plain(financiability_cfg),
        engine=engine,
    )


def _object(section, where: str) -> dict:
    """``section``, which must be a JSON object."""
    if not isinstance(section, dict):
        raise SchemaViolation(f"{where} must be an object, not {type(section).__name__}")
    return section


def _non_negative(value, where: str, positive: bool = False) -> float:
    """``value`` as a float; SchemaViolation unless it is a finite number
    (a boolean is not one) that is >= 0, or > 0 if ``positive``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
        or value < 0
        or positive and value == 0
    ):
        bound = "> 0" if positive else ">= 0"
        raise SchemaViolation(f"{where} must be a finite number {bound}, not {value!r}")
    return float(value)


class _Column(NamedTuple):
    """A label-keyed section: its labels in the section's order and its
    values as floats."""

    labels: tuple
    values: np.ndarray

    @classmethod
    def of(cls, flows: dict, where: str) -> "_Column":
        """The column of a section given as a dict; a value that is not a
        number (a boolean is not one) raises, naming the first such node."""
        values = flows.values()
        if not all(map(isinstance, values, repeat(float))):
            values = []
            for label, v in flows.items():
                if isinstance(v, bool) or not isinstance(v, Real):
                    raise SchemaViolation(
                        f"{where} has non-numeric value {_shown(v)} at node {label!r}"
                    )
                try:
                    values.append(float(v))
                except OverflowError:
                    raise SchemaViolation(
                        f"{where} has an integer too large for a float at node {label!r}"
                    ) from None
        return cls(tuple(flows), np.fromiter(values, float, len(flows)))


def _columns_hook(obj: dict) -> dict:
    """The ``object_hook`` of the config parse: ``obj`` with each dict of
    numbers under a section key (of a tradable, the liability or the
    illiquid portfolio) replaced by its column. The parser calls it as
    each object closes, so a section's dict and floats are freed while
    the rest of the file is parsed. Any other value stays as parsed, for
    ``_Sections.column`` to reject, naming the section."""
    # Four lookups take about half the time of one keys().isdisjoint test
    # on the tree's node objects, which are most of the objects parsed.
    if "prices" in obj or "inflows" in obj or "outflows" in obj or "terminal" in obj:
        for key in ("prices", "inflows", "outflows", "terminal"):
            if type(obj.get(key)) is dict:
                try:
                    obj[key] = _Column.of(obj[key], key)
                except SchemaViolation:
                    pass
    return obj


def _plain(doc):
    """``doc`` with every column turned back into a dict of floats, for
    the objects a problem keeps verbatim: the parse also turns the
    section keys those objects may carry into columns."""
    if isinstance(doc, _Column):
        return dict(zip(doc.labels, doc.values.tolist()))
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_plain(v) for v in doc]
    return doc


def _shown(value) -> str:
    """``value`` as an error names a non-numeric section value: a JSON
    object or array elided, anything else by its repr."""
    if isinstance(value, (dict, _Column)):
        return "{...}"
    if isinstance(value, list):
        return "[...]"
    return repr(value)


class _Sections:
    """Reads the label-keyed sections of one config as node-id columns
    of ``tree``."""

    def __init__(self, tree: ScenarioTree):
        self.label_to_id = tree.label_ids
        # The labels in node order. The sections of one parsed document
        # share their key objects, so once a complete section has matched
        # the labels, its keys stand in for them and later sections
        # compare by identity.
        self.labels = tree.labels

    def column(self, flows, where: str, complete: bool = False):
        """The node ids (a slice where the section lists a run of
        consecutive nodes in node order) and the column of a label-keyed
        section, whose values must be finite; with ``complete`` every
        node must appear."""
        if isinstance(flows, dict):
            flows = _Column.of(flows, where)
        elif not isinstance(flows, _Column):
            raise SchemaViolation(
                f"{where} must map node labels to numbers, not {type(flows).__name__}"
            )
        keys = flows.labels
        start = self.label_to_id.get(keys[0], -1) if keys else 0
        stop = start + len(keys)
        whole = start == 0 and stop == len(self.labels)
        if start >= 0 and (whole or not complete) and keys == self.labels[start:stop]:
            if whole:
                self.labels = keys
            ids = slice(start, stop)
        else:
            ids = _node_ids(keys, self.label_to_id, where, complete)
        bad = np.flatnonzero(~np.isfinite(flows.values))
        if bad.size:
            k = int(bad[0])
            raise SchemaViolation(
                f"{where} has non-finite value {flows.values[k]} at node {keys[k]!r}"
            )
        return ids, flows


def _node_ids(
    labels: tuple, label_to_id: Mapping[str, int], where: str, complete: bool = False
) -> np.ndarray:
    """Node ids of a section's labels, in the section's order; with
    ``complete`` every node must appear in it."""
    ids = np.fromiter(
        map(label_to_id.get, labels, repeat(-1)), dtype=np.int64, count=len(labels)
    )
    known = ids >= 0
    # Labels are distinct, so fewer known labels than nodes means a gap.
    if complete and np.count_nonzero(known) < len(label_to_id):
        first = min(label_to_id.keys() - set(labels), key=label_to_id.get)
        raise CrossRefError(f"{where} is missing node {first!r}")
    if not known.all():
        first = labels[int(np.argmin(known))]
        raise CrossRefError(f"{where} references unknown node {first!r}")
    return ids


def _restriction_from(doc, n_assets: int) -> RestrictionSet:
    """The admissible subspace of a ``restriction`` section: distinct
    tradable indices, or linearly independent basis vectors with one
    finite entry per tradable."""
    if not isinstance(doc, dict) or ("indices" in doc) == ("basis" in doc):
        raise ValueError("give an object with exactly one of indices or basis")
    if "indices" in doc:
        if not isinstance(doc["indices"], list):
            raise ValueError("indices must be a list")
        return RestrictionSet.of_indices(n_assets, doc["indices"])
    rows = doc["basis"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("basis must be a list of vectors")
    return RestrictionSet(n_assets, basis=tuple(tuple(map(float, row)) for row in rows))


def _fulfillment_from(doc: Mapping) -> FulfillmentSpec:
    kind = doc.get("type", "full")
    if kind == "full":
        return FulfillmentSpec.full()
    if kind == "var":
        return FulfillmentSpec.var(_level(doc, "alpha"))
    if kind == "es":
        return FulfillmentSpec.es(_level(doc, "alpha"))
    if kind == "prob":
        return FulfillmentSpec.probability(_level(doc, "p", closed=True))
    raise SchemaViolation(f"fulfillment.type must be full, var, es, or prob, got {kind!r}")


def _level(doc: Mapping, key: str, closed: bool = False) -> float:
    """``fulfillment.<key>`` as a float; SchemaViolation unless it is a
    finite number (a boolean is not one) in (0, 1), or (0, 1] if
    ``closed``."""
    value = _need(doc, key, "fulfillment.")
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (0.0 < value < 1.0 or closed and value == 1.0)
    ):
        interval = "(0, 1]" if closed else "(0, 1)"
        raise SchemaViolation(f"fulfillment.{key} must be a number in {interval}, not {value!r}")
    return float(value)


def _family_from(doc, tree, market, label_to_id, restriction) -> StrategyFamily:
    kind = doc.get("type", "risk_free")
    if kind == "risk_free":
        return StrategyFamily.risk_free()
    if kind == "fixed_mix":
        if "indices" in doc:
            indices = doc["indices"]
            try:
                if not isinstance(indices, list):
                    raise ValueError("indices must be a list")
                check_tradable_indices(indices, market.n_assets)
            except ValueError as e:
                raise SchemaViolation(f"engine.family: {e}") from None
            indices = tuple(indices)
        elif restriction is not None and restriction.indices is not None:
            indices = restriction.indices
        else:
            indices = tuple(range(market.n_assets))
        return StrategyFamily.fixed_mix(indices)
    if kind == "explicit":
        strat_doc = _need(doc, "strategy", "engine.family.")
        where = "engine.family.strategy."
        assigned = _need(strat_doc, "assignments", where)
        assignment = _units_array(assigned, where + "assignments", label_to_id, market.n_assets)
        initial = _units_array(
            strat_doc.get("initial", {}), where + "initial", label_to_id, market.n_assets
        )
        if len(assigned) < tree.n_nodes:
            first = min(label_to_id.keys() - assigned.keys(), key=label_to_id.get)
            raise SchemaViolation(f"{where}assignments has no units at node {first!r}")
        return StrategyFamily.explicit(Strategy(tree, market.n_assets, assignment, initial))
    raise SchemaViolation(
        f"engine.family.type must be risk_free, fixed_mix, or explicit, got {kind!r}"
    )


def _units_array(
    section, where: str, label_to_id: Mapping[str, int], n_assets: int
) -> np.ndarray:
    """The (n_nodes, n_assets) units of a label-keyed strategy section,
    zero at the nodes it leaves out. Each vector must hold one finite
    number per tradable, none below -1e-12; the first vector in the
    section's order that does not raises."""
    if not isinstance(section, dict):
        raise SchemaViolation(f"{where} must map node labels to unit vectors")
    out = np.zeros((len(label_to_id), n_assets))
    ids = _node_ids(tuple(section), label_to_id, where).tolist()
    for node, (label, vec) in zip(ids, section.items()):
        if not isinstance(vec, list) or len(vec) != n_assets:
            raise SchemaViolation(
                f"{where} needs one unit per tradable ({n_assets}) at node {label!r}"
            )
        try:
            units = list(map(float, vec))
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where} has a non-numeric unit at node {label!r}") from None
        if not all(map(math.isfinite, units)):
            raise SchemaViolation(f"{where} has non-finite units at node {label!r}")
        if min(units) < -1e-12:
            raise SchemaViolation(f"{where} has a negative unit at node {label!r}")
        out[node] = units
    return out


def financiability_of(problem: ValuationProblem) -> FinanciabilitySpec:
    """Materialize the financiability condition; the state-price variant
    runs the consistency check on the restriction actually used."""
    cfg = problem.financiability_cfg
    kind = cfg["type"]
    if kind == "coc":
        return FinanciabilitySpec.cost_of_capital(float(cfg.get("eta", 0.06)))
    if kind == "zero":
        return FinanciabilitySpec.zero()
    from .market import check_consistency

    cert = check_consistency(problem.market, problem.tree, problem.restriction)
    return FinanciabilitySpec.state_price(cert, problem.tree)


def problem_to_dict(problem: ValuationProblem) -> dict:
    """Serialize back to the config schema; reloading gives an
    equivalent problem."""
    tree, grid, market = problem.tree, problem.grid, problem.market
    labels = tree.labels

    def label_map(flows: np.ndarray) -> Dict[str, float]:
        """The nonzero entries, in node order."""
        return {lab: v for lab, v in zip(labels, flows.tolist()) if v != 0.0}

    date_text = [str(d) for d in grid.dates]
    nodes = [
        {
            "id": labels[n],
            "date": date_text[j],
            "parent": None if par < 0 else labels[par],
            "p": p,
        }
        for n, (par, j, p) in enumerate(
            zip(tree.parent.tolist(), tree.date_idx.tolist(), tree.prob.tolist())
        )
    ]
    tradables = []
    for k in range(market.n_assets):
        spec = {
            "prices": dict(zip(labels, market.prices[:, k].tolist())),
            "inflows": label_map(market.inflows[:, k]),
        }
        if k in market.bond_periods:
            spec["bond_period"] = market.bond_periods[k]
        tradables.append(spec)
    doc = {
        "grid": {"T": grid.horizon, "dates": [str(d) for d in grid.dates]},
        "tree": {"nodes": nodes},
        "market": {"tradables": tradables, "close_out": market.close_out},
        "liability": {
            "outflows": label_map(problem.liability.outflows),
            "inflows": label_map(problem.liability.inflows),
            "terminal": label_map(problem.liability.terminal),
        },
        "illiquid": {"inflows": label_map(problem.illiquid.inflows)},
        "fulfillment": dict(problem.fulfillment_cfg),
        "financiability": dict(problem.financiability_cfg),
        "engine": dict(problem.engine_cfg),
    }
    if problem.restriction is not None:
        if problem.restriction.indices is not None:
            doc["restriction"] = {"indices": list(problem.restriction.indices)}
        else:
            doc["restriction"] = {
                "basis": [list(row) for row in problem.restriction.basis]
            }
    return doc
