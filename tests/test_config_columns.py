"""The config file reader turns label-keyed sections into columns while
it parses. A loaded file must give the problem, arrays and errors that
``problem_from_dict`` gives for the same document, and the parse must
not hold the sections' dicts of floats."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from util import generated_config

from prodval.config import load_config, problem_from_dict, problem_to_dict
from prodval.errors import ProdvalError

SEEDS = range(6)


def _doc(seed):
    doc = generated_config(seed, years=2, interior_per_year=1)
    labels = [node["id"] for node in doc["tree"]["nodes"]]
    rng = np.random.default_rng(seed)
    doc["illiquid"] = {
        "inflows": {lab: float(v) for lab, v in zip(labels, rng.uniform(0, 5, len(labels)))}
    }
    leaves = set(labels) - {node["parent"] for node in doc["tree"]["nodes"]}
    doc["liability"]["terminal"] = {lab: float(rng.normal()) for lab in labels if lab in leaves}
    return doc


def _shuffled(doc, seed):
    """``doc`` with the items of every label-keyed section in random order."""
    rng = np.random.default_rng(seed)

    def shuffle(flows):
        items = list(flows.items())
        return dict(items[k] for k in rng.permutation(len(items)))

    for spec in doc["market"]["tradables"]:
        for key in ("prices", "inflows"):
            spec[key] = shuffle(spec[key])
    for key in ("outflows", "inflows", "terminal"):
        doc["liability"][key] = shuffle(doc["liability"][key])
    doc["illiquid"]["inflows"] = shuffle(doc["illiquid"]["inflows"])
    return doc


def _integers(doc, seed):
    """``doc`` with some values of each kind of section as integers."""
    rng = np.random.default_rng(seed)

    def some_ints(flows):
        return {lab: int(v) if rng.uniform() < 0.5 else v for lab, v in flows.items()}

    spec = doc["market"]["tradables"][0]
    spec["inflows"] = some_ints(spec["inflows"])
    for key in ("outflows", "inflows", "terminal"):
        doc["liability"][key] = some_ints(doc["liability"][key])
    doc["illiquid"]["inflows"] = {lab: 1 for lab in doc["illiquid"]["inflows"]}
    return doc


def _last_label(flows):
    return list(flows)[-1]


def _nan(doc, seed):
    flows = doc["liability"]["outflows"]
    flows[_last_label(flows)] = math.nan
    return doc


def _negative(doc, seed):
    flows = doc["illiquid"]["inflows"]
    flows[_last_label(flows)] = -1.5
    return doc


def _negative_price(doc, seed):
    """A price the market's constructor rejects, not the section reader."""
    flows = doc["market"]["tradables"][1]["prices"]
    flows[_last_label(flows)] = -0.5
    return doc


def _negative_bond_price(doc, seed):
    flows = doc["market"]["tradables"][0]["prices"]
    flows["n0"] = -0.5
    return doc


def _infinite(doc, seed):
    flows = doc["market"]["tradables"][1]["inflows"]
    flows[_last_label(flows)] = math.inf
    return doc


def _unknown_node(doc, seed):
    doc["liability"]["terminal"]["nowhere"] = 1.0
    return doc


def _missing_price(doc, seed):
    del doc["market"]["tradables"][2]["prices"]["n0"]
    return doc


def _string_value(doc, seed):
    doc["liability"]["terminal"]["n0"] = "1.0"
    return doc


def _outcome(load):
    try:
        return load()
    except ProdvalError as e:
        return type(e), str(e)


def _arrays(problem):
    return {
        "prices": problem.market.prices,
        "market_inflows": problem.market.inflows,
        "outflows": problem.liability.outflows,
        "liability_inflows": problem.liability.inflows,
        "terminal": problem.liability.terminal,
        "illiquid": problem.illiquid.inflows,
        "parent": problem.tree.parent,
        "prob": problem.tree.prob,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc, seed: doc, _shuffled, _integers, _nan, _negative, _negative_price,
        _negative_bond_price, _infinite, _unknown_node, _missing_price, _string_value,
    ],
    ids=[
        "node_order", "shuffled", "integers", "nan", "negative", "negative_price",
        "negative_bond_price", "infinite", "unknown_node", "missing_price", "string_value",
    ],
)
def test_loaded_file_is_the_document(edit, seed, tmp_path):
    """Arrays bit for bit, and errors word for word, as from the dict."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edit(_doc(seed), seed)))
    loaded = _outcome(lambda: load_config(str(path)))
    built = _outcome(lambda: problem_from_dict(json.loads(path.read_text())))
    if isinstance(built, tuple):
        assert loaded == built
        return
    for name, want in _arrays(built).items():
        got = _arrays(loaded)[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert json.dumps(problem_to_dict(loaded)) == json.dumps(problem_to_dict(built))


def test_verbatim_objects_keep_no_columns(tmp_path):
    """Objects a problem keeps verbatim may carry section keys; the reader
    leaves them as objects, so the problem serialises back to JSON."""
    doc = _doc(0)
    doc["engine"]["inflows"] = {"n0": 1.5, "n1": 2.0}
    doc["engine"]["family"]["prices"] = {"n0": 0.5}
    doc["fulfillment"]["outflows"] = {"n0": 3.0}
    doc["financiability"]["terminal"] = {"n1": 4.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    problem = load_config(str(path))
    assert problem.engine_cfg == doc["engine"]
    assert problem.fulfillment_cfg == doc["fulfillment"]
    assert problem.financiability_cfg == doc["financiability"]
    again = json.loads(json.dumps(problem_to_dict(problem)))
    assert again["engine"] == doc["engine"]
    assert json.dumps(problem_to_dict(problem_from_dict(again))) == json.dumps(again)


def test_parse_holds_no_section_dicts(tmp_path):
    """Reading a 10,112-node config traces a lower peak than reading and
    parsing it into plain objects: its sections' dicts and floats are
    freed as the parse goes, so they are never all alive at once."""
    doc = generated_config(0, years=4, interior_per_year=2)
    assert len(doc["tree"]["nodes"]) == 10_112
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    del doc

    def traced_peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = traced_peak(lambda: json.loads(path.read_text()))
    loaded = traced_peak(lambda: load_config(str(path)))
    assert loaded < plain

