"""Golden sha256 digests of every report the CLI writes for the bundled
configs and for configs generated from seeded random trees, with exit
codes and error text.

A refactor that keeps these digests keeps the reports byte-identical.
Regenerate them only for an intended change of report content.
"""

import builtins
import hashlib
import importlib
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prodval
from prodval.cli import main

from util import generated_config

CONFIGS = Path(__file__).parent.parent / "configs"

GOLDEN = {
    ("inconsistent_market", "value"): (
        0,
        "",
        {
            "metadata.json": "2a0faaa76f1babd1e97b27db6fb7e1c8d512849ce297705d7f1e809eb8eefb92",
            "production.csv": "07fa895064c0756a96667cabe144cb73b921c8abfb657e338b7c49606ac11c0b",
        },
    ),
    ("inconsistent_market", "solvency"): (
        1,
        "error: solvency needs a cost_of_capital financiability condition (eta)\n",
        {},
    ),
    ("inconsistent_market", "check"): (
        0,
        "",
        {
            "check.json": "95d162961d875c42d460a67cdb205c903952c744e4b6922ed112d1b815a5a4e3",
            "metadata.json": "5eafc8b8566016365c7bead781295c0ba08bbc0cfcdc8ec25cfae3314237211d",
        },
    ),
    ("inconsistent_market", "adjust"): (
        1,
        "error: no flagged risk-free bond for period (0, 1)\n",
        {},
    ),
    ("two_point", "value"): (
        0,
        "",
        {
            "metadata.json": "492146e34b2c959407c0bcd32b6e7ff98258411e414308fe4ac5d5ce4987ab3e",
            "production.csv": "2d401e565ad614c225fbb63d605cc5fae251ec8d0960460eebfac656e196ca13",
        },
    ),
    ("two_point", "solvency"): (
        0,
        "",
        {
            "metadata.json": "dbc13872850b1f0ecafb4c4b3c9d8a1770622cdc74f2480e2eb5a4ac3812c481",
            "solvency.csv": "a425f7388b816f5389b0e09a5a77d82afe422fa6bd90c6402d799e46578dd763",
            "solvency.json": "59123999e4712729d946e548e8cf6a36dc392995af54d65d7140b283f0a0603b",
        },
    ),
    ("two_point", "check"): (
        0,
        "",
        {
            "check.json": "bbeac0024d4245b7bcadaf521b71072538c90501c92bb3c830327ae5be3fd72f",
            "metadata.json": "41a26cbf3794b163e2246d995f77ac4787d55495251f88d491484794643511e3",
        },
    ),
    ("two_point", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "7477b1cd50da3e233abe16bbdb17891384bd5a5815d9198094634edd034ec2b8",
            "adjust.json": "c0878c4366b72cbc6f92cd6272c3f25bcd7873a3db35e37bc438a170c6789301",
            "metadata.json": "e5f891b88287f4f590d238df73ac5c17e15301175f4e7686b6905219ea5f6fbb",
        },
    ),
}


def _run_digests(args, out_dir, capsys):
    code = main(list(args) + ["--output-dir", str(out_dir)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }
    return code, capsys.readouterr().err, digests


@pytest.mark.parametrize(
    "config,subcommand", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_reports_match_golden_digests(config, subcommand, tmp_path, capsys):
    args = [subcommand, "--config", str(CONFIGS / f"{config}.json")]
    got = _run_digests(args, tmp_path, capsys)
    assert got == GOLDEN[(config, subcommand)]


def test_inconsistent_market_violations_are_the_projections(tmp_path, capsys):
    """The violations that the ``("inconsistent_market", "check")``
    digest pins, worked by hand. Every node's children pay one vector
    twice or once, so each cone is a ray {t y : t >= 0}, and the
    projection of the price s onto it is t y with t = s.y / |y|^2.
    The violation is u = -r / |r|^2 with r = s - t y.

    - root: s = (0.9, 1), y = (1, 2): t = 2.9 / 5 = 0.58, r = (0.32,
      -0.16), |r|^2 = 0.128, u = (-2.5, 1.25);
    - u and d: s = (1, 2), y = (1, 1): t = 1.5, r = (-0.5, 0.5), |r|^2 =
      0.5, u = (1, -1).

    On a ray in the plane the projection's violation is also the one
    vertex of the Farkas LP (u.y = 0, u.s = -1), so the digest is the
    one the Farkas LP gave."""
    code, _, _ = _run_digests(
        ["check", "--config", str(CONFIGS / "inconsistent_market.json")], tmp_path, capsys
    )
    assert code == 0
    certs = json.loads((tmp_path / "check.json").read_text())["consistency"]["used_subspace"]
    assert certs == {
        "root": {"consistent": False, "violation": [-2.5, 1.25]},
        "u": {"consistent": False, "violation": [1.0, -1.0]},
        "d": {"consistent": False, "violation": [1.0, -1.0]},
    }


def compensates(items, start=0) -> bool:
    """Whether Python 3.12's ``sum`` compensates: an int start and every
    item exactly a float (it does not compensate numpy scalars or arrays)."""
    return type(start) is int and all(type(x) is float for x in items)


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 adds floats: Neumaier-compensated where
    ``compensates``, the plain sum otherwise."""
    items = list(iterable)
    if not compensates(items, start):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def python312_sum(monkeypatch):
    """Shadow ``sum`` in every prodval module with ``compensated_sum``, so
    that a run on an older Python adds floats as 3.12 would; returns the
    items of the sums it compensated."""
    compensated = []

    def shadow(iterable, /, start=0):
        items = list(iterable)
        if compensates(items, start):
            compensated.append(items)
        return compensated_sum(items, start)

    for info in pkgutil.iter_modules(prodval.__path__):
        module = importlib.import_module(f"prodval.{info.name}")
        monkeypatch.setattr(module, "sum", shadow, raising=False)
    return compensated


def test_compensated_sum_is_the_312_sum():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    # Not every item a float: added as they come.
    assert compensated_sum([1e16, np.float64(1.0), -1e16]) == builtins.sum(
        [1e16, np.float64(1.0), -1e16]
    )


@pytest.mark.parametrize(
    "config,subcommand", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_reports_keep_their_bytes_under_a_compensated_sum(
    config, subcommand, tmp_path, capsys, python312_sum
):
    test_reports_match_golden_digests(config, subcommand, tmp_path, capsys)
    # The program adds floats with risk.sum_left_to_right, which gives
    # every Python version the same bits.
    assert python312_sum == []


def test_golden_covers_every_bundled_config():
    assert {c for c, _ in GOLDEN} == {p.stem for p in CONFIGS.glob("*.json")}


# --- generated trees ----------------------------------------------------------

# (seed, years, interior dates per year): 274 and 217 nodes, up to three
# children per node, one and two interior dates per year.
TREES = {"tree274": (2, 3, 1), "tree217": (7, 2, 2)}

_FIXED_MIX = {
    "mode": "B",
    "family": {"type": "fixed_mix", "indices": [0, 1], "grid_depth": 2},
}

# Subcommand arguments and config overrides per case.
CASES = {
    "value_risk_free_var": (("value",), {}),
    "value_fixed_mix_es": (
        ("value",),
        {
            "fulfillment": {"type": "es", "alpha": 0.05},
            "engine": {
                "mode": "B",
                "family": {"type": "fixed_mix", "indices": [0, 1], "grid_depth": 2},
            },
        },
    ),
    "solvency_stage3": (("solvency", "--stage", "3"), {}),
    "check_restricted": (("check",), {"restriction": {"indices": [0, 2, 3]}}),
    # The used subspace's certificate comes from the financiability
    # condition; the full space's from its own check.
    "check_state_price": (
        ("check",),
        {"restriction": {"indices": [0, 2, 3]}, "financiability": {"type": "state_price"}},
    ),
    "adjust": (("adjust",), {"fulfillment": {"type": "var", "alpha": 0.2}}),
    # Write-downs at two or more annual dates with the excess illiquid
    # inflows paid out through theta (see test_adjust_illiquid_*).
    "adjust_illiquid": (
        ("adjust",),
        lambda doc: dict(
            _interior_illiquid(doc), fulfillment={"type": "var", "alpha": 0.2}
        ),
    ),
    # The risk-free one-period step under every fulfillment and
    # financiability variant, in both modes, and with infeasible nodes.
    "value_risk_free_es": (("value",), {"fulfillment": {"type": "es", "alpha": 0.05}}),
    "value_risk_free_prob90": (("value",), {"fulfillment": {"type": "prob", "p": 0.9}}),
    "value_risk_free_prob100": (("value",), {"fulfillment": {"type": "prob", "p": 1.0}}),
    "value_risk_free_full": (("value",), {"fulfillment": {"type": "full"}}),
    "value_risk_free_zero": (("value",), {"financiability": {"type": "zero"}}),
    "value_risk_free_state_price": (
        ("value",),
        {"financiability": {"type": "state_price"}},
    ),
    "value_risk_free_mode_a": (
        ("value",),
        lambda doc: dict(
            _level_inflows(doc),
            engine={"mode": "A", "family": {"type": "risk_free"}},
        ),
    ),
    "value_risk_free_no_bond": (
        ("value",),
        lambda doc: dict(_drop_bond(doc, 1), financiability={"type": "zero"}),
    ),
    # The fixed-mix and explicit one-period steps.
    "value_fixed_mix_var": (("value",), {"engine": _FIXED_MIX}),
    "value_fixed_mix_prob90": (
        ("value",),
        {"fulfillment": {"type": "prob", "p": 0.9}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_full": (
        ("value",),
        {"fulfillment": {"type": "full"}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_zero": (
        ("value",),
        {"financiability": {"type": "zero"}, "engine": _FIXED_MIX},
    ),
    "value_fixed_mix_mode_a": (
        ("value",),
        lambda doc: dict(_level_inflows(doc), engine=dict(_FIXED_MIX, mode="A")),
    ),
    "value_explicit": (("value",), lambda doc: dict(doc, engine=_explicit_engine(doc))),
}


def _level_inflows(doc: dict) -> dict:
    """An inflow of 100 wherever an outflow (drawn from 50..150) falls:
    some years end with a net inflow, so mode A reports negative
    production costs next to positive ones."""
    outflows = doc["liability"]["outflows"]
    inflows = dict.fromkeys(outflows, 100.0)
    return dict(doc, liability={"outflows": outflows, "inflows": inflows})


def _interior_illiquid(doc: dict) -> dict:
    """An illiquid inflow of 10 at every interior node."""
    interior = [n["id"] for n in doc["tree"]["nodes"] if Fraction(n["date"]).denominator != 1]
    return dict(doc, illiquid={"inflows": dict.fromkeys(interior, 10.0)})


def _drop_bond(doc: dict, period: int) -> dict:
    """Without the period bond, the nodes of that date are infeasible,
    and so is every node above them: the run exits 2."""
    market = doc["market"]
    tradables = [t for t in market["tradables"] if t.get("bond_period") != period]
    return dict(doc, market=dict(market, tradables=tradables))


def _explicit_engine(doc: dict) -> dict:
    """An explicit family whose base buys 0 to 300 units of the period
    bond at each annual node and holds them through the year, so it
    funds its interior dates exactly. Some years end above the
    liability (no top-up) and some below it (a bond top-up)."""
    rng = np.random.default_rng(0)
    tradables = doc["market"]["tradables"]
    bond = {t["bond_period"]: k for k, t in enumerate(tradables) if "bond_period" in t}
    horizon = doc["grid"]["T"]
    assignments = {}
    # Parents come before their children in the node list.
    for node in doc["tree"]["nodes"]:
        date = Fraction(node["date"])
        units = [0.0] * len(tradables)
        if date < horizon:
            k = bond[math.floor(date)]
            if date.denominator == 1:
                units[k] = float(rng.uniform(0.0, 300.0))
            else:
                units[k] = assignments[node["parent"]][k]
        assignments[node["id"]] = units
    return {
        "mode": "B",
        "family": {"type": "explicit", "strategy": {"assignments": assignments}},
    }


def _config(tree: str, overrides) -> dict:
    doc = generated_config(*TREES[tree])
    if callable(overrides):
        return overrides(doc)
    return dict(doc, **overrides)


GENERATED_GOLDEN = {
    ("tree217", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "8c8a00bad80f43ce86609a16c517985f2bd3828cb9246059d88e4dca2acb1e97",
            "adjust.json": "5b2ef14e130c5a96292ec0a2384f89774c5ce9ac40960553acf658df9a143310",
            "metadata.json": "b3eb0584573740174242fc7e57dec0d1f2295940cb6088384b85736bf68fbcc8",
        },
    ),
    ("tree217", "adjust_illiquid"): (
        0,
        "",
        {
            "adjust.csv": "bd5467bb3183a7d3a8e70d023693bcf52b8db3baace51a43a484b8573ea63820",
            "adjust.json": "551c37556d1c4b742dcebc143bd34078f17597a7fc81de9e3ac43b9ab41cdb6d",
            "metadata.json": "fba7c5029c1e2cd3d59b0aa3094bd767b22debc2e0002b46f2d61e506ffc0426",
        },
    ),
    ("tree217", "check_restricted"): (
        0,
        "",
        {
            "check.json": "c92606f6daae9c4bea482337a46811314fb9926df5d420a82a024b16d3b297b6",
            "metadata.json": "a567df09f4b2efd656f5e25e15d2a835bf270f0bc836bc1ff481564398e6a6de",
        },
    ),
    ("tree217", "check_state_price"): (
        0,
        "",
        {
            "check.json": "fb89d0a1dee1e86893e97596514b9fe55ed40a5ac11b6718e3a69f6061245556",
            "metadata.json": "17456afb4012fd54e7a0aaed34eedfd822eb821d75a277acdfaacacfe46893f4",
        },
    ),
    ("tree217", "solvency_stage3"): (
        0,
        "",
        {
            "metadata.json": "17e3d9b0b0dd983fa6f193226b9affd3998cbf11696d0a447ffd71c29759d3a2",
            "solvency.csv": "46829962346fedb69e73901d3c31f3f3c0ecd07c5348a6970416a8b5b6a2b8e8",
            "solvency.json": "4e6b647c1ddf69e151d42126158562f9bd79f06fc730155c2eac56e1ce369b72",
        },
    ),
    ("tree217", "value_explicit"): (
        0,
        "",
        {
            "metadata.json": "50511dc7c3d9b500658a9e37c9c8a46736c023392e696df9a8e8b0944d6cc439",
            "production.csv": "198e0143adeba1f25835c89bafc1ddc05f3b82845a0f8076386487fd1aadb01c",
        },
    ),
    ("tree217", "value_fixed_mix_es"): (
        0,
        "",
        {
            "metadata.json": "48d65ddc7373488b9d3b80e74383e9cfae351598258b94ffef79bca9f42bb270",
            "production.csv": "b65cffea67f4ac8d9bee7e0dd21baf53652b68305adbea167f5459ca80e11a80",
        },
    ),
    ("tree217", "value_fixed_mix_full"): (
        0,
        "",
        {
            "metadata.json": "ce1c9c03905e75b80a9acc6406d9c9afc40cca16071766cb2fe52b9ce41bc5ed",
            "production.csv": "26aca08217bd030ab3bd20af02c59c0ee929feb15a2d830ff60a84b3566d2485",
        },
    ),
    ("tree217", "value_fixed_mix_mode_a"): (
        0,
        "",
        {
            "metadata.json": "93071d55ee10a309ee3b361ad8e8262f71509ed01c4ecb2aad859779ec6d63e2",
            "production.csv": "6c25b6185dc7f0ba653ba5d398c4064d5e52d2e0aaf354c14cbcfc2b6dc15ac7",
        },
    ),
    ("tree217", "value_fixed_mix_prob90"): (
        0,
        "",
        {
            "metadata.json": "7a0678e351f9ea1e9b9b421d5eb30b7eace77dc2e7d071d12602053a24c2f6de",
            "production.csv": "da4516df2eefdde1dffbd13e6708a16e2d5d1c8056eee55f45a03eeee80bc6a4",
        },
    ),
    ("tree217", "value_fixed_mix_var"): (
        0,
        "",
        {
            "metadata.json": "df1006515dc0349222d1b7e2574b34b956b349eab2c15f72e14aee7c2fb1c99a",
            "production.csv": "26aca08217bd030ab3bd20af02c59c0ee929feb15a2d830ff60a84b3566d2485",
        },
    ),
    ("tree217", "value_fixed_mix_zero"): (
        0,
        "",
        {
            "metadata.json": "734386d8a0b094713660d667fae3dee6d84fba99ccefc749e9abe29b1b415107",
            "production.csv": "1c9f6d3f1b37b6fac32f24850fb861867fb3067a0855eb71950d119c8c7c7295",
        },
    ),
    ("tree217", "value_risk_free_es"): (
        0,
        "",
        {
            "metadata.json": "e281870eb1086d9e7042ec33ce7795f5ec51041d37b869c270cef80ef4c042f6",
            "production.csv": "c4428b807ec9032b38a9a6c4b5cb4356ed829f9d2f1c4ae812c4ce158193e997",
        },
    ),
    ("tree217", "value_risk_free_full"): (
        0,
        "",
        {
            "metadata.json": "3979c2086ca8986c37b7739937a390ccadfd59902e4c17ddfa7cf7e7df778f00",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_mode_a"): (
        0,
        "",
        {
            "metadata.json": "3af74f88e27d06b6b9ed708054e736aa55de1218a1e2ff84fcfaa01205579d3a",
            "production.csv": "1514a10e284b17a5cb724232351f38547b10e159e60d6286c62ee05cdcd2ef27",
        },
    ),
    ("tree217", "value_risk_free_no_bond"): (
        2,
        "",
        {
            "metadata.json": "9a3fa4c0ce368a03b9062302002251540dbc8962497ecd6adb7359c22021ec0a",
            "production.csv": "491a9d3efd22ac59371db6f02ef0bbaff8d564e59f1fa42ee54d461e094cbbe5",
        },
    ),
    ("tree217", "value_risk_free_prob100"): (
        0,
        "",
        {
            "metadata.json": "6f729235e38c33af7c8e5b7f46dba4d54782e85b538ec4a8e51536e412b8f268",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_prob90"): (
        0,
        "",
        {
            "metadata.json": "123d5fc2cc5dd461e21c8c7c5e52b21ca07fee5c4862a0dcc1336bbeb854cf87",
            "production.csv": "65fee6c79e1757e94579248c6d70ce08e68fd28b711de36ada1a0ae5034d44fd",
        },
    ),
    ("tree217", "value_risk_free_state_price"): (
        0,
        "",
        {
            "metadata.json": "8138abc850b9fe2a7e5294f48fa1083d4192123e21dc771c8cdf230b0ecd3924",
            "production.csv": "db870d97fb9771b02c7914be55ce2cca1a96314914cd2ef187795e1e26e391aa",
        },
    ),
    ("tree217", "value_risk_free_var"): (
        0,
        "",
        {
            "metadata.json": "ffe15119167671fa56aaf77fe931553bd334b5000b43c06a1b46ac5f2c6e9f1d",
            "production.csv": "39ffaac7d184d2c97a53a1175da0954875194844677b20a96edd8d66156892ae",
        },
    ),
    ("tree217", "value_risk_free_zero"): (
        0,
        "",
        {
            "metadata.json": "4e3bc8986126b04481d41fe7ce83bc281f00c70285e70c3aca28335686037703",
            "production.csv": "cb5e3254903cf7d77c8235cb43831e956807e1f72f3dca0e96a5735c82f91490",
        },
    ),
    ("tree274", "adjust"): (
        0,
        "",
        {
            "adjust.csv": "77dfd8091a691b12a3067bf68e990b7e657f9e4468633405ee9a9154294414bb",
            "adjust.json": "58f2624e8980a9be0d32cd5bb6f8b99b5ae3726693b34e93cf4dfddf2c07f404",
            "metadata.json": "d9030ac6497a4922d44623cadb60acc5a95ff00ddedfe012705c2128e4b35ae4",
        },
    ),
    ("tree274", "adjust_illiquid"): (
        0,
        "",
        {
            "adjust.csv": "75505c8105f1cda917540452d68bbe9604ac8ac1744800efcd234406264a8b1c",
            "adjust.json": "9816b3c38721e5193793119c4dacb75d44fa74541d5c53c81bd15d43918aa46c",
            "metadata.json": "79a2330ae09d829e58cecfa5cbfe3ef35c27c2182cbcf2ec7be0629d0627845e",
        },
    ),
    ("tree274", "check_restricted"): (
        0,
        "",
        {
            "check.json": "5ad4598d8c67e334891b501603f94d5ed659434aac1a23203aef3a74bb70c566",
            "metadata.json": "36ed4c68225483dcffedeb4040f5cde168c29cc1c22b164d7f10f3126ada3252",
        },
    ),
    ("tree274", "check_state_price"): (
        0,
        "",
        {
            "check.json": "db0ea7fad76e6f10f6479bace8289a4805225a88e13086d375522fe4bc21a8fb",
            "metadata.json": "52bc1c6dcd4a56fff7c481b4226afec06eed53be6ecd97cc9f8dba09ef0c3f74",
        },
    ),
    ("tree274", "solvency_stage3"): (
        0,
        "",
        {
            "metadata.json": "2095457f1c19e654b86e8facfd81636ca57cd4241204ede76af8628e5c327aaa",
            "solvency.csv": "98230590d0a3f00059d038864e1653f873743014a1a1054388ee3c91c3ff41e2",
            "solvency.json": "b6bff663307638cff2cae54c749b0aa950274ec1a69fd54029390121334b1645",
        },
    ),
    ("tree274", "value_explicit"): (
        0,
        "",
        {
            "metadata.json": "d04961fd7c0ef1a869d91083e61133db825ccc121cc81c6ae0fbe9feeee86af3",
            "production.csv": "27326bfecceea86a565418ea45a637e54a82b1553ca9809edf92d98d0367a6d1",
        },
    ),
    ("tree274", "value_fixed_mix_es"): (
        0,
        "",
        {
            "metadata.json": "11ca56808bcbbf8fb9f5d1b49c62288318b26801693716512f2deeaf2488de9e",
            "production.csv": "b74c71b856736cc04a1155ba41f00df77bf8e600c0640370f4b7829d91e2ad85",
        },
    ),
    ("tree274", "value_fixed_mix_full"): (
        0,
        "",
        {
            "metadata.json": "15d289fea4dcdc915ae607f7df07891f884cd65450d627fe3883656676683f24",
            "production.csv": "da5479b9588cb8050b3137b6b85cdd6af61cc86f11c7adf3656ae74ba00c05b9",
        },
    ),
    ("tree274", "value_fixed_mix_mode_a"): (
        0,
        "",
        {
            "metadata.json": "edbd4290706a37fa92225fdb7c13307633fa7dc5580ea472a6628284fac7a82d",
            "production.csv": "3363b56cb789c6ff2da8b35242664eb5b84131d0a98dc943b8d5479b875f11d7",
        },
    ),
    ("tree274", "value_fixed_mix_prob90"): (
        0,
        "",
        {
            "metadata.json": "52ba00367f1aa8c86017b19a3342b535540b23bfac066924c676b64fd3076153",
            "production.csv": "c483f19c2beba79eb6bd40bd2f90bef61a141079d1f6877c3d4bef1bf71316f2",
        },
    ),
    ("tree274", "value_fixed_mix_var"): (
        0,
        "",
        {
            "metadata.json": "63831a5b32f871b10f541285684ef46ff414bb98455712fe06057022e0852d9f",
            "production.csv": "da5479b9588cb8050b3137b6b85cdd6af61cc86f11c7adf3656ae74ba00c05b9",
        },
    ),
    ("tree274", "value_fixed_mix_zero"): (
        0,
        "",
        {
            "metadata.json": "05eed4b9a2f4b9de97e757545e8c59a55fea33c3d877df6f1e905cc5be3396f0",
            "production.csv": "6dc7353f36937adaeb31951e69ac68a1b3b66124f169f4468ec248b22b6c9b3a",
        },
    ),
    ("tree274", "value_risk_free_es"): (
        0,
        "",
        {
            "metadata.json": "83dc58bc10c352fad14a761c00023581c498c89285ec1a09aa3f897aeb712f29",
            "production.csv": "1e6a0900ec22ad1f3c1a422e79d61ed2159dbd082f22edeb64a50c8585489284",
        },
    ),
    ("tree274", "value_risk_free_full"): (
        0,
        "",
        {
            "metadata.json": "3c2a2238e9d75652f93d93059cf6ba64376e71a26eea14430a25954b135b034e",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_mode_a"): (
        0,
        "",
        {
            "metadata.json": "d3e68359f184602686feafb909cbafb5c8b6c1cc7d0fa8292357dcb1fd4b7be6",
            "production.csv": "ed8897e1079a0d62e4fd04f28ab30151422cbcb09cd8eb58b3629c774acd4476",
        },
    ),
    ("tree274", "value_risk_free_no_bond"): (
        2,
        "",
        {
            "metadata.json": "09bcde09238a063f894a77249e564eee8259b881011d37e92f81363e3363135f",
            "production.csv": "694dc9a4054cb6088f385e50fb75a4d805b1a2516e4cd27f5c97c54d68fe0156",
        },
    ),
    ("tree274", "value_risk_free_prob100"): (
        0,
        "",
        {
            "metadata.json": "0b7807f701e31cfce3ebe3662605ea466a401d32c715300a559a0ed77c4b7822",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_prob90"): (
        0,
        "",
        {
            "metadata.json": "c2c54bc72fc6657932d13fcb15f9ef091a6526ddfc9343232cbea63704c99bc1",
            "production.csv": "ba22c208f48e334d0441950547771272ee7ca0657a1743b9eafd8d630f4729f7",
        },
    ),
    ("tree274", "value_risk_free_state_price"): (
        0,
        "",
        {
            "metadata.json": "42b8c2c4f5d34fdc436ca370f31077ca19c65f2bda0e13049cf49be922af335b",
            "production.csv": "53de94021e87147e2dd2667d68f763ce287d18e3b243efac77e176e063f89bf8",
        },
    ),
    ("tree274", "value_risk_free_var"): (
        0,
        "",
        {
            "metadata.json": "f0ae23867960a19583deea89d78875d22e9aef1d0263d48c23106be70c9434dc",
            "production.csv": "8a307f406ec4deda79a6baae7729a4ccb7a8a3c37cee16b25ed5452ec2addd9d",
        },
    ),
    ("tree274", "value_risk_free_zero"): (
        0,
        "",
        {
            "metadata.json": "1ccd586d75fe598f4663ada08f8b2b6a908aa7eb5e4618cffebb0061dd7bee3a",
            "production.csv": "44c53afbee8e35ccd91fdd1f608ca65d9ec41718bae0f005607aaeab8d969a95",
        },
    ),
}


@pytest.mark.parametrize(
    "tree,case", sorted(GENERATED_GOLDEN), ids=lambda v: str(v)
)
def test_generated_tree_reports_match_golden_digests(tree, case, tmp_path, capsys):
    args, overrides = CASES[case]
    doc = _config(tree, overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=1))
    out = tmp_path / "out"
    out.mkdir()
    got = _run_digests(list(args) + ["--config", str(config)], out, capsys)
    assert got == GENERATED_GOLDEN[(tree, case)]


@pytest.mark.parametrize(
    "tree,case", sorted(GENERATED_GOLDEN), ids=lambda v: str(v)
)
def test_generated_reports_keep_their_bytes_under_a_compensated_sum(
    tree, case, tmp_path, capsys, python312_sum
):
    test_generated_tree_reports_match_golden_digests(tree, case, tmp_path, capsys)
    assert python312_sum == []


def test_generated_golden_covers_every_tree_and_case():
    assert set(GENERATED_GOLDEN) == {(t, c) for t in TREES for c in CASES}


@pytest.mark.parametrize("tree", sorted(TREES))
def test_adjust_illiquid_pins_exercise_the_sweep(tree):
    """The adjust_illiquid pins cover write-downs at two or more annual
    dates and nonzero theta payouts, so they pin the write-down factors'
    dependence on the excess illiquid inflows of earlier years."""
    from dataclasses import replace

    from prodval.cli import _engine_rates
    from prodval.config import financiability_of, problem_from_dict
    from prodval.engine import backward_value
    from prodval.resolution import extend_to_full_fulfillment

    problem = problem_from_dict(_config(tree, CASES["adjust_illiquid"][1]))
    financiability = financiability_of(problem)
    rates = _engine_rates(problem)
    cost = backward_value(
        problem.liability,
        problem.illiquid,
        replace(problem.engine, mode="B"),
        problem.fulfillment,
        financiability,
        problem.market,
        problem.tree,
        rates,
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
    dates = {problem.tree.date_of(n) for n, xi in result.xi.items() if xi < 1.0}
    assert len(dates) >= 2
    assert result.theta.payouts.any()
    assert result.ok
