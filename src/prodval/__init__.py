"""Production-cost valuation of insurance liabilities on finite
discrete-time scenario trees.

The engine builds production strategies backward over one-year periods:
each period must fund the liability cash flows, satisfy a fulfillment
condition at the year end, and finance its capital under a
financiability condition. The liability value is the minimal strategy
value net of raised capital over the configured strategy family, with
regulatory (Solvency II / SST style) BEL + RM decompositions, market
consistency certificates, and failure write-down resolution on top.
"""

__version__ = "0.1.0"

from .conditions import (
    CapitalSchedule,
    FinanciabilitySpec,
    FulfillmentSpec,
    fulfillment_satisfied,
    max_capital,
)
from .engine import (
    EngineConfig,
    IlliquidPortfolio,
    LiabilitySpec,
    ProductionCostProcess,
    StrategyFamily,
    backward_value,
    build_one_period,
    validate_production_strategy,
)
from .lattice import (
    DateGrid,
    ScenarioTree,
    build_tree,
    conditional_distribution,
)
from .market import (
    ConsistencyCertificate,
    RestrictionSet,
    TradableSet,
    check_consistency,
)
from .risk import (
    DiscreteDistribution,
    RiskMeasureSpec,
    apply_measure,
    expected_shortfall,
    lower_quantile,
    value_at_risk,
)
from .solvency import (
    RateCurve,
    multi_period_solvency,
    stage1_closed_form,
    stage1_value,
    stage2_decompose,
    stage3_decompose,
)
from .strategy import (
    CashflowProcess,
    Strategy,
    conversion_residual,
    decompose_general,
    short_position_cashflows,
    strategy_value,
)

__all__ = [
    "CapitalSchedule", "CashflowProcess", "ConsistencyCertificate", "DateGrid",
    "DiscreteDistribution", "EngineConfig", "FinanciabilitySpec", "FulfillmentSpec",
    "IlliquidPortfolio", "LiabilitySpec", "ProductionCostProcess", "RateCurve",
    "RestrictionSet", "RiskMeasureSpec", "ScenarioTree", "Strategy", "StrategyFamily",
    "TradableSet", "apply_measure", "backward_value", "build_one_period", "build_tree",
    "check_consistency", "conditional_distribution", "conversion_residual",
    "decompose_general", "expected_shortfall", "fulfillment_satisfied",
    "lower_quantile", "max_capital", "multi_period_solvency",
    "short_position_cashflows", "stage1_closed_form", "stage1_value",
    "stage2_decompose", "stage3_decompose", "strategy_value",
    "validate_production_strategy", "value_at_risk",
]
