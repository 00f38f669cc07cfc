"""The package's public names, pinned so that a change to them is
deliberate (and goes with a README and CHANGES.md entry)."""

import prodval

EXPORTS = [
    "CapitalSchedule",
    "CashflowProcess",
    "ConsistencyCertificate",
    "DateGrid",
    "DiscreteDistribution",
    "EngineConfig",
    "FinanciabilitySpec",
    "FulfillmentSpec",
    "IlliquidPortfolio",
    "LiabilitySpec",
    "ProductionCostProcess",
    "RateCurve",
    "RestrictionSet",
    "RiskMeasureSpec",
    "ScenarioTree",
    "Strategy",
    "StrategyFamily",
    "TradableSet",
    "apply_measure",
    "backward_value",
    "build_one_period",
    "build_tree",
    "check_consistency",
    "conditional_distribution",
    "conversion_residual",
    "decompose_general",
    "expected_shortfall",
    "fulfillment_satisfied",
    "lower_quantile",
    "max_capital",
    "multi_period_solvency",
    "short_position_cashflows",
    "stage1_closed_form",
    "stage1_value",
    "stage2_decompose",
    "stage3_decompose",
    "strategy_value",
    "validate_production_strategy",
    "value_at_risk",
]


def test_public_names_are_pinned():
    assert sorted(prodval.__all__) == EXPORTS
    assert all(hasattr(prodval, name) for name in EXPORTS)
