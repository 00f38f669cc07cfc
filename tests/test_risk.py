import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodval.errors import BadLevel, EmptyDistribution
from prodval.risk import (
    DiscreteDistribution,
    DistributionRows,
    RiskMeasureSpec,
    apply_measure,
    expected_shortfall,
    lower_quantile,
    value_at_risk,
)

import scalar_reference as ref


def dist(*atoms):
    return DiscreteDistribution.from_atoms(atoms)


@st.composite
def discrete_dists(draw, min_v=-50.0, max_v=50.0):
    n = draw(st.integers(min_value=1, max_value=8))
    values = draw(
        st.lists(
            st.floats(min_value=min_v, max_value=max_v, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(weights)
    return DiscreteDistribution.from_atoms(
        [(v, w / total) for v, w in zip(values, weights)]
    )


class TestLowerQuantile:
    def test_two_point_at_exact_mass(self):
        # inf{y : P[Y<=y] >= 0.5} walks to the first atom.
        assert lower_quantile(dist((1, 0.5), (2, 0.5)), 0.5) == 1

    def test_two_point_above_mass(self):
        assert lower_quantile(dist((1, 0.5), (2, 0.5)), 0.6) == 2

    def test_point_mass(self):
        for u in (0.01, 0.5, 1.0):
            assert lower_quantile(DiscreteDistribution.point(3.25), u) == 3.25

    def test_bad_level(self):
        with pytest.raises(BadLevel):
            lower_quantile(dist((1, 1.0)), 0.0)
        with pytest.raises(BadLevel):
            lower_quantile(dist((1, 1.0)), 1.5)


class TestValueAtRisk:
    def test_point_mass(self):
        assert value_at_risk(DiscreteDistribution.point(7.0), 0.005) == -7.0

    def test_loss_quantile(self):
        # rho(-L) for L in {80,120}: q_0.995 of L.
        L = dist((80, 0.5), (120, 0.5))
        assert value_at_risk(L.negated(), 0.005) == 120

    def test_small_tail_ignored(self):
        y = dist((-100, 0.005), (0, 0.995))
        assert value_at_risk(y, 0.01) == 0


class TestExpectedShortfall:
    def test_point_mass(self):
        assert expected_shortfall(DiscreteDistribution.point(4.0), 0.01) == -4.0

    def test_three_atom_partial_tail(self):
        # integral over (0, 0.01] = 0.005*(-100) + 0.005*(-50) = -0.75
        y = dist((-100, 0.005), (-50, 0.005), (0, 0.99))
        assert expected_shortfall(y, 0.01) == pytest.approx(75.0, abs=1e-12)

    def test_tail_wider_than_alpha(self):
        y = dist((-100, 0.02), (0, 0.98))
        assert expected_shortfall(y, 0.01) == pytest.approx(100.0, abs=1e-12)


class TestApplyMeasure:
    def test_full_is_worst_case(self):
        assert apply_measure(RiskMeasureSpec("full"), dist((-3, 0.5), (5, 0.5))) == 3

    def test_var_point(self):
        spec = RiskMeasureSpec("var", 0.005)
        assert apply_measure(spec, DiscreteDistribution.point(7.0)) == -7.0

    def test_es_three_atom(self):
        spec = RiskMeasureSpec("es", 0.01)
        y = dist((-100, 0.005), (-50, 0.005), (0, 0.99))
        assert apply_measure(spec, y) == pytest.approx(75.0, abs=1e-12)

    def test_bad_spec(self):
        with pytest.raises(BadLevel):
            RiskMeasureSpec("var", 1.0)
        with pytest.raises(BadLevel):
            RiskMeasureSpec("cvar", 0.5)

    def test_empty(self):
        with pytest.raises(EmptyDistribution):
            DiscreteDistribution((), ())

    def test_nan_probability_is_rejected(self):
        # NaN <= 0 is false, and so is the check of the sum.
        with pytest.raises(ValueError, match="strictly positive"):
            DiscreteDistribution((-1.0, 2.0), (math.nan, 1.0))
        with pytest.raises(ValueError, match="strictly positive"):
            DiscreteDistribution.from_atoms([(1.0, 0.5), (2.0, math.nan), (3.0, 0.5)])


MEASURES = [
    RiskMeasureSpec("full"),
    RiskMeasureSpec("var", 0.005),
    RiskMeasureSpec("var", 0.1),
    RiskMeasureSpec("es", 0.01),
    RiskMeasureSpec("es", 0.25),
]


class TestAxioms:
    @settings(max_examples=200, deadline=None)
    @given(discrete_dists(), st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_translation_invariance(self, d, a):
        for spec in MEASURES:
            lhs = apply_measure(spec, d.shifted(a))
            rhs = apply_measure(spec, d) - a
            assert abs(lhs - rhs) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(discrete_dists(), st.floats(min_value=0, max_value=10, allow_nan=False))
    def test_positive_homogeneity(self, d, a):
        for spec in MEASURES:
            lhs = apply_measure(spec, d.scaled(a))
            rhs = a * apply_measure(spec, d)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, a)

    @settings(max_examples=200, deadline=None)
    @given(discrete_dists(), st.floats(min_value=0.001, max_value=0.999))
    def test_es_dominates_var(self, d, alpha):
        assert expected_shortfall(d, alpha) >= value_at_risk(d, alpha) - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        discrete_dists(),
        st.floats(min_value=0.001, max_value=0.5),
        st.floats(min_value=0.001, max_value=0.49),
    )
    def test_es_nonincreasing_in_alpha(self, d, a1, delta):
        a2 = a1 + delta
        assert expected_shortfall(d, a2) <= expected_shortfall(d, a1) + 1e-12


def test_sst_safety_level_property():
    """If ES_alpha(Y) <= 0 there is a smaller alpha' with VaR_alpha'(Y) <= 0.

    beta = inf{u : q_u(Y) >= 0} must fall below alpha, and the VaR at the
    midpoint (beta + alpha)/2 must be non-positive.
    """
    import numpy as np

    rng = np.random.default_rng(20240817)
    alpha = 0.01
    n_ok = 0
    while n_ok < 200:
        p_neg = float(rng.uniform(0.0005, 0.0095))
        v_neg = float(rng.uniform(-100.0, -1.0))
        # Positive mass placed so the tail integral is non-negative.
        v_pos = -v_neg * p_neg / (alpha - p_neg) + float(rng.uniform(0.1, 5.0))
        rest = [
            (v_pos + float(rng.uniform(0, 50)), float(rng.uniform(0.1, 1.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        mass_rest = sum(p for _, p in rest)
        scale = (1.0 - p_neg - 0.02) / mass_rest
        atoms = [(v_neg, p_neg), (v_pos, 0.02)] + [(v, p * scale) for v, p in rest]
        d = DiscreteDistribution.from_atoms(atoms)
        if expected_shortfall(d, alpha) > 0:
            continue
        n_ok += 1
        # beta: cumulative mass strictly below zero.
        beta = sum(p for v, p in zip(d.values, d.probs) if v < 0)
        assert beta < alpha
        mid = (beta + alpha) / 2
        assert value_at_risk(d, mid) <= 1e-12
    assert n_ok == 200


# Values and weights from small sets, so rows have tied values with
# different probabilities, and running sums that land on the levels.
TIE_VALUES = (-math.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0)
TIE_WEIGHTS = (0.1, 0.2, 0.25, 0.3, 0.7)
LEVELS = (0.005, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9)


@st.composite
def tied_dists(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    atom = st.one_of(st.sampled_from(TIE_VALUES), st.floats(-5.0, 5.0))
    values = draw(st.lists(atom, min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from(TIE_WEIGHTS), min_size=n, max_size=n))
    total = sum(weights)
    return DiscreteDistribution.from_atoms(
        [(v, w / total) for v, w in zip(values, weights)]
    )


def stacked(dists, pad_value):
    counts = np.array([len(d.values) for d in dists])
    values = np.full((len(dists), counts.max()), pad_value)
    probs = np.zeros(values.shape)
    for r, d in enumerate(dists):
        values[r, : counts[r]] = d.values
        probs[r, : counts[r]] = d.probs
    return DistributionRows(values, probs, counts)


def hexes(xs):
    return [float(x).hex() for x in xs]


class TestDistributionRows:
    """Each row gives the frozen one-distribution loop's result bit for
    bit, whatever the padding holds, and so does a single distribution."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(tied_dists(), min_size=1, max_size=6),
        st.sampled_from(LEVELS),
        st.sampled_from((-math.inf, 0.0, 7.0, math.inf)),
    )
    def test_rows_match_scalar_functions(self, dists, level, pad_value):
        rows = stacked(dists, pad_value)
        for spec in (
            RiskMeasureSpec("full"),
            RiskMeasureSpec("var", level),
            RiskMeasureSpec("es", level),
        ):
            want = [ref.apply_measure(spec, d) for d in dists]
            assert hexes(apply_measure(spec, rows)) == hexes(want)
            assert hexes(apply_measure(spec, d) for d in dists) == hexes(want)
        want = [ref.lower_quantile(d.negated(), level) for d in dists]
        assert hexes(lower_quantile(rows.negated(), level)) == hexes(want)
        assert hexes(lower_quantile(d.negated(), level) for d in dists) == hexes(want)
        assert hexes(rows.min()) == hexes(ref.dist_min(d) for d in dists)
        want = [ref.prob_at_least(d, -1e-9) for d in dists]
        assert hexes(rows.prob_at_least(-1e-9)) == hexes(want)
        finite = [d for d in dists if not any(map(math.isinf, d.values))]
        if finite:
            rows = stacked(finite, pad_value)
            assert hexes(rows.mean()) == hexes(ref.dist_mean(d) for d in finite)

    def test_one_distribution_gives_python_scalars(self):
        d = dist((-1.0, 0.25), (2.0, 0.75))
        spec = RiskMeasureSpec("es", 0.5)
        assert type(apply_measure(spec, d)) is float
        assert type(lower_quantile(d, 0.5)) is float
        assert type(value_at_risk(d, 0.5)) is float
