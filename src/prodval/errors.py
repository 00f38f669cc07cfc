"""Exception types raised across the package.

Every error inherits from ProdvalError so callers can catch the whole
family at the CLI boundary.
"""


class ProdvalError(Exception):
    """Base class for all package errors."""


# --- lattice ---------------------------------------------------------------

class InvalidDateGrid(ProdvalError):
    """The date grid violates a structural invariant."""


class MissingInteriorDate(InvalidDateGrid):
    """A calendar year has no date strictly inside it."""


class DateNotInGrid(ProdvalError):
    """A date was requested that is not a grid point."""


class ProbabilityMass(ProdvalError):
    """Branch probabilities of a node's children do not sum to one."""


class OrphanNode(ProdvalError):
    """A node references a parent that does not exist (or a cycle)."""


class LeafNotAtHorizon(ProdvalError):
    """A leaf node sits at a date before the horizon T."""


# --- market / LP -----------------------------------------------------------

class DimensionMismatch(ProdvalError):
    """A portfolio vector has the wrong length."""


class NumericalFailure(ProdvalError):
    """A numerical kernel could not certify a result at its tolerances."""


# --- strategy --------------------------------------------------------------

class NodeOutsideSpan(ProdvalError):
    """A strategy was evaluated at a node outside its date span."""


class UnderlyingHasInflows(ProdvalError):
    """A short position requires an underlying strategy with zero inflows."""


class StopNotAntichain(ProdvalError):
    """A stop set contains a node and one of its descendants."""


class CloseOutUnavailable(ProdvalError):
    """An operation needs short positions with close out, market lacks them."""


# --- risk ------------------------------------------------------------------

class BadLevel(ProdvalError):
    """Quantile or risk-measure level outside its admissible interval."""


class EmptyDistribution(ProdvalError):
    """A discrete distribution with no atoms was supplied."""


# --- conditions ------------------------------------------------------------

class NegativePayoffAtom(ProdvalError):
    """Capital payoff distributions must be non-negative."""


class MissingCertificate(ProdvalError):
    """State-price financiability needs a weights certificate at a node."""


class BadRate(ProdvalError):
    """A per-period rate with 1 + r <= 0 was supplied."""


# --- engine ----------------------------------------------------------------

class SpanMismatch(ProdvalError):
    """Strategy, capital, or flow spans do not cover the requested dates."""


class InfeasibleAtNode(ProdvalError):
    """Backward valuation hit an infeasible node (value is +inf there)."""


class NoBondAvailable(ProdvalError):
    """No flagged one-period risk-free bond exists for the period."""


class ValidationFailed(ProdvalError):
    """A strategy failed production-strategy validation."""


class NeutralityAuditFailed(ProdvalError):
    """The financiability condition failed the neutrality audit."""


class HomogeneityAuditFailed(ProdvalError):
    """The financiability condition failed the positive-homogeneity audit."""


# --- resolution ------------------------------------------------------------

class FixedPointDivergence(ProdvalError):
    """The adjustment-factor iteration did not converge."""


# --- solvency --------------------------------------------------------------

class MassOutsideM1(ProdvalError):
    """Closed-form stage 1 requires the fulfillment set to have mass one."""


class InteriorFlowsPresent(ProdvalError):
    """Multi-period solvency requires cash flows at annual dates only."""


# --- cli / config ----------------------------------------------------------

class ParseError(ProdvalError):
    """The config document is not valid JSON."""


class SchemaViolation(ProdvalError):
    """The config document violates the schema."""


class CrossRefError(ProdvalError):
    """A config section references a node that is missing elsewhere."""
