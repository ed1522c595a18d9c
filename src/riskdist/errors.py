"""Exception types raised by the library.

Metric validation errors name the offending indices so a caller can point at
the exact matrix entries; coupling and measure errors carry the separating
payload needed to re-verify the failure independently.
"""

from __future__ import annotations


class RiskdistError(Exception):
    """Base class for all library errors."""


class InputFormatError(RiskdistError):
    """Malformed JSON input (CLI exit code 2)."""


class MetricError(RiskdistError):
    """A distance matrix fails one of the metric axioms."""


class Asymmetry(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")
        self.indices = (i, j)


class NegativeDistance(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] < 0")
        self.indices = (i, j)


class ZeroOffDiagonal(MetricError):
    def __init__(self, i: int, j: int):
        super().__init__(f"dist[{i}][{j}] = 0 for distinct points")
        self.indices = (i, j)


class TriangleViolation(MetricError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]")
        self.indices = (i, j, k)


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int):
        super().__init__(f"dist[{i}][{i}] != 0")
        self.indices = (i,)


class EmptySubset(RiskdistError):
    """Hausdorff distance needs nonempty subsets."""


class SpaceMismatch(RiskdistError):
    """Two values that must share a space do not."""


class EmptySection(RiskdistError):
    """A support relation has no pair over the required point."""

    def __init__(self, side: str, index: int):
        super().__init__(f"empty {side} section at point index {index}")
        self.side = side
        self.index = index


class InvalidParams(RiskdistError):
    """Two-point family parameters violate their constraints."""


class MarginalMismatch(RiskdistError):
    """Gluing inputs disagree on the shared marginal."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class AxiomFailure(RiskdistError):
    """A measure entered a metric computation without passing its axioms."""

    def __init__(self, which: str, report):
        super().__init__(f"measure {which} fails the risk-measure axioms")
        self.which = which
        self.report = report


class OracleDisagreement(RiskdistError):
    """Two independent oracle implementations disagree (build blocking)."""


class CouplingFailure(RiskdistError):
    """A coupling that must exist was not found or did not verify: a
    distance ladder with no level certified feasible, a witness that fails
    its check, or a transport oracle refusing the full relation."""
