"""Exception types shared across the library."""


class GraphFiltError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GraphFiltError):
    pass


class ShapeMismatch(GraphFiltError):
    pass


class NoConvergence(GraphFiltError):
    pass


class NotSymmetric(GraphFiltError):
    pass


class GenerationFailed(GraphFiltError):
    pass


class CountTooLarge(GraphFiltError):
    pass


class SingularDiagonal(GraphFiltError):
    """Raised when a diagonal entry coincides with a pole value.

    Carries the offending node index in ``node``.
    """

    def __init__(self, node):
        self.node = node
        super().__init__(f"diagonal entry at node {node} too close to pole")


class SupportViolation(GraphFiltError):
    pass


class SupportLeak(GraphFiltError):
    pass


class RepeatedPoles(GraphFiltError):
    pass


class PoleAtEigenvalue(GraphFiltError):
    pass


class SingularSystem(GraphFiltError):
    pass


class TooLarge(GraphFiltError):
    pass


class DegreeZero(GraphFiltError):
    pass


class ParseError(GraphFiltError):
    """Raised on malformed input files; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class LabelOutOfRange(GraphFiltError):
    pass


class DegenerateColumn(GraphFiltError):
    pass


class IncompatibleDims(GraphFiltError):
    pass


class MissingTape(GraphFiltError):
    pass


class ConfigError(GraphFiltError):
    pass


class NonFiniteValue(GraphFiltError):
    """Raised on a non-finite loss, gradient or filter coefficient."""


class NonRealValue(GraphFiltError):
    """Raised on a complex value where the library needs a real one."""
