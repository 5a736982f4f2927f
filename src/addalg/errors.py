"""Exception types shared across the package."""


class AddalgError(Exception):
    """Base class for all package errors."""


class ConstantPolynomial(AddalgError):
    pass


class NotAssociative(AddalgError):
    pass


class BadUnit(AddalgError):
    pass


class EmptyDescription(AddalgError):
    pass


class AlgebraMismatch(AddalgError):
    pass


class EmptyGeneratingSet(AddalgError):
    pass


class ZeroSubspace(AddalgError):
    pass


class NoInvertibleFound(AddalgError):
    pass


class NotSplitEtale(AddalgError):
    pass


class CapExceeded(AddalgError):
    pass


class NotInvertible(AddalgError):
    pass


class NotInB(AddalgError):
    pass


class NotCommutative(AddalgError):
    pass


class NoInvertibleInA(AddalgError):
    pass


class NoInvertibleInB(AddalgError):
    pass


class LambdaOutOfRange(AddalgError):
    pass


class EpsilonOutOfRange(AddalgError):
    pass


class TableMismatch(AddalgError):
    pass


class EmptySubset(AddalgError):
    pass


class NotAGroup(AddalgError):
    pass


class NoUnitIntersection(AddalgError):
    pass


class RetryBudgetExhausted(AddalgError):
    pass


class SchemaError(AddalgError):
    """Malformed input file or CLI argument."""
