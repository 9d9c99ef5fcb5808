"""Exception hierarchy shared by every module of the package."""


class FairleakError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatch(FairleakError):
    """Input vectors that must share a length do not."""


class EmptyVector(FairleakError):
    """An operation that needs at least one element received none."""


class EmptySlice(FairleakError):
    """The data slice a fairness metric is evaluated on contains no examples."""


class NegativeConfidence(FairleakError):
    """A confidence score is negative or not finite, or their sum is not."""


class Infeasible(FairleakError):
    """No assignment satisfies the requested constraints."""


class BudgetExceeded(FairleakError):
    """Exhaustive search would enumerate more states than the configured budget."""


class EmptyAttackSet(FairleakError):
    """The attack set has no rows."""


class DegenerateClasses(EmptyAttackSet):
    """The sensitive column of an attack set or a training table holds a
    single class."""


class UnsupportedCardinality(FairleakError):
    """The attack pipeline handles binary sensitive attributes only."""


class MissingPredictions(FairleakError):
    """Target predictions are needed, by prediction-aware mode or by the
    constraint estimate, but none were supplied."""


class SchemaMismatch(FairleakError):
    """Prediction-time columns do not match the columns seen at training."""


class ScoreOutOfRange(FairleakError):
    """A raw attack-model score falls outside [0.5, 1.0]."""


class ParseError(FairleakError):
    """A CSV cell could not be parsed; the message carries row and column."""


class SchemaError(FairleakError):
    """Declared columns, shapes or value ranges do not match the data."""


class DuplicateId(FairleakError):
    """Two rows share an id."""


class BadParameters(FairleakError):
    """Parameters are outside their allowed ranges or name no known option."""


class IoError(FairleakError):
    """A report or dataset file could not be written or read."""
