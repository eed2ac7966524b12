"""Exception types shared across the package."""


class SmokewatchError(Exception):
    """Base class for all smokewatch errors."""


class EmptyRecording(SmokewatchError):
    """A recording source contained fewer than 2 data rows."""


class MalformedRow(SmokewatchError):
    """A CSV file holds bytes that are not UTF-8, lacks its header line or
    has a data line with a column count other than 4, a field that
    `float()` rejects, a non-finite field or a negative timestamp."""


class InvalidSample(SmokewatchError, ValueError):
    """A recording holds a non-finite value or a negative timestamp."""


class NonMonotonicTime(SmokewatchError):
    """Timestamps are not strictly increasing."""


class LengthMismatch(SmokewatchError):
    """Two sequences that must agree in length do not."""


class InvalidSize(SmokewatchError):
    """A size or count parameter is out of its valid range."""


class MalformedModel(SmokewatchError):
    """A model file lacks a key, holds an ill-typed value or has an
    unsupported version."""


class InvalidThreshold(SmokewatchError):
    """A decision threshold outside the open interval (0, 1)."""


class EmptyBatch(SmokewatchError):
    """An operation that needs at least one sample received none."""


class EmptyDataset(SmokewatchError):
    """A dataset-level operation received an empty dataset."""


class EmptyInput(SmokewatchError):
    """A metric was requested over zero predictions."""


class EmptyTrace(SmokewatchError):
    """A detection trace with no entries cannot be scored."""


class NumericalFailure(SmokewatchError):
    """Non-finite values encountered during optimization."""


class PartFailed(SmokewatchError):
    """A forked part of a split CSV loop ended without a result."""


class SessionTooShort(SmokewatchError):
    """A session has no room for even one full window."""


class MalformedRanges(SmokewatchError, ValueError):
    """A ranges file is not a JSON list of objects with integer start and
    end, or holds empty, unsorted or overlapping ranges."""


class MalformedConfig(SmokewatchError, ValueError):
    """A synth config is not JSON, lacks a template key, or names an unknown
    class or an invalid template or profile value."""


class MissingTemplate(SmokewatchError, ValueError):
    """A corpus or session asks for a gesture class that has no synth
    template."""
