"""Exception types shared across the package.

Every error raised on purpose derives from SpectralWeakError so callers can
catch one type at the CLI boundary and turn it into a nonzero exit.
"""

from __future__ import annotations


class SpectralWeakError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SpectralWeakError):
    """Input file does not match the declared column layout."""


class ParseError(SpectralWeakError):
    """A cell could not be converted to the expected type."""


class IntegrityError(SpectralWeakError):
    """Dataset-level consistency violation (bag membership, label sets, ...)."""


class ParameterError(SpectralWeakError):
    """A parameter is outside its documented domain."""


class DegenerateDistanceError(SpectralWeakError):
    """Two distinct instances are at distance zero where that is not allowed."""


class NumericalError(SpectralWeakError):
    """A numerical routine failed to reach its documented guarantees."""


class EmptySelectionError(SpectralWeakError):
    """A selection (e.g. unlabelled instances for a bag label) came back empty."""


class DegenerateGroupingError(SpectralWeakError):
    """A grouping is unusable for the requested operation (empty group, k=1, ...)."""


class TrainingError(SpectralWeakError):
    """A classifier cannot be fit on the given training set."""


class UndefinedIndexError(SpectralWeakError):
    """A validity index is undefined for the given grouping (e.g. coincident centroids)."""


class SearchError(SpectralWeakError):
    """Every candidate in a grid search failed; carries per-candidate diagnostics."""


class AnnotationError(SpectralWeakError):
    """Annotating one bag label failed on an error from outside the package;
    the original exception is chained as the cause."""


class MissingDataError(SpectralWeakError):
    """A benchmark file is absent; the message contains fetch instructions."""
