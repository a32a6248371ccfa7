"""Exception types raised across the package.

Everything derives from :class:`DiscfluxError` so callers can catch library
failures without swallowing genuine bugs (TypeError and friends pass through).
"""


class DiscfluxError(Exception):
    """Base class for all errors raised by this package."""


class InterfaceAmbiguityError(DiscfluxError):
    """A point query landed exactly on a flux-switching interface."""


class FluxRangeError(DiscfluxError):
    """Target value lies outside the image of the inversion bracket."""


class DivergentRangeError(DiscfluxError):
    """An interface map leaves a law's flux image or goes non-finite."""


class GridAlignmentError(DiscfluxError):
    """A flux interface does not coincide with a cell edge."""


class DomainError(DiscfluxError):
    """Data was referenced outside the region where it is defined."""


class MonotonicityError(DiscfluxError, ValueError):
    """A flux law stops increasing on the values the march needs.

    Also a ``ValueError``, which callers caught before it had its own type.
    """


class StabilityError(DiscfluxError):
    """Time step violates the CFL restriction for the current data."""


class ProjectionError(DiscfluxError):
    """Two solutions cannot be compared (grids not nested, times differ)."""


class SequencingError(DiscfluxError):
    """Resolution sequence is not a doubling chain."""


class MissingDataError(DiscfluxError):
    """A diagnostic needs per-level history the run did not record."""


class UnsupportedOracleError(DiscfluxError):
    """No closed-form solution is available for the requested setup."""


class ValidityError(DiscfluxError):
    """A closed-form solution was evaluated outside its validity window."""


class ConfigError(DiscfluxError):
    """Experiment configuration is malformed or internally inconsistent."""
