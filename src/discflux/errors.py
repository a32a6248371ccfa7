"""Exception types raised across the package, and the tolerance of its checks.

Everything derives from :class:`DiscfluxError` so callers can catch library
failures without swallowing genuine bugs (TypeError and friends pass through).
"""

import numpy as np


def _tolerance(rel, *scales):
    """How far past a value still counts as at it: ``rel * max(|s|, 2**-1022)``.

    The one rule of every range, window and slack check.  The smallest normal
    float keeps a zero scale from rejecting its own roundoff.  Elementwise on
    arrays; a Python float for scalars, cheaper in ``invert_near``'s per-bracket slack.
    """
    top = np.maximum.reduce(np.abs(scales), initial=2.0**-1022)
    return rel * (top if top.ndim else float(top))


class DiscfluxError(Exception):
    """Base class for all errors raised by this package."""


class FluxRangeError(DiscfluxError):
    """Target value lies outside the image of the inversion bracket.

    Also raised where an interface map transmits a non-finite flux, or a
    flux the next law cannot invert, to a chain of constants across the
    interfaces.
    """


class DivergentRangeError(DiscfluxError):
    """An interface map leaves a law's flux image or goes non-finite."""


class GridAlignmentError(DiscfluxError):
    """Two interfaces snap to one cell edge, or one reaches the domain's end.

    Also raised when a grid meets a model whose interfaces it was not built for.
    """


class DomainError(DiscfluxError):
    """Data was referenced outside the region where it is defined."""


class MonotonicityError(DiscfluxError, ValueError):
    """A flux law stops increasing on the values the march needs.

    Also a ``ValueError``, which callers caught before it had its own type.
    """


class DiagnosticInputError(DiscfluxError, ValueError):
    """A diagnostic's levels or grid give nothing to measure.

    Levels that are not strictly increasing in time, a grid without a cell
    whose left neighbour shares its law, or no entropy constant.  Also a
    ``ValueError``, which callers caught before it had its own type.
    """


class StabilityError(DiscfluxError):
    """Time step violates the CFL restriction for the current data."""


class ProjectionError(DiscfluxError):
    """Two solutions cannot be compared (grids not nested, times differ, a state off its grid)."""


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
