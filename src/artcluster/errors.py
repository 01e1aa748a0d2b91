"""Exception hierarchy shared across the package.

Every error raised on a documented failure path derives from
:class:`ArtClusterError` so callers can catch package failures with a
single ``except`` clause while still distinguishing the specific cause.
Each class carries the command-line exit code of its failure in
``exit_code``: 1 usage error, 2 identification or estimation failure,
3 I/O or data-validation failure.  :func:`check_bytes` holds the one
memory limit that every input's size is checked against.
"""

from __future__ import annotations

# No input may make the package hold more than this many bytes.
MAX_BYTES = 2**30


def check_bytes(what: str, need: int) -> None:
    """Refuse, as a usage error naming ``what``, an input that would need ``need`` > MAX_BYTES."""
    if need > MAX_BYTES:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, above the {MAX_BYTES / 2**30:g} GiB limit"
        )


class ArtClusterError(Exception):
    """Base class for all artcluster errors."""

    exit_code = 2


# ------------------------------------------------------------------ #
# Data construction / validation
# ------------------------------------------------------------------ #


class WidthMismatch(ArtClusterError):
    """Covariate rows are ragged, or the per-row inputs differ in length."""

    exit_code = 3


class NonFiniteValue(ArtClusterError):
    """An outcome, covariate or time key is NaN or infinite."""

    exit_code = 3


class EmptyCluster(ArtClusterError):
    """A cluster ended up with zero observations.

    Unreachable through :func:`artcluster.model.canonicalize` (labels are
    taken from the rows themselves); kept for defensive validation of
    hand-built datasets.
    """

    exit_code = 3


class TooFewClusters(ArtClusterError):
    """Fewer than two distinct cluster labels were supplied."""

    exit_code = 3


# ------------------------------------------------------------------ #
# Estimation
# ------------------------------------------------------------------ #


class IdentificationFailure(ArtClusterError):
    """A within-cluster second-moment matrix is (numerically) singular.

    Carries the offending cluster label and the reciprocal condition
    number that triggered the failure.  Typical causes: a covariate that
    is constant inside the cluster (e.g. collinear with the intercept),
    or fewer observations than covariates.  Remedies: merge clusters so
    the covariate varies within the merged groups, or drop/respecify the
    offending column.
    """

    def __init__(self, label, rcond: float):
        self.label = label
        self.rcond = float(rcond)
        super().__init__(
            f"cluster {label!r}: within-cluster covariate matrix is numerically singular "
            f"(reciprocal condition number {self.rcond:.3e}); combine clusters or respecify "
            "the model"
        )


class DegenerateVariance(ArtClusterError):
    """The randomized standard deviation of the signed scores is zero."""


class SingularSigma(ArtClusterError):
    """The score outer-product matrix of the multi-row statistic is singular."""


# ------------------------------------------------------------------ #
# Sign groups / intervals / blocks
# ------------------------------------------------------------------ #


class GroupTooLarge(ArtClusterError):
    """Exhaustive enumeration was requested beyond the supported size."""

    exit_code = 1


class GridTooCoarse(ArtClusterError):
    """No grid point survived test inversion; refine or widen the grid."""


class TooFewObservations(ArtClusterError):
    """Not enough observations to form the requested number of blocks."""

    exit_code = 1


class DegenerateGrouping(ArtClusterError):
    """A cluster merge would leave fewer than two clusters."""

    exit_code = 1


# ------------------------------------------------------------------ #
# I/O
# ------------------------------------------------------------------ #


class MissingColumn(ArtClusterError):
    """A configured column name is absent from the input header."""

    exit_code = 3


class ParseError(ArtClusterError):
    """A cell could not be parsed; carries 1-based line and column name."""

    exit_code = 3

    def __init__(self, line: int, column: str, message: str):
        self.line = int(line)
        self.column = column
        super().__init__(message)


class DuplicateTimeKeyWarning(UserWarning):
    """Duplicate time keys found; stable sort order resolves them."""
