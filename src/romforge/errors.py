"""Exception hierarchy shared by all romforge modules.

Also the archive readers' helpers that map malformed content onto it.
"""

import json
from contextlib import contextmanager
from pathlib import Path


class RomforgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(RomforgeError, ValueError):
    """Invalid sizes, ranges, or option combinations."""


class DuplicateParameterError(ConfigurationError):
    """Two snapshot matrices carry the same dwell time."""


class ShapeError(RomforgeError, ValueError):
    """Array dimensions do not match the operation's contract."""


class UnknownParameterError(RomforgeError, KeyError):
    """A requested dwell time does not exist in the dataset."""


class SplitError(RomforgeError, ValueError):
    """Train and test dwell-time lists overlap."""


class FormatError(RomforgeError, ValueError):
    """A file does not start with the expected magic bytes or version."""


class CorruptionError(RomforgeError, ValueError):
    """A file is internally inconsistent (truncated, dimension mismatch)."""


class DataError(RomforgeError, ValueError):
    """Payload values are unusable (NaN or Inf)."""


class DegenerateBasisError(RomforgeError, ValueError):
    """The centered snapshot matrix has no energy; no modes exist."""


class ConditioningError(RomforgeError, ArithmeticError):
    """Cholesky factorization failed even after jitter escalation."""


class DivergenceError(RomforgeError, ArithmeticError):
    """Training produced a non-finite loss."""


class DegenerateMetricError(RomforgeError, ValueError):
    """A metric is undefined for the given inputs (e.g. zero-norm truth)."""


def read_json(path: Path):
    """Parse a JSON archive file; missing or malformed is a FormatError."""
    if not path.is_file():
        raise FormatError(f"{path} is missing")
    try:
        return json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError and undecodable bytes
        raise FormatError(f"{path} is not valid JSON: {exc}") from None


@contextmanager
def archive_values(path):
    """Report a malformed archive value as a CorruptionError naming ``path``.

    Missing keys, wrong JSON types and out-of-range values surface as
    KeyError, TypeError, AttributeError, IndexError or ValueError (romforge's
    own validation errors included); FormatError, CorruptionError and
    DataError pass through unchanged. A ConditioningError counts too: saved
    hyperparameters factorized when they were saved, so one that fails on
    load was edited.
    """
    try:
        yield
    except (FormatError, CorruptionError, DataError):
        raise
    except (KeyError, TypeError, AttributeError, IndexError, ValueError,
            ConditioningError) as exc:
        raise CorruptionError(
            f"{path}: malformed archive ({type(exc).__name__}: {exc})"
        ) from None
