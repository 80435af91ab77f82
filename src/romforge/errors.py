"""Exception hierarchy shared by all romforge modules: one class per CLI
exit status, which each class carries as ``exit_code``.

Also the archives' canonical JSON writer and the readers' helpers that map
malformed content onto the hierarchy.
"""

import json
from contextlib import contextmanager
from pathlib import Path


class RomforgeError(Exception):
    """Base class of the package's errors; each subclass sets ``exit_code``."""

    exit_code: int


class ConfigurationError(RomforgeError, ValueError):
    """Invalid options, sizes, shapes or ranges: mismatched array
    dimensions, overlapping splits, repeated or unknown dwell times."""

    exit_code = 2


class DataError(RomforgeError, ValueError):
    """Unusable input data: a file that is missing, malformed, of another
    version or internally inconsistent, or values that are not finite."""

    exit_code = 3


class NumericalError(RomforgeError, ArithmeticError):
    """A computation failed: an unfactorizable kernel, a diverging loss, a
    snapshot set with no energy, or an undefined metric."""

    exit_code = 4


def write_json(path: Path, doc) -> None:
    """Write an archive JSON file: sorted keys, no whitespace."""
    path.write_bytes(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def read_json(path: Path, version: int) -> dict:
    """Parse a JSON archive file whose ``version`` key must equal ``version``.

    A missing or malformed file, or another version, is a DataError.
    """
    if not path.is_file():
        raise DataError(f"{path} is missing")
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError and undecodable bytes
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if doc.get("version") != version:
        raise DataError(f"{path}: unsupported version {doc.get('version')}")
    return doc


@contextmanager
def archive_values(path):
    """Report a malformed archive value as a DataError naming ``path``.

    Missing keys, wrong JSON types and out-of-range values surface as
    KeyError, TypeError, AttributeError, IndexError or ValueError (romforge's
    own validation errors included); a DataError passes through unchanged.
    An ArithmeticError counts too: saved hyperparameters factorized when
    they were saved, so one that fails on load was edited, and an edited
    value can overflow.
    """
    try:
        yield
    except DataError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError, ValueError,
            ArithmeticError) as exc:
        raise DataError(
            f"{path}: malformed archive ({type(exc).__name__}: {exc})"
        ) from None
