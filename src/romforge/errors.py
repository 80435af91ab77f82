"""Exception hierarchy shared by all romforge modules: one class per CLI
exit status, which each class carries as ``exit_code``."""


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
