"""Shared exception types, and the range checks of config values."""

import math


class LungsoundError(Exception):
    """Base class for all package errors."""


class InvalidInputError(LungsoundError, ValueError):
    """A value passed to an operation violates its preconditions."""


class InvalidConfigError(LungsoundError, ValueError):
    """A configuration value is out of range or inconsistent."""


class DataError(LungsoundError, ValueError):
    """Dataset contents (labels, annotations) are malformed."""


class FormatError(LungsoundError, ValueError):
    """An on-disk artifact (wav, cache, checkpoint) is malformed."""


class UsageError(LungsoundError, RuntimeError):
    """An API was called in an unsupported order."""


def require_counts(section, least=1, **counts):
    """InvalidConfigError naming `section.key` for the first count below
    `least`."""
    for key, value in counts.items():
        if value < least:
            raise InvalidConfigError(
                f"{section}.{key} must be >= {least}, got {value!r}")


def require_rates(section, **rates):
    """InvalidConfigError naming `section.key` for the first rate that is
    not a finite number >= 0."""
    for key, value in rates.items():
        if not 0 <= value < math.inf:
            raise InvalidConfigError(
                f"{section}.{key} must be finite and >= 0, got {value!r}")
