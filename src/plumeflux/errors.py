"""Exception hierarchy shared across the package, and the config keys' range rule.

The CLI maps these onto process exit codes: config errors exit 2, data and
domain errors exit 3, numerical errors exit 4. Every config section checks
its numeric keys with ``check_ranges``, so all share one rule and one wording.
"""

import math


class PlumefluxError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(PlumefluxError):
    """Invalid or incomplete run configuration."""

    exit_code = 2


class DataError(PlumefluxError):
    """Malformed or inconsistent input data (files, rasters, tables)."""

    exit_code = 3


class DomainError(PlumefluxError):
    """Operation called outside its domain (empty mask, zero pixels, ...)."""

    exit_code = 3


class NumericalError(PlumefluxError):
    """Internal numerical failure that indicates a bug, not bad input."""

    exit_code = 4


def _within(rule: str, v) -> bool:
    if rule.startswith(">= "):
        return v >= int(rule[3:])
    return {"finite": True, "positive": v > 0, "non-negative": v >= 0,
            "in [0, 1)": 0 <= v < 1, "in (0, 1)": 0 < v < 1}[rule]


def check_ranges(section: str, obj, **rules: str) -> None:
    """Raise a ``ConfigError`` reading ``<section>.<key> must be ...`` unless each named field meets its rule.

    A rule is ``finite``, ``positive``, ``non-negative``, ``>= N``, ``in [0, 1)``
    or ``in (0, 1)``, and each asks for a finite value first. An unset (None)
    value passes, each item of a tuple, list or array is checked, and a Python
    ``int`` is finite however large: ``math.isfinite`` would overflow on it.
    """
    for key, rule in rules.items():
        value = getattr(obj, key)
        items = value if isinstance(value, (tuple, list)) else getattr(value, "flat", [value])
        for v in (v for v in items if v is not None):
            finite = isinstance(v, int) or math.isfinite(v)
            if not (finite and _within(rule, v)):
                raise ConfigError(f"{section}.{key} must be {rule if finite else 'finite'}")
