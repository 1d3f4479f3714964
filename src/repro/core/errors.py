"""Exception hierarchy of the public API."""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all library-specific exceptions."""


class ProgramError(ReproError):
    """Raised for malformed MLN programs (unknown predicates, bad arities...)."""


class ConfigurationError(ReproError):
    """Raised for invalid inference configurations."""
