"""Shared exception types."""


class PebblingError(Exception):
    """Base class for domain errors raised by this package."""
