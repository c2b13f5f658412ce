"""Shared exception types."""


class PebblingError(Exception):
    """Base class for domain errors raised by this package."""


class SearchCapExceeded(PebblingError):
    """A pebbling-number or optimal-pebbling search ran past its size cap."""
