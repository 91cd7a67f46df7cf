"""Exception types shared across the stack."""


class WbanError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(WbanError, ValueError):
    """A field or argument is outside its encodable/valid range."""


class TruncatedError(WbanError):
    """Byte sequence is shorter than the minimum frame length."""


class MalformedError(WbanError):
    """Byte sequence cannot be a frame encoding (bad type, bad length field)."""


class CrcError(WbanError):
    """Checksum mismatch.  Carries the best-effort parsed header, which may
    itself hold flipped bits; ``codec dump`` prints it."""

    def __init__(self, message, header=None):
        super().__init__(message)
        self.header = header


class ProtocolError(WbanError):
    """A frame arrived in a connection state that cannot accept it."""


class EmptySduError(WbanError, ValueError):
    """Fragmentation was asked to split a zero-length service data unit."""


class ConfigError(WbanError, ValueError):
    """An experiment configuration field is missing or out of range."""


class DomainError(WbanError, ValueError):
    """An optimizer evaluation point lies outside the formula's domain."""
