"""Exception types shared across the stack."""


class WbanError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(WbanError, ValueError):
    """A field or argument is outside its encodable/valid range."""


class DecodeError(WbanError):
    """Bytes that do not decode to a frame; `reason` names the receiver's drop."""

    reason: str


class TruncatedError(DecodeError):
    """Byte sequence is shorter than the minimum frame length."""

    reason = "truncated"


class MalformedError(DecodeError):
    """Byte sequence cannot be a frame encoding (bad type, bad length field)."""

    reason = "malformed"


class CrcError(DecodeError):
    """Checksum mismatch.  Carries the best-effort parsed header, which may
    itself hold flipped bits; ``codec dump`` prints it."""

    reason = "crc"

    def __init__(self, message, header=None):
        super().__init__(message)
        self.header = header


class ProtocolError(WbanError):
    """A frame arrived in a connection state that cannot accept it."""


class ConfigError(WbanError, ValueError):
    """An experiment configuration field is missing or out of range."""
