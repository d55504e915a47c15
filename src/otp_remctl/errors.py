"""Exception types shared across the package."""


class OtpRemctlError(Exception):
    """Base class for every error raised by this package."""


class KeyReused(OtpRemctlError):
    """A key block was requested after it had already been consumed."""


class OutOfRange(OtpRemctlError):
    """A number lies outside its allowed range: a key address beyond the end
    of the store, a wire-frame address that does not fit in 32 bits, or an
    autocorrelation lag outside (0, n) or outside a series' computed lags."""


class KeyExhausted(OtpRemctlError):
    """Key material has run out: no unconsumed block remains in a store, which
    must be recharged, or a file entropy source has fewer bytes left than a
    draw requests."""


class SksFormatError(OtpRemctlError):
    """Base class for malformed key-store files."""


class BadMagic(SksFormatError):
    """The file does not start with the key-store magic bytes."""


class BadVersion(SksFormatError):
    """The key-store file declares an unsupported format version."""


class TruncatedFile(SksFormatError):
    """The key-store file ends before its declared contents do."""


class ChecksumMismatch(SksFormatError):
    """The key-store file fails its CRC-32 integrity check."""


class BadLength(OtpRemctlError):
    """A sequence has the wrong length for its role: a frame, payload or wire
    frame of the wrong size, a key that does not match its cipher mode's key
    length, or a bit sequence shorter than a statistical test requires."""
