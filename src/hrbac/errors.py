"""Exception hierarchy shared by all subsystems.

Grouped by the surface that raises them.  Each class carries the CLI
exit code (``exit_code``: 1 denied, 2 usage, 3 backend or integrity)
and the HTTP status (``http_status``) it maps to; a subclass sets only
what differs from its base.  ``reason`` is what the gateway records in a
Deny audit entry, by default the class name.
"""

from __future__ import annotations


class HrbacError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3
    http_status = 500

    def __init__(self, *args: object, reason: str = "") -> None:
        super().__init__(*args)
        self.reason = reason or type(self).__name__


# -- policy ------------------------------------------------------------

class UnknownRole(HrbacError):
    exit_code, http_status = 2, 404


class UnknownUser(HrbacError):
    exit_code, http_status = 2, 404


class UnknownDelegation(HrbacError):
    exit_code, http_status = 2, 404


class CycleError(HrbacError):
    """A role link would make the hierarchy cyclic."""

    exit_code, http_status = 2, 409


class SodViolation(HrbacError):
    """An assignment or delegation would give one user both roles of a
    separation-of-duties constraint."""

    exit_code, http_status = 1, 409


class ConflictExists(HrbacError):
    """A new SoD constraint is rejected because some user already holds
    both roles."""

    exit_code, http_status = 1, 409


class NotAssigned(HrbacError):
    exit_code = 2


class NotHeld(HrbacError):
    """Delegation refused: the delegator does not directly hold the role."""

    exit_code = 1


# -- crypto envelope ---------------------------------------------------

class CryptoError(HrbacError):
    pass


class RandomnessUnavailable(CryptoError):
    pass


class UnsupportedKeySize(CryptoError):
    exit_code = 2


class KeyTooSmall(CryptoError):
    """RSA modulus too small to wrap a data key under OAEP."""


class AuthFailure(CryptoError):
    """AEAD tag verification failed: wrong key, wrong context, or
    tampered ciphertext.  No plaintext is released."""


class UnwrapFailure(CryptoError):
    """Key unwrap failed.  Deliberately opaque: wrong private key and
    corrupted ciphertext are indistinguishable."""


class FormatError(HrbacError):
    """Malformed container, document, or log record."""


# -- stores ------------------------------------------------------------

class StoreError(HrbacError):
    pass


class BackendUnavailable(StoreError):
    """Backend unreachable or failing; safe to retry later."""

    http_status = 503


class NameInvalid(StoreError):
    exit_code, http_status = 2, 400


class NotFound(StoreError):
    exit_code, http_status = 2, 404


class ValidationError(StoreError):
    """Document violates a structural invariant; nothing was written."""

    exit_code, http_status = 2, 400


class IoError(StoreError):
    http_status = 503
    # True when a save failed after its new document was renamed into place
    replaced = False


class UnsupportedVersion(StoreError):
    pass


# -- gateway -----------------------------------------------------------

class GatewayError(HrbacError):
    pass


class TokenInvalid(GatewayError):
    """Presented token does not match the actor's stored digest."""

    exit_code, http_status = 1, 401


class Unauthorized(GatewayError):
    """Actor kind or ownership does not permit this operation."""

    exit_code, http_status = 1, 403


class AccessDenied(GatewayError):
    """Policy denied the access; the denial has been audited."""

    exit_code, http_status = 1, 403

    def __init__(self, message: str, reason: str = "NoPermission") -> None:
        super().__init__(message, reason=reason)


class OverrideDisabled(GatewayError):
    exit_code, http_status = 1, 403


class NotGranted(GatewayError):
    exit_code, http_status = 2, 409


class IntegrityMismatch(GatewayError):
    """Decrypted bytes disagree with the recorded plaintext digest."""


# -- bench -------------------------------------------------------------

class TooFewRows(HrbacError):
    exit_code = 2


class InsufficientMemory(HrbacError):
    exit_code = 2
