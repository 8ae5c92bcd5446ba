"""Hybrid encryption envelope: AES-128-GCM for object bytes, RSA-OAEP
for wrapping the per-object data key under role public keys.

On-disk SealedBlob layout, bit-exact:

    bytes 0-3   ASCII "HRB1"
    byte  4     version, 0x01
    byte  5     algorithm, 0x01 (AES-128-GCM)
    bytes 6-17  96-bit nonce
    rest        ciphertext followed by the 16-byte authentication tag

The authentication tag is verified before any plaintext is released;
tampering with the nonce, body, or associated data yields AuthFailure.

Role keys read from the private document are validated when first used
(see RoleKeyPair), so a command pays only for the keys it uses and a
corrupt key is reported by the first command that uses it.

A pair remembers the data keys it wraps (``RoleKeyPair.wrap``), at most
``WRAP_MEMO_SIZE`` of them, so unwrapping a ciphertext this process made
needs no RSA private-key operation.  Keys recovered by an unwrap are not
remembered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidTag, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.asymmetric.rsa import RSAPrivateKey, RSAPublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    AuthFailure,
    FormatError,
    KeyTooSmall,
    RandomnessUnavailable,
    UnsupportedKeySize,
    UnwrapFailure,
)

MAGIC = b"HRB1"
VERSION = 1
ALG_AES128_GCM = 1
NONCE_LEN = 12
TAG_LEN = 16
KEY_LEN = 16
SUPPORTED_MODULUS_BITS = (1024, 2048)
WRAP_SCHEME = "RSA-OAEP-SHA256"
# data keys each role key pair remembers from its wraps, first in first out
WRAP_MEMO_SIZE = 256

_OAEP = padding.OAEP(
    mgf=padding.MGF1(algorithm=hashes.SHA256()),
    algorithm=hashes.SHA256(),
    label=None,
)


def _random_bytes(n: int) -> bytes:
    try:
        return os.urandom(n)
    except OSError as exc:
        raise RandomnessUnavailable(str(exc)) from exc


@dataclass(frozen=True)
class DataKey:
    bytes: bytes

    def __post_init__(self) -> None:
        if len(self.bytes) != KEY_LEN:
            raise FormatError(f"data key must be {KEY_LEN} bytes, got {len(self.bytes)}")


@dataclass(frozen=True)
class WrappedKey:
    role: str
    scheme: str
    ciphertext: bytes


class RoleKeyPair:
    """A role's RSA keypair.

    A pair read from the private document (``stored``) holds its PEM
    text and the modulus size the document records, and parses nothing:
    the first read of ``private`` or ``public`` loads the PEM through
    ``RoleKeyPair.from_private_pem``, with full key validation, and
    keeps the result.  A corrupt key, or one whose size differs from the
    recorded size, raises FormatError there, in the first operation that
    uses it; no key is used before it has been validated.

    ``wrap`` remembers each data key under its ciphertext, and ``unwrap``
    of that ciphertext returns it without RSA: the entry is exactly what
    OAEP decryption under this validated pair gives.  ``unwrap`` only
    reads the memo, and the oldest of more than ``WRAP_MEMO_SIZE`` entries
    is dropped.  Every other ciphertext, a tampered one included, goes
    through ``unwrap_key``; the GCM tag still decides what a key opens.
    """

    def __init__(
        self,
        role: str,
        modulus_bits: int,
        private: Optional[RSAPrivateKey] = None,
        pem: Optional[str] = None,
    ) -> None:
        self.role = role
        self.modulus_bits = modulus_bits
        self._private = private
        self._public = private.public_key() if private is not None else None
        self._pem = pem
        self._memo: dict[bytes, DataKey] = {}  # ciphertext -> data key, oldest first

    @classmethod
    def stored(cls, role: str, modulus_bits: int, pem: str) -> "RoleKeyPair":
        if not isinstance(modulus_bits, int) or not isinstance(pem, str):
            raise FormatError(f"role {role} key entry has a bad field type")
        return cls(role, modulus_bits, pem=pem)

    @property
    def private(self) -> RSAPrivateKey:
        if self._private is None:
            self._load()
        return self._private

    @property
    def public(self) -> RSAPublicKey:
        if self._public is None:
            self._load()
        return self._public

    def _load(self) -> None:
        # looked up on the class at call time, so a wrapper installed on
        # RoleKeyPair.from_private_pem sees every parse
        parsed = RoleKeyPair.from_private_pem(self.role, self._pem)
        if parsed.modulus_bits != self.modulus_bits:
            raise FormatError(
                f"role {self.role} key is {parsed.modulus_bits} bits, "
                f"document records {self.modulus_bits}"
            )
        self._private, self._public = parsed._private, parsed._public

    # wrap_key and unwrap_key are looked up in the module at call time, so
    # a wrapper installed on them sees every RSA operation
    def wrap(self, data_key: DataKey) -> WrappedKey:
        """Wrap ``data_key`` under the public key and remember it."""
        wrapped = wrap_key(data_key, self.public, self.role)
        memo = self._memo
        memo[wrapped.ciphertext] = data_key
        if len(memo) > WRAP_MEMO_SIZE:
            del memo[next(iter(memo))]
        return wrapped

    def unwrap(self, wrapped: WrappedKey) -> DataKey:
        """The data key of a ciphertext this pair wrapped, else RSA-OAEP
        decryption under the private key."""
        data_key = self._memo.get(wrapped.ciphertext)
        return data_key if data_key is not None else unwrap_key(wrapped, self.private)

    def private_pem(self) -> str:
        """The private key's PEM text: as loaded, or exported (PKCS#8) once
        for a new key."""
        if self._pem is None:
            self._pem = self._private.private_bytes(
                encoding=serialization.Encoding.PEM,
                format=serialization.PrivateFormat.PKCS8,
                encryption_algorithm=serialization.NoEncryption(),
            ).decode("ascii")
        return self._pem

    @classmethod
    def from_private_pem(cls, role: str, pem: str) -> "RoleKeyPair":
        try:
            key = serialization.load_pem_private_key(pem.encode("ascii"), password=None)
        except (ValueError, TypeError, UnsupportedAlgorithm) as exc:
            raise FormatError(f"role {role} key PEM does not load: {exc}") from None
        if not isinstance(key, RSAPrivateKey):
            raise FormatError("role key PEM is not an RSA private key")
        return cls(role, key.key_size, private=key, pem=pem)


@dataclass(frozen=True)
class SealedBlob:
    nonce: bytes
    body: bytes  # ciphertext || tag
    version: int = VERSION
    alg: int = ALG_AES128_GCM

    def to_bytes(self) -> bytes:
        return MAGIC + bytes((self.version, self.alg)) + self.nonce + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SealedBlob":
        if len(raw) < 6 + NONCE_LEN + TAG_LEN:
            raise FormatError("sealed blob truncated")
        if raw[:4] != MAGIC:
            raise FormatError(f"bad magic {raw[:4]!r}")
        version, alg = raw[4], raw[5]
        if version != VERSION:
            raise FormatError(f"unsupported container version {version}")
        if alg != ALG_AES128_GCM:
            raise FormatError(f"unsupported algorithm id {alg}")
        return cls(nonce=raw[6 : 6 + NONCE_LEN], body=raw[6 + NONCE_LEN :])


def generate_data_key() -> DataKey:
    return DataKey(_random_bytes(KEY_LEN))


def seal(plaintext: bytes, key: DataKey, aad: bytes) -> SealedBlob:
    """Encrypt and authenticate plaintext under a fresh random nonce."""
    nonce = _random_bytes(NONCE_LEN)
    body = AESGCM(key.bytes).encrypt(nonce, plaintext, aad)
    return SealedBlob(nonce=nonce, body=body)


def open_blob(blob: SealedBlob, key: DataKey, aad: bytes) -> bytes:
    """Verify the tag and return the plaintext.

    Raises AuthFailure on any mismatch of key, nonce, body, or aad without
    distinguishing the cause.
    """
    if len(blob.nonce) != NONCE_LEN or len(blob.body) < TAG_LEN:
        raise FormatError("sealed blob malformed")
    try:
        return AESGCM(key.bytes).decrypt(blob.nonce, blob.body, aad)
    except InvalidTag:
        raise AuthFailure("authentication tag mismatch") from None


def generate_role_keypair(role: str, modulus_bits: int = 2048) -> RoleKeyPair:
    if modulus_bits not in SUPPORTED_MODULUS_BITS:
        raise UnsupportedKeySize(
            f"modulus_bits must be one of {SUPPORTED_MODULUS_BITS}, got {modulus_bits}"
        )
    private = rsa.generate_private_key(public_exponent=65537, key_size=modulus_bits)
    return RoleKeyPair(role, modulus_bits, private=private)


def oaep_capacity(modulus_bits: int) -> int:
    # OAEP with SHA-256: capacity = k - 2*hLen - 2
    return modulus_bits // 8 - 2 * 32 - 2


def wrap_key(key: DataKey, public: RSAPublicKey, role: str) -> WrappedKey:
    if oaep_capacity(public.key_size) < KEY_LEN:
        raise KeyTooSmall(
            f"{public.key_size}-bit modulus cannot wrap a {KEY_LEN}-byte key under OAEP"
        )
    ciphertext = public.encrypt(key.bytes, _OAEP)
    return WrappedKey(role=role, scheme=WRAP_SCHEME, ciphertext=ciphertext)


def unwrap_key(wrapped: WrappedKey, private: RSAPrivateKey) -> DataKey:
    if len(wrapped.ciphertext) != private.key_size // 8:
        raise UnwrapFailure("wrapped key length does not match modulus")
    try:
        recovered = private.decrypt(wrapped.ciphertext, _OAEP)
    except Exception:
        # single opaque error: wrong key and corrupted ciphertext must be
        # indistinguishable to the caller
        raise UnwrapFailure("key unwrap failed") from None
    if len(recovered) != KEY_LEN:
        raise UnwrapFailure("key unwrap failed")
    return DataKey(recovered)
