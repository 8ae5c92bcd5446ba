"""Envelope unit and property tests: round trips, tamper rejection,
length laws, wrap/unwrap inverses."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrbac import envelope
from hrbac.errors import (
    AuthFailure,
    FormatError,
    UnsupportedKeySize,
    UnwrapFailure,
)


@pytest.fixture(scope="module")
def keypair_1024():
    return envelope.generate_role_keypair("r1", 1024)


@pytest.fixture(scope="module")
def keypair_2048():
    return envelope.generate_role_keypair("r2", 2048)


class TestDataKey:
    def test_key_is_16_bytes(self):
        assert len(envelope.generate_data_key().bytes) == 16

    def test_two_keys_distinct(self):
        a, b = envelope.generate_data_key(), envelope.generate_data_key()
        assert a.bytes != b.bytes


class TestSealOpen:
    def test_round_trip_up_to_1mib(self):
        key = envelope.generate_data_key()
        for size in (0, 1, 15, 16, 17, 1023, 65_536, 1 << 20):
            message = os.urandom(size)
            blob = envelope.seal(message, key, b"ctx")
            assert envelope.open_blob(blob, key, b"ctx") == message

    @given(message=st.binary(max_size=4096), aad=st.binary(max_size=64))
    @settings(max_examples=60)
    def test_round_trip_property(self, message, aad):
        key = envelope.generate_data_key()
        assert envelope.open_blob(envelope.seal(message, key, aad), key, aad) == message

    def test_body_is_plaintext_plus_16(self):
        key = envelope.generate_data_key()
        for size in (0, 1, 100, 4096):
            blob = envelope.seal(b"x" * size, key, b"")
            assert len(blob.body) - size == 16

    def test_nonce_freshness(self):
        key = envelope.generate_data_key()
        first = envelope.seal(b"same", key, b"aad")
        second = envelope.seal(b"same", key, b"aad")
        assert first.nonce != second.nonce
        assert first.body != second.body

    def test_single_byte_flip_rejected_exhaustively(self):
        key = envelope.generate_data_key()
        blob = envelope.seal(b"small message", key, b"aad")
        for i in range(len(blob.body)):
            mutated = bytearray(blob.body)
            mutated[i] ^= 0x01
            tampered = envelope.SealedBlob(nonce=blob.nonce, body=bytes(mutated))
            with pytest.raises(AuthFailure):
                envelope.open_blob(tampered, key, b"aad")

    def test_nonce_flip_rejected(self):
        key = envelope.generate_data_key()
        blob = envelope.seal(b"msg", key, b"")
        for i in range(len(blob.nonce)):
            mutated = bytearray(blob.nonce)
            mutated[i] ^= 0x80
            tampered = envelope.SealedBlob(nonce=bytes(mutated), body=blob.body)
            with pytest.raises(AuthFailure):
                envelope.open_blob(tampered, key, b"")

    def test_wrong_aad_rejected(self):
        key = envelope.generate_data_key()
        blob = envelope.seal(b"msg", key, b"right")
        with pytest.raises(AuthFailure):
            envelope.open_blob(blob, key, b"wrong")

    def test_wrong_key_rejected(self):
        blob = envelope.seal(b"msg", envelope.generate_data_key(), b"")
        with pytest.raises(AuthFailure):
            envelope.open_blob(blob, envelope.generate_data_key(), b"")


class TestContainerFormat:
    def test_layout_is_bit_exact(self):
        key = envelope.generate_data_key()
        blob = envelope.seal(b"payload", key, b"")
        raw = blob.to_bytes()
        assert raw[:4] == b"HRB1"
        assert raw[4] == 1 and raw[5] == 1
        assert raw[6:18] == blob.nonce
        assert raw[18:] == blob.body

    def test_parse_round_trip(self):
        key = envelope.generate_data_key()
        blob = envelope.seal(b"payload", key, b"a")
        parsed = envelope.SealedBlob.from_bytes(blob.to_bytes())
        assert parsed == blob
        assert envelope.open_blob(parsed, key, b"a") == b"payload"

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            envelope.SealedBlob.from_bytes(b"HRB1\x01")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            envelope.SealedBlob.from_bytes(b"NOPE" + bytes(40))

    def test_bad_version_and_alg(self):
        good = envelope.seal(b"x", envelope.generate_data_key(), b"").to_bytes()
        with pytest.raises(FormatError):
            envelope.SealedBlob.from_bytes(good[:4] + b"\x02" + good[5:])
        with pytest.raises(FormatError):
            envelope.SealedBlob.from_bytes(good[:5] + b"\x09" + good[6:])


class TestKeyWrap:
    def test_wrapped_length_matches_modulus(self, keypair_1024, keypair_2048):
        key = envelope.generate_data_key()
        assert len(envelope.wrap_key(key, keypair_1024.public, "r1").ciphertext) == 128
        assert len(envelope.wrap_key(key, keypair_2048.public, "r2").ciphertext) == 256

    def test_unsupported_modulus(self):
        with pytest.raises(UnsupportedKeySize):
            envelope.generate_role_keypair("r", 512)

    def test_oaep_capacity_arithmetic(self):
        assert envelope.oaep_capacity(1024) == 62
        assert envelope.oaep_capacity(2048) == 190

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_unwrap_inverts_wrap(self, bits, keypair_1024, keypair_2048):
        keypair = keypair_1024 if bits == 1024 else keypair_2048
        key = envelope.generate_data_key()
        wrapped = envelope.wrap_key(key, keypair.public, keypair.role)
        recovered = envelope.unwrap_key(wrapped, keypair.private)
        assert recovered.bytes == key.bytes

    def test_oaep_randomized(self, keypair_1024):
        key = envelope.generate_data_key()
        first = envelope.wrap_key(key, keypair_1024.public, "r1")
        second = envelope.wrap_key(key, keypair_1024.public, "r1")
        assert first.ciphertext != second.ciphertext

    def test_wrong_private_key_opaque_failure(self, keypair_1024, keypair_2048):
        key = envelope.generate_data_key()
        wrapped = envelope.wrap_key(key, keypair_2048.public, "r2")
        other = envelope.generate_role_keypair("other", 2048)
        with pytest.raises(UnwrapFailure):
            envelope.unwrap_key(wrapped, other.private)
        with pytest.raises(UnwrapFailure):
            envelope.unwrap_key(wrapped, keypair_1024.private)

    def test_flipped_ciphertext_byte(self, keypair_1024):
        key = envelope.generate_data_key()
        wrapped = envelope.wrap_key(key, keypair_1024.public, "r1")
        for i in (0, 64, 127):
            mutated = bytearray(wrapped.ciphertext)
            mutated[i] ^= 0x01
            bad = envelope.WrappedKey("r1", wrapped.scheme, bytes(mutated))
            with pytest.raises(UnwrapFailure):
                envelope.unwrap_key(bad, keypair_1024.private)

    def test_keypair_pem_round_trip(self, keypair_1024):
        pem = keypair_1024.private_pem()
        loaded = envelope.RoleKeyPair.from_private_pem("r1", pem)
        key = envelope.generate_data_key()
        wrapped = envelope.wrap_key(key, keypair_1024.public, "r1")
        assert envelope.unwrap_key(wrapped, loaded.private).bytes == key.bytes


class TestWrapMemo:
    """``RoleKeyPair.wrap`` remembers the data key under its ciphertext;
    ``unwrap`` reads that memo and never writes it."""

    @staticmethod
    def _fresh(keypair):
        return envelope.RoleKeyPair.from_private_pem(keypair.role, keypair.private_pem())

    def test_unwrap_of_own_wrap_makes_no_rsa_call(self, keypair_1024, rsa_unwraps):
        pair, other = self._fresh(keypair_1024), self._fresh(keypair_1024)
        key = envelope.generate_data_key()
        wrapped = pair.wrap(key)
        assert pair.unwrap(wrapped) == key
        assert rsa_unwraps == []
        # the same key pair loaded again remembers nothing, and learns nothing
        assert other.unwrap(wrapped) == key
        assert rsa_unwraps == [keypair_1024.role]
        assert other._memo == {}

    def test_memo_is_bounded_first_in_first_out(self, keypair_1024, rsa_unwraps):
        pair = self._fresh(keypair_1024)
        keys = [envelope.generate_data_key() for _ in range(envelope.WRAP_MEMO_SIZE + 3)]
        wrapped = [pair.wrap(key) for key in keys]
        assert len(pair._memo) == envelope.WRAP_MEMO_SIZE
        assert list(pair._memo) == [w.ciphertext for w in wrapped[3:]]
        assert pair.unwrap(wrapped[0]) == keys[0]
        assert rsa_unwraps == [keypair_1024.role]
        assert len(pair._memo) == envelope.WRAP_MEMO_SIZE

    def test_tampered_ciphertext_misses_the_memo(self, keypair_1024, rsa_unwraps):
        pair = self._fresh(keypair_1024)
        wrapped = pair.wrap(envelope.generate_data_key())
        flipped = bytes([wrapped.ciphertext[0] ^ 1]) + wrapped.ciphertext[1:]
        with pytest.raises(UnwrapFailure):
            pair.unwrap(envelope.WrappedKey(pair.role, wrapped.scheme, flipped))
        assert rsa_unwraps == [pair.role]
