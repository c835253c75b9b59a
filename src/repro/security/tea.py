"""Tiny Encryption Algorithm (TEA).

Paper §5.4: "Encryption is done using the Tiny Encryption Algorithm"
(Wheeler & Needham 1994, reference [22]) to protect the user id and
password sent with every request. This is a faithful from-scratch
implementation of the original TEA: 64-bit blocks, 128-bit key, 32
rounds, magic constant 0x9E3779B9.

Note: the paper says "a 32-bit key is used", which contradicts TEA's
definition (the key schedule consumes four 32-bit words). We implement
standard TEA and derive the 128-bit key from a passphrase; the
discrepancy is recorded in DESIGN.md.

Beyond raw blocks we provide CBC mode with PKCS#7 padding and a
deterministic-IV option so tests can use golden ciphertexts. CBC output
is authenticated encrypt-then-MAC: an HMAC-SHA256 tag, truncated to
:data:`TAG_SIZE` bytes and keyed separately from the cipher, covers
``iv || ciphertext`` and is checked before anything is decrypted. A
wrong passphrase or a tampered blob therefore fails at the tag instead
of decrypting to garbage with valid-looking padding (which happens about
once in 256 tries without the tag).
"""

from __future__ import annotations

import hashlib
import hmac
import os

from repro.util.errors import CipherError

_MASK = 0xFFFFFFFF
_DELTA = 0x9E3779B9
_ROUNDS = 32
BLOCK_SIZE = 8  # bytes
#: bytes of the truncated HMAC-SHA256 tag appended to every CBC blob
TAG_SIZE = 16


def derive_key(passphrase: str | bytes) -> tuple[int, int, int, int]:
    """Derive TEA's four 32-bit key words from a passphrase.

    Uses MD5 (16 bytes → exactly 128 bits); MD5's weaknesses are
    irrelevant here since it only spreads a shared secret, matching the
    prototype's era-appropriate security level.
    """
    if isinstance(passphrase, str):
        passphrase = passphrase.encode("utf-8")
    digest = hashlib.md5(passphrase).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))  # type: ignore[return-value]


def derive_mac_key(passphrase: str | bytes) -> bytes:
    """Derive the tag's HMAC key, independent of the cipher key."""
    if isinstance(passphrase, str):
        passphrase = passphrase.encode("utf-8")
    return hashlib.sha256(b"repro.tea.mac\x00" + passphrase).digest()


def _tag(mac_key: bytes, data: bytes) -> bytes:
    return hmac.new(mac_key, data, hashlib.sha256).digest()[:TAG_SIZE]


def encrypt_block(v0: int, v1: int, key: tuple[int, int, int, int]) -> tuple[int, int]:
    """Encrypt one 64-bit block given as two 32-bit halves."""
    k0, k1, k2, k3 = key
    total = 0
    for _ in range(_ROUNDS):
        total = (total + _DELTA) & _MASK
        v0 = (v0 + (((v1 << 4) + k0) ^ (v1 + total) ^ ((v1 >> 5) + k1))) & _MASK
        v1 = (v1 + (((v0 << 4) + k2) ^ (v0 + total) ^ ((v0 >> 5) + k3))) & _MASK
    return v0, v1


def decrypt_block(v0: int, v1: int, key: tuple[int, int, int, int]) -> tuple[int, int]:
    """Invert :func:`encrypt_block`."""
    k0, k1, k2, k3 = key
    total = (_DELTA * _ROUNDS) & _MASK
    for _ in range(_ROUNDS):
        v1 = (v1 - (((v0 << 4) + k2) ^ (v0 + total) ^ ((v0 >> 5) + k3))) & _MASK
        v0 = (v0 - (((v1 << 4) + k0) ^ (v1 + total) ^ ((v1 >> 5) + k1))) & _MASK
        total = (total - _DELTA) & _MASK
    return v0, v1


def _pad(data: bytes) -> bytes:
    n = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([n]) * n


def _unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK_SIZE:
        raise CipherError("ciphertext length is not a multiple of the block size")
    n = data[-1]
    if not 1 <= n <= BLOCK_SIZE or data[-n:] != bytes([n]) * n:
        raise CipherError("bad padding")
    return data[:-n]


def _xor8(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def encrypt(plaintext: bytes, passphrase: str | bytes, iv: bytes | None = None) -> bytes:
    """CBC-encrypt ``plaintext``; returns ``iv || ciphertext || tag``.

    A random IV is generated unless one is supplied (8 bytes). The tag
    authenticates ``iv || ciphertext`` (see :func:`decrypt`).
    """
    key = derive_key(passphrase)
    if iv is None:
        iv = os.urandom(BLOCK_SIZE)
    if len(iv) != BLOCK_SIZE:
        raise CipherError(f"IV must be {BLOCK_SIZE} bytes")
    data = _pad(plaintext)
    out = bytearray(iv)
    prev = iv
    for i in range(0, len(data), BLOCK_SIZE):
        block = _xor8(data[i : i + BLOCK_SIZE], prev)
        v0 = int.from_bytes(block[:4], "big")
        v1 = int.from_bytes(block[4:], "big")
        c0, c1 = encrypt_block(v0, v1, key)
        cblock = c0.to_bytes(4, "big") + c1.to_bytes(4, "big")
        out.extend(cblock)
        prev = cblock
    out.extend(_tag(derive_mac_key(passphrase), out))
    return bytes(out)


def decrypt(blob: bytes, passphrase: str | bytes) -> bytes:
    """Invert :func:`encrypt`; raises :class:`CipherError` on malformed input.

    The tag is verified first: a blob sealed under another passphrase,
    or altered in any byte, is refused before decryption.
    """
    sealed = len(blob) - TAG_SIZE
    if sealed < 2 * BLOCK_SIZE or sealed % BLOCK_SIZE:
        raise CipherError("ciphertext too short or misaligned")
    sealed_part, tag = blob[:sealed], blob[sealed:]
    if not hmac.compare_digest(_tag(derive_mac_key(passphrase), sealed_part), tag):
        raise CipherError("authentication tag mismatch")
    key = derive_key(passphrase)
    iv, body = sealed_part[:BLOCK_SIZE], sealed_part[BLOCK_SIZE:]
    out = bytearray()
    prev = iv
    for i in range(0, len(body), BLOCK_SIZE):
        cblock = body[i : i + BLOCK_SIZE]
        c0 = int.from_bytes(cblock[:4], "big")
        c1 = int.from_bytes(cblock[4:], "big")
        p0, p1 = decrypt_block(c0, c1, key)
        block = p0.to_bytes(4, "big") + p1.to_bytes(4, "big")
        out.extend(_xor8(block, prev))
        prev = cblock
    return _unpad(bytes(out))
