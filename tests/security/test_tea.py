"""Tests for the TEA cipher (incl. property-based roundtrips)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.security import tea
from repro.util.errors import CipherError

KEY = (0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210)


class TestBlocks:
    def test_block_roundtrip(self):
        c0, c1 = tea.encrypt_block(0xDEADBEEF, 0xCAFEBABE, KEY)
        assert tea.decrypt_block(c0, c1, KEY) == (0xDEADBEEF, 0xCAFEBABE)

    def test_block_changes_value(self):
        assert tea.encrypt_block(0, 0, KEY) != (0, 0)

    def test_known_vector(self):
        """Published TEA test vector: zero key, zero plaintext."""
        # Reference: TEA with v=(0,0), k=(0,0,0,0) -> 0x41EA3A0A 0x94BAA940
        assert tea.encrypt_block(0, 0, (0, 0, 0, 0)) == (0x41EA3A0A, 0x94BAA940)

    def test_known_vector_2(self):
        # v=(0x12345678, 0x9ABCDEF0), k=(0,1,2,3)
        c = tea.encrypt_block(0x12345678, 0x9ABCDEF0, (0, 1, 2, 3))
        assert tea.decrypt_block(*c, (0, 1, 2, 3)) == (0x12345678, 0x9ABCDEF0)

    @given(v0=st.integers(0, 2**32 - 1), v1=st.integers(0, 2**32 - 1))
    def test_block_roundtrip_property(self, v0, v1):
        c0, c1 = tea.encrypt_block(v0, v1, KEY)
        assert tea.decrypt_block(c0, c1, KEY) == (v0, v1)


class TestKeyDerivation:
    def test_deterministic(self):
        assert tea.derive_key("secret") == tea.derive_key("secret")

    def test_distinct_for_distinct_passphrases(self):
        assert tea.derive_key("a") != tea.derive_key("b")

    def test_bytes_and_str_equivalent(self):
        assert tea.derive_key("x") == tea.derive_key(b"x")

    def test_four_32bit_words(self):
        key = tea.derive_key("anything")
        assert len(key) == 4
        assert all(0 <= w < 2**32 for w in key)


class TestCBC:
    def test_roundtrip(self):
        blob = tea.encrypt(b"hello world", "pass")
        assert tea.decrypt(blob, "pass") == b"hello world"

    def test_empty_plaintext(self):
        assert tea.decrypt(tea.encrypt(b"", "p"), "p") == b""

    def test_wrong_passphrase_fails(self):
        blob = tea.encrypt(b"hello world, here is a message", "right")
        with pytest.raises(CipherError):
            tea.decrypt(blob, "wrong")

    def test_deterministic_with_fixed_iv(self):
        iv = bytes(8)
        assert tea.encrypt(b"msg", "p", iv=iv) == tea.encrypt(b"msg", "p", iv=iv)

    def test_random_iv_differs(self):
        assert tea.encrypt(b"msg", "p") != tea.encrypt(b"msg", "p")

    def test_bad_iv_length(self):
        with pytest.raises(CipherError):
            tea.encrypt(b"msg", "p", iv=b"short")

    def test_truncated_ciphertext(self):
        with pytest.raises(CipherError):
            tea.decrypt(b"1234567", "p")

    def test_misaligned_ciphertext(self):
        blob = tea.encrypt(b"hello", "p")
        with pytest.raises(CipherError):
            tea.decrypt(blob[:-3], "p")

    def test_ciphertext_hides_plaintext(self):
        blob = tea.encrypt(b"AAAAAAAAAAAAAAAA", "p", iv=bytes(8))
        assert b"AAAA" not in blob

    @given(data=st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        assert tea.decrypt(tea.encrypt(data, "k"), "k") == data


def test_padding_all_lengths():
    for n in range(0, 25):
        data = bytes(range(n))
        assert tea.decrypt(tea.encrypt(data, "p"), "p") == data


class TestAuthentication:
    def test_blob_carries_a_tag(self):
        blob = tea.encrypt(b"hello", "p", iv=bytes(8))
        assert len(blob) == tea.BLOCK_SIZE + 8 + tea.TAG_SIZE

    def test_mac_key_is_not_the_cipher_key(self):
        cipher = b"".join(w.to_bytes(4, "big") for w in tea.derive_key("p"))
        assert tea.derive_mac_key("p") != cipher
        assert tea.derive_mac_key("p")[:16] != cipher

    @pytest.mark.parametrize("where", [0, 8, -17, -1])
    def test_tampered_byte_fails(self, where):
        blob = bytearray(tea.encrypt(b"hello world, here is a message", "p"))
        blob[where] ^= 0x01
        with pytest.raises(CipherError, match="tag"):
            tea.decrypt(bytes(blob), "p")

    def test_100k_wrong_passphrases_all_fail(self):
        # Unauthenticated CBC accepts about 1 in 256 wrong keys through
        # the padding check; the tag refuses every one before decrypting.
        blob = tea.encrypt(b"hello world, here is a message", "right")
        accepted = 0
        for i in range(100_000):
            try:
                tea.decrypt(blob, f"wrong{i}")
            except CipherError:
                continue
            accepted += 1
        assert accepted == 0
