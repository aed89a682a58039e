"""GF(2^64) syndrome arithmetic: field axioms, Q updates, erasure solves."""

import itertools
import random

import pytest

from repro.array import syndromes as gf


def _poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Carry-less multiply of bit-polynomials reduced mod ``modulus``."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    degree = modulus.bit_length() - 1
    while result.bit_length() - 1 >= degree:
        result ^= modulus << (result.bit_length() - 1 - degree)
    return result


def _poly_gcd(a: int, b: int) -> int:
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
            continue
        a ^= b << (a.bit_length() - b.bit_length())
    return a


class TestReductionPolynomial:
    def test_pentanomial_is_irreducible(self):
        """x^(2^64) == x mod f and gcd(x^(2^32) ^ x, f) == 1.

        Together these are the standard irreducibility certificate for
        a degree-64 binary polynomial (64's only prime factor is 2, so
        the single gcd test rules out all proper factors).
        """
        x = 0b10
        frobenius = x
        for step in range(64):
            frobenius = _poly_mulmod(frobenius, frobenius, gf.POLY)
            if step == 31:
                half = frobenius
        assert frobenius == x
        assert _poly_gcd(half ^ x, gf.POLY) == 1

    def test_poly_matches_low_constant(self):
        assert gf.POLY == (1 << 64) | 0x1B


class TestFieldAxioms:
    def test_identity_and_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            a = rng.getrandbits(64)
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0

    def test_commutative_and_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            a, b, c = (rng.getrandbits(64) for _ in range(3))
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))

    def test_distributive_over_xor(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (rng.getrandbits(64) for _ in range(3))
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(8):
            a = rng.getrandbits(64) | 1
            assert gf.mul(a, gf.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_x_pow_matches_repeated_xtime(self):
        value = 1
        for j in range(70):
            assert gf.x_pow(j) == value
            value = gf.xtime(value)


class TestSyndromes:
    def test_q_update_matches_recompute(self):
        rng = random.Random(5)
        data = [rng.getrandbits(64) for _ in range(8)]
        q = gf.q_of(data)
        for pos in range(len(data)):
            new = rng.getrandbits(64)
            q = gf.q_update(q, pos, data[pos], new)
            data[pos] = new
            assert q == gf.q_of(data)

    def test_recover_single_via_p(self):
        rng = random.Random(6)
        data = [rng.getrandbits(64) for _ in range(5)]
        p, q = gf.p_of(data), gf.q_of(data)
        for lost in range(len(data)):
            holes = list(data)
            holes[lost] = None
            assert gf.recover_stripe_data(holes, p, q) == data

    def test_recover_single_via_q_when_p_lost(self):
        rng = random.Random(7)
        data = [rng.getrandbits(64) for _ in range(5)]
        q = gf.q_of(data)
        for lost in range(len(data)):
            holes = list(data)
            holes[lost] = None
            assert gf.recover_stripe_data(holes, None, q) == data

    def test_recover_two_data_units(self):
        rng = random.Random(8)
        data = [rng.getrandbits(64) for _ in range(6)]
        p, q = gf.p_of(data), gf.q_of(data)
        for a in range(len(data)):
            for b in range(a + 1, len(data)):
                holes = list(data)
                holes[a] = holes[b] = None
                assert gf.recover_stripe_data(holes, p, q) == data

    def test_three_erasures_rejected(self):
        data = [1, 2, None, None]
        with pytest.raises(ValueError):
            gf.recover_stripe_data(data, None, 7)

    def test_no_erasures_is_identity(self):
        data = [3, 1, 4, 1, 5]
        assert gf.recover_stripe_data(data, gf.p_of(data), gf.q_of(data)) == data

    def test_recover_two_rejects_equal_positions(self):
        with pytest.raises(ValueError):
            gf.recover_two(1, 2, 3, 3)


class TestStripeEntryPoints:
    """``checks_of``, ``update_checks`` and ``decode`` for one or two
    syndromes: the only syndrome calls the controller makes."""

    @pytest.mark.parametrize("num_syndromes", [1, 2])
    def test_checks_of_lists_p_then_q(self, num_syndromes):
        data = [3, 1, 4, 1, 5]
        expected = [gf.p_of(data), gf.q_of(data)][:num_syndromes]
        assert gf.checks_of(data, num_syndromes) == expected

    @pytest.mark.parametrize("num_syndromes", [1, 2])
    def test_update_checks_matches_recompute(self, num_syndromes):
        rng = random.Random(9)
        data = [rng.getrandbits(64) for _ in range(6)]
        checks = gf.checks_of(data, num_syndromes)
        for pos in range(len(data)):
            new = rng.getrandbits(64)
            checks = gf.update_checks(checks, pos, data[pos], new)
            data[pos] = new
            assert checks == gf.checks_of(data, num_syndromes)

    @pytest.mark.parametrize("num_syndromes", [1, 2])
    def test_decode_fills_any_erasures_up_to_the_syndromes(self, num_syndromes):
        rng = random.Random(10)
        data = [rng.getrandbits(64) for _ in range(5)]
        stripe = data + gf.checks_of(data, num_syndromes)
        for lost in itertools.combinations(range(len(stripe)), num_syndromes):
            holes = [None if i in lost else v for i, v in enumerate(stripe)]
            assert gf.decode(holes, num_syndromes) == stripe

    @pytest.mark.parametrize("num_syndromes", [1, 2])
    def test_decode_gives_up_past_the_syndromes(self, num_syndromes):
        stripe = [1, 2, 3, 4, 5]
        holes = [None] * (num_syndromes + 1) + stripe[num_syndromes + 1:]
        assert gf.decode(holes, num_syndromes) is None

    def test_decode_returns_present_units_as_given(self):
        # A stale check unit that was read is not recomputed.
        data = [3, 1, 4]
        stripe = [None] + data[1:] + [gf.p_of(data), 0xBAD]
        assert gf.decode(stripe, 2) == data + [gf.p_of(data), 0xBAD]
