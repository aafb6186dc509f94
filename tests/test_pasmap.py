import numpy as np
import pytest

from bandshape.errors import ParameterError
from bandshape.pasmap import (
    SymbolStream,
    map_ask,
    map_qam,
    normalize,
    random_sign_bits,
)


class TestMapAsk:
    def test_sign_rule(self):
        out = map_ask([3, 1, 3], [1, 0, 1])
        np.testing.assert_array_equal(out, [3.0, -1.0, 3.0])

    def test_all_positive(self):
        amps = [1, 3, 5, 7, 5]
        np.testing.assert_array_equal(map_ask(amps, [1] * 5), amps)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(3)
        amps = rng.choice([1, 3, 5, 7], size=1000)
        bits = rng.integers(0, 2, size=1000)
        np.testing.assert_array_equal(np.abs(map_ask(amps, bits)), amps)

    def test_random_signs_zero_mean(self):
        n = 100_000
        amps = np.ones(n)
        bits = random_sign_bits(n, seed=11)
        out = map_ask(amps, bits)
        sigma = 1.0 / np.sqrt(n)  # E[A^2]=1 here
        assert abs(out.mean()) < 3 * sigma

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            map_ask([1, 3], [1])

    def test_bad_bit(self):
        with pytest.raises(ParameterError):
            map_ask([1, 3], [1, 2])


class TestMapQamNormalize:
    def test_qpsk_unit_power(self):
        i = np.array([1, -1, 1, -1])
        q = np.array([1, 1, -1, -1])
        stream = normalize(map_qam(i, q))
        np.testing.assert_allclose(np.abs(stream.symbols), 1.0, atol=1e-12)
        assert stream.avg_power == pytest.approx(2.0)

    def test_uniform_8ask_power(self):
        # uniform {1,3,5,7} on both rails: E[A^2]=21 per rail, 42 per symbol
        rails = np.array([1, 3, 5, 7] * 250)
        rng = np.random.default_rng(5)
        i = map_ask(rails, rng.integers(0, 2, rails.size))
        q = map_ask(np.roll(rails, 1), rng.integers(0, 2, rails.size))
        symbols = map_qam(i, q)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(42.0)
        stream = normalize(symbols)
        assert stream.avg_power == pytest.approx(42.0)
        assert np.mean(np.abs(stream.symbols) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_single_symbol(self):
        stream = normalize(np.array([7 + 7j]))
        assert abs(stream.symbols[0]) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        sym = rng.normal(size=64) + 1j * rng.normal(size=64)
        once = normalize(sym)
        twice = normalize(once.symbols)
        np.testing.assert_allclose(twice.symbols, once.symbols, atol=1e-15)
        assert twice.avg_power == pytest.approx(1.0, abs=1e-12)

    def test_qam_length_mismatch(self):
        with pytest.raises(ParameterError):
            map_qam([1, 1], [1])

    def test_normalize_empty(self):
        with pytest.raises(ParameterError):
            normalize(np.array([], dtype=complex))


class TestSignBits:
    def test_deterministic(self):
        a = random_sign_bits(256, seed=9)
        b = random_sign_bits(256, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_binary_values(self):
        bits = random_sign_bits(1000, seed=1)
        assert set(np.unique(bits)) <= {0, 1}

