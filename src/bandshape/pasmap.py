"""Amplitude-to-symbol mapping: sign application, QAM assembly and power
normalization.

Sign bits here come from a seeded uniform generator; in a full transmitter
they would be FEC parity. Normalization always uses the measured stream
power so differently shaped codebooks launch at identical average power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class SymbolStream:
    """Unit-power complex symbols plus the power measured before scaling."""

    symbols: np.ndarray
    avg_power: float


def map_ask(amplitudes, sign_bits) -> np.ndarray:
    """Apply sign bits to amplitudes: s = (2b - 1) * a."""
    amps = np.asarray(amplitudes, dtype=float)
    bits = np.asarray(sign_bits)
    if amps.shape != bits.shape:
        raise ParameterError(
            f"length mismatch: {amps.shape} amplitudes vs {bits.shape} sign bits"
        )
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ParameterError("sign bits must be 0 or 1")
    return (2.0 * bits - 1.0) * amps


def map_qam(ask_i, ask_q) -> np.ndarray:
    """Combine two ASK rails into complex symbols."""
    i = np.asarray(ask_i, dtype=float)
    q = np.asarray(ask_q, dtype=float)
    if i.shape != q.shape:
        raise ParameterError(f"rail length mismatch: {i.shape} vs {q.shape}")
    return i + 1j * q


def normalize(symbols) -> SymbolStream:
    """Scale to unit mean power, recording the power that was measured."""
    sym = np.asarray(symbols, dtype=complex)
    if sym.size == 0:
        raise ParameterError("cannot normalize an empty stream")
    power = float(np.mean(np.abs(sym) ** 2))
    if power == 0.0:
        raise ParameterError("cannot normalize an all-zero stream")
    return SymbolStream(sym / np.sqrt(power), power)


def random_sign_bits(n: int, seed) -> np.ndarray:
    """Seeded uniform sign bits (stand-in for FEC parity)."""
    return np.random.default_rng(seed).integers(0, 2, size=n)
