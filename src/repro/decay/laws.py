"""Decay laws: how a counter's value erodes with time.

A law maps ``(value, age_seconds) -> decayed_value``.  Two properties
matter to the detectors built on top:

- *monotone in age*: older observations never count more;
- *composable*: ``decay(decay(v, a), b) == decay(v, a + b)``, so lazy
  ("on-demand") application at irregular touch times is exact.

Linear decay (Bianchi et al.'s choice: subtract ``rate * age``) and
exponential decay both compose.

Every law also offers :meth:`~DecayLaw.decay_array`, the numpy-vectorized
form used by the batch-update engine.  Exponential decay additionally
exposes :meth:`ExponentialDecay.decay_factor`: because the law is *linear in
the value* (a pure multiplicative factor, no zero floor), batched scatter
updates can decay each contribution independently and sum them — exactly
what a sequential per-packet replay would produce.  The linear law lacks
that property (its zero floor), so it keeps the scalar fallback in
``update_batch``.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np


class DecayLaw(Protocol):
    """Protocol for decay laws."""

    def decay(self, value: float, age: float) -> float:
        """``value`` after ``age`` seconds without updates."""
        ...

    def decay_array(self, values: np.ndarray, ages) -> np.ndarray:
        """Vectorized :meth:`decay`: ``values`` after ``ages`` seconds.

        ``ages`` may be a scalar or an array broadcastable to ``values``;
        callers are responsible for clamping ages at zero.
        """
        ...

    def horizon(self) -> float:
        """Seconds after which any bounded value is effectively zero.

        Used by detectors to size candidate retention; may be ``inf``.
        """
        ...


def same_law(a: DecayLaw, b: DecayLaw) -> bool:
    """Whether two laws are identically parameterised.

    Compares type and exact parameter values — not ``repr``, whose
    rounded formatting would conflate nearby parameters (e.g. taus that
    differ by less than the displayed precision).
    """
    return type(a) is type(b) and a.__dict__ == b.__dict__


class LinearDecay:
    """Subtract ``rate`` units per second, floored at zero.

    This is the law of the original time-decaying Bloom filter: with rate
    ``r`` and threshold ``T``, a burst of volume ``V`` stays visible for
    ``(V - T) / r`` seconds — a straight-line memory of recent traffic.
    """

    _STATE_ATTRS = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"decay rate must be positive, got {rate}")
        self.rate = rate

    def decay(self, value: float, age: float) -> float:
        """Linear erosion, floored at zero."""
        if age < 0:
            raise ValueError(f"negative age {age}")
        return max(0.0, value - self.rate * age)

    def decay_array(self, values: np.ndarray, ages) -> np.ndarray:
        """Vectorized linear erosion, floored at zero."""
        return np.maximum(0.0, np.asarray(values, dtype=np.float64)
                          - self.rate * np.asarray(ages, dtype=np.float64))

    def horizon(self) -> float:
        """Conservative horizon: unbounded values decay eventually but we
        report infinity since the bound depends on the value."""
        return math.inf

    def __repr__(self) -> str:
        return f"LinearDecay(rate={self.rate})"


class ExponentialDecay:
    """Multiply by ``exp(-age / tau)``; ``half_life = tau * ln 2``.

    Exponential decay weights a byte observed ``a`` seconds ago by
    ``e^(-a/tau)``, which makes a decayed counter an *exponentially
    weighted moving volume* — the continuous-time analogue of a window of
    effective length ``tau``.
    """

    _STATE_ATTRS = ("tau",)

    def __init__(self, tau: float | None = None, half_life: float | None = None
                 ) -> None:
        if (tau is None) == (half_life is None):
            raise ValueError("give exactly one of tau or half_life")
        if half_life is not None:
            tau = half_life / math.log(2)
        assert tau is not None
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau

    @property
    def half_life(self) -> float:
        """Seconds for a value to halve."""
        return self.tau * math.log(2)

    def decay(self, value: float, age: float) -> float:
        """Exponential erosion."""
        if age < 0:
            raise ValueError(f"negative age {age}")
        return value * math.exp(-age / self.tau)

    def decay_array(self, values: np.ndarray, ages) -> np.ndarray:
        """Vectorized exponential erosion."""
        return np.asarray(values, dtype=np.float64) * self.decay_factor(ages)

    def decay_factor(self, ages) -> np.ndarray:
        """``exp(-ages / tau)`` as an array.

        The law is linear in the value, so batched updates can decay every
        contribution by its own factor and scatter-add the results — the
        hook :mod:`repro.core`'s vectorized fast paths key off.
        """
        return np.exp(-np.asarray(ages, dtype=np.float64) / self.tau)

    def horizon(self) -> float:
        """~40 time constants: anything is < 1e-17 of its original value."""
        return 40.0 * self.tau

    def __repr__(self) -> str:
        return f"ExponentialDecay(tau={self.tau:.3f})"
