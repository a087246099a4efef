"""Coin-betting position updates for particle clouds.

Both engines are steppers: ``step(y, c)`` takes the positions ``y`` (an
(N, d) cloud, or a (B, N, d) stack of clouds, each bet on as if alone) and
the "outcome" ``c`` computed there -- the negative gradient signal -- and
returns the next positions.  The caller owns the positions; an engine keeps
only its start ``y0`` and its betting state, so a caller that moves ``y``
between steps (a projection, say) bets from where the particles really are.
The engines never take a learning rate.

:class:`KTCoin` is the Krichevsky-Trofimov bettor.  After outcomes
``c_1 .. c_t`` (observed at positions ``y_1 .. y_t``) the position is

    y = y0 + (sum_s c_s) / (t + 1) * (1 + sum_s <c_s, y_s - y0>),

with the inner product (the bettor's wealth from past rounds) scalar per
particle.  A first outcome observed at ``y0`` earns no wealth.

:class:`AdaptiveCoin` replaces the ``1/(t+1)`` schedule with per-coordinate
scale tracking: running maximum ``L``, absolute-sum ``G``, and clipped reward
``R``, updated with each outcome before the position is recomputed as

    y = y0 + sum_c / (G + L) * (1 + R / L)

per coordinate.  Its very first step therefore moves each coordinate by
exactly sign(c)/2.  Coordinates that have seen only zero outcomes stay at
``y0``.
"""

from __future__ import annotations

import numpy as np


class KTCoin:
    def __init__(self, y0: np.ndarray):
        y0 = np.array(y0, dtype=float)
        self.y0 = y0
        self._sum_c = np.zeros_like(y0)
        self._wealth = np.zeros(y0.shape[:-1])
        self._t = 1

    def step(self, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        self._wealth = self._wealth + (c * (y - self.y0)).sum(axis=-1)
        self._sum_c = self._sum_c + c
        self._t += 1
        return self.y0 + self._sum_c / self._t * (1.0 + self._wealth)[..., None]


class AdaptiveCoin:
    def __init__(self, y0: np.ndarray):
        y0 = np.array(y0, dtype=float)
        self.y0 = y0
        self._sum_c = np.zeros_like(y0)
        self.L = np.zeros_like(y0)
        self.G = np.zeros_like(y0)
        self.R = np.zeros_like(y0)

    def step(self, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        np.maximum(self.L, np.abs(c), out=self.L)
        self.G += np.abs(c)
        np.maximum(self.R + c * (y - self.y0), 0.0, out=self.R)
        self._sum_c = self._sum_c + c
        seen = self.L > 0.0
        safe_denom = np.where(seen, self.G + self.L, 1.0)
        safe_L = np.where(seen, self.L, 1.0)
        move = np.where(seen, self._sum_c / safe_denom * (1.0 + self.R / safe_L), 0.0)
        return self.y0 + move
