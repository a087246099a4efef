"""Mirror maps between constrained primal domains and unconstrained dual space.

A mirror map ``phi`` is a strictly convex potential on an open domain.  Its
gradient sends primal points ``x`` to dual points ``y = grad phi(x)`` living in
all of R^d; the inverse gradient maps back.  Two maps are provided:

* :class:`EntropicSimplexMap` -- the open probability simplex in ``d`` free
  coordinates (the implicit ``d+1``-th coordinate is ``1 - sum(x)``), with the
  negative-entropy potential.
* :class:`PositiveOrthantMap` -- the open positive orthant with the
  ``sum(x log x - x)`` potential, i.e. coordinatewise log/exp.

All operations act on the last axis of their inputs and broadcast over any
leading axes.  They are pure functions of their arguments: no instance state
is ever mutated, so maps can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, NumericalFailure, NumericalOverflow

# Margin for strict interiority.  Points closer to the boundary than this are
# treated as boundary contact and rejected.
INTERIOR_TOL = 1e-12

# exp() overflows float64 just above this argument.
_EXP_MAX = 709.0


def as_dimension(d) -> int:
    """``d`` as the dimension of a domain, which must be at least 1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return int(d)


class _MirrorMap:
    """The dimension, the interior check and the derivative contraction of
    the inverse Hessian, which both maps share; each map
    defines ``domain``, ``inside``, the scalar test that every point is
    finite and interior, and ``sigma``, the structure of its inverse
    Hessian A(x) = diag(x) - sigma x x^T."""

    domain: str
    sigma: float

    def __init__(self, d: int):
        self.d = as_dimension(d)

    def d_inv_hessian_contract(self, x: np.ndarray, diag: np.ndarray, mx, mtx) -> np.ndarray:
        """Vector g with g_m = <dA/dx_m, M>_F where A = [grad^2 phi]^-1,
        from three pieces of M: its diagonal, M x and M^T x.

        dA/dx_m = E_mm - sigma (e_m x^T + x e_m^T), so
        g_m = M_mm - sigma ((M x)_m + (M^T x)_m).
        """
        self.assert_interior(x)
        return np.asarray(diag, dtype=float) - self.sigma * (mx + mtx)

    def assert_interior(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise DomainViolation(
                f"expected last axis {self.d}, got {x.shape[-1]}"
            )
        if x.size and not self.inside(x):
            # only a failed check works out which error it is
            if not np.all(np.isfinite(x)):
                raise DomainViolation("non-finite primal point")
            raise DomainViolation(
                f"point on or outside the open {self.domain} (margin {INTERIOR_TOL})"
            )
        return x


class EntropicSimplexMap(_MirrorMap):
    """Entropic mirror map on the open unit simplex.

    Points are the ``d`` free coordinates; interiority requires every
    coordinate and the implicit remainder ``1 - sum(x)`` to exceed
    ``INTERIOR_TOL``.
    """

    domain = "simplex"
    sigma = 1.0

    # -- domain ---------------------------------------------------------

    def _last(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x.sum(axis=-1)

    def inside(self, x: np.ndarray) -> bool:
        # a NaN fails the minimum, and a +inf sends the remainder to -inf
        return x.min() > INTERIOR_TOL and self._last(x).min() > INTERIOR_TOL

    # -- potential and conjugate maps ------------------------------------

    def potential(self, x: np.ndarray) -> np.ndarray:
        """phi(x) = sum_k x_k log x_k + (1 - sum x) log(1 - sum x)."""
        x = self.assert_interior(x)
        rest = self._last(x)
        return (x * np.log(x)).sum(axis=-1) + rest * np.log(rest)

    def primal_to_dual(self, x: np.ndarray) -> np.ndarray:
        """grad phi: y_k = log(x_k / (1 - sum x))."""
        x = self.assert_interior(x)
        rest = self._last(x)
        return np.log(x) - np.log(rest)[..., None]

    def dual_to_primal(self, y: np.ndarray) -> np.ndarray:
        """Inverse gradient: x_k = exp(y_k) / (1 + sum_j exp(y_j)).

        Evaluated with a max-shift so arbitrarily large positive or negative
        dual coordinates never overflow.  The result can touch the boundary
        in floating point for extreme inputs; callers who need interiority
        must check it.
        """
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise NumericalFailure("non-finite dual point")
        shift = np.maximum(y.max(axis=-1, keepdims=True), 0.0)
        e = np.exp(y - shift)
        denom = np.exp(-shift) + e.sum(axis=-1, keepdims=True)
        return e / denom

    # -- Hessian algebra --------------------------------------------------

    def log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        """log det grad^2 phi(x) = -sum_k log x_k - log(1 - sum x)."""
        x = self.assert_interior(x)
        rest = self._last(x)
        return -np.log(x).sum(axis=-1) - np.log(rest)

    def grad_log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        rest = self._last(x)
        return -1.0 / x + (1.0 / rest)[..., None]

    def hess_log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        rest = self._last(x)
        d = self.d
        out = np.zeros(x.shape + (d,))
        idx = np.arange(d)
        out[..., idx, idx] = 1.0 / x**2
        out += (1.0 / rest**2)[..., None, None]
        return out

    def hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad^2 phi(x) v = v / x + (sum v) / (1 - sum x)."""
        x = self.assert_interior(x)
        v = np.asarray(v, dtype=float)
        rest = self._last(x)
        return v / x + (v.sum(axis=-1) / rest)[..., None]

    def hessian_inverse_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[grad^2 phi(x)]^-1 v = x*v - (x . v) x  (Sherman-Morrison)."""
        x = self.assert_interior(x)
        v = np.asarray(v, dtype=float)
        xv = (x * v).sum(axis=-1, keepdims=True)
        return x * v - xv * x

    def inverse_hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense [grad^2 phi(x)]^-1 = diag(x) - x x^T."""
        x = self.assert_interior(x)
        d = self.d
        out = -x[..., :, None] * x[..., None, :]
        idx = np.arange(d)
        out[..., idx, idx] += x
        return out

    # named in the class itself, where perfbench's tracer finds its layers
    d_inv_hessian_contract = _MirrorMap.d_inv_hessian_contract


class PositiveOrthantMap(_MirrorMap):
    """Coordinatewise log/exp mirror map on the open positive orthant."""

    domain = "orthant"
    sigma = 0.0

    def inside(self, x: np.ndarray) -> bool:
        return x.min() > INTERIOR_TOL and x.max() < np.inf

    def potential(self, x: np.ndarray) -> np.ndarray:
        """phi(x) = sum_k (x_k log x_k - x_k)."""
        x = self.assert_interior(x)
        return (x * np.log(x) - x).sum(axis=-1)

    def primal_to_dual(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return np.log(x)

    def dual_to_primal(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise NumericalFailure("non-finite dual point")
        if np.any(y > _EXP_MAX):
            raise NumericalOverflow(
                f"exp overflow: dual coordinate above {_EXP_MAX}"
            )
        return np.exp(y)

    def log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return -np.log(x).sum(axis=-1)

    def grad_log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return -1.0 / x

    def hess_log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        out = np.zeros(x.shape + (self.d,))
        idx = np.arange(self.d)
        out[..., idx, idx] = 1.0 / x**2
        return out

    def hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return np.asarray(v, dtype=float) / x

    def hessian_inverse_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return x * np.asarray(v, dtype=float)

    def inverse_hessian(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        out = np.zeros(x.shape + (self.d,))
        idx = np.arange(self.d)
        out[..., idx, idx] = x
        return out

    d_inv_hessian_contract = _MirrorMap.d_inv_hessian_contract


def make_map(domain: str, d: int):
    """The mirror map of a domain kind; None for the box, which no map covers."""
    if domain == "simplex":
        return EntropicSimplexMap(d)
    if domain == "orthant":
        return PositiveOrthantMap(d)
    if domain == "box":
        return None
    raise ValueError(f"unknown domain kind {domain!r}")
