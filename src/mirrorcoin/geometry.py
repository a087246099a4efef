"""Mirror maps between constrained primal domains and unconstrained dual space.

A mirror map ``phi`` is a strictly convex potential on an open domain.  Its
gradient sends primal points ``x`` to dual points ``y = grad phi(x)`` living in
all of R^d; the inverse gradient maps back.  Two of the three maps share one
algebra in a constant ``sigma`` and the remainder ``r`` of a point:

    phi(x) = sum_k (x_k log x_k - x_k) + sigma (r log r - r)

* :class:`EntropicSimplexMap` -- the open probability simplex in ``d`` free
  coordinates: sigma = 1 and r = 1 - sum(x), the implicit ``d+1``-th
  coordinate (the entropic map).
* :class:`PositiveOrthantMap` -- the open positive orthant: sigma = 0 and
  r = 1, as there is no implicit coordinate, so every sigma term drops out
  and the map is coordinatewise log/exp.
* :class:`BoxMirrorMap` -- the open box lo < x < hi, outside that algebra, with
  phi(x) = 1/2 sum_k [(x_k - lo_k) log(x_k - lo_k) + (hi_k - x_k) log(hi_k - x_k)];
  it has only the maps and the inverse Hessian, all that MIED reads.

For the first two the Hessian is grad^2 phi = diag(1/x) + (sigma / r) 1 1^T,
and since sum(x) + r = 1 wherever sigma = 1 its inverse is
A(x) = diag(x) - sigma x x^T.  Each of these d x d matrices is a diagonal
plus a rank-one term, so the map applies it to a vector and never stores
it.  The two maps differ only in their inverse gradient, ``dual_to_primal``.
Only the gradient of phi, ``primal_to_dual``, is computed; the tests check it
against phi itself (acceptance criterion 01).

Only the entry points check that a primal cloud is in the open domain
(DomainViolation): ``primal_to_dual``, ``assert_interior``, the run loop
(:func:`mirrorcoin.samplers.run_stack`), and the calls that map a dual
cloud back themselves.  Every other map method trusts its ``x``, and
``dual_to_primal`` trusts its ``y``: a NaN, infinite or overflowing dual
point gives an image outside the open domain, which the caller's check
refuses.

All operations act on the last axis of their inputs and broadcast over any
leading axes.  They are pure functions of their arguments: no instance state
is ever mutated, so maps can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation

# Margin for strict interiority.  Points closer to the boundary than this are
# treated as boundary contact and rejected.
INTERIOR_TOL = 1e-12


def as_dimension(d) -> int:
    """``d`` as the dimension of a domain, which must be at least 1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return int(d)


def check_scale(name, value):
    """Refuse a scale whose square or inverse square is not finite: the
    densities, kernels and mollifiers that take it divide by the square."""
    with np.errstate(over="ignore", divide="ignore"):
        square = np.square(float(value))
        if not np.isfinite(square):
            raise ValueError(f"{name}^2 must be finite")
        if not np.isfinite(1.0 / square):
            raise ValueError(f"1/{name}^2 must be finite")


class _OpenDomain:
    """The interior check; each map defines ``domain``, ``d`` and ``inside``."""

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


class _MirrorMap(_OpenDomain):
    """The map algebra, written once in ``sigma`` and the remainder
    ``_rest(x)``; each map defines those two, ``domain`` and
    ``dual_to_primal``.  The Hessian algebra trusts its ``x``."""

    sigma: float

    def __init__(self, d: int):
        self.d = as_dimension(d)

    def inside(self, x: np.ndarray) -> bool:
        """Every coordinate and remainder is finite and above INTERIOR_TOL."""
        # a NaN fails the minimum
        return (x.min() > INTERIOR_TOL and x.max() < np.inf
                and self._rest(x).min() > INTERIOR_TOL)

    # -- forward map --------------------------------------------------------

    def primal_to_dual(self, x: np.ndarray) -> np.ndarray:
        """grad phi: y_k = log x_k - sigma log r."""
        x = self.assert_interior(x)
        return np.log(x) - self.sigma * np.log(self._rest(x))[..., None]

    # -- Hessian algebra --------------------------------------------------

    def log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        """log det grad^2 phi(x) = -sum_k log x_k - sigma log r."""
        return -np.log(x).sum(axis=-1) - self.sigma * np.log(self._rest(x))

    def grad_log_det_hessian(self, x: np.ndarray) -> np.ndarray:
        return -1.0 / x + (self.sigma / self._rest(x))[..., None]

    # The rank-one terms of the applies are zero where sigma = 0, and their
    # row sums can overflow where the diagonal terms do not.

    def hess_log_det_hessian_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """grad^2 log det grad^2 phi(x) v = v / x^2 + sigma (sum v) / r^2."""
        v = np.asarray(v, dtype=float)
        out = v / x**2
        if self.sigma:
            out = out + (self.sigma * v.sum(axis=-1) / self._rest(x)**2)[..., None]
        return out

    def hessian_inverse_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A(x) v = x v - sigma (x . v) x  (Sherman-Morrison)."""
        out = x * np.asarray(v, dtype=float)
        if self.sigma:
            out = out - self.sigma * out.sum(axis=-1, keepdims=True) * x
        return out

    def d_inv_hessian_contract(self, x: np.ndarray, diag: np.ndarray, mx, mtx) -> np.ndarray:
        """Vector g with g_m = <dA/dx_m, M>_F from three pieces of M: its
        diagonal, M x and M^T x.

        dA/dx_m = E_mm - sigma (e_m x^T + x e_m^T), so
        g_m = M_mm - sigma ((M x)_m + (M^T x)_m).
        """
        return np.asarray(diag, dtype=float) - self.sigma * (mx + mtx)


class EntropicSimplexMap(_MirrorMap):
    """Entropic mirror map on the open unit simplex.

    Points are the ``d`` free coordinates; the remainder is the implicit
    coordinate ``1 - sum(x)``.
    """

    domain = "simplex"
    sigma = 1.0

    def _rest(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x.sum(axis=-1)

    def dual_to_primal(self, y: np.ndarray) -> np.ndarray:
        """Inverse gradient: x_k = exp(y_k) / (1 + sum_j exp(y_j)).

        Evaluated with a max-shift so arbitrarily large positive or negative
        dual coordinates never overflow.  ``y`` is trusted: the result can
        touch the boundary in floating point for extreme inputs, and is NaN
        where ``y`` holds a NaN or +inf; callers who need interiority must
        check it.
        """
        y = np.asarray(y, dtype=float)
        shift = np.maximum(y.max(axis=-1, keepdims=True), 0.0)
        e = np.exp(y - shift)
        denom = np.exp(-shift) + e.sum(axis=-1, keepdims=True)
        return e / denom

    # named in the class itself, where perfbench's tracer finds its layers
    hessian_inverse_apply = _MirrorMap.hessian_inverse_apply
    d_inv_hessian_contract = _MirrorMap.d_inv_hessian_contract


class PositiveOrthantMap(_MirrorMap):
    """Coordinatewise log/exp mirror map on the open positive orthant."""

    domain = "orthant"
    sigma = 0.0

    def _rest(self, x: np.ndarray) -> np.ndarray:
        # 1 rather than 1 - sigma sum(x): a sum of coordinates as large as
        # exp(709) overflows, and 0 * inf is NaN
        return np.ones(x.shape[:-1])

    def dual_to_primal(self, y: np.ndarray) -> np.ndarray:
        """x = exp(y), inf where exp overflows (y above about 709.78); ``y``
        is trusted, and callers who need interiority must check x."""
        return np.exp(np.asarray(y, dtype=float))

    hessian_inverse_apply = _MirrorMap.hessian_inverse_apply
    d_inv_hessian_contract = _MirrorMap.d_inv_hessian_contract


class BoxMirrorMap(_OpenDomain):
    """The box lo < x < hi, centre mid, half-width half: its gradient is
    artanh((x - mid) / half) and its Hessian diag(half / ((x - lo)(hi - x)))."""

    domain = "box"

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.d = as_dimension(self.lo.size)
        self.mid = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)

    def inside(self, x: np.ndarray) -> bool:
        """x - lo and hi - x are above INTERIOR_TOL; a NaN fails the minimum."""
        return (x - self.lo).min() > INTERIOR_TOL and (self.hi - x).min() > INTERIOR_TOL

    def primal_to_dual(self, x: np.ndarray) -> np.ndarray:
        x = self.assert_interior(x)
        return np.arctanh((x - self.mid) / self.half)

    def dual_to_primal(self, y: np.ndarray) -> np.ndarray:
        """x = mid + half tanh(y), on the boundary where tanh rounds to +-1;
        callers who need interiority must check it."""
        return self.mid + self.half * np.tanh(y)

    def hessian_inverse_apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A(x) v = (x - lo)(hi - x) v / half."""
        return (x - self.lo) * (self.hi - x) / self.half * np.asarray(v, dtype=float)


_MAPS = {"simplex": EntropicSimplexMap, "orthant": PositiveOrthantMap}


def make_map(target):
    """The mirror map of ``target``'s domain: the simplex's and the orthant's
    in ``target.d`` coordinates, the box's between ``target.lo`` and
    ``target.hi``; no map covers any other domain."""
    if target.domain == "box":
        return BoxMirrorMap(target.lo, target.hi)
    if target.domain not in _MAPS:
        raise ValueError(f"no mirror map covers the {target.domain!r} domain")
    return _MAPS[target.domain](target.d)
