"""Mirror-map geometry: closed forms checked against finite differences.

The forward map is validated as the gradient of the explicit potential, the
Hessian algebra (apply / inverse-apply / log-determinant and its derivatives)
against finite-difference Jacobians of the forward map, and the
inverse-Hessian derivative contraction against finite differences of the
dense inverse Hessian; the potential, the Hessian apply and the dense
inverse Hessian are oracles in ``helpers``.  The box map, which has only the
two maps and the inverse Hessian, is checked against the potential and the
dense inverse Hessian that ``helpers`` writes for it.  The interior checks
are pinned at the entry points that make them.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcoin.errors import DomainViolation, NumericalFailure, NumericalOverflow
from mirrorcoin.geometry import (
    INTERIOR_TOL,
    BoxMirrorMap,
    EntropicSimplexMap,
    PositiveOrthantMap,
    make_map,
)
from mirrorcoin.kernels import KernelConfig
from mirrorcoin.metrics import ksd_vstat
from mirrorcoin.samplers import (
    MIRRORED_SAMPLERS,
    check_run,
    mirrored_density,
    mksdd_direction,
    msvgd_direction,
)
from mirrorcoin.targets import ExpOrthant, SparseDirichlet, UniformBox

from helpers import (
    UNPARSED_COUNTS,
    box_interior_points,
    box_inverse_hessian,
    box_potential,
    contract_pieces,
    fd_grad,
    fd_jacobian,
    hessian_apply,
    inverse_hessian,
    orthant_interior_points,
    rel_err,
    sigma_potential,
    simplex_interior_points,
)


def _points(mmap, n, rng, margin=0.1):
    if mmap.domain == "simplex":
        return simplex_interior_points(n, mmap.d, rng, margin=margin)
    return orthant_interior_points(n, mmap.d, rng)


ALL_MAPS = [
    EntropicSimplexMap(1),
    EntropicSimplexMap(2),
    EntropicSimplexMap(5),
    PositiveOrthantMap(1),
    PositiveOrthantMap(3),
]


@pytest.mark.parametrize("mmap", ALL_MAPS, ids=lambda m: f"{m.domain}{m.d}")
class TestClosedForms:
    def test_round_trip(self, mmap):
        """x -> y -> x is the identity to 1e-10 on 1000 interior points."""
        rng = np.random.default_rng(0)
        x = _points(mmap, 1000, rng, margin=0.0)
        back = mmap.dual_to_primal(mmap.primal_to_dual(x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_dual_round_trip(self, mmap):
        rng = np.random.default_rng(1)
        y = rng.normal(0.0, 2.0, size=(200, mmap.d))
        fwd = mmap.primal_to_dual(mmap.dual_to_primal(y))
        assert np.max(np.abs(fwd - y)) < 1e-9

    def test_forward_is_gradient_of_potential(self, mmap):
        rng = np.random.default_rng(2)
        for x in _points(mmap, 20, rng):
            got = mmap.primal_to_dual(x)
            want = fd_grad(lambda z: sigma_potential(mmap, z), x, h=1e-6)
            assert rel_err(got, want) < 1e-5

    def test_hessian_apply_matches_fd_jacobian(self, mmap):
        rng = np.random.default_rng(3)
        for x in _points(mmap, 10, rng):
            J = fd_jacobian(lambda z: mmap.primal_to_dual(z), x, h=1e-6)
            v = rng.normal(size=mmap.d)
            assert rel_err(hessian_apply(mmap, x, v), J @ v) < 1e-5

    def test_log_det_matches_fd_hessian(self, mmap):
        rng = np.random.default_rng(4)
        for x in _points(mmap, 10, rng):
            J = fd_jacobian(lambda z: mmap.primal_to_dual(z), x, h=1e-5)
            sign, logdet = np.linalg.slogdet(0.5 * (J + J.T))
            assert sign == 1.0
            assert abs(mmap.log_det_hessian(x) - logdet) < 1e-6

    def test_hessian_inverse_apply(self, mmap):
        """Inverse-apply agrees with a dense solve and inverts apply."""
        rng = np.random.default_rng(5)
        for x in _points(mmap, 20, rng):
            H = np.stack([hessian_apply(mmap, x, e) for e in np.eye(mmap.d)], axis=1)
            v = rng.normal(size=mmap.d)
            direct = mmap.hessian_inverse_apply(x, v)
            assert np.max(np.abs(direct - np.linalg.solve(H, v))) < 1e-9
            assert np.max(np.abs(hessian_apply(mmap, x, direct) - v)) < 1e-9

    def test_inverse_hessian_dense(self, mmap):
        """Inverse-apply agrees with the dense oracle the einsum references use."""
        rng = np.random.default_rng(6)
        x = _points(mmap, 5, rng)
        A = inverse_hessian(mmap, x)
        for i in range(5):
            v = rng.normal(size=mmap.d)
            assert rel_err(A[i] @ v, mmap.hessian_inverse_apply(x[i], v)) < 1e-12

    def test_grad_log_det_matches_fd(self, mmap):
        rng = np.random.default_rng(7)
        for x in _points(mmap, 10, rng):
            want = fd_grad(lambda z: mmap.log_det_hessian(z), x, h=1e-6)
            assert rel_err(mmap.grad_log_det_hessian(x), want) < 1e-5

    def test_hess_log_det_matches_fd(self, mmap):
        rng = np.random.default_rng(8)
        for x in _points(mmap, 5, rng):
            want = fd_jacobian(lambda z: mmap.grad_log_det_hessian(z), x, h=1e-6)
            v = rng.normal(size=mmap.d)
            got = mmap.hess_log_det_hessian_apply(x, v)
            assert rel_err(got, 0.5 * (want + want.T) @ v) < 1e-5

    def test_d_inv_hessian_contract_matches_fd(self, mmap):
        """g_m = <dA/dx_m, M>_F against finite differences of dense A."""
        rng = np.random.default_rng(9)
        for x in _points(mmap, 5, rng):
            M = rng.normal(size=(mmap.d, mmap.d))
            want = fd_grad(
                lambda z: float(np.sum(inverse_hessian(mmap, z) * M)), x, h=1e-6
            )
            assert rel_err(mmap.d_inv_hessian_contract(x, *contract_pieces(x, M)), want) < 1e-5

    def test_inverse_hessian_structure(self, mmap):
        """The dense oracle diag(x) - sigma x x^T inverts the Hessian that
        the ``hessian_apply`` oracle applies."""
        rng = np.random.default_rng(11)
        for x in _points(mmap, 6, rng):
            H = np.stack([hessian_apply(mmap, x, e) for e in np.eye(mmap.d)], axis=1)
            assert rel_err(inverse_hessian(mmap, x) @ H, np.eye(mmap.d)) < 1e-12

    def test_batched_matches_pointwise(self, mmap):
        rng = np.random.default_rng(10)
        x = _points(mmap, 7, rng)
        v = rng.normal(size=(7, mmap.d))
        batched = mmap.hessian_inverse_apply(x, v)
        for i in range(7):
            assert np.array_equal(batched[i], mmap.hessian_inverse_apply(x[i], v[i]))
        assert np.array_equal(
            mmap.primal_to_dual(x)[3], mmap.primal_to_dual(x[3])
        )

    def test_pure(self, mmap):
        """Repeated calls on the same input give bit-identical results."""
        rng = np.random.default_rng(11)
        x = _points(mmap, 4, rng)
        a = mmap.primal_to_dual(x)
        b = mmap.primal_to_dual(x)
        assert a.tobytes() == b.tobytes()


class TestSimplexSpecifics:
    def test_forward_closed_form(self):
        m = EntropicSimplexMap(2)
        x = np.array([0.2, 0.3])
        y = m.primal_to_dual(x)
        np.testing.assert_allclose(y, np.log(np.array([0.2, 0.3]) / 0.5), rtol=1e-15)

    def test_log_det_closed_form(self):
        # det(diag(1/x) + (1/x_rest) 11^T) = (prod 1/x_k) / x_rest
        m = EntropicSimplexMap(3)
        x = np.array([0.1, 0.2, 0.3])
        want = -np.log(x).sum() - np.log(0.4)
        assert abs(m.log_det_hessian(x) - want) < 1e-14

    def test_boundary_rejection(self):
        m = EntropicSimplexMap(2)
        for bad in [
            np.array([0.0, 0.5]),
            np.array([0.5, 0.5]),          # implicit coordinate exactly 0
            np.array([-0.1, 0.5]),
            np.array([0.6, 0.6]),
            np.array([INTERIOR_TOL / 2, 0.5]),
            np.array([np.nan, 0.5]),
        ]:
            with pytest.raises(DomainViolation):
                m.primal_to_dual(bad)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainViolation):
            EntropicSimplexMap(3).primal_to_dual(np.array([0.2, 0.2]))

    def test_extreme_dual_coordinates_stay_finite(self):
        m = EntropicSimplexMap(3)
        with np.errstate(over="raise", invalid="raise"):
            for y in [
                np.array([700.0, -700.0, 0.0]),
                np.array([700.0, 700.0, 700.0]),
                np.array([-700.0, -700.0, -700.0]),
            ]:
                x = m.dual_to_primal(y)
                assert np.all(np.isfinite(x))
                assert np.all(x >= 0.0) and x.sum() <= 1.0

    def test_non_finite_dual_rejected(self):
        with pytest.raises(NumericalFailure):
            EntropicSimplexMap(2).dual_to_primal(np.array([np.inf, 0.0]))


class TestOrthantSpecifics:
    def test_forward_is_log(self):
        m = PositiveOrthantMap(2)
        x = np.array([0.5, 2.0])
        np.testing.assert_array_equal(m.primal_to_dual(x), np.log(x))

    def test_overflow_raises(self):
        m = PositiveOrthantMap(1)
        with pytest.raises(NumericalOverflow):
            m.dual_to_primal(np.array([800.0]))

    def test_non_finite_dual_rejected(self):
        # NaN compares False against the exp bound, so only the finiteness check stops it
        for y in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0]):
            with pytest.raises(NumericalFailure, match="non-finite dual point"):
                PositiveOrthantMap(2).dual_to_primal(np.array(y))

    def test_boundary_rejection(self):
        m = PositiveOrthantMap(2)
        for bad in [np.array([0.0, 1.0]), np.array([-1.0, 1.0])]:
            with pytest.raises(DomainViolation):
                m.primal_to_dual(bad)

    def test_largest_coordinates_stay_finite(self):
        # dual_to_primal reaches exp(709) ~ 8e307 per coordinate; a sum over
        # three of them overflows, and no sigma term may take that sum
        m = PositiveOrthantMap(3)
        x = np.full((4, 3), 8e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.inside(x)
            for got in (m.primal_to_dual(x), m.log_det_hessian(x),
                        m.grad_log_det_hessian(x), m.hessian_inverse_apply(x, np.ones_like(x))):
                assert np.all(np.isfinite(got))


BOX = BoxMirrorMap(np.array([0.0, -2.0, -300.0]), np.array([1.0, 2.0, 500.0]))


class TestBoxMap:
    def test_round_trip(self):
        """x -> y -> x is the identity to 1e-10 of the half-width."""
        x = box_interior_points(1000, BOX.lo, BOX.hi, np.random.default_rng(0), margin=0.0)
        back = BOX.dual_to_primal(BOX.primal_to_dual(x))
        assert np.max(np.abs(back - x) / BOX.half) < 1e-10

    def test_forward_is_gradient_of_potential(self):
        rng = np.random.default_rng(2)
        for x in box_interior_points(20, BOX.lo, BOX.hi, rng):
            want = fd_grad(lambda z: box_potential(BOX.lo, BOX.hi, z), x, h=1e-6)
            assert rel_err(BOX.primal_to_dual(x), want) < 1e-5

    def test_inverse_map_jacobian_is_the_inverse_hessian(self):
        """d x / d y at y = grad phi(x) is the dense oracle, which the apply matches."""
        rng = np.random.default_rng(3)
        for x in box_interior_points(10, BOX.lo, BOX.hi, rng):
            A = box_inverse_hessian(BOX.lo, BOX.hi, x)
            J = fd_jacobian(BOX.dual_to_primal, BOX.primal_to_dual(x), h=1e-6)
            assert rel_err(J, A) < 1e-6
            v = rng.normal(size=BOX.d)
            assert rel_err(BOX.hessian_inverse_apply(x, v), A @ v) < 1e-12

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(10)
        x = box_interior_points(7, BOX.lo, BOX.hi, rng)
        v = rng.normal(size=(7, BOX.d))
        batched = BOX.hessian_inverse_apply(x, v)
        for i in range(7):
            assert np.array_equal(batched[i], BOX.hessian_inverse_apply(x[i], v[i]))
        assert np.array_equal(BOX.primal_to_dual(x)[3], BOX.primal_to_dual(x[3]))


# The entry points that check a primal cloud; every other map method trusts
# its x (the run loop's checks are pinned in test_samplers).
CHECKED = {
    "primal_to_dual": lambda m, x: m.primal_to_dual(x),
    "assert_interior": lambda m, x: m.assert_interior(x),
}

# The map methods that trust their x; the further arguments of the methods
# that take them have the shape of x.  The Hessian of the log-determinant is
# reached through its apply.
TRUSTED = {
    "log_det_hessian": lambda m, x: m.log_det_hessian(x),
    "grad_log_det_hessian": lambda m, x: m.grad_log_det_hessian(x),
    "hess_log_det_hessian": lambda m, x: m.hess_log_det_hessian_apply(x, np.ones_like(x)),
    "hessian_inverse_apply": lambda m, x: m.hessian_inverse_apply(x, np.ones_like(x)),
    "d_inv_hessian_contract": lambda m, x: m.d_inv_hessian_contract(
        x, np.ones_like(x), np.ones_like(x), np.ones_like(x)),
}
# The potential and Hessian-apply oracles of ``helpers`` check their cloud
# as the map methods they stand in for did
CHECKED_ORACLES = {
    "potential": lambda m, x: sigma_potential(m, x),
    "hessian_apply": lambda m, x: hessian_apply(m, x, np.ones_like(x)),
}
MAP_METHODS = {**CHECKED, **CHECKED_ORACLES, **TRUSTED}

OUTSIDE = "point on or outside the open {domain} (margin 1e-12)"
NON_FINITE = "non-finite primal point"

# (map, one bad row, message); each bad row sits in a cloud of good ones
BAD_POINTS = [
    (EntropicSimplexMap(2), [0.0, 0.5], OUTSIDE),
    (EntropicSimplexMap(2), [0.5, 0.5], OUTSIDE),      # implicit coordinate 0
    (EntropicSimplexMap(2), [0.6, 0.6], OUTSIDE),      # implicit coordinate < 0
    (EntropicSimplexMap(2), [INTERIOR_TOL, 0.5], OUTSIDE),
    (EntropicSimplexMap(2), [np.nan, 0.2], NON_FINITE),
    (EntropicSimplexMap(2), [np.inf, 0.2], NON_FINITE),
    (EntropicSimplexMap(2), [-np.inf, 0.2], NON_FINITE),
    (EntropicSimplexMap(2), [np.inf, -np.inf], NON_FINITE),
    (PositiveOrthantMap(2), [0.0, 1.0], OUTSIDE),
    (PositiveOrthantMap(2), [-1.0, 1.0], OUTSIDE),
    (PositiveOrthantMap(2), [INTERIOR_TOL, 1.0], OUTSIDE),
    (PositiveOrthantMap(2), [np.nan, 1.0], NON_FINITE),
    (PositiveOrthantMap(2), [np.inf, 1.0], NON_FINITE),
    (PositiveOrthantMap(2), [-np.inf, 1.0], NON_FINITE),
]


def _bad_point_id(value):
    if isinstance(value, list):
        return str(value).replace(" ", "")
    return getattr(value, "domain", None) or {OUTSIDE: "outside"}.get(value, "non-finite")


@pytest.mark.parametrize("mmap,bad,message", BAD_POINTS, ids=_bad_point_id)
def test_inside_fails_on_every_bad_point(mmap, bad, message):
    x = np.full((3, 2), 0.25)
    assert mmap.inside(x)
    x[1] = bad
    assert not mmap.inside(x)


# The box map's entry points, and bad rows of a cloud in
# the box [0, 1] x [-2, 2]: 1e-13 inside each face is inside the margin
SQUARE = BoxMirrorMap(np.array([0.0, -2.0]), np.array([1.0, 2.0]))
BOX_CHECKED = ("primal_to_dual", "assert_interior")
BOX_BAD_POINTS = [
    ([1e-13, 0.25], OUTSIDE),
    ([1.0 - 1e-13, 0.25], OUTSIDE),
    ([0.25, -2.0 + 1e-13], OUTSIDE),
    ([0.25, 2.0 - 1e-13], OUTSIDE),
    ([0.0, 0.25], OUTSIDE),
    ([0.25, 3.0], OUTSIDE),
    ([np.nan, 0.25], NON_FINITE),
    ([0.25, np.inf], NON_FINITE),
]


@pytest.mark.parametrize("method", BOX_CHECKED)
@pytest.mark.parametrize("bad,message", BOX_BAD_POINTS, ids=_bad_point_id)
def test_box_map_rejects_points_within_its_margin(bad, message, method):
    x = np.full((3, 2), 0.25)
    assert SQUARE.inside(x)
    x[1] = bad
    assert not SQUARE.inside(x)
    with pytest.raises(DomainViolation) as info:
        CHECKED[method](SQUARE, x)
    assert str(info.value) == message.format(domain="box")


def test_box_map_accepts_points_just_past_its_margin():
    x = np.array([[1e-11, -2.0 + 1e-11], [1.0 - 1e-11, 2.0 - 1e-11]])
    assert SQUARE.inside(x)
    assert np.all(np.isfinite(SQUARE.primal_to_dual(x)))


class TestInteriorChecks:
    """The same DomainViolation, message included, from every entry point
    and from the oracles that check their cloud."""

    @pytest.mark.parametrize("method", sorted({**CHECKED, **CHECKED_ORACLES}))
    @pytest.mark.parametrize("mmap,bad,message", BAD_POINTS, ids=_bad_point_id)
    def test_bad_point_in_cloud(self, method, mmap, bad, message):
        x = np.full((3, 2), 0.25)
        x[1] = bad
        with pytest.raises(DomainViolation) as info:
            MAP_METHODS[method](mmap, x)
        assert str(info.value) == message.format(domain=mmap.domain)

    @pytest.mark.parametrize("method", sorted({**CHECKED, **CHECKED_ORACLES}))
    @pytest.mark.parametrize("mmap", [EntropicSimplexMap(3), PositiveOrthantMap(3)],
                             ids=["simplex", "orthant"])
    @pytest.mark.parametrize("shape", [(2,), (4, 4)])
    def test_wrong_last_axis(self, method, mmap, shape):
        with pytest.raises(DomainViolation) as info:
            MAP_METHODS[method](mmap, np.full(shape, 0.1))
        assert str(info.value) == f"expected last axis 3, got {shape[-1]}"

    @pytest.mark.parametrize("method", sorted(MAP_METHODS))
    @pytest.mark.parametrize("mmap", [EntropicSimplexMap(2), PositiveOrthantMap(2)],
                             ids=["simplex", "orthant"])
    def test_interior_cloud_and_empty_cloud_pass(self, method, mmap):
        MAP_METHODS[method](mmap, np.full((3, 2), 0.25))
        MAP_METHODS[method](mmap, np.full((4, 3, 2), 0.25))
        MAP_METHODS[method](mmap, np.zeros((0, 2)))


# Each call that maps a dual cloud back checks its image: the dual
# row [-800, 0] maps to a first coordinate that underflows to 0 on both maps
DUAL_CHECKED = {
    "msvgd_direction": lambda y, md: msvgd_direction(y, md, "imq", 1.0),
    "mksdd_direction": lambda y, md: mksdd_direction(y, md, "imq", 1.0),
    "ksd_vstat": lambda y, md: ksd_vstat(y, md, KernelConfig()),
    "dual_potential": lambda y, md: md.dual_potential(y),
}


@pytest.mark.parametrize("call", sorted(DUAL_CHECKED))
@pytest.mark.parametrize("target", [SparseDirichlet(1.0, np.ones(3)), ExpOrthant(2)],
                         ids=["simplex", "orthant"])
def test_dual_cloud_whose_image_leaves_the_domain(call, target):
    md = mirrored_density(target)
    y = np.zeros((3, 2))
    y[1] = [-800.0, 0.0]
    assert not md.mmap.inside(md.mmap.dual_to_primal(y))
    with pytest.raises(DomainViolation) as info:
        DUAL_CHECKED[call](y, md)
    assert str(info.value) == OUTSIDE.format(domain=target.domain)


class TestFactory:
    def test_known_kinds(self):
        simplex = make_map(SparseDirichlet(1.0, np.ones(3)))
        assert isinstance(simplex, EntropicSimplexMap) and simplex.d == 2
        orthant = make_map(ExpOrthant(2))
        assert isinstance(orthant, PositiveOrthantMap) and orthant.d == 2
        box = make_map(UniformBox(np.array([0.0, -1.0]), np.array([1.0, 3.0])))
        assert isinstance(box, BoxMirrorMap) and box.d == 2
        assert box.lo.tolist() == [0.0, -1.0] and box.hi.tolist() == [1.0, 3.0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="no mirror map covers the 'hyperbolic' domain"):
            make_map(SimpleNamespace(domain="hyperbolic", d=2))

    def test_box_samplers_that_need_a_dual_score_are_refused(self):
        # the box has a map, but not the sigma algebra's dual score that
        # every mirrored sampler reads; MIED reads only the inverse Hessian
        box = UniformBox(np.zeros(1), np.ones(1))
        assert isinstance(mirrored_density(box).mmap, BoxMirrorMap)
        for sampler in MIRRORED_SAMPLERS:
            assert check_run(box, sampler, None, None, **UNPARSED_COUNTS) == [
                "the box map has no dual score; use svgd_proj or mied"], sampler
        for sampler in ("mied", "coin_mied", "svgd_proj"):
            assert check_run(box, sampler, None, None, **UNPARSED_COUNTS) == [], sampler


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(d, seed):
    """Round trip holds for random dimensions and random interior clouds."""
    rng = np.random.default_rng(seed)
    m = EntropicSimplexMap(d)
    x = simplex_interior_points(16, d, rng)
    assert np.max(np.abs(m.dual_to_primal(m.primal_to_dual(x)) - x)) < 1e-10
    o = PositiveOrthantMap(d)
    xo = orthant_interior_points(16, d, rng, low=1e-6, high=50.0)
    assert np.max(np.abs(o.dual_to_primal(o.primal_to_dual(xo)) - xo)) < 1e-9
