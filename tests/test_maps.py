"""Map catalogs, slices, the parameter-space map phi, and falsification."""

import math
import random
from fractions import Fraction

import pytest

from hypkm import (
    ArgumentError,
    NonexpansiveMap,
    ProductMap,
    ScheduleError,
    affine_map,
    clamped_drop,
    clamped_translation,
    constant_map,
    constant_pair,
    constant_schedule,
    coupled_average,
    falsify_nonexpansive,
    family_drift,
    family_halving,
    family_product,
    identity_map,
    interval_affine,
    make_box,
    make_interval,
    phi,
    product,
    scaled_coupling,
    slice_map,
    unit_drift,
)
from hypkm.errors import DomainError
from hypkm.km import Schedule, km_orbit_end
from hypkm.maps import Counterexample, product_map
from hypkm.product_afpp import EXAMPLES
from hypkm.rates import alpha_identity


def unit_square():
    return product(make_interval(0.0, 1.0), make_interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# single-factor catalog
# ---------------------------------------------------------------------------


def test_identity_and_constant_maps():
    space = make_interval(0.0, 1.0)
    assert identity_map(space)(0.7) == 0.7
    assert constant_map(space, 0.3)(0.9) == 0.3
    with pytest.raises(DomainError):
        constant_map(space, 2.0)


def test_interval_affine_and_translation():
    space = make_interval(0.0, 1.0)
    assert interval_affine(space, 0.5, 0.1)(0.8) == pytest.approx(0.5)
    t = clamped_translation(space, 0.4)
    assert t(0.3) == pytest.approx(0.7)
    assert t(0.9) == 1.0
    assert clamped_translation(space, -2.0)(0.5) == 0.0


def test_affine_map_on_boxes():
    box = make_box(((0.0, 1.0), (0.0, 1.0)))
    rot = affine_map(box, [[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0])
    assert rot((0.5, 0.5)) == (pytest.approx(0.5), pytest.approx(0.5))
    with pytest.raises(ArgumentError):
        affine_map(box, [[1.0]], [0.0, 0.0])
    with pytest.raises(ArgumentError):
        affine_map(box, [[1.0, 0.0], [0.0, 1.0]], [0.0])


def test_map_call_and_apply_agree():
    space = make_interval(0.0, 1.0)
    f = interval_affine(space, 0.5, 0.0)
    assert f(0.8) == f.fn(0.8) == 0.4


# ---------------------------------------------------------------------------
# falsification
# ---------------------------------------------------------------------------


def test_falsify_survives_contraction_and_identity():
    space = make_interval(0.0, 1.0)
    assert falsify_nonexpansive(interval_affine(space, 0.5, 0.0), 500, seed=0) is None
    assert falsify_nonexpansive(identity_map(space), 500, seed=0) is None


def test_falsify_finds_expansion():
    space = make_interval(0.0, 1.0)
    ce = falsify_nonexpansive(interval_affine(space, 2.0, 0.0), 500, seed=0)
    assert ce is not None
    assert ce.d_images == pytest.approx(2.0 * ce.dxy)
    assert ce.d_images - ce.dxy == pytest.approx(ce.dxy)
    with pytest.raises(ArgumentError):
        falsify_nonexpansive(identity_map(space), 0)


def test_falsify_flags_nan_images():
    # nan > bound is False: an image that is not a number must not pass
    space = make_interval(0.0, 1.0)
    ce = falsify_nonexpansive(NonexpansiveMap(space, lambda x: math.nan, "nan"), 50, seed=0)
    assert ce is not None and math.isnan(ce.d_images)


def test_counterexample_excess():
    ce = Counterexample(x=0.0, y=1.0, dxy=1.0, d_images=1.5)
    assert ce.d_images - ce.dxy == 0.5


# ---------------------------------------------------------------------------
# product maps and slices
# ---------------------------------------------------------------------------


def test_slice_of_coupled_average():
    T = coupled_average(unit_square())
    at0 = slice_map(T, 0.0)
    at1 = slice_map(T, 1.0)
    for x in (0.0, 0.25, 0.8, 1.0):
        assert at0(x) == pytest.approx(x / 2.0)
    assert at1(0.0) == pytest.approx(0.5)
    assert "u=0.0" in at0.label


def test_slice_rejects_foreign_parameter():
    T = coupled_average(unit_square())
    with pytest.raises(DomainError):
        slice_map(T, 3.0)


def test_slice_of_constant_pair():
    dom = unit_square()
    T = constant_pair(dom, 1.0, 0.5)
    sl = slice_map(T, 0.2)
    assert sl(0.0) == 1.0 and sl(1.0) == 1.0
    with pytest.raises(DomainError):
        constant_pair(dom, 2.0, 0.5)


def test_catalog_product_maps_pointwise():
    dom = unit_square()
    assert coupled_average(dom)((0.2, 0.8)) == (pytest.approx(0.5), 0.2)
    wide = product(make_interval(0.0, 10.0), make_interval(0.0, 1.0))
    assert clamped_drop(wide, 1.0)((5.0, 0.3)) == (4.0, 0.3)
    assert clamped_drop(wide, 1.0)((0.5, 0.3)) == (0.0, 0.3)
    assert unit_drift(wide)((5.0, 0.3)) == (6.0, 0.3)
    sc = scaled_coupling(dom, 0.5, 0.25)
    assert sc((0.2, 0.8)) == (pytest.approx(0.5), pytest.approx(0.5))
    with pytest.raises(ArgumentError):
        scaled_coupling(dom, 1.5, 0.0)


def _catalog_product_maps():
    """Each catalog product map, with its pair function written out in full:
    the form the catalog had before it gave its slices."""
    square = unit_square()
    family = family_product(
        make_interval(0.0, 1.0), lambda u: make_interval(0.0, 1.0 + u),
        identity_map(make_interval(0.0, 1.0)), make_interval(0.0, 2.0),
    )
    yield coupled_average(square), lambda p: ((p[0] + p[1]) / 2.0, p[0])
    yield constant_pair(square, 1.0, 0.5), lambda p: (1.0, 0.5)
    wide = product(make_interval(0.0, 10.0), make_interval(0.0, 1.0))
    yield clamped_drop(wide), lambda p: (max(p[0] - 1.0, 0.0), p[1])
    line = product(make_interval(-math.inf, math.inf), make_interval(0.0, 1.0))
    yield unit_drift(line), lambda p: (p[0] + 1.0, p[1])
    for s, t in ((0.5, 0.1), (-0.3, 0.7), (1.0, -0.0)):
        yield scaled_coupling(square, s, t), (
            lambda p, s=s, t=t: (s * ((p[0] + p[1]) / 2.0) + t, (p[0] + p[1]) / 2.0)
        )
    yield family_halving(family), lambda p: (min(p[0], 1.0 + p[1]) / 2.0, p[1])
    yield family_drift(family), lambda p: (p[0] + p[1], p[1])


def _with_ends(space, rng, draws):
    """Finite ends of an interval, +-0.0 where they are members, and draws."""
    ends = [v for v in (space.a, space.b, 0.0, -0.0) if math.isfinite(v) and space.contains(v)]
    return ends + [space.sample(rng) for _ in range(draws)]


def test_catalog_slices_are_the_first_coordinate_bit_for_bit():
    rng = random.Random(7)
    for T, reference in _catalog_product_maps():
        for u in _with_ends(T.domain.right, rng, 6):
            sl = slice_map(T, u)
            for x in _with_ends(T.domain.slice_space(u), rng, 6) + [1e300, -1e-300]:
                first, second = reference((x, u))
                assert repr(sl(x)) == repr(first), (T.label, x, u)
                assert repr(T((x, u))) == repr((first, second)), (T.label, x, u)


def test_a_pair_function_alone_is_projected():
    T = ProductMap(unit_square(), lambda p: ((p[0] + p[1]) / 2.0, p[0]), "pair only")
    assert T.slice_of is None
    assert repr(slice_map(T, 0.5)(-0.0)) == "0.25"


def test_family_drift_leaves_fibers():
    # fibers [0, 1+u]: the image of (1.5, 0.1) is (1.6, 0.1) with 1.6 > 1.1
    dom = unit_square()
    img = family_drift(dom)((1.5, 0.1))
    assert img == (1.6, 0.1)
    assert img[0] > 1.0 + 0.1
    # the halving map stays inside: image <= (1+u)/2
    assert family_halving(dom)((1.5, 0.1)) == (pytest.approx(0.55), 0.1)


# ---------------------------------------------------------------------------
# phi: the parameter-space map
# ---------------------------------------------------------------------------


def test_phi_zero_is_direct_formula():
    # phi_0(u) = second coordinate of T(delta(u), u), no iteration at all
    dom = unit_square()
    T = coupled_average(dom)
    delta = constant_map(dom.right, 0.25)
    p0 = phi(T, delta, constant_schedule("1/2"), 0)
    for u in (0.0, 0.4, 1.0):
        assert p0(u) == T.fn((delta(u), u))[1] == 0.25


def test_phi_is_identity_for_diagonal_example():
    # slices of the coupled average fix x=u, so orbits from delta=id never
    # move and phi_n copies the parameter back out
    dom = unit_square()
    T = coupled_average(dom)
    delta = identity_map(dom.right)
    sched = constant_schedule("1/2")
    for n in (0, 1, 5):
        pn = phi(T, delta, sched, n)
        for u in (0.0, 0.3, 0.75, 1.0):
            assert pn(u) == pytest.approx(u)
        assert pn.label == f"phi_{n}[coupled_average]"


def test_phi_constant_target():
    # for T == (c, m) every phi_n is constantly m
    dom = unit_square()
    T = constant_pair(dom, 1.0, 0.5)
    delta = constant_map(dom.right, 0.0)
    sched = constant_schedule("1/2")
    for n in (0, 2, 6):
        pn = phi(T, delta, sched, n)
        assert [pn(u) for u in (0.0, 0.5, 1.0)] == [0.5, 0.5, 0.5]


def test_phi_validates_arguments():
    dom = unit_square()
    T = coupled_average(dom)
    delta = identity_map(dom.right)
    with pytest.raises(ArgumentError):
        phi(T, delta, constant_schedule("1/2"), -1)
    bad = Schedule(lam=lambda n: Fraction(1), K=2, alpha=alpha_identity())
    with pytest.raises(ScheduleError):
        phi(T, delta, bad, 3)


def test_phi_refuses_a_foreign_parameter_before_any_map_call():
    dom = unit_square()
    calls = []

    def slice_of(u):
        calls.append(("slice_of", u))
        return lambda x: x

    T = product_map(dom, slice_of, lambda x, u: u, "logged")
    delta = NonexpansiveMap(dom.right, lambda u: calls.append(("delta", u)) or u)
    with pytest.raises(DomainError) as want:
        slice_map(T, 3.0)
    with pytest.raises(DomainError) as got:
        phi(T, delta, constant_schedule("1/2"), 4)(3.0)
    assert str(got.value) == str(want.value)
    assert calls == []


def _outcome(f):
    try:
        return repr(f())
    except Exception as exc:  # noqa: BLE001 -- the type and text are the outcome
        return repr((type(exc), str(exc)))


@pytest.mark.parametrize("example", ["family_valid", "family_violating", "family_const"])
def test_phi_on_family_examples_is_the_walk_of_the_slice_map(example):
    # each evaluation is the orbit of slice_map(T, u) from delta(u) on the
    # fiber over u, read through T's pair function
    ex = EXAMPLES[example]()
    T, delta, sched = ex.T, ex.delta, constant_schedule("1/2")

    def reference(u, n):
        xu = km_orbit_end(T.domain.slice_space(u), slice_map(T, u), delta(u), sched, n)
        return T.fn((xu, u))[1]

    for n in (0, 1, 7, 40):
        pn = phi(T, delta, sched, n)
        for u in (0.0, 0.1, 0.375, 0.9, 1.0):
            assert _outcome(lambda: pn(u)) == _outcome(lambda: reference(u, n))


def test_phi_memo_is_transparent():
    dom = unit_square()
    T = constant_pair(dom, 1.0, 0.5)
    delta = constant_map(dom.right, 0.0)
    sched = constant_schedule("1/2")
    memo = {}
    with_memo = phi(T, delta, sched, 5, memo=memo)
    plain = phi(T, delta, sched, 5)
    us = [0.1, 0.5, 0.9, 0.5]
    assert [with_memo(u) for u in us] == [plain(u) for u in us]
    assert (0.5, 5) in memo
    # cached orbit value is the real 5-step iterate toward the constant 1
    assert memo[(0.5, 5)] == pytest.approx(1.0 - 2.0**-5)


def test_phi_nonexpansive_on_catalog():
    # slice stability makes phi_n nonexpansive; random search agrees
    dom = unit_square()
    sched = constant_schedule("1/2")
    delta = identity_map(dom.right)
    for T in (coupled_average(dom), scaled_coupling(dom, 0.5, 0.25)):
        for n in (1, 4):
            pn = phi(T, delta, sched, n)
            assert falsify_nonexpansive(pn, 300, seed=3) is None


def test_slice_nonexpansive_inherited():
    dom = unit_square()
    rng = random.Random(5)
    for T in (coupled_average(dom), scaled_coupling(dom, 0.8, 0.1)):
        for _ in range(5):
            u = dom.right.sample(rng)
            assert falsify_nonexpansive(slice_map(T, u), 200, seed=7) is None
