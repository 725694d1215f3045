"""Spaces: metric values, convex combinations, axiom checking, serialization.

Curved-space anchors are checked against independent oracles: the disk
distance against a numeric integral of its length element, the disk midpoint
against a bisection solve of the equidistance equation.
"""

import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from hypkm import (
    ArgumentError,
    BrokenW,
    DomainError,
    FamilyProduct,
    check_axioms,
    constant_schedule,
    identity_map,
    km_iterate,
    make_box,
    make_circle,
    make_euclidean,
    make_half_line,
    make_interval,
    make_poincare_disk,
    make_real_line,
    make_star_tree,
    product,
)
from hypkm import spaces
from hypkm.errors import MeshCapError
from hypkm.spaces import (
    AXIOM_NAMES,
    CircleSpace,
    EuclideanSpace,
    HyperbolicSpace,
    IntervalSpace,
    PoincareDisk,
    StarTree,
)


# ---------------------------------------------------------------------------
# intervals and boxes
# ---------------------------------------------------------------------------


def test_interval_distance():
    space = make_interval(0.0, 1.0)
    assert space.distance(0.2, 0.9) == pytest.approx(0.7)
    assert space.distance(0.9, 0.2) == pytest.approx(0.7)


def test_interval_needs_ordered_endpoints():
    with pytest.raises(ArgumentError):
        make_interval(1.0, 1.0)
    with pytest.raises(ArgumentError):
        make_interval(2.0, 0.0)


def test_unbounded_intervals():
    line = make_real_line()
    assert line.contains(-1e9) and line.contains(1e9)
    assert math.isinf(line.diameter())
    half = make_half_line()
    assert half.contains(0.0) and not half.contains(-1.0)


def test_box_distance_and_combine():
    box = make_box(((0.0, 1.0), (0.0, 1.0)))
    assert box.distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert box.combine((0.0, 0.0), (1.0, 1.0), 0.25) == (0.25, 0.25)
    assert box.contains((0.5, 0.5)) and not box.contains((0.5, 2.0))
    assert not box.contains((0.5,))
    assert box.diameter() == pytest.approx(math.sqrt(2.0))


def test_euclidean_unbounded():
    e3 = make_euclidean(3)
    assert e3.contains((1.0, -50.0, 7.0))
    assert math.isinf(e3.diameter())
    with pytest.raises(ArgumentError):
        make_euclidean(0)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_values_are_never_points(v):
    for dim in (1, 2, 3):
        space = make_euclidean(dim)
        for k in range(dim):
            x = tuple(v if j == k else 0.0 for j in range(dim))
            # the instance kernel (unrolled for dim 2) and the generic one
            assert not space.contains(x)
            assert not EuclideanSpace.contains(space, x)
    for space in (make_real_line(), make_interval(0.0, math.inf), make_half_line(), make_circle()):
        assert not space.contains(v)


def test_ints_beyond_float_range_are_never_points():
    # float(10**400) and complex(10**400) raise OverflowError; contains says
    # no instead of letting it through
    big = 10**400
    for space in (make_interval(0.0, 1.0), make_real_line(), make_circle(), make_poincare_disk()):
        assert not space.contains(big)
    for space in (make_euclidean(2), make_euclidean(3), make_box([(0.0, 1.0)]), make_box([(0.0, 1.0)] * 2)):
        for k in range(space.dim):
            x = tuple(big if j == k else 0.0 for j in range(space.dim))
            # the instance kernel (unrolled for dim 2) and the generic one
            assert not space.contains(x)
            assert not EuclideanSpace.contains(space, x)
    assert not make_star_tree(3, 1.0).contains((0, big))
    assert not product(make_interval(0.0, 1.0), make_interval(0.0, 1.0)).contains((big, 0.5))
    line = make_real_line()
    with pytest.raises(DomainError, match="start"):
        km_iterate(line, identity_map(line), big, constant_schedule("1/2"), 3)


def test_unbounded_spaces_keep_every_finite_float():
    big = sys.float_info.max
    for space in (make_euclidean(2), make_euclidean(3)):
        assert space.contains((big,) * space.dim) and space.contains((-big,) * space.dim)
        assert EuclideanSpace.contains(space, (-big,) * space.dim)
    for space in (make_real_line(), make_half_line(), make_circle()):
        assert space.contains(big)
    assert make_real_line().contains(-big) and not make_half_line().contains(-big)


# ---------------------------------------------------------------------------
# Poincare disk
# ---------------------------------------------------------------------------


def test_disk_distance_matches_length_integral():
    # along a diameter the metric integrates 2/(1-r^2); d(0, 1/2) = ln 3
    disk = make_poincare_disk()
    integral, err = quad(lambda r: 2.0 / (1.0 - r * r), 0.0, 0.5)
    assert err < 1e-10
    assert disk.distance(0j, 0.5 + 0j) == pytest.approx(integral, abs=1e-9)
    assert disk.distance(0j, 0.5 + 0j) == pytest.approx(math.log(3.0), abs=1e-12)


def test_disk_midpoint_matches_bisection():
    # the metric midpoint m of 0 and 1/2 solves d(0,m) = d(m,1/2) on the
    # real segment; bisection on that equation is the independent route
    disk = make_poincare_disk()
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if disk.distance(0j, mid + 0j) < disk.distance(mid + 0j, 0.5 + 0j):
            lo = mid
        else:
            hi = mid
    m = disk.combine(0j, 0.5 + 0j, 0.5)
    assert m.imag == pytest.approx(0.0, abs=1e-12)
    assert m.real == pytest.approx((lo + hi) / 2.0, abs=1e-9)
    assert abs(m) == pytest.approx(math.tanh(math.atanh(0.5) / 2.0), abs=1e-12)


def test_disk_combine_is_geodesic_parameterization():
    disk = make_poincare_disk()
    x, y = 0.3 + 0.1j, -0.2 + 0.4j
    total = disk.distance(x, y)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = disk.combine(x, y, lam)
        assert disk.distance(x, p) == pytest.approx(lam * total, abs=1e-9)


def test_disk_membership():
    disk = make_poincare_disk()
    assert disk.contains(0.99j)
    assert not disk.contains(1.0 + 0j)
    assert not disk.contains("z")


# ---------------------------------------------------------------------------
# star tree
# ---------------------------------------------------------------------------


def test_star_tree_distances():
    tree = make_star_tree(3, 1.0)
    assert tree.distance((0, 0.3), (1, 0.4)) == pytest.approx(0.7)
    assert tree.distance((2, 0.1), (2, 0.9)) == pytest.approx(0.8)
    # every (ray, 0) is the hub
    assert tree.distance((0, 0.0), (1, 0.0)) == 0.0
    assert tree.diameter() == 2.0


def test_star_tree_combine_cases():
    tree = make_star_tree(3, 1.0)
    # same ray: plain interpolation
    assert tree.combine((0, 0.2), (0, 0.8), 0.5) == (0, pytest.approx(0.5))
    # crossing the hub: before the hub stays on the first ray
    r, o = tree.combine((0, 0.3), (1, 0.4), 0.25)
    assert (r, o) == (0, pytest.approx(0.3 - 0.25 * 0.7))
    # past the hub lands on the second ray
    r, o = tree.combine((0, 0.3), (1, 0.4), 0.75)
    assert (r, o) == (1, pytest.approx(0.75 * 0.7 - 0.3))
    # endpoint toward the hub
    assert tree.combine((0, 0.6), (1, 0.0), 0.5) == (0, pytest.approx(0.3))


def test_star_tree_validation():
    with pytest.raises(ArgumentError):
        make_star_tree(1, 1.0)
    with pytest.raises(ArgumentError):
        make_star_tree(3, 0.0)
    tree = make_star_tree(3, 1.0)
    assert not tree.contains((3, 0.5))
    assert not tree.contains((0, 1.5))
    assert not tree.contains(0.5)


@given(
    st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)),
    st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)),
    st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)),
)
def test_star_tree_triangle_inequality(x, y, z):
    tree = make_star_tree(3, 1.0)
    assert tree.distance(x, z) <= tree.distance(x, y) + tree.distance(y, z) + 1e-12


# ---------------------------------------------------------------------------
# circle and products
# ---------------------------------------------------------------------------


def test_circle_arc_distance():
    circle = make_circle()
    assert circle.distance(0.0, math.pi) == pytest.approx(math.pi)
    assert circle.distance(0.0, 1.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert circle.distance(0.1, 2 * math.pi + 0.1) == pytest.approx(0.0, abs=1e-12)
    assert circle.diameter() == pytest.approx(math.pi)


def test_product_max_metric_is_exact():
    dom = product(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    assert dom.distance((0.0, 0.0), (1.0, 0.5)) == 1.0
    assert dom.distance((0.3, 0.0), (0.3, 0.5)) == 0.5


def test_product_with_circle_factor():
    # max{3, pi} = pi: the curved factor dominates
    dom = product(make_interval(0.0, 10.0), make_circle())
    assert dom.distance((0.0, 0.0), (3.0, math.pi)) == pytest.approx(math.pi)
    assert dom.distance((0.0, 0.0), (4.0, math.pi)) == pytest.approx(4.0)


def test_product_membership_and_rows():
    dom = product(make_interval(0.0, 1.0), make_interval(0.0, 1.0))
    assert dom.contains((0.5, 0.5)) and not dom.contains((1.5, 0.5))
    assert not dom.contains(0.5)
    assert dom.point_columns() == ["c_x", "m_x"]
    assert dom.point_row((0.25, 0.75)) == (0.25, 0.75)


def test_plain_product_is_the_constant_fiber_family():
    C, M = make_box(((0.0, 1.0), (0.0, 2.0))), make_star_tree(3, 1.0)
    dom = product(C, M)
    assert isinstance(dom, FamilyProduct)
    assert dom.descriptor == {"kind": "product", "left": C.descriptor, "right": M.descriptor}
    assert dom.diameter() == max(C.diameter(), M.diameter())
    rng = random.Random(11)

    def near(space):
        # a sampled point, pushed out of the space about half the time
        x, y = space.sample(rng)
        return (x, y * rng.choice((1.0, 1.5)))

    for _ in range(300):
        p, q = (near(C), near(M)), (near(C), near(M))
        assert dom.slice_space(p[1]) is C
        assert dom.contains(p) == (C.contains(p[0]) and M.contains(p[1]))
        assert dom.distance(p, q) == max(C.distance(p[0], q[0]), M.distance(p[1], q[1]))
        assert dom.point_row(p) == (*p[0], *p[1])
    family = FamilyProduct(M, C, lambda u: make_box(((0.0, 1.0), (0.0, 1.0 + u[1]))), "grow")
    assert family.descriptor == {
        "kind": "family_product", "right": M.descriptor, "ambient": C.descriptor, "family": "grow"
    }
    assert family.contains(((0.5, 1.5), (0, 1.0))) and not family.contains(((0.5, 1.5), (0, 0.25)))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "space",
    [
        make_interval(0.0, 1.0),
        make_euclidean(2),
        make_poincare_disk(),
        make_star_tree(3, 1.0),
    ],
    ids=lambda s: s.descriptor["kind"],
)
def test_axioms_pass_on_catalog_spaces(space):
    report = check_axioms(space, samples=2_000, seed=0, eta=1e-9)
    assert report.passed, report.failures()
    assert set(report.results) == set(AXIOM_NAMES)


def test_axioms_metric_only_for_circle():
    report = check_axioms(make_circle(), samples=2_000, seed=0)
    assert report.passed
    assert set(report.results) == set(AXIOM_NAMES[:4])


def test_broken_w_fails_w2_with_predicted_magnitude():
    space = BrokenW(make_interval(0.0, 1.0))
    report = check_axioms(space, samples=2_000, seed=0, eta=1e-9)
    assert not report.passed
    assert "W2" in report.failures()
    w2 = report.results["W2"]
    x, y, lam, lam2 = w2.counterexample
    # combine ignores lam entirely, so the W2 defect at any tuple is exactly
    # |lam - lam2| * d(x, y)
    assert space.combine(x, y, lam) == x
    predicted = abs(lam - lam2) * space.distance(x, y)
    observed = abs(
        space.distance(space.combine(x, y, lam), space.combine(x, y, lam2))
        - predicted
    )
    assert observed == pytest.approx(predicted)
    assert w2.max_violation > 0.1


def uniform_sample(space, rng):
    """A point of `space` drawn as the samplers drew before they called
    rng.random directly: rng.uniform per coordinate, rng.randrange for a ray."""
    if isinstance(space, IntervalSpace):
        lo = space.a if math.isfinite(space.a) else (space.b - 20.0 if math.isfinite(space.b) else -10.0)
        hi = space.b if math.isfinite(space.b) else lo + 20.0
        return rng.uniform(lo, hi)
    if isinstance(space, EuclideanSpace):
        if space.bounds is None:
            return tuple(rng.uniform(-10.0, 10.0) for _ in range(space.dim))
        return tuple(rng.uniform(lo, hi) for lo, hi in space.bounds)
    if isinstance(space, PoincareDisk):
        r = 0.9 * math.sqrt(rng.random())
        t = rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))
    if isinstance(space, StarTree):
        return (rng.randrange(space.rays), rng.uniform(0.0, space.length))
    if isinstance(space, CircleSpace):
        return rng.uniform(0.0, 2.0 * math.pi)
    if isinstance(space, BrokenW):
        return uniform_sample(space.base, rng)
    assert isinstance(space, FamilyProduct)
    u = uniform_sample(space.right, rng)
    return (uniform_sample(space.fiber_of(u), rng), u)


def record_check_axioms(space, samples, seed, eta):
    """The axiom loop before it kept its maxima in locals: one record() call
    per axiom and tuple, drawing through uniform_sample.  Returns
    {name: (max_violation, counterexample)}."""
    rng = random.Random(seed)
    has_w = isinstance(space, HyperbolicSpace)
    results = {name: [0.0, None] for name in (AXIOM_NAMES if has_w else AXIOM_NAMES[:4])}

    def record(name, violation, witness):
        r = results[name]
        if violation > r[0]:
            r[0] = violation
        if violation > eta and r[1] is None:
            r[1] = witness

    d = space.distance
    for _ in range(samples):
        x = uniform_sample(space, rng)
        y = uniform_sample(space, rng)
        z = uniform_sample(space, rng)
        dxy = d(x, y)
        dyx = d(y, x)
        dxz = d(x, z)
        dyz = d(y, z)
        record("metric_nonneg", -min(dxy, dxz, dyz), (x, y, z))
        record("metric_identity", abs(d(x, x)), (x,))
        record("metric_symmetry", abs(dxy - dyx), (x, y))
        record("metric_triangle", dxz - (dxy + dyz), (x, y, z))
        if not has_w:
            continue
        w = uniform_sample(space, rng)
        lam = rng.random()
        lam2 = rng.random()
        cxy = space.combine(x, y, lam)
        record("W1", d(z, cxy) - ((1 - lam) * dxz + lam * dyz), (x, y, z, lam))
        cxy2 = space.combine(x, y, lam2)
        record("W2", abs(d(cxy, cxy2) - abs(lam - lam2) * dxy), (x, y, lam, lam2))
        record("W3", d(cxy, space.combine(y, x, 1.0 - lam)), (x, y, lam))
        cxz = space.combine(x, z, lam)
        cyw = space.combine(y, w, lam)
        record("W4", d(cxz, cyw) - ((1 - lam) * dxy + lam * d(z, w)), (x, y, z, w, lam))
        record(
            "endpoints",
            max(d(space.combine(x, y, 0.0), x), d(space.combine(x, y, 1.0), y)),
            (x, y),
        )
    return {name: tuple(r) for name, r in results.items()}


class JitteredInterval(IntervalSpace):
    """[0, 1] with a distance off by a smooth jitter of up to 0.05, so that
    every axiom fails, by amounts that vary from tuple to tuple."""

    def distance(self, x, y):
        return abs(x - y) + 0.05 * math.sin(50.0 * x + 7.0 * y)


#: every kernel and sampler, on bounded, open and unbounded carriers; the
#: wide interval fails on rounding, the jittered one on every axiom
REFERENCE_SPACES = {
    "jittered": JitteredInterval(0.0, 1.0),
    "interval": make_interval(0.0, 1.0),
    "interval_wide": make_interval(-1e8, 1e8),
    "real_line": make_real_line(),
    "half_line": make_half_line(),
    "ray_down": make_interval(-math.inf, 5.0),
    "r1": make_euclidean(1),
    "r2": make_euclidean(2),
    "r3": make_euclidean(3),
    "box1": make_box(((0.0, 1.0),)),
    "box2": make_box(((0.0, 1.0), (-2.0, 3.0))),
    "box2_huge": make_box(((-1e300, 1e300), (0.5, 0.75))),
    "box3": make_box(((0.0, 1.0), (-2.0, 3.0), (0.0, 0.5))),
    "poincare": make_poincare_disk(),
    "star_tree": make_star_tree(3, 2.0),
    "circle": make_circle(),
    "broken_w": BrokenW(make_interval(0.0, 1.0)),
    "broken_box": BrokenW(make_box(((0.0, 1.0), (0.0, 1.0)))),
    "product": product(make_box(((0.0, 1.0), (0.0, 1.0))), make_star_tree(3, 1.0)),
}


@pytest.mark.parametrize("name", REFERENCE_SPACES)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 40),
    eta=st.sampled_from([0.0, 1e-12, 1e-9, 10.0, math.inf]),
)
@example(seed=0, samples=400, eta=0.0)
@example(seed=0, samples=400, eta=1e-9)
def test_check_axioms_matches_the_record_loop(name, seed, samples, eta):
    space = REFERENCE_SPACES[name]
    report = check_axioms(space, samples, seed=seed, eta=eta)
    expected = record_check_axioms(space, samples, seed, eta)
    assert list(report.results) == list(expected)
    for axiom, (top, witness) in expected.items():
        got = report.results[axiom]
        assert repr(got.max_violation) == repr(top), axiom
        assert repr(got.counterexample) == repr(witness), axiom


def bits(v):
    """The exact value of a point or number: floats by float.hex, which
    also tells -0.0 from 0.0; tuples item by item."""
    if isinstance(v, tuple):
        return tuple(bits(item) for item in v)
    if isinstance(v, complex):
        return ("complex", v.real.hex(), v.imag.hex())
    if isinstance(v, float):
        return ("float", v.hex())
    return (type(v).__name__, v)


@pytest.mark.parametrize("name", REFERENCE_SPACES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_samplers_draw_what_uniform_draws(name, seed):
    space = REFERENCE_SPACES[name]
    rng, ref = random.Random(seed), random.Random(seed)
    drawn = [space.sample(rng) for _ in range(25)]
    assert [bits(p) for p in drawn] == [bits(uniform_sample(space, ref)) for _ in range(25)]
    assert rng.getstate() == ref.getstate()


def coercing_distance(x, y):
    # the disk distance as it was when it coerced both points with complex()
    a, z = complex(y), complex(x)
    w = (z - a) / (1 - a.conjugate() * z)
    return 2.0 * math.atanh(abs(w))


def coercing_combine(x, y, lam):
    # the disk combine as it was when it coerced both points with complex()
    x, y = complex(x), complex(y)
    y1 = (y - x) / (1 - x.conjugate() * y)
    r = abs(y1)
    if r == 0.0:
        return x
    m = math.tanh(lam * math.atanh(r)) * (y1 / r)
    return (m + x) / (1 + x.conjugate() * m)


def outcome(fn, *args):
    """bits of fn(*args), or the type of the error it raises."""
    try:
        return bits(fn(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


RIM = 1.0 - 2.0**-40
DISK_POINTS = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(RIM, 0.0), complex(-RIM, 0.0), complex(0.0, RIM), complex(0.0, -RIM),
    complex(RIM * math.cos(1.0), RIM * math.sin(1.0)), complex(RIM * math.cos(4.0), RIM * math.sin(4.0)),
    0.5 + 0j, 0.3 + 0.1j, -0.2 + 0.4j, complex(1e-300, -1e-300),
]
disk_points = st.one_of(
    st.sampled_from(DISK_POINTS),
    st.builds(
        lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
        st.floats(0.0, RIM), st.floats(0.0, 2.0 * math.pi),
    ),
)


@settings(max_examples=300, deadline=None)
@given(disk_points, disk_points, st.floats(0.0, 1.0))
@example(0j, 0j, 0.5)
@example(complex(RIM, 0.0), complex(-RIM, 0.0), 0.5)
@example(complex(0.0, RIM), complex(0.0, RIM), 0.25)
def test_disk_kernels_match_the_coercing_formulas(x, y, lam):
    disk = make_poincare_disk()
    for p, q in ((x, y), (y, x), (x, x), (y, y)):
        assert outcome(disk.distance, p, q) == outcome(coercing_distance, p, q)
        assert outcome(disk.combine, p, q, lam) == outcome(coercing_combine, p, q, lam)


def test_disk_combine_of_equal_points_returns_the_point():
    # the r == 0 branch, at the origin and near the rim
    disk = make_poincare_disk()
    for x in DISK_POINTS:
        for lam in (0.0, 0.5, 1.0):
            assert bits(disk.combine(x, x, lam)) == bits(coercing_combine(x, x, lam)) == bits(x)
        assert disk.distance(x, x) == 0.0


@pytest.mark.parametrize("eta", [-1.0, -1e-300, -math.inf, math.nan])
def test_check_axioms_needs_eta_at_least_zero(eta):
    with pytest.raises(ArgumentError, match="eta"):
        check_axioms(make_interval(0.0, 1.0), samples=10, eta=eta)


def test_axiom_report_summary_lines():
    report = check_axioms(make_interval(0.0, 1.0), samples=100, seed=0)
    lines = report.summary_lines()
    assert len(lines) == len(AXIOM_NAMES)
    assert all("pass" in line for line in lines)
    with pytest.raises(ArgumentError):
        check_axioms(make_interval(0.0, 1.0), samples=0)


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_interval_w2_exact(x, y, lam, mu):
    space = make_interval(0.0, 1.0)
    lhs = space.distance(space.combine(x, y, lam), space.combine(x, y, mu))
    assert lhs == pytest.approx(abs(lam - mu) * space.distance(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization and meshes
# ---------------------------------------------------------------------------


def test_descriptors_are_json_serializable():
    spaces = [
        make_interval(0.0, 1.0),
        make_real_line(),
        make_half_line(),
        make_euclidean(2),
        make_box(((0.0, 1.0),)),
        make_poincare_disk(),
        make_star_tree(3, 1.0),
        make_circle(),
        BrokenW(make_interval(0.0, 1.0)),
        product(make_interval(0.0, 1.0), make_circle()),
    ]
    for space in spaces:
        text = json.dumps(space.descriptor)
        assert json.loads(text) == space.descriptor


def test_infinite_endpoints_serialize_as_strings():
    assert make_real_line().descriptor == {"kind": "interval", "a": "-inf", "b": "inf"}
    assert make_half_line().descriptor == {"kind": "interval", "a": 0.0, "b": "inf"}


def test_interval_mesh():
    mesh = list(make_interval(0.0, 1.0).mesh(0.25))
    assert mesh[0] == 0.0 and mesh[-1] == 1.0
    assert max(b - a for a, b in zip(mesh, mesh[1:])) <= 0.25 + 1e-12
    with pytest.raises(ArgumentError):
        make_real_line().mesh(0.25)


def test_box_and_tree_meshes():
    box_mesh = make_box(((0.0, 1.0), (0.0, 1.0))).mesh(0.5)
    assert (0.0, 0.0) in box_mesh and (1.0, 1.0) in box_mesh
    tree = make_star_tree(3, 1.0)
    tree_mesh = tree.mesh(0.5)
    assert all(tree.contains(p) for p in tree_mesh)
    assert (0, 0.0) in tree_mesh


@pytest.mark.parametrize(
    "space, step, points",
    [
        (make_interval(0.0, 1.0), 0.25, 5),
        (make_box(((0.0, 1.0), (0.0, 1.0))), 0.5, 9),
        (make_star_tree(3, 1.0), 0.5, 7),
    ],
)
def test_meshes_refuse_more_than_the_cap_points(monkeypatch, space, step, points):
    # one rule for every mesh: at most MESH_POINT_CAP points
    assert len(space.mesh(step)) == points
    monkeypatch.setattr(spaces, "MESH_POINT_CAP", points)
    assert len(space.mesh(step)) == points
    monkeypatch.setattr(spaces, "MESH_POINT_CAP", points - 1)
    with pytest.raises(MeshCapError):
        space.mesh(step)


def _axis(lo, hi, n):
    return [lo + k * (hi - lo) / n for k in range(n)] + [hi]


@pytest.mark.parametrize("step", [0.25, 0.03, 0.007, 0.7])
def test_meshes_are_their_runs_in_mesh_order(step):
    # intervals and boxes: every axis from lo to hi in n steps, the last axis
    # fastest; star trees: the hub, then each ray outward from the hub
    interval = make_interval(0.1, 0.7)
    n = max(1, math.ceil(0.6 / step))
    assert list(interval.mesh(step)) == _axis(0.1, 0.7, n)
    box = make_box(((0.0, 1.0), (-2.0, 0.5)))
    n0, n1 = max(1, math.ceil(1.0 / step)), max(1, math.ceil(2.5 / step))
    assert list(box.mesh(step)) == [(x, y) for x in _axis(0.0, 1.0, n0) for y in _axis(-2.0, 0.5, n1)]
    tree = make_star_tree(3, 1.5)
    n = max(1, math.ceil(1.5 / step))
    assert list(tree.mesh(step)) == [(0, 0.0)] + [(r, t) for r in range(3) for t in _axis(0.0, 1.5, n)[1:]]
    for mesh in (interval.mesh(step), box.mesh(step), tree.mesh(step)):
        assert len(mesh) == len(list(mesh)) == sum(run.size for run in mesh.runs)


def test_box_mesh_cap_stops_at_the_first_axis_past_it():
    # 3^14 points already pass the cap; the count of all 15,000 axes has
    # 7,158 digits, past Python's int-to-str limit
    with pytest.raises(MeshCapError, match="mesh of 4782969 points exceeds the sanity cap"):
        make_box(((0.0, 1.0),) * 15_000).mesh(0.5)


def test_samples_stay_in_space():
    rng = random.Random(7)
    for space in [
        make_interval(0.0, 1.0),
        make_real_line(),
        make_euclidean(2),
        make_poincare_disk(),
        make_star_tree(4, 2.0),
        make_circle(),
        product(make_interval(0.0, 1.0), make_circle()),
    ]:
        for _ in range(50):
            assert space.contains(space.sample(rng))
