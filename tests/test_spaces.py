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
from hypothesis import given, strategies as st
from scipy.integrate import quad

from hypkm import (
    ArgumentError,
    BrokenW,
    DomainError,
    FamilyProduct,
    check_axioms,
    convex_comb,
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
from hypkm.spaces import AXIOM_NAMES, EuclideanSpace


# ---------------------------------------------------------------------------
# intervals and boxes
# ---------------------------------------------------------------------------


def test_interval_distance():
    space = make_interval(0.0, 1.0)
    assert space.distance(0.2, 0.9) == pytest.approx(0.7)
    assert space.distance(0.9, 0.2) == pytest.approx(0.7)


def test_interval_convex_comb_exact():
    space = make_interval(0.0, 10.0)
    assert convex_comb(space, 0.0, 10.0, 0.3) == pytest.approx(3.0)
    assert convex_comb(space, 0.0, 10.0, 0.0) == 0.0
    assert convex_comb(space, 0.0, 10.0, 1.0) == 10.0


def test_convex_comb_validates_lambda():
    space = make_interval(0.0, 1.0)
    with pytest.raises(ArgumentError):
        convex_comb(space, 0.0, 1.0, 1.5)
    with pytest.raises(ArgumentError):
        convex_comb(space, 0.0, 1.0, -0.1)


def test_convex_comb_validates_membership():
    space = make_interval(0.0, 1.0)
    with pytest.raises(DomainError):
        convex_comb(space, 2.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        convex_comb(space, 0.5, -3.0, 0.5)


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
    mesh = make_interval(0.0, 1.0).mesh(0.25)
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
