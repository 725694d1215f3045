"""The per-step kernels: pinned iterate bytes, the unrolled 2-D kernels
against the generic ones they replace, the interval orbit-end loop against
the generic loop, and the grid oracle's mesh points.

The goldens are sha256 digests of `hypkm iterate` stdout, less its version
line, taken from the generic kernels before the unrolled ones existed; any
change of a bit in a walk or of a character in the CSV shows here.
"""

import contextlib
import hashlib
import io
import json
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from hypkm import (
    ArgumentError,
    BrokenW,
    GridOracle,
    km,
    make_box,
    make_euclidean,
    make_interval,
    make_real_line,
    make_star_tree,
    spaces,
)
from hypkm.cli import main
from hypkm.errors import DomainEscapeError
from hypkm.km import (
    ResidualTrace,
    _km_walk,
    constant_schedule,
    harmonic_schedule,
    km_iterate,
    km_orbit_end,
)
from hypkm.maps import NonexpansiveMap, _affine_generic, affine_map
from hypkm.spaces import EuclideanSpace, IntervalSpace, PoincareDisk


def _constant_third(cfg: dict) -> dict:
    return {**cfg, "schedule": {"kind": "constant", "value": "1/3"}, "N": 300}


GOLDEN = {
    "euclid-affine": (
        _constant_third({
            "space": {"kind": "euclidean", "dim": 2},
            "map": {"name": "matrix_affine",
                    "matrix": [[0.573636, -0.515379], [0.515379, 0.573636]],
                    "offset": [0.3, -0.2]},
            "x0": [3.1, -2.4]}),
        "c948f75e0915cc8a0a5dbd87e86ca5a59e88681408fe9a854f425ee60cb2fe6b",
    ),
    "box-affine": (
        _constant_third({
            "space": {"kind": "box", "bounds": [[0, 1], [0, 1]]},
            "map": {"name": "matrix_affine", "matrix": [[0.4, -0.3], [0.3, 0.4]],
                    "offset": [0.3, 0.1]},
            "x0": [0.9, 0.05]}),
        "726db30976a927f17416f470cfb1e9692e0e6670496bdd8c0d1dd1d5109a5394",
    ),
    "poincare-constant": (
        _constant_third({
            "space": {"kind": "poincare"},
            "map": {"name": "constant", "value": [0.1, 0.2]},
            "x0": [-0.5, 0.6]}),
        "7397e4c4f0dc4fc63c5dfc2be2eca5c8b719dd6c0544cbf5852ef3abc78c4495",
    ),
    "star-constant": (
        _constant_third({
            "space": {"kind": "star_tree", "rays": 3, "length": 2},
            "map": {"name": "constant", "value": [1, 1.5]},
            "x0": [2, 0.7]}),
        "9d9ea5f3aad2000f4db6c200a5c6511d89ce53759f3f0e88a58890b9547b06d3",
    ),
}


def test_iterate_outputs_match_their_goldens(tmp_path):
    for name, (cfg, digest) in GOLDEN.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["iterate", "--config", str(path)]) == 0
        version, body = out.getvalue().split("\n", 1)
        assert version.startswith("# version=")
        assert len(body.splitlines()) == 306, name
        assert hashlib.sha256(body.encode()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# unrolled 2-D kernels == generic kernels
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-12, -1e-12, 1.0 + 1e-12]
reals = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(-3, 3))
coords = st.one_of(reals, st.sampled_from(["0.5", "-0", "nan", "inf", "1e400", 10**400, "x", "", None, True]))
points = st.one_of(
    st.tuples(reals, reals),
    st.lists(coords, min_size=0, max_size=3),
    st.lists(coords, min_size=0, max_size=3).map(tuple),
    st.sampled_from(["12", "ab", "1", None, 3.0, {0: 0.5, 1: 0.25}, {0.5, 0.25}]),
)
bounds = st.tuples(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6)).map(lambda p: (p[0], p[0] + p[1]))


def _outcome(fn, *args):
    """repr of the result (exact for floats, -0.0 and nan included), or the
    exception type."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome
        return type(exc)


def _spaces(b0, b1):
    return [make_euclidean(2), make_box([b0, b1])]


def test_dim_two_binds_the_unrolled_kernels():
    for space in _spaces((0.0, 1.0), (0.0, 1.0)):
        assert "contains" in vars(space) and "combine" in vars(space)
    for space in (make_euclidean(3), make_box([(0.0, 1.0)])):
        assert "contains" not in vars(space) and "combine" not in vars(space)


@given(bounds, bounds, points)
@example((0.0, 1.0), (0.0, 1.0), (1.0 + 1e-12, -1e-12))
@example((0.0, 1.0), (0.0, 1.0), (1.0 + 2e-12, 0.5))
@example((0.0, 1.0), (0.0, 1.0), (0.5, math.nan))
@example((0.0, 1.0), (0.0, 1.0), ("0.5", "1"))
@example((0.0, 1.0), (0.0, 1.0), (0.5, 0.5, 0.5))
@example((0.0, 1.0), (0.0, 1.0), (0.5, 10**400))
def test_contains_2d_equals_generic(b0, b1, x):
    for space in _spaces(b0, b1):
        assert _outcome(space.contains, x) == _outcome(EuclideanSpace.contains, space, x)


@given(bounds, bounds, points, points, st.one_of(st.floats(0, 1), st.sampled_from(SPECIAL)))
@example((0.0, 1.0), (0.0, 1.0), (-0.0, 0.0), (0.0, -0.0), 0.0)
@example((0.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.5, 9.0), 0.5)
@example((0.0, 1.0), (0.0, 1.0), (math.inf, 0.5), (-math.inf, 0.5), 0.5)
@example((0.0, 1.0), (0.0, 1.0), (10**400, 0.5), (0.5, 0.5), 0.5)
def test_combine_2d_equals_generic(b0, b1, x, y, lam):
    for space in _spaces(b0, b1):
        assert _outcome(space.combine, x, y, lam) == _outcome(EuclideanSpace.combine, space, x, y, lam)


@given(st.lists(reals.map(float), min_size=6, max_size=6), points)
@example([0.0, 0.0, 0.0, 0.0, -0.0, -0.0], (-0.0, -0.0))
@example([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0.5, 0.25, 9.0))
@example([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (10**400, 0.5))
def test_affine_2d_equals_generic(entries, x):
    a, b, c, d, t0, t1 = entries
    rows, t = [(a, b), (c, d)], (t0, t1)
    fast = affine_map(make_euclidean(2), rows, t).fn
    assert _outcome(fast, x) == _outcome(_affine_generic(rows, t), x)


def test_affine_2d_keeps_the_signed_zero_of_sum():
    T = affine_map(make_euclidean(2), [[0.0, 0.0], [0.0, 0.0]], [-0.0, -0.0])
    assert repr(T((-0.0, -0.0))) == "(0.0, 0.0)"


def test_poincare_kernels_are_the_mobius_formulas():
    disk, rng = PoincareDisk(), random.Random(5)
    for _ in range(200):
        x, y, lam = disk.sample(rng), disk.sample(rng), rng.random()
        w = (x - y) / (1 - y.conjugate() * x)
        assert disk.distance(x, y) == 2.0 * math.atanh(abs(w))
        y1 = (y - x) / (1 - x.conjugate() * y)
        m = math.tanh(lam * math.atanh(abs(y1))) * (y1 / abs(y1))
        assert disk.combine(x, y, lam) == (m + x) / (1 + x.conjugate() * m)
    assert disk.combine(0.5j, 0.5j, 0.3) == 0.5j


# ---------------------------------------------------------------------------
# the interval orbit-end loop == the generic loop
# ---------------------------------------------------------------------------


class _GenericInterval(IntervalSpace):
    """The same space; as a subclass it is walked by the generic loop."""


ENDS = [(0.0, 1.0), (-1e8, 1e8), (1e15, 1e15 + 4), (0.0, math.inf), (-math.inf, -2.0),
        (-math.inf, math.inf)]


def _near_bounds(space: IntervalSpace) -> list:
    """The widened bounds, their neighbours one ulp either side, and the
    endpoints themselves."""
    near = [space.a, space.b]
    for v in (space._lo, space._hi):
        near += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return near


@st.composite
def orbit_end_cases(draw):
    a, b = draw(st.sampled_from(ENDS))
    space = IntervalSpace(a, b)
    near = _near_bounds(space)
    members = [v for v in near + [0.0, -0.0, 0.5, -3.0] if space.contains(v)]
    image = st.one_of(
        st.floats(),
        st.sampled_from(near + [0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.integers(-3, 3),
        st.just(10**400),
    )
    images = draw(st.lists(image, max_size=8))
    slope = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]))
    shift = draw(st.sampled_from([0.0, -0.0, 0.25, -3.0]))
    # mostly members: a start outside fails before either loop is entered
    x0 = draw(st.one_of(st.sampled_from(members), st.sampled_from(members), st.sampled_from(near),
                        st.integers(-2, 2)))
    sched = draw(st.sampled_from(["1/2", "1/3", "1/10000", "9/10", "harmonic"]))
    start = draw(st.integers(0, 6))
    n = start + draw(st.integers(0, 40))
    return a, b, images, slope, shift, x0, sched, start, n


def _walk_outcome(cls, case):
    """repr of what `_km_walk` returns on a ``cls`` interval, or the error
    with an escape's step and point."""
    a, b, images, slope, shift, x0, sched, start, n = case
    space = cls(a, b)
    answers = iter(images)

    def fn(x):
        # both loops call the map at the same points in the same order, so
        # answering from the drawn list first compares them fairly
        return next(answers, slope * x + shift)

    schedule = harmonic_schedule() if sched == "harmonic" else constant_schedule(sched)
    try:
        return repr(_km_walk(space, NonexpansiveMap(space, fn), x0, schedule, n, start=start))
    except DomainEscapeError as exc:
        return ("escape", exc.step, repr(exc.point))
    except Exception as exc:  # noqa: BLE001 -- the type and text are the outcome
        return (type(exc), str(exc).replace(cls.__name__, "IntervalSpace"))


@given(orbit_end_cases())
@example((0.0, 1.0, [0.0], 1.0, 0.0, -0.0, "1/2", 0, 10))  # -0.0 then 0.0: equal, not stationary
@example((0.0, 1.0, [0], 1.0, 0.0, 0, "1/2", 0, 10))  # the int 0 then 0.0
@example((0.0, 1.0, [0.5, 0.9], 0.0, 0.0, 0.5, "harmonic", 0, 5))  # a repeat, then a move
@example((0.0, 1.0, [], 1.0, 0.0, 0.0, "1/2", 3, 10))
@example((0.0, 1.0, [1.0 + 1e-12, math.nextafter(1.0 + 1e-12, 2.0)], 0.0, 0.0, 1.0, "1/3", 0, 5))
@example((0.0, math.inf, [math.nan], 0.5, 0.0, 0.0, "1/2", 0, 5))
@example((-math.inf, math.inf, [10**400], 0.5, 0.0, 2, "1/2", 0, 5))
@example((-math.inf, math.inf, [3], 0.5, 0.0, 2, "harmonic", 2, 9))
def test_interval_orbit_end_loop_equals_the_generic_loop(case):
    assert _walk_outcome(IntervalSpace, case) == _walk_outcome(_GenericInterval, case)


def test_only_an_untraced_walk_on_an_interval_takes_the_orbit_end_loop(monkeypatch):
    taken = []
    real = km._interval_orbit_end
    monkeypatch.setattr(km, "_interval_orbit_end", lambda *a: taken.append(a) or real(*a))
    half = NonexpansiveMap(make_interval(0.0, 1.0), lambda x: x / 2.0)
    sched = constant_schedule("1/2")
    km_orbit_end(make_interval(0.0, 1.0), half, 1.0, sched, 5)
    assert len(taken) == 1
    km_orbit_end(_GenericInterval(0.0, 1.0), half, 1.0, sched, 5)
    km_iterate(make_interval(0.0, 1.0), half, 1.0, sched, 5)
    _km_walk(make_interval(0.0, 1.0), half, 1.0, sched, 5, stop_eps=0.1)
    _km_walk(make_interval(0.0, 1.0), half, 1.0, sched, 5, points=[])
    # a walk whose steps vary takes the generic loop, with the same end
    varying = harmonic_schedule()
    end = km_orbit_end(make_interval(0.0, 1.0), half, 1.0, varying, 5)
    assert len(taken) == 1
    assert repr(end) == repr(km_orbit_end(_GenericInterval(0.0, 1.0), half, 1.0, varying, 5))


# ---------------------------------------------------------------------------
# the grid oracle's meshes
# ---------------------------------------------------------------------------


@given(st.floats(-1e307, 1e307), st.floats(2.0 ** -1000, 1e308), st.integers(1, 5000))
def test_mesh_points_are_the_plain_formula_where_it_is_finite(lo, width, n):
    hi = lo + width
    width = hi - lo
    if not (lo < hi and math.isfinite(width)):
        return
    points = list(spaces.Mesh(lo, hi, n))
    assert points == sorted(points) and points[-1] == hi
    for k, u in enumerate(points[:-1]):
        if math.isfinite(k * width):
            assert repr(u) == repr(lo + k * width / n)


def test_mesh_points_of_a_wide_interval_stay_inside_it():
    # from the third mesh on, k * (b - a) overflows past k = 8
    a, b = -1e307, 1e307
    space = make_interval(a, b)
    for step in (1.25e306, 1e302):
        points = [*space.mesh(step)]
        assert all(a <= u <= b for u in points)
        assert points == sorted(points)
    calls = []

    def fn(u):
        calls.append(u)
        return min(max(0.3 * u + 1e306, a), b)

    GridOracle(space).solve(NonexpansiveMap(space, fn), 1e303)
    assert calls and all(a <= u <= b for u in calls)


def test_grid_oracle_refuses_every_space_but_an_interval_with_finite_ends():
    # the one mesh GridOracle walks is an interval's: a box, a star tree, a
    # subclass, a wrapped interval and an unbounded interval are refused,
    # each by name
    for space in (make_box([(0.0, 1.0)] * 2), make_star_tree(3, 1.0), _GenericInterval(0.0, 1.0),
                  BrokenW(make_interval(0.0, 1.0)), make_real_line(), make_interval(0.0, math.inf)):
        with pytest.raises(ArgumentError) as exc:
            GridOracle(space)
        assert str(exc.value) == (
            f"grid refinement needs a bounded space with a mesh: an interval with finite ends, not {space!r}"
        )
    GridOracle(make_interval(0.0, 1.0))


# ---------------------------------------------------------------------------
# the block renderer == the per-value format it replaced
# ---------------------------------------------------------------------------


def _reference_text(trace: ResidualTrace) -> str:
    rows = []
    for n, (p, r) in enumerate(zip(trace.points, trace.residuals), trace.first):
        row = trace.space.point_row(p)
        rows.append(f"{n},{r:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(rows)


#: floats, their special values and ints, some past 2^53 where %.17g rounds
values = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(-10**20, 10**20),
                   st.sampled_from([2**53 + 1, -(2**53 + 1), 2**63 - 1]))


@given(st.lists(st.tuples(values, values, values), min_size=1, max_size=20),
       st.one_of(st.just(0), st.integers(1, 2**40)))
@example([(2**53 + 1, -0.0, math.nan)], 4096)  # a one-row block opening at row 4096
@example([(0.0, -0.0, 0.0), (math.inf, -math.inf, math.nan)], 2)
def test_csv_text_equals_the_per_value_format(rows, first):
    residuals = [r for r, _, _ in rows]
    for space, points in ((make_box([(0.0, 1.0), (0.0, 1.0)]), [(u, v) for _, u, v in rows]),
                          (make_interval(0.0, 1.0), [u for _, u, _ in rows]),
                          (make_star_tree(3, 2.0), [(2, v) for _, _, v in rows]),
                          (PoincareDisk(), [complex(u, v) for _, u, v in rows])):
        trace = ResidualTrace(space, points, residuals, first)
        text = _reference_text(trace)
        assert trace.csv_text() == text
        header = "n,residual," + ",".join(space.point_columns())
        assert trace.csv_lines({"k": "v"}) == ["# k=v", header, *text.splitlines()]
