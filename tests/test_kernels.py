"""The per-step kernels: pinned iterate bytes, and the unrolled 2-D kernels
against the generic ones they replace.

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

from hypothesis import example, given, strategies as st

from hypkm import make_box, make_euclidean, make_interval, make_star_tree
from hypkm.cli import main
from hypkm.km import ResidualTrace
from hypkm.maps import _affine_generic, affine_map
from hypkm.spaces import EuclideanSpace, PoincareDisk


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
coords = st.one_of(reals, st.sampled_from(["0.5", "-0", "nan", "inf", "1e400", "x", "", None, True]))
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
def test_contains_2d_equals_generic(b0, b1, x):
    for space in _spaces(b0, b1):
        assert _outcome(space.contains, x) == _outcome(EuclideanSpace.contains, space, x)


@given(bounds, bounds, points, points, st.one_of(st.floats(0, 1), st.sampled_from(SPECIAL)))
@example((0.0, 1.0), (0.0, 1.0), (-0.0, 0.0), (0.0, -0.0), 0.0)
@example((0.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.5, 9.0), 0.5)
@example((0.0, 1.0), (0.0, 1.0), (math.inf, 0.5), (-math.inf, 0.5), 0.5)
def test_combine_2d_equals_generic(b0, b1, x, y, lam):
    for space in _spaces(b0, b1):
        assert _outcome(space.combine, x, y, lam) == _outcome(EuclideanSpace.combine, space, x, y, lam)


@given(st.lists(reals.map(float), min_size=6, max_size=6), points)
@example([0.0, 0.0, 0.0, 0.0, -0.0, -0.0], (-0.0, -0.0))
@example([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0.5, 0.25, 9.0))
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
# the CSV row template == the per-value format it replaced
# ---------------------------------------------------------------------------


def _reference_rows(trace: ResidualTrace) -> list[str]:
    rows = []
    for n, (p, r) in enumerate(zip(trace.points, trace.residuals)):
        row = trace.space.point_row(p)
        rows.append(f"{n},{r:.17g}," + ",".join(f"{v:.17g}" for v in row))
    return rows


values = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.integers(-10**20, 10**20))


@given(st.lists(st.tuples(values, values, values), min_size=1, max_size=20))
def test_csv_rows_equal_the_per_value_format(rows):
    box = make_box([(0.0, 1.0), (0.0, 1.0)])
    trace = ResidualTrace(box, [(u, v) for _, u, v in rows], [r for r, _, _ in rows])
    assert trace.csv_lines()[1:] == _reference_rows(trace)
    line = make_interval(0.0, 1.0)
    trace = ResidualTrace(line, [u for _, u, _ in rows], [r for r, _, _ in rows])
    assert trace.csv_lines()[1:] == _reference_rows(trace)
    tree = make_star_tree(3, 2.0)
    trace = ResidualTrace(tree, [(2, v) for _, _, v in rows], [r for r, _, _ in rows])
    assert trace.csv_lines({"k": "v"})[2:] == _reference_rows(trace)
