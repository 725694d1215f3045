"""Metric and hyperbolic spaces with a convexity operator, plus axiom checking.

A hyperbolic space here is a metric space together with a convex-combination
operator ``W(x, y, lam)`` subject to four axioms:

    W1:  d(z, W(x,y,l)) <= (1-l) d(z,x) + l d(z,y)
    W2:  d(W(x,y,l), W(x,y,m)) = |l-m| d(x,y)
    W3:  W(x,y,l) = W(y,x,1-l)
    W4:  d(W(x,z,l), W(y,w,l)) <= (1-l) d(x,y) + l d(z,w)

Points are opaque values owned by their space: floats for intervals, tuples
for Euclidean boxes, complex numbers for the unit disk, (ray, offset) pairs
for star trees, and (x, u) pairs for products.  Cross-space use is rejected
by membership checks at the API boundary.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .errors import ArgumentError

Point = Any

# Tolerance policy: MEMBERSHIP_SLACK widens closed sets in `contains`, and so
# every domain check of the iteration; DEFAULT_ETA is the slack of checks on
# computed values: axioms, the uafpp modulus and Banach checks, and the
# product_afpp oracle, probe and lifted-residual checks.

#: slack used by membership tests on closed sets, to absorb rounding drift
#: accumulated over long iterations.
MEMBERSHIP_SLACK = 1e-12

#: default tolerance for axiom, property and certification checks.
DEFAULT_ETA = 1e-9

#: most points in the mesh of an interval; a larger one raises ArgumentError.
MESH_POINT_CAP = 2_000_000

# Samplers draw through ``rng.random`` with the arithmetic of
# ``random.uniform(a, b)``, which is ``a + (b - a) * random()``: the same
# stream and the same floats, without a method call per coordinate.  Where
# a = 0.0 the sum is dropped, since 0.0 + v is v for every v >= 0; where
# b - a overflows, `_sample_wide` draws a (1 - u) + b u instead.  A star
# tree's ray is drawn with ``getrandbits`` by ``randrange(n)``'s rejection
# rule, n.bit_length() bits until the value is below n: the same rays.


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened by MEMBERSHIP_SLACK and clamped to the finite floats,
    so that comparing against it refuses nan, and +-inf on an unbounded side."""
    big = sys.float_info.max
    return max(lo - MEMBERSHIP_SLACK, -big), min(hi + MEMBERSHIP_SLACK, big)


def _endpoint(v: float):
    """v as a descriptor writes it: an infinite end as "inf" or "-inf", since
    a bare float would render as Infinity, which is not valid JSON."""
    return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")


def _halved_combine(x: float, y: float, lam: float) -> float:
    """x + lam (y - x) where y - x overflows: the same point from x/2 and y/2,
    scaled back by 2.  As in `Mesh`, the scalings by a power of two are
    exact, since |x| and |y| are then far above the subnormals."""
    return 2.0 * (x / 2.0 + lam * (y / 2.0 - x / 2.0))


def _draw_window(a: float, b: float) -> tuple[float, float]:
    """(start, width) of where a sampler of [a, b] draws: [a, b] when both
    ends are finite, 20 wide at the one finite end, else [-10, 10]."""
    lo = a if math.isfinite(a) else (b - 20.0 if math.isfinite(b) else -10.0)
    hi = b if math.isfinite(b) else lo + 20.0
    return lo, hi - lo


class Space:
    """A metric space: distance, membership, and a deterministic sampler."""

    descriptor: dict

    def distance(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def contains(self, x: Point) -> bool:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Point:
        raise NotImplementedError

    # --- serialization hooks used by trace/certificate writers -------------

    def point_row(self, x: Point) -> tuple:
        return (x,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.descriptor!r})"


class HyperbolicSpace(Space):
    """A metric space with a convexity operator satisfying W1-W4."""

    def combine(self, x: Point, y: Point, lam: float) -> Point:
        """Return ``W(x, y, lam)`` without argument validation."""
        raise NotImplementedError

    def point_columns(self) -> list[str]:
        """Names of the values of ``point_row``, as iterate's CSV heads them."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


class Mesh:
    """The mesh of an interval [lo, hi]: mesh[k] = lo + k (hi - lo) / n for
    k < n, then mesh[n] = hi, built when read and never decreasing in k.
    Where n (hi - lo) overflows, the width is first divided by a power of two
    above n, so k times it stays finite; the exact scalings keep the order.
    Iteration reads the points in order (the sequence protocol)."""

    __slots__ = ("lo", "hi", "n", "_width", "_unit")

    def __init__(self, lo, hi, n):
        self.lo, self.hi, self.n = lo, hi, n
        width = hi - lo
        self._unit = 1.0 if n * width < math.inf else 2.0 ** n.bit_length()
        self._width = width / self._unit

    def __len__(self):
        return self.n + 1

    def __getitem__(self, k):
        if not 0 <= k <= self.n:
            raise IndexError(f"mesh index {k} is outside 0..{self.n}")
        return self.lo + k * self._width / self.n * self._unit if k < self.n else self.hi


# ---------------------------------------------------------------------------
# concrete instances
# ---------------------------------------------------------------------------


class IntervalSpace(HyperbolicSpace):
    """A real interval [a, b] (endpoints may be infinite) with |x - y|."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ArgumentError(f"interval needs a < b, got [{a}, {b}]")
        self.a, self.b = float(a), float(b)
        self._lo, self._hi = _widen(self.a, self.b)
        self.descriptor = {"kind": "interval", "a": _endpoint(self.a), "b": _endpoint(self.b)}
        self._draw_lo, self._draw_width = _draw_window(self.a, self.b)
        if self._draw_width == math.inf:  # b - a overflows
            self.sample = self._sample_wide

    def distance(self, x, y):
        return abs(float(x) - float(y))

    def contains(self, x):
        try:
            v = float(x)
        except (TypeError, ValueError, OverflowError):
            return False
        return self._lo <= v <= self._hi

    def sample(self, rng):
        return self._draw_lo + self._draw_width * rng.random()

    def _sample_wide(self, rng):
        """`sample` where b - a overflows: a (1 - u) + b u, in [a, b] for
        every u, since then a < 0 < b and neither product overflows."""
        u = rng.random()
        return self.a * (1.0 - u) + self.b * u

    def combine(self, x, y, lam):
        z = x + lam * (y - x)
        return z if math.isfinite(z) else _halved_combine(x, y, lam)

    def mesh(self, step):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ArgumentError("mesh needs a bounded interval")
        if not step >= 0.0:
            raise ArgumentError(f"a mesh step must be positive, got {step!r}")
        if step == 0.0:  # a step that underflowed: no mesh of it fits the cap
            raise ArgumentError("a mesh step of 0 exceeds the sanity cap")
        gaps = (self.b - self.a) / step
        if gaps == math.inf:  # past any cap, and math.ceil would raise OverflowError
            raise ArgumentError(f"a mesh step of {step!r} exceeds the sanity cap")
        n = max(1, math.ceil(gaps))
        if n + 1 > MESH_POINT_CAP:
            raise ArgumentError(f"mesh of {n + 1} points exceeds the sanity cap")
        return Mesh(self.a, self.b, n)

    def point_columns(self):
        return ["x"]


class EuclideanSpace(HyperbolicSpace):
    """R^n, or an axis-aligned box, with the Euclidean metric.  Points are tuples.

    ``distance`` is ``math.dist`` itself.  ``contains`` and ``combine`` below
    are the generic kernels; membership compares with bounds widened once by
    ``_widen``, (-inf, inf) for R^n.
    For dim 2, ``__init__`` binds unrolled instances of both, and of
    ``sample``, that give bit-identical results: the same float operations
    in the same left-to-right order (``xi + lam * (yi - xi)`` per
    coordinate), points unpacked by iteration as ``zip`` reads them, and the
    same TypeError/ValueError/OverflowError handling.  An input the unrolled
    ``combine`` cannot unpack, or a result with a coordinate that is not
    finite, goes to the generic one.  There a coordinate whose yi - xi
    overflows is computed by `_halved_combine`; every finite one keeps its bits.
    """

    def __init__(self, dim: int, bounds: Optional[Sequence[tuple[float, float]]] = None):
        if dim < 1:
            raise ArgumentError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        if bounds is not None:
            bounds = [(float(lo), float(hi)) for lo, hi in bounds]
            if len(bounds) != dim:
                raise ArgumentError("bounds length must match dimension")
            for lo, hi in bounds:
                if not lo < hi:
                    raise ArgumentError(f"box needs lo < hi, got ({lo}, {hi})")
        self.bounds = bounds
        sides = bounds or [(-math.inf, math.inf)] * dim
        self._widened = [_widen(lo, hi) for lo, hi in sides]
        self._draws = [_draw_window(lo, hi) for lo, hi in sides]
        if bounds is None:
            self.descriptor = {"kind": "euclidean", "dim": dim}
        else:
            self.descriptor = {"kind": "box", "bounds": [list(map(_endpoint, b)) for b in bounds]}
        if dim == 2:
            self.contains = self._contains_2d()
            self.combine = self._combine_2d()
            self.sample = self._sample_2d()
        if any(w == math.inf for _, w in self._draws):  # some hi - lo overflows
            self.sample = self._sample_wide(sides)

    distance = staticmethod(math.dist)

    def contains(self, x):
        try:
            if len(x) != self.dim:
                return False
            vals = [float(v) for v in x]
        except (TypeError, ValueError, OverflowError):
            return False
        return all(lo <= v <= hi for v, (lo, hi) in zip(vals, self._widened))

    def combine(self, x, y, lam):
        z = tuple(xi + lam * (yi - xi) for xi, yi in zip(x, y))
        if all(map(math.isfinite, z)):
            return z
        return tuple(zi if math.isfinite(zi) else _halved_combine(xi, yi, lam)
                     for xi, yi, zi in zip(x, y, z))

    def _contains_2d(self) -> Callable[[Point], bool]:
        (lo0, hi0), (lo1, hi1) = self._widened

        def contains(x):
            try:
                if len(x) != 2:
                    return False
                v0, v1 = x
                v0, v1 = float(v0), float(v1)
            except (TypeError, ValueError, OverflowError):
                return False
            return lo0 <= v0 <= hi0 and lo1 <= v1 <= hi1

        return contains

    def _combine_2d(self) -> Callable[[Point, Point, float], Point]:
        isfinite = math.isfinite

        def combine(x, y, lam):
            try:
                x0, x1 = x
                y0, y1 = y
            except (TypeError, ValueError):
                return EuclideanSpace.combine(self, x, y, lam)
            z0, z1 = x0 + lam * (y0 - x0), x1 + lam * (y1 - x1)
            if isfinite(z0) and isfinite(z1):
                return (z0, z1)
            return EuclideanSpace.combine(self, x, y, lam)

        return combine

    def _sample_2d(self) -> Callable[[random.Random], Point]:
        (lo0, w0), (lo1, w1) = self._draws

        def sample(rng):
            rand = rng.random
            return (lo0 + w0 * rand(), lo1 + w1 * rand())

        return sample

    def sample(self, rng):
        rand = rng.random
        return tuple([lo + w * rand() for lo, w in self._draws])

    def _sample_wide(self, sides) -> Callable[[random.Random], Point]:
        """`sample` for a box with a side whose width overflows: that side
        draws as `IntervalSpace._sample_wide` does, every other as `sample`."""
        draws = [(lo, w, hi) for (lo, w), (_, hi) in zip(self._draws, sides)]

        def sample(rng):
            point = []
            for lo, w, hi in draws:
                u = rng.random()
                point.append(lo + w * u if w < math.inf else lo * (1.0 - u) + hi * u)
            return tuple(point)

        return sample

    def point_columns(self):
        return [f"x{i}" for i in range(self.dim)]

    def point_row(self, x):
        return tuple(x)


def _rim_distance(x, y) -> float:
    """The disk distance as 2 asinh(|x - y| / sqrt((1 - |x|^2)(1 - |y|^2))),
    each 1 - |z|^2 taken as (1 - |z|)(1 + |z|): no division by 1 - conj(y) x
    and no artanh, either of which fails where rounding takes it to 0 or 1."""
    ax, ay = abs(x), abs(y)
    return 2.0 * math.asinh(abs(x - y) / math.sqrt((1.0 - ax) * (1.0 + ax) * (1.0 - ay) * (1.0 + ay)))


def _rim_combine(x, y, lam):
    """W(x, y, lam) on the disk without its Mobius divisions: z sits on the
    hyperboloid at ((2 - s) / s, 2 z / s), s = 1 - |z|^2, and comes back by
    (t, v) -> v / (1 + t); the point at fraction lam of a geodesic of length
    d weighs its ends by sinh((1 - lam) d) and sinh(lam d) over sinh(d)."""
    d = _rim_distance(x, y)
    if d == 0.0:
        return x
    ax, ay = abs(x), abs(y)
    sx, sy = (1.0 - ax) * (1.0 + ax), (1.0 - ay) * (1.0 + ay)
    a, b = math.sinh((1.0 - lam) * d), math.sinh(lam * d)
    return (a * sy * x + b * sx * y) / (a * sy + b * sx + (math.sinh(d) - a - b) * sx * sy / 2.0)


class PoincareDisk(HyperbolicSpace):
    """The open unit disk with the curvature -1 metric d(0, z) = 2 artanh|z|.

    Points are complex numbers with |z| < 1.  The convexity operator moves x
    to the origin by a Mobius disk automorphism, interpolates along the ray
    (geodesics through 0 are diameters, parameterized by arclength via
    r -> 2 artanh r), and moves back.  ``distance`` and ``combine`` take the
    complex points that ``parse_point``, ``sample`` and the disk's maps make
    and do not coerce them; ``contains`` is the membership check and does.
    Near the rim these formulas can divide by 0 or take artanh of 1 after
    rounding; only there do they fall back to ``_rim_distance`` and
    ``_rim_combine``.
    """

    def __init__(self):
        self.descriptor = {"kind": "poincare"}

    def distance(self, x, y):
        # |phi_y(x)| for the automorphism phi_a(z) = (z - a) / (1 - conj(a) z)
        # that moves a = y to the origin
        try:
            w = (x - y) / (1 - y.conjugate() * x)
            return 2.0 * math.atanh(abs(w))
        except (ValueError, ZeroDivisionError):
            return _rim_distance(x, y)

    def contains(self, x):
        try:
            z = complex(x)
        except (TypeError, ValueError, OverflowError):
            return False
        return abs(z) < 1.0

    def sample(self, rng):
        # radius capped at 0.9 to keep axiom arithmetic well away from the rim
        rand = rng.random
        r = 0.9 * math.sqrt(rand())
        t = math.tau * rand()
        return complex(r * math.cos(t), r * math.sin(t))

    def combine(self, x, y, lam):
        # y1 = phi_x(y); the point at fraction lam of the ray to y1 goes back
        # by the inverse automorphism z -> (z + x) / (1 + conj(x) z)
        xc = x.conjugate()
        try:
            y1 = (y - x) / (1 - xc * y)
            r = abs(y1)
            if r == 0.0:
                return x
            m = math.tanh(lam * math.atanh(r)) * (y1 / r)
            return (m + x) / (1 + xc * m)
        except (ValueError, ZeroDivisionError):
            return _rim_combine(x, y, lam)

    def point_columns(self):
        return ["re", "im"]

    def point_row(self, x):
        z = complex(x)
        return (z.real, z.imag)


class StarTree(HyperbolicSpace):
    """A finite spider: ``rays`` segments of equal length glued at a hub.

    Points are ``(ray, offset)`` with 0 <= offset <= length; every ``(ray, 0)``
    is the hub.  Geodesics run within a ray or through the hub, so distances
    and combinations are exact case analyses.
    """

    def __init__(self, rays: int, length: float):
        if rays < 2:
            raise ArgumentError(f"star tree needs >= 2 rays, got {rays}")
        if not 0 < length < math.inf:
            raise ArgumentError(f"ray 'length' must be positive and finite, got {length}")
        self.rays = rays
        self.length = float(length)
        self.descriptor = {"kind": "star_tree", "rays": rays, "length": self.length}

    def distance(self, x, y):
        r1, o1 = x
        r2, o2 = y
        if r1 == r2:
            return abs(o1 - o2)
        return o1 + o2

    def contains(self, x):
        try:
            r, o = x
        except (TypeError, ValueError):
            return False
        return (
            isinstance(r, int)
            and 0 <= r < self.rays
            and -MEMBERSHIP_SLACK <= o <= self.length + MEMBERSHIP_SLACK
        )

    def sample(self, rng):
        n = r = self.rays
        while r >= n:
            r = rng.getrandbits(n.bit_length())
        return (r, self.length * rng.random())

    def combine(self, x, y, lam):
        r1, o1 = x
        r2, o2 = y
        if r1 == r2:
            return (r1, max(0.0, o1 + lam * (o2 - o1)))
        if o2 == 0.0:
            return (r1, (1.0 - lam) * o1)
        if o1 == 0.0:
            return (r2, lam * o2)
        t = lam * (o1 + o2)  # arclength traveled from x through the hub
        if t <= o1:
            return (r1, o1 - t)
        return (r2, min(t - o1, self.length))

    def point_columns(self):
        return ["ray", "offset"]

    def point_row(self, x):
        return (x[0], x[1])


class CircleSpace(Space):
    """Unit circle with the arc-length metric; points are angles in [0, 2*pi)."""

    def __init__(self):
        self.descriptor = {"kind": "circle"}

    def distance(self, x, y):
        d = abs(float(x) - float(y)) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d)

    def contains(self, x):
        try:
            return math.isfinite(float(x))
        except (TypeError, ValueError, OverflowError):
            return False

    def sample(self, rng):
        return math.tau * rng.random()


class BrokenW(HyperbolicSpace):
    """Demo wrapper that deliberately violates W2 by returning x regardless of lam."""

    def __init__(self, base: HyperbolicSpace):
        if not isinstance(base, HyperbolicSpace):
            raise ArgumentError(f"base {base.descriptor['kind']!r} has no combine operator")
        self.base = base
        self.descriptor = {"kind": "broken_w", "base": base.descriptor}

    def distance(self, x, y):
        return self.base.distance(x, y)

    def contains(self, x):
        return self.base.contains(x)

    def sample(self, rng):
        return self.base.sample(rng)

    def combine(self, x, y, lam):
        return x

    def point_columns(self):
        return self.base.point_columns()

    def point_row(self, x):
        return self.base.point_row(x)


class FamilyProduct(Space):
    """H = {(x, u) : u in M, x in fiber_of(u)} under the maximum metric;
    points are (x, u) pairs.

    All fibers are subsets of one ambient space, which supplies the first
    coordinate's metric (and combine operator, via slice_space).  Without
    ``fiber_of`` every fiber is the ambient space: the plain product C x M,
    described as such.  ``distance`` is exactly ``max`` of the component
    distances: no arithmetic happens beyond the component calls.
    """

    def __init__(self, right: Space, ambient: Space, fiber_of: Optional[Callable[[Point], Space]] = None, label: str = ""):
        self.right = right
        self.ambient = ambient
        if fiber_of is None:
            self.fiber_of = lambda u: ambient
            self.descriptor = {
                "kind": "product",
                "left": ambient.descriptor,
                "right": right.descriptor,
            }
        else:
            self.fiber_of = fiber_of
            self.descriptor = {
                "kind": "family_product",
                "right": right.descriptor,
                "ambient": ambient.descriptor,
                "family": label,
            }

    def slice_space(self, u: Point) -> Space:
        """The fiber over u."""
        return self.fiber_of(u)

    def distance(self, p, q):
        return max(self.ambient.distance(p[0], q[0]), self.right.distance(p[1], q[1]))

    def contains(self, p):
        try:
            x, u = p
        except (TypeError, ValueError):
            return False
        return self.right.contains(u) and self.fiber_of(u).contains(x)

    def sample(self, rng):
        # u first: the fiber x is drawn from depends on it
        u = self.right.sample(rng)
        return (self.fiber_of(u).sample(rng), u)

    def point_row(self, p):
        return tuple(self.ambient.point_row(p[0])) + tuple(self.right.point_row(p[1]))


def product(left: Space, right: Space) -> FamilyProduct:
    """Product of two spaces under the maximum metric: the family whose
    every fiber is ``left``."""
    return FamilyProduct(right, left)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def make_euclidean(n: int) -> EuclideanSpace:
    return EuclideanSpace(n)


def make_box(bounds: Sequence[tuple[float, float]]) -> EuclideanSpace:
    return EuclideanSpace(len(list(bounds)), bounds)


def make_interval(a: float, b: float) -> IntervalSpace:
    return IntervalSpace(a, b)


def make_real_line() -> IntervalSpace:
    return IntervalSpace(-math.inf, math.inf)


def make_half_line() -> IntervalSpace:
    return IntervalSpace(0.0, math.inf)


def make_poincare_disk() -> PoincareDisk:
    return PoincareDisk()


def make_star_tree(rays: int, length: float) -> StarTree:
    return StarTree(rays, length)


def make_circle() -> CircleSpace:
    return CircleSpace()


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

AXIOM_NAMES = (
    "metric_nonneg",
    "metric_identity",
    "metric_symmetry",
    "metric_triangle",
    "W1",
    "W2",
    "W3",
    "W4",
    "endpoints",
)


@dataclass
class AxiomResult:
    max_violation: float = 0.0
    counterexample: Optional[tuple] = None

    def passed(self, eta: float) -> bool:
        return self.max_violation <= eta


@dataclass
class AxiomReport:
    eta: float
    results: dict[str, AxiomResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed(self.eta) for r in self.results.values())

    def failures(self) -> list[str]:
        return [n for n, r in self.results.items() if not r.passed(self.eta)]

    def summary_lines(self) -> list[str]:
        lines = []
        for name in self.results:
            r = self.results[name]
            mark = "pass" if r.passed(self.eta) else "FAIL"
            lines.append(f"{name:16s} {mark}  max violation {r.max_violation:.3e}")
            if not r.passed(self.eta) and r.counterexample is not None:
                lines.append(f"{'':16s}       counterexample {r.counterexample!r}")
        return lines


def check_axioms(
    space: Space, samples: int, seed: int = 0, eta: float = DEFAULT_ETA
) -> AxiomReport:
    """Evaluate metric axioms (and W1-W4 when applicable) on random tuples.

    The report records, per axiom, the largest observed violation and the
    first sampled tuple exceeding ``eta``.  Two contracts hold:

    - The draws per tuple come in the order x, y, z, then (for a space with
      a combine operator) w, lam, lam2, all from ``random.Random(seed)``.
      The order is part of the output: the same seed gives the same report.
    - ``eta >= 0``.  Then a violation above ``eta`` that comes before any
      other also beats the running maximum (which starts at 0), so a
      witness tuple is built only on a new maximum.
    """
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    if not eta >= 0:
        raise ArgumentError(f"eta must be >= 0, got {eta!r}")
    rng = random.Random(seed)
    report = AxiomReport(eta=eta)
    has_w = isinstance(space, HyperbolicSpace)
    d, draw, rand = space.distance, space.sample, rng.random
    W = space.combine if has_w else None
    # running maximum and first witness per axiom, in AXIOM_NAMES order
    m0 = m1 = m2 = m3 = m4 = m5 = m6 = m7 = m8 = 0.0
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = c8 = None
    for _ in range(samples):
        x = draw(rng)
        y = draw(rng)
        z = draw(rng)
        dxy = d(x, y)
        dxz = d(x, z)
        dyz = d(y, z)
        v = -min(dxy, dxz, dyz)
        if v > m0:
            m0 = v
            if v > eta and c0 is None:
                c0 = (x, y, z)
        v = abs(d(x, x))
        if v > m1:
            m1 = v
            if v > eta and c1 is None:
                c1 = (x,)
        v = abs(dxy - d(y, x))
        if v > m2:
            m2 = v
            if v > eta and c2 is None:
                c2 = (x, y)
        v = dxz - (dxy + dyz)
        if v > m3:
            m3 = v
            if v > eta and c3 is None:
                c3 = (x, y, z)
        if W is None:
            continue
        w = draw(rng)
        lam = rand()
        lam2 = rand()
        cxy = W(x, y, lam)
        v = d(z, cxy) - ((1 - lam) * dxz + lam * dyz)
        if v > m4:
            m4 = v
            if v > eta and c4 is None:
                c4 = (x, y, z, lam)
        v = abs(d(cxy, W(x, y, lam2)) - abs(lam - lam2) * dxy)
        if v > m5:
            m5 = v
            if v > eta and c5 is None:
                c5 = (x, y, lam, lam2)
        v = d(cxy, W(y, x, 1.0 - lam))
        if v > m6:
            m6 = v
            if v > eta and c6 is None:
                c6 = (x, y, lam)
        v = d(W(x, z, lam), W(y, w, lam)) - ((1 - lam) * dxy + lam * d(z, w))
        if v > m7:
            m7 = v
            if v > eta and c7 is None:
                c7 = (x, y, z, w, lam)
        v = max(d(W(x, y, 0.0), x), d(W(x, y, 1.0), y))
        if v > m8:
            m8 = v
            if v > eta and c8 is None:
                c8 = (x, y)
    found = zip((m0, m1, m2, m3, m4, m5, m6, m7, m8), (c0, c1, c2, c3, c4, c5, c6, c7, c8))
    for name, (top, witness) in zip(AXIOM_NAMES if has_w else AXIOM_NAMES[:4], found):
        report.results[name] = AxiomResult(top, witness)
    return report
