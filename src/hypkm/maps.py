"""Nonexpansive maps, product maps with slices, and derived maps.

Nonexpansiveness (distance never increases) is treated as a falsifiable
claim, never a certified property: maps are black boxes, so the module
offers random-search falsification and the shipped catalog entries carry
analytic arguments in their docstrings instead.  The map type,
`NonexpansiveMap`, is defined in `km`, whose walk unwraps it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ArgumentError, DomainError
from .km import NonexpansiveMap, Schedule, km_orbit_end, require_valid_schedule
from .spaces import DEFAULT_ETA, EuclideanSpace, IntervalSpace, Point, Space


#: a selection function is shaped exactly like a nonexpansive map: domain is
#: the parameter space, values land in the (u-dependent) first factor.
SelectionFunction = NonexpansiveMap

#: a product map is a claimed d-infinity-nonexpansive self-map of a
#: ``spaces.FamilyProduct``: its ``domain`` exposes ``right`` (the parameter
#: factor), ``slice_space(u)`` (the fiber the first coordinate lives in) and
#: the product distance.  It is given either as a pair function ``fn``
#: alone, or by `product_map` from its slice and its parameter coordinate,
#: with the pair function derived from them; every catalog product map is
#: given the second way.
ProductMap = NonexpansiveMap


def product_map(
    dom: Space,
    slice_of: Callable[[Point], Callable[[Point], Point]],
    param: Callable[[Point, Point], Point],
    label: str,
) -> ProductMap:
    """T(x, u) = (slice_of(u)(x), param(x, u)): each coordinate written
    once, and the pair function built from the two."""
    return ProductMap(
        dom, lambda p: (slice_of(p[1])(p[0]), param(p[0], p[1])), label, slice_of
    )


def slice_fn(T: ProductMap, u: Point) -> Callable[[Point], Point]:
    """x -> first coordinate of T(x, u): T's own slice if it gives one,
    else the projection of its pair function."""
    if T.slice_of is not None:
        return T.slice_of(u)
    return lambda x: T.fn((x, u))[0]


def slice_map(T: ProductMap, u: Point) -> NonexpansiveMap:
    """Freeze the parameter: x -> first coordinate of T(x, u), through
    `slice_fn`: a product map that gives its slice is walked through it,
    with no pair built per step.

    Nonexpansiveness is inherited from T (the parameter pair contributes 0
    to the product distance) but is still only a claim, tested not assumed.
    """
    _require_parameter(T, u)
    return NonexpansiveMap(
        domain=T.domain.slice_space(u),
        fn=slice_fn(T, u),
        label=f"{T.label or 'T'}[u={u!r}]",
    )


def _require_parameter(T: ProductMap, u: Point) -> None:
    if not T.domain.right.contains(u):
        raise DomainError(f"parameter {u!r} is not a member of {T.domain.right!r}")


def phi(
    T: ProductMap,
    delta: SelectionFunction,
    sched: Schedule,
    n: int,
    memo: Optional[dict] = None,
) -> NonexpansiveMap:
    """The parameter-space map u -> second coordinate of T(x_n(u), u), where
    x_n(u) is the n-th averaged iterate of the slice `slice_fn(T, u)` started
    at delta(u), once u passes `slice_map`'s membership check.

    Its nonexpansiveness is a consequence of the slice stability of averaged
    iterations; property tests check it, the code does not assume it.  The
    optional ``memo`` dict caches orbits by (u, n) and must behave as if
    absent (pure read-through).
    """
    if n < 0:
        raise ArgumentError(f"iterate index must be a natural, got {n}")
    require_valid_schedule(sched, n)
    M = T.domain.right

    def fn(u):
        key = (u, n)
        if memo is not None and key in memo:
            xu = memo[key]
        else:
            fiber = T.domain.slice_space(u)
            _require_parameter(T, u)
            xu = km_orbit_end(fiber, slice_fn(T, u), delta(u), sched, n)
            if memo is not None:
                memo[key] = xu
        return T.fn((xu, u))[1]

    return NonexpansiveMap(domain=M, fn=fn, label=f"phi_{n}[{T.label or 'T'}]")


@dataclass(frozen=True)
class Counterexample:
    x: Point
    y: Point
    dxy: float
    d_images: float


def falsify_nonexpansive(
    f: NonexpansiveMap, trials: int, seed: int = 0
) -> Optional[Counterexample]:
    """Search sampled pairs for a distance increase beyond DEFAULT_ETA; None
    if the claim survives."""
    if trials < 1:
        raise ArgumentError("trials must be >= 1")
    rng = random.Random(seed)
    d = f.domain.distance
    for _ in range(trials):
        x = f.domain.sample(rng)
        y = f.domain.sample(rng)
        dxy = d(x, y)
        dim = d(f(x), f(y))
        if not (dim <= dxy + DEFAULT_ETA):
            return Counterexample(x, y, dxy, dim)
    return None


# ---------------------------------------------------------------------------
# catalog: single-factor maps
# ---------------------------------------------------------------------------


def identity_map(space: Space) -> NonexpansiveMap:
    return NonexpansiveMap(space, lambda x: x, "identity")


def constant_map(space: Space, c: Point) -> NonexpansiveMap:
    """x -> c; distances between images are 0, so trivially nonexpansive."""
    if not space.contains(c):
        raise DomainError(f"constant {c!r} is not a member of {space!r}")
    return NonexpansiveMap(space, lambda x: c, f"constant({c!r})")


def interval_affine(space: IntervalSpace, slope, intercept) -> NonexpansiveMap:
    """x -> slope*x + intercept; nonexpansive iff |slope| <= 1 (claimed, and
    falsifiable when violated)."""
    a, b = float(slope), float(intercept)
    return NonexpansiveMap(space, lambda x: a * x + b, f"affine({a}x+{b})")


def clamped_translation(space: IntervalSpace, shift) -> NonexpansiveMap:
    """x -> clamp(x + shift) into the interval; nonexpansive because both the
    translation and the clamp are."""
    t = float(shift)
    lo, hi = space.a, space.b

    def fn(x):
        return min(max(x + t, lo), hi)

    return NonexpansiveMap(space, fn, f"clamped_translation({t})")


def affine_map(space: EuclideanSpace, matrix, offset) -> NonexpansiveMap:
    """x -> M x + t on tuples; nonexpansive iff the operator norm of M is
    <= 1 (claimed by the caller).

    Coordinate i is ``sum(M[i][j] * x[j] for j) + t[i]``, summed left to
    right from the int 0 as ``sum`` does.  For dim 2 the map is the
    unrolled ``(0 + a*x[0] + b*x[1] + t0, 0 + c*x[0] + d*x[1] + t1)``, built
    once here: the same operations in the same order, so the same bits, and
    the leading ``0 +`` keeps ``sum``'s signed zero (0 + -0.0 is 0.0).
    Points are indexed, as the generic form indexes them.
    """
    rows = [tuple(float(v) for v in row) for row in matrix]
    t = tuple(float(v) for v in offset)
    if len(rows) != space.dim or any(len(r) != space.dim for r in rows) or len(t) != space.dim:
        raise ArgumentError("matrix/offset shape must match the dimension")
    label = f"affine({rows}, {t})"
    if space.dim == 2:
        (a, b), (c, d) = rows
        t0, t1 = t

        def fn2(x):
            return (0 + a * x[0] + b * x[1] + t0, 0 + c * x[0] + d * x[1] + t1)

        return NonexpansiveMap(space, fn2, label)
    return NonexpansiveMap(space, _affine_generic(rows, t), label)


def _affine_generic(rows: list, t: tuple) -> Callable[[Point], Point]:
    """x -> M x + t for any dimension: the reference form of affine_map."""

    def fn(x):
        return tuple(
            sum(r[j] * x[j] for j in range(len(r))) + t[i]
            for i, r in enumerate(rows)
        )

    return fn


# ---------------------------------------------------------------------------
# catalog: product maps
# ---------------------------------------------------------------------------


def coupled_average(dom: Space) -> ProductMap:
    """T(x, u) = ((x+u)/2, x) on a scalar product such as [0,1] x [0,1].

    d-infinity-nonexpansive: the first coordinate moves by at most the mean
    of the coordinate moves, the second copies the first input.  Every
    diagonal point (x, x) is fixed.
    """
    return product_map(dom, lambda u: lambda x: (x + u) / 2.0, lambda x, u: x, "coupled_average")


def constant_pair(dom: Space, c: Point, m: Point) -> ProductMap:
    """T(x, u) = (c, m)."""
    if not dom.contains((c, m)):
        raise DomainError(f"({c!r}, {m!r}) is not a member of {dom!r}")
    return product_map(dom, lambda u: lambda x: c, lambda x, u: m, f"constant_pair({c!r},{m!r})")


def clamped_drop(dom: Space, drop: float = 1.0) -> ProductMap:
    """T(x, u) = (max(x - drop, 0), u) on a nonnegative scalar first factor.

    Each slice walks toward 0 and fixes it; the parameter is untouched.
    """
    d = float(drop)
    return product_map(dom, lambda u: lambda x: max(x - d, 0.0), lambda x, u: u, f"clamped_drop({d})")


def unit_drift(dom: Space) -> ProductMap:
    """T(x, u) = (x + 1, u) on an unbounded scalar first factor.

    Every slice is a unit translation: displacement is identically 1, which
    is also the infimum, so the product residual cannot go below 1.
    """
    return product_map(dom, lambda u: lambda x: x + 1.0, lambda x, u: u, "unit_drift")


def scaled_coupling(dom: Space, scale: float, shift: float) -> ProductMap:
    """T(x, u) = (scale*(x+u)/2 + shift, (x+u)/2) with |scale| <= 1.

    Both coordinates move by at most max(|dx|, |du|), giving a family of
    d-infinity-nonexpansive maps for stability tests; the caller keeps the
    image inside the domain via the parameters.
    """
    s, t = float(scale), float(shift)
    if abs(s) > 1.0:
        raise ArgumentError(f"|scale| must be <= 1, got {s}")
    return product_map(
        dom, lambda u: lambda x: s * ((x + u) / 2.0) + t, lambda x, u: (x + u) / 2.0,
        f"scaled_coupling({s},{t})",
    )


def family_halving(dom: Space) -> ProductMap:
    """T(x, u) = (min(x, 1+u)/2, u) for fibers [0, 1+u]: the image lies in
    [0, (1+u)/2], safely inside every fiber."""
    return product_map(dom, lambda u: lambda x: min(x, 1.0 + u) / 2.0, lambda x, u: u, "family_halving")


def family_drift(dom: Space) -> ProductMap:
    """T(x, u) = (x + u, u): deliberately violates fiber invariance for
    fibers [0, 1+u] (e.g. x=1.5, u=0.1 maps to 1.6 > 1.1)."""
    return product_map(dom, lambda u: lambda x: x + u, lambda x, u: u, "family_drift")
