"""Uniform approximate-fixed-point moduli and their converters.

A UAFPP modulus D(eps, b) promises: any point with residual at most b has an
eps-fixed point within distance D.  A regularity modulus N(eps, b) promises:
averaged orbits started within b of a comparison point have residual at most
eps from index N on.  The two are interconvertible; the direction that goes
through the rate machinery doubles eps, and that factor is carried openly
rather than absorbed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import ArgumentError, BudgetExhausted, InvariantError
from .km import NonexpansiveMap, Schedule, _km_walk
from .rates import as_fraction, fmt_number, rate_h
from .spaces import DEFAULT_ETA, Point, Space

#: literal KM runs refuse beyond this many steps unless an early-exit
#: tolerance makes shorter runs sound.
WITNESS_STEP_CAP = 1_000_000


@dataclass(frozen=True)
class UafppModulus:
    """D_of(eps, b): how far an eps-fixed point can be from a point whose
    own residual is at most b."""

    D_of: Callable
    label: str = ""

    def __call__(self, eps, b):
        eps, b = as_fraction(eps), as_fraction(b)
        if eps <= 0 or b <= 0:
            raise ArgumentError("eps and b must be positive")
        return self.D_of(eps, b)


@dataclass(frozen=True)
class RegularityModulus:
    """N_of(eps, b): index from which orbit residuals stay at most eps,
    uniformly over starts within b of a comparison point."""

    N_of: Callable
    label: str = ""
    eps_factor: int = 1

    def __call__(self, eps, b) -> int:
        eps, b = as_fraction(eps), as_fraction(b)
        if eps <= 0 or b <= 0:
            raise ArgumentError("eps and b must be positive")
        n = self.N_of(eps, b)
        return max(0, int(n))


def uafpp_to_regularity(phi: UafppModulus, sched: Schedule) -> RegularityModulus:
    """N(eps, b) := rate_h(eps, max(b, D(eps, b)), K, alpha).

    The nearby eps-fixed point promised by phi serves as the comparison
    point; its own residual costs one extra eps, so the returned modulus
    guarantees residual <= 2*eps from index N on (eps_factor records the 2).
    """

    def N_of(eps, b):
        D = as_fraction(phi(eps, b))
        return rate_h(eps, max(as_fraction(b), D), sched.K, sched.alpha)

    return RegularityModulus(
        N_of=N_of,
        label=f"regularity-from-displacement[{phi.label}]",
        eps_factor=2,
    )


def regularity_to_uafpp(R: RegularityModulus, sched: Schedule) -> UafppModulus:
    """D(eps, b) := b * sum of the first N(eps, b) step sizes.

    The orbit from any point with residual <= b moves at most lam_i * b per
    step (residuals are nonincreasing), so x_N itself is the witness and
    lies within this D; km_witness produces it.
    """

    def D_of(eps, b):
        N = R(eps, b)
        if N == 0:
            return Fraction(0)
        return as_fraction(b) * sched.partial_sum(N - 1)

    return UafppModulus(D_of=D_of, label=f"displacement-from-regularity[{R.label}]")


@dataclass(frozen=True)
class WitnessRun:
    point: Point
    steps: int
    residual: float
    early_exit: bool


def km_witness(
    space,
    T: Callable,
    x0: Point,
    sched: Schedule,
    N: int,
    stop_eps: Optional[float] = None,
) -> WitnessRun:
    """The orbit point x_N, or the first earlier iterate whose residual is
    already <= stop_eps.

    The early exit is sound for the displacement modulus: residuals are
    nonincreasing, and partial sums only grow, so x_j for j <= N satisfies
    both clauses whenever its residual does.  Runs that would need more than
    WITNESS_STEP_CAP literal steps are refused unless stop_eps is given.
    """
    if N > WITNESS_STEP_CAP and stop_eps is None:
        raise ArgumentError(
            f"witness at N={fmt_number(N)} needs more than {WITNESS_STEP_CAP} literal "
            "steps; pass stop_eps to allow a sound early exit"
        )
    stop = -math.inf if stop_eps is None else stop_eps
    x, steps, r = _km_walk(space, T, x0, sched, min(N, WITNESS_STEP_CAP), stop_eps=stop)
    if steps == N:
        return WitnessRun(point=x, steps=N, residual=r, early_exit=False)
    if not r <= stop:
        raise BudgetExhausted(
            r, f"witness run exceeded {WITNESS_STEP_CAP} steps with residual {r:.6g}"
        )
    return WitnessRun(point=x, steps=steps, residual=r, early_exit=True)


# ---------------------------------------------------------------------------
# Banach contractions
# ---------------------------------------------------------------------------


def banach_ufpp_modulus(k, b) -> Fraction:
    """D = b / (1 - k): a k-contraction moves any point with residual <= b
    at most geometrically far before fixing, so the fixed point itself is
    the witness at every eps."""
    k, b = as_fraction(k), as_fraction(b)
    if not 0 < k < 1:
        raise ArgumentError(f"contraction constant must lie in (0,1), got {k}")
    if b <= 0:
        raise ArgumentError(f"b must be positive, got {b}")
    return b / (1 - k)


@dataclass(frozen=True)
class BanachRun:
    point: Point
    steps: int
    residual: float
    initial_residual: float
    certified_bound: float


def banach_fixed_point(T: NonexpansiveMap, x: Point, k, tol) -> BanachRun:
    """Picard iteration until the residual drops to (1-k)*tol, so the true
    fixed point is within tol of the answer.

    Each step's residual must contract by the claimed factor (the ratio
    test); a violation means k was not a valid contraction constant and is
    an argument error.  The returned point is certified to lie within
    initial_residual/(1-k) of the start, the displacement bound behind
    banach_ufpp_modulus.
    """
    kf = float(as_fraction(k))
    tolf = float(as_fraction(tol))
    if not 0 < kf < 1:
        raise ArgumentError(f"contraction constant must lie in (0,1), got {k}")
    if tolf <= 0:
        raise ArgumentError(f"tolerance must be positive, got {tol}")
    space = T.domain
    target = (1 - kf) * tolf
    r0 = space.distance(x, T(x))
    if not math.isfinite(r0):
        raise ArgumentError(f"initial residual {r0} is not finite")
    if r0 <= target:
        return BanachRun(x, 0, r0, r0, r0 / (1 - kf))
    # residuals shrink by k per step, so this many always suffice
    cap = math.ceil(math.log(target / r0) / math.log(kf)) + 2
    cur, r = x, r0
    for n in range(cap):
        nxt = T(cur)
        r_next = space.distance(nxt, T(nxt))
        if not (r_next <= kf * r + DEFAULT_ETA):
            raise ArgumentError(
                f"ratio test failed at step {n}: residual {r_next:.6g} is not <= "
                f"k * {r:.6g}; {k} is not a contraction constant for this map"
            )
        cur, r = nxt, r_next
        if r <= target:
            bound = r0 / (1 - kf)
            if not (space.distance(x, cur) <= bound + DEFAULT_ETA):
                raise InvariantError(
                    "displacement exceeded its geometric-series bound"
                )
            return BanachRun(cur, n + 1, r, r0, bound)
    raise BudgetExhausted(r, f"contraction run missed its own step bound {cap}")


def banach_orbit_bound(k, n: int, r0) -> float:
    """k^n/(1-k) * r0: distance from the n-th Picard iterate to the fixed
    point, given initial residual r0."""
    kf = float(as_fraction(k))
    if not 0 < kf < 1:
        raise ArgumentError(f"contraction constant must lie in (0,1), got {k}")
    if n < 0:
        raise ArgumentError(f"n must be a natural, got {n}")
    return kf**n / (1 - kf) * float(r0)


# ---------------------------------------------------------------------------
# boundedness and empirical certification
# ---------------------------------------------------------------------------


@dataclass
class GkReport:
    samples: int
    bound: float
    max_distance: float
    first_violation: Optional[tuple]
    ok: bool


def gk_boundedness_check(
    C: Space, D1, samples: int
) -> GkReport:
    """A uniform displacement modulus D1 at tolerance 1 forces the whole set
    inside diameter 2*D1+1.

    Taking T constantly y: some y* is within D1 of x with residual
    d(y*, y) <= 1, so d(x, y) <= D1 + 1 + D1.  Sampled pairs farther apart
    than that refute the claim; an unbounded set always yields one.
    """
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    bound = 2 * float(as_fraction(D1)) + 1
    rng = random.Random(0)
    worst, violation = -math.inf, None
    for _ in range(samples):
        x, y = C.sample(rng), C.sample(rng)
        d = C.distance(x, y)
        if not (d <= worst or math.isnan(worst)):  # the first nan stays the max
            worst = d
        if not (d <= bound) and violation is None:
            violation = (x, y)
    return GkReport(
        samples=samples,
        bound=bound,
        max_distance=worst,
        first_violation=violation,
        ok=violation is None,
    )


@dataclass
class UafppCheckReport:
    samples: int
    eligible: int
    failures: list
    ok: bool

    def summary(self) -> str:
        head = (
            f"{self.eligible} of {self.samples} sampled starts had residual "
            "within b"
        )
        if self.ok:
            return head + "; every witness met both clauses"
        label, x, clause, value, bound = self.failures[0]
        found = repr(value) if bound is None else f"{fmt_number(value)} > {fmt_number(bound)}"
        return (
            head
            + f"; {len(self.failures)} failures, first on {label} at x={x!r}:"
            f" {clause} {found}"
        )


def check_uafpp_empirically(
    space: Space,
    entries: Sequence[tuple],
    eps,
    b,
    phi: UafppModulus,
    samples: int = 50,
    seed: int = 0,
) -> UafppCheckReport:
    """Test a claimed displacement modulus against live witness producers.

    entries pair each map with a probe(T, x) -> x*.  For sampled starts whose
    residual is within b, the probe's candidate must lie in space, sit within
    D(eps, b) of the start and have residual at most eps.  Failures are
    listed, not raised: refuting a bad modulus is a supported outcome.
    """
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    epsf = float(as_fraction(eps))
    bf = float(as_fraction(b))
    # D may be an astronomically large exact rational; never force it to
    # float (mixed float/Fraction comparisons below are exact anyway)
    D_slack = as_fraction(phi(eps, b)) + as_fraction(DEFAULT_ETA)
    rng = random.Random(seed)
    total = eligible = 0
    failures = []
    for T, probe in entries:
        for _ in range(samples):
            x = space.sample(rng)
            total += 1
            if space.distance(x, T(x)) > bf:
                continue
            eligible += 1
            xstar = probe(T, x)
            if not space.contains(xstar):
                failures.append((T.label, x, "witness outside the space", xstar, None))
                continue
            dx = space.distance(x, xstar)
            rstar = space.distance(xstar, T(xstar))
            if not (dx <= D_slack):
                failures.append((T.label, x, "displacement", dx, D_slack))
            if not (rstar <= epsf + DEFAULT_ETA):
                failures.append((T.label, x, "witness residual", rstar, epsf))
    return UafppCheckReport(
        samples=total, eligible=eligible, failures=failures, ok=not failures
    )


def modulus_table(
    modulus, eps_values: Sequence, b_values: Sequence
) -> list[tuple[str, str, str]]:
    """Evaluate a modulus on a grid, formatted for stable text output."""
    return [
        (*(fmt_number(as_fraction(v), ".17g") for v in (eps, b)), _bound_text(modulus(eps, b)))
        for eps in eps_values
        for b in b_values
    ]


def _bound_text(v) -> str:
    """fmt_number's text of a value v >= 0, save that ~10^N, which may be
    below v, becomes 10^k for the least integer k with v <= 10^k."""
    text = fmt_number(v, ".17g")
    if not text.startswith("~"):
        return text
    n = int(text[4:])  # 10^n <= v < 10^(n + 1), where n >= 50
    # only a multiple of 10^50 can be 10^n, so the power is seldom built
    return f"10^{n if v % 10**50 == 0 and v == 10**n else n + 1}"
