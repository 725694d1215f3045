"""Averaged iteration of nonexpansive maps with witnessed step schedules.

The iteration is x_{n+1} = W(x_n, T(x_n), lam_n): move a fraction lam_n of
the way from the current point toward its image.  A schedule carries two
witnesses beside the step sizes: K caps them away from 1 (lam_n <= 1 - 1/K)
and alpha certifies divergence of their sums (n <= sum_{i<=alpha(n)} lam_i).
Both clauses are the hard preconditions of the rate bounds in `rates`.

Every orbit in the package is walked by the one loop `_km_walk`, with the
same domain checks, reading its steps from `Schedule.float_steps`.  Under a
constant schedule the loop ends once the orbit is stationary (an iterate
repeats its predecessor bit for bit) and fills in the rest of the orbit,
which then repeats; this relies on every map being a function of its
argument.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .errors import ArgumentError, DomainError, DomainEscapeError, ScheduleError
from .rates import AlphaFn, alpha_scale_ceil, alpha_table, as_fraction, require_alpha_fn
from .spaces import DEFAULT_ETA, HyperbolicSpace, Point, Space

#: beyond this many terms, partial sums fall back from exact rationals to
#: compensated float summation (with an explicit slack in comparisons).
EXACT_SUM_CAP = 5_000

#: hard cap on summation length inside validation.
SUM_TERM_CAP = 1_000_000


@dataclass
class Schedule:
    """Step sizes lam: nat -> [0,1) plus the witnesses (K, alpha).

    ``lam`` must return exact Fractions; constructors below guarantee it.
    Treat instances as immutable; the only mutable member is the cache of
    exact partial sums, which behaves as if absent.
    """

    lam: Callable[[int], Fraction]
    K: int
    alpha: AlphaFn
    label: str = ""
    constant: Optional[Fraction] = None  # set when lam is constant: O(1) sums
    # starts empty on every instance, dataclasses.replace included
    _cums: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_alpha_fn(self.alpha)

    def lam_at(self, n: int) -> Fraction:
        v = self.lam(n)
        if not isinstance(v, Fraction):
            v = as_fraction(v)
        return v

    def lam_float(self, n: int) -> float:
        return float(self.lam_at(n))

    def float_steps(self) -> Iterator[float]:
        """lam_0, lam_1, ... as floats, converted lazily, one per step drawn.
        A constant schedule repeats one float."""
        if self.constant is not None:
            return itertools.repeat(float(self.constant))
        return (float(self.lam_at(k)) for k in itertools.count())

    def partial_sum(self, m: int) -> Union[Fraction, float]:
        """sum_{i=0}^{m} lam_i; exact Fraction when affordable, float beyond.

        Callers must treat a float return as carrying summation error; see
        validate_schedule for the slack policy.
        """
        if m < 0:
            raise ArgumentError(f"partial sums start at m=0, got {m}")
        if self.constant is not None:
            return (m + 1) * self.constant
        if m < EXACT_SUM_CAP:
            while len(self._cums) <= m:
                i = len(self._cums)
                prev = self._cums[-1] if self._cums else Fraction(0)
                self._cums.append(prev + self.lam_at(i))
            return self._cums[m]
        if m > SUM_TERM_CAP:
            raise ArgumentError(
                f"partial sum of {m + 1} terms exceeds the summation cap"
            )
        return math.fsum(float(self.lam_at(i)) for i in range(m + 1))


def constant_schedule(value, K: Optional[int] = None, alpha: Optional[AlphaFn] = None) -> Schedule:
    """Constant steps lam == value in (0,1), with derived default witnesses.

    Defaults: K is the least natural with value <= 1 - 1/K; alpha(n) =
    ceil(n/value), which satisfies the sum clause since (alpha(n)+1)*value
    >= n + value.
    """
    v = as_fraction(value)
    if not 0 < v < 1:
        raise ArgumentError(f"constant step must lie in (0,1), got {v}")
    if K is None:
        K = math.ceil(1 / (1 - v))
    if alpha is None:
        alpha = alpha_scale_ceil(1 / v)
    return Schedule(
        lam=lambda n, _v=v: _v,
        K=K,
        alpha=alpha,
        label=f"constant({v})",
        constant=v,
    )


def harmonic_schedule(offset: int = 2, K: Optional[int] = None, alpha: Optional[AlphaFn] = None, alpha_horizon: int = 6) -> Schedule:
    """Steps lam_n = 1/(n+offset), offset >= 2.

    The sum witness defaults to a table of minimal indices computed by exact
    summation, covering n <= alpha_horizon; the table clamps beyond that, so
    validate only up to the covered horizon.
    """
    if offset < 2:
        raise ArgumentError(f"offset must be >= 2 so steps stay below 1, got {offset}")
    if K is None:
        K = math.ceil(Fraction(offset, offset - 1))
    lam = lambda n, _o=offset: Fraction(1, n + _o)
    if alpha is None:
        alpha = tabulate_alpha(lam, alpha_horizon)
    return Schedule(lam=lam, K=K, alpha=alpha, label=f"harmonic(offset={offset})")


def tabulate_alpha(lam: Callable[[int], Fraction], max_n: int) -> AlphaFn:
    """Minimal sum-divergence witness for the steps lam, tabulated for
    n <= max_n.

    Entry n is the least m with sum_{i<=m} lam_i >= n, found by exact
    rational accumulation.  Raises if EXACT_SUM_CAP terms do not cover max_n.
    """
    values = []
    total = Fraction(0)
    m = -1
    for n in range(max_n + 1):
        while total < n:
            m += 1
            if m >= EXACT_SUM_CAP:
                raise ScheduleError(
                    f"witness table needs more than {EXACT_SUM_CAP} exact terms "
                    f"to cover n={n}"
                )
            total += as_fraction(lam(m))
        values.append(max(m, 0))
    return alpha_table(values)


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------

#: absolute slack granted per term when a partial sum was computed in floats.
FLOAT_SUM_SLACK = 2.0**-50


@dataclass
class ScheduleViolation:
    n: int
    clause: str  # "lambda_range" | "lambda_cap" | "sum_witness"
    detail: str


@dataclass
class ScheduleReport:
    horizon: int
    valid: bool
    first_violation: Optional[ScheduleViolation]
    notes: list[str]

    def summary(self) -> str:
        if self.valid:
            return f"valid up to horizon {self.horizon}"
        v = self.first_violation
        return f"invalid at n={v.n}: {v.clause} ({v.detail})"


def validate_schedule(sched: Schedule, horizon: int) -> ScheduleReport:
    """Check both witness clauses for all n <= horizon; report the first
    violation.  Comparisons are exact wherever the sums are exact.

    Closed form: a constant schedule (``sched.constant`` an exact Fraction v
    with 0 <= v < 1 and v <= 1 - 1/K) whose witness is the linear catalog
    alpha(n) = ceil(c*n) (identity, double and scale_ceil(c)) with c*v >= 1
    is valid at every horizon, so it is reported valid without a loop:
    alpha(n) is a natural and (ceil(c*n) + 1)*v >= c*v*n + v > n.  Every
    other schedule is checked n by n, and that loop alone finds and words a
    violation.
    """
    if horizon < 0:
        raise ArgumentError(f"horizon must be a natural, got {horizon}")
    notes: list[str] = []
    cap = 1 - Fraction(1, sched.K)
    v, alpha = sched.constant, sched.alpha
    if isinstance(v, Fraction) and 0 <= v < 1 and v <= cap:
        if alpha.table is None and alpha.c * v >= 1:
            return ScheduleReport(horizon, True, None, notes)
    float_mode_seen = False

    def violation(n: int, clause: str, detail: str) -> ScheduleReport:
        return ScheduleReport(horizon, False, ScheduleViolation(n, clause, detail), notes)

    for n in range(horizon + 1):
        lam_n = sched.lam_at(n)
        if not 0 <= lam_n < 1:
            return violation(n, "lambda_range", f"lam_{n}={lam_n} outside [0,1)")
        if lam_n > cap:
            return violation(n, "lambda_cap", f"lam_{n}={lam_n} > 1-1/K={cap}")
        a_n = sched.alpha(n)
        s = sched.partial_sum(a_n)
        if isinstance(s, float):
            slack = (a_n + 1) * FLOAT_SUM_SLACK
            ok = n <= s - slack
            if not float_mode_seen:
                notes.append(
                    "partial sums beyond the exact cap use float summation "
                    f"with slack {slack:.3e} per comparison"
                )
                float_mode_seen = True
        else:
            ok = n <= s
        if not ok:
            return violation(n, "sum_witness", f"sum of lam_0..lam_{a_n} = {float(s):.6g} < n = {n}")
    return ScheduleReport(horizon, True, None, notes)


def require_valid_schedule(sched: Schedule, horizon: int) -> None:
    """Raise ScheduleError unless both clauses hold for all n <= horizon."""
    report = validate_schedule(sched, horizon)
    if not report.valid:
        raise ScheduleError(report.summary())


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


@dataclass
class ResidualTrace:
    """Orbit x_0..x_N with residual rho(x_n, T(x_n)) at every index."""

    space: Space
    points: list
    residuals: list[float]
    schedule_label: str = ""

    def __len__(self) -> int:
        return len(self.points)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def csv_lines(self, meta: Optional[dict] = None) -> list[str]:
        """`n,residual,<point columns>` rows at 17 significant digits.

        ``meta`` entries become leading `# key=value` comment lines.  Every
        row is ``"%d,%.17g" + ",%.17g" * columns`` applied to (n, residual,
        *point_row): ``%.17g`` writes the same text as ``format(v, ".17g")``
        for floats and ints, and round-trips every float.
        """
        lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
        columns = self.space.point_columns()
        lines.append("n,residual," + ",".join(columns))
        row = "%d,%.17g" + ",%.17g" * len(columns)
        point_row = self.space.point_row
        lines.extend(
            row % (n, r, *point_row(p))
            for n, (p, r) in enumerate(zip(self.points, self.residuals))
        )
        return lines


def _km_walk(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    n: int,
    points: Optional[list] = None,
    residuals: Optional[list] = None,
    stop_eps: Optional[float] = None,
) -> tuple:
    """The averaged iteration: up to n steps from x0, evaluating T once per
    step until the orbit is stationary under a constant schedule.  An image
    or iterate outside the space raises DomainEscapeError naming the step:
    escaping iterates would silently falsify nonexpansiveness, so they are
    never clamped.  Iterates x_1.. go to ``points`` and residuals
    rho(x_k, T(x_k)) to ``residuals`` when given; with ``stop_eps`` the walk
    stops at the first x_k (k < n) with residual <= stop_eps.  Returns
    (x_k, k, r): where it stopped, and the residual there if ``residuals``
    or ``stop_eps`` asked for residuals (else None).  A NonexpansiveMap is
    called through its ``fn``, as its ``__call__`` does.

    Stationary exit: under a constant schedule one step x -> W(x, T(x), lam)
    is a fixed function of x, since T is a function of its argument.  Once
    an iterate repeats its predecessor bit for bit (``==`` and the same
    ``repr``, so -0.0 and 0.0 differ), every later point, image and residual
    repeats too: no later domain check can fail and ``stop_eps`` cannot
    fire.  The walk then pads ``points`` and ``residuals`` to index n and
    returns (x, n, r) exactly as the remaining steps would.  Other schedules
    walk every step: a repeat under one step size says nothing about the
    next (a zero step repeats every point).
    """
    if n < 0:
        raise ArgumentError(f"step count must be a natural, got {n}")
    from .maps import NonexpansiveMap  # maps imports this module

    if type(T) is NonexpansiveMap:
        T = T.fn  # its __call__ is fn: one frame less per step
    contains, distance, combine = space.contains, space.distance, space.combine
    if not contains(x0):
        raise DomainError(f"start {x0!r} is not a member of {space!r}")
    track = residuals is not None or stop_eps is not None
    constant = sched.constant is not None
    x, r = x0, None
    for k, lam in zip(range(n), sched.float_steps()):
        Tx = T(x)
        if not contains(Tx):
            raise DomainEscapeError(k, Tx)
        if track:
            r = distance(x, Tx)
            if residuals is not None:
                residuals.append(r)
            if stop_eps is not None and r <= stop_eps:
                return x, k, r
        y = combine(x, Tx, lam)
        if not contains(y):
            raise DomainEscapeError(k, y)
        if points is not None:
            points.append(y)
        if constant and y == x and repr(y) == repr(x):
            if points is not None:
                points.extend(itertools.repeat(x, n - k - 1))
            if residuals is not None:
                residuals.extend(itertools.repeat(r, n - k))
            return x, n, r
        x = y
    if track:
        Tx = T(x)
        if not contains(Tx):
            raise DomainEscapeError(n, Tx)
        r = distance(x, Tx)
        if residuals is not None:
            residuals.append(r)
    return x, n, r


def km_iterate(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    N: int,
    validate: bool = True,
) -> ResidualTrace:
    """Run N averaged steps from x0, recording every point and residual."""
    if validate:
        require_valid_schedule(sched, N)
    points, residuals = [x0], []
    _km_walk(space, T, x0, sched, N, points=points, residuals=residuals)
    return ResidualTrace(space, points, residuals, sched.label)


def km_orbit_end(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    n: int,
) -> Point:
    """The n-th iterate only, without building a trace or validating the
    schedule."""
    return _km_walk(space, T, x0, sched, n)[0]


def estimate_residual_inf(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    N: int,
) -> float:
    """Upper estimate of the infimum displacement inf_x rho(x, T(x)).

    Returns the final residual of a length-N orbit; residuals along an
    averaged iteration are nonincreasing and converge to the infimum, so the
    estimate improves monotonically with N.
    """
    return km_iterate(space, T, x0, sched, N).final_residual


def residuals_nonincreasing(trace: ResidualTrace, tol: float = DEFAULT_ETA) -> bool:
    """r[i + 1] <= r[i] + tol for every i."""
    r = trace.residuals
    bounds = map(operator.add, r, itertools.repeat(tol))
    return all(map(operator.le, itertools.islice(r, 1, None), bounds))
