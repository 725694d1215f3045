"""Averaged iteration of nonexpansive maps with witnessed step schedules.

The iteration is x_{n+1} = W(x_n, T(x_n), lam_n): move a fraction lam_n of
the way from the current point toward its image.  A schedule carries two
witnesses beside the step sizes: K caps them away from 1 (lam_n <= 1 - 1/K)
and alpha certifies divergence of their sums (n <= sum_{i<=alpha(n)} lam_i).
Both clauses are the hard preconditions of the rate bounds in `rates`.  One
rule, `Schedule.reaches`, decides the sum clause for validation and for
witness tables alike: a running float sum where it settles the comparison,
else an exact sum formed afresh; no exact partial sum is cached.

Every orbit in the package is walked by `_km_walk`, with the same domain
checks, reading its steps from `Schedule.float_steps`.  Its generic loop is
the reference; the one other loop, `_interval_orbit_end`, walks an untraced
orbit on an `IntervalSpace` under a constant schedule with that space's
membership test and step written inline, so that its only call per step is
the map's, and keeps every check and every bit of the generic loop.  Under a
constant schedule the loop ends once the orbit is stationary (an iterate
repeats its predecessor bit for bit) and fills in the rest of the orbit,
which then repeats; this relies on every map being a function of its
argument, a contract of the map type `NonexpansiveMap`, defined here since
the walk unwraps it.  ``_km_walk(start=k)`` resumes an orbit at its k-th
iterate, so `km_blocks` walks one orbit as consecutive blocks of rows, each
ending where the next begins, and step numbers in errors stay absolute;
`iterate` renders each block with one format operation
(`ResidualTrace.csv_text`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .errors import ArgumentError, DomainError, DomainEscapeError, ScheduleError
from .rates import AlphaFn, alpha_scale_ceil, alpha_table, as_fraction, decimal_string, require_alpha_fn
from .spaces import DEFAULT_ETA, HyperbolicSpace, IntervalSpace, Point, Space

#: beyond this many terms, partial sums fall back from exact rationals to
#: compensated float summation (with an explicit slack in comparisons).
EXACT_SUM_CAP = 5_000

#: hard cap on summation length inside validation.
SUM_TERM_CAP = 1_000_000

#: absolute slack granted per term when a partial sum was computed in floats.
FLOAT_SUM_SLACK = 2.0**-50


def _in_least_units(x: float) -> int:
    """x as an exact integer multiple of 2**-1074, the least subnormal float."""
    p, q = x.as_integer_ratio()  # q is a power of two, at most 2**1074
    return p << (1075 - q.bit_length())


@dataclass(frozen=True)
class NonexpansiveMap:
    """A claimed Lipschitz-1 self-map of ``domain``; also used for selection
    functions (maps from one space into another with the same claim).

    ``fn`` must be a function of its argument: points that are equal bit for
    bit have equal images.  The averaged iteration relies on it to end a
    walk whose orbit has turned stationary.

    A product map may give its slice (`product_map`): ``slice_of(u)`` is
    x -> first coordinate of T(x, u).  Other maps leave it None."""

    domain: Space
    fn: Callable[[Point], Point]
    label: str = ""
    slice_of: Optional[Callable[[Point], Callable[[Point], Point]]] = field(
        default=None, repr=False, compare=False
    )

    def __call__(self, x: Point) -> Point:
        return self.fn(x)


@dataclass
class Schedule:
    """Step sizes lam: nat -> [0,1) plus the witnesses (K, alpha).

    ``lam`` must return exact Fractions; constructors below guarantee it.
    Treat instances as immutable; the only mutable member is the running
    float sum, which behaves as if absent.  No exact sum is kept.
    """

    lam: Callable[[int], Fraction]
    K: int
    alpha: AlphaFn
    label: str = ""
    constant: Optional[Fraction] = None  # set when lam is constant: O(1) sums
    # float_sum's state: k, sum_{i<k} float(lam_i) / 2**-1074, least i seen outside [0, 1) or inf
    _float_cum: tuple = field(default=(0, 0, math.inf), init=False, repr=False, compare=False)

    def __post_init__(self):
        require_alpha_fn(self.alpha)

    def lam_at(self, n: int) -> Fraction:
        v = self.lam(n)
        if not isinstance(v, Fraction):
            v = as_fraction(v)
        return v

    def lam_float(self, n: int) -> float:
        return float(self.lam_at(n))

    def float_steps(self, start: int = 0) -> Iterator[float]:
        """lam_start, lam_start+1, ... as floats, converted lazily, one per
        step drawn.  A constant schedule repeats one float."""
        if self.constant is not None:
            return itertools.repeat(float(self.constant))
        return (float(self.lam_at(k)) for k in itertools.count(start))

    def partial_sum(self, m: int) -> Union[Fraction, float]:
        """sum_{i=0}^{m} lam_i; exact Fraction when affordable, float beyond.

        Callers must treat a float return as carrying summation error; see
        `reaches` for the slack policy.
        """
        if m < 0:
            raise ArgumentError(f"partial sums start at m=0, got {m}")
        if self.constant is not None:
            return (m + 1) * self.constant
        if m < EXACT_SUM_CAP:
            return sum(map(self.lam_at, range(m + 1)), Fraction(0))
        if m > SUM_TERM_CAP:
            raise ArgumentError(
                f"partial sum of {m + 1} terms exceeds the summation cap"
            )
        return self.float_sum(m)

    def float_sum(self, m: int) -> float:
        """sum_{i=0}^{m} float(lam_i), rounded once: the bits of math.fsum
        over the same float terms."""
        # an exact int in units of 2**-1074, moved term by term from the m of
        # the last call; one correctly rounded division then gives the float
        k, total, outside = self._float_cum
        for i in range(k, m + 1):
            f = self.lam_float(i)
            total += _in_least_units(f)
            outside = outside if 0 <= f < 1 else min(outside, i)
        for i in range(m + 1, k):
            total -= _in_least_units(self.lam_float(i))
        self._float_cum = (m + 1, total, outside)
        return total / 2**1074

    def reaches(self, m: int, n: int) -> tuple[bool, float]:
        """Whether sum_{i<=m} lam_i >= n, and that sum as a float: the one
        witness rule.  A constant schedule sums exactly.  Else the float sum
        s, each term within 2**-53 lam_i of lam_i, decides every n outside
        s -/+ (m + 1) FLOAT_SUM_SLACK while its terms lie in [0, 1); else the
        exact sum decides below EXACT_SUM_CAP terms, and past them n is not met."""
        if self.constant is None:
            s = self.float_sum(m)
            slack = (m + 1) * FLOAT_SUM_SLACK
            if self._float_cum[2] > m and not s - slack < n <= s + slack:
                return n <= s, s
            if m >= EXACT_SUM_CAP:
                return False, s
        total = self.partial_sum(m)
        return n <= total, float(total)


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

    The sum witness defaults to a table of minimal indices (`tabulate_alpha`)
    covering n <= alpha_horizon; the table clamps beyond that, so
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

    Entry n is the least m with sum_{i<=m} lam_i >= n as `Schedule.reaches`
    decides it (0 at n = 0).  Raises if EXACT_SUM_CAP terms do not cover max_n.
    """
    sums = Schedule(lam=lam, K=1, alpha=alpha_table([0]))  # K and alpha are not read
    values, m = [0], 0
    for n in range(1, max_n + 1):
        while not sums.reaches(m, n)[0]:
            m += 1
            if m >= EXACT_SUM_CAP:
                raise ScheduleError(f"witness table needs more than {EXACT_SUM_CAP} exact terms to cover n={n}")
        values.append(m)
    return alpha_table(values)


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------


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
    violation.  A witness alpha(n) past SUM_TERM_CAP raises ScheduleError.
    `Schedule.reaches` alone decides the sum clause, and the message prints
    the float sum it returns.
    """
    if horizon < 0:
        raise ArgumentError(f"horizon must be a natural, got {horizon}")
    cap = 1 - Fraction(1, sched.K)
    v, alpha = sched.constant, sched.alpha
    if isinstance(v, Fraction) and 0 <= v < 1 and v <= cap:
        if alpha.table is None and alpha.c * v >= 1:
            return ScheduleReport(horizon, True, None)

    def violation(n: int, clause: str, detail: str) -> ScheduleReport:
        return ScheduleReport(horizon, False, ScheduleViolation(n, clause, detail))

    for n in range(horizon + 1):
        lam_n = sched.lam_at(n)
        if not 0 <= lam_n < 1:
            return violation(n, "lambda_range", f"lam_{n}={lam_n} outside [0,1)")
        if lam_n > cap:
            return violation(n, "lambda_cap", f"lam_{n}={lam_n} > 1-1/K={cap}")
        a_n = sched.alpha(n)
        if a_n > SUM_TERM_CAP:
            raise ScheduleError(f"alpha({n}) = {decimal_string(a_n)}: a partial sum of "
                                f"{decimal_string(a_n + 1)} terms exceeds the summation cap")
        ok, s = sched.reaches(a_n, n)
        if not ok:
            return violation(n, "sum_witness", f"sum of lam_0..lam_{a_n} = {s:.6g} < n = {n}")
    return ScheduleReport(horizon, True, None)


def require_valid_schedule(sched: Schedule, horizon: int) -> None:
    """Raise ScheduleError unless both clauses hold for all n <= horizon."""
    report = validate_schedule(sched, horizon)
    if not report.valid:
        raise ScheduleError(report.summary())


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


#: rows per block of a streamed trace (`km_blocks`)
BLOCK_ROWS = 2048


def csv_header(space: Space, meta: Optional[dict] = None) -> list[str]:
    """The lines above the rows of a trace CSV: ``meta`` entries as leading
    `# key=value` comment lines, then `n,residual,<point columns>`."""
    lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
    lines.append("n,residual," + ",".join(space.point_columns()))
    return lines


@dataclass
class ResidualTrace:
    """Orbit x_first..x_(first+len-1) with residual rho(x_n, T(x_n)) at every
    index; ``first`` is 0 for a whole orbit and a block's first index in a
    stream (`km_blocks`); `csv_text` renders it in one format operation."""

    space: Space
    points: list
    residuals: list[float]
    first: int = 0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def csv_text(self) -> str:
        """The rows `n,residual,<point columns>` at 17 significant digits,
        n counted from ``first``, each ending in a newline, from one ``%``:
        ``"%d,%.17g" + ",%.17g" * columns + "\n"`` once per row, applied to
        every row's (n, residual, *point_row) in one flat tuple.  ``%.17g``
        writes ``format(v, ".17g")`` for floats and ints and round-trips
        every float.  Rendering is about 60% of `iterate`'s time, most of it
        that conversion, the floor in pure Python.
        """
        point_row, flat = self.space.point_row, []
        extend = flat.extend
        for n, p, r in zip(itertools.count(self.first), self.points, self.residuals):
            extend((n, r))
            extend(point_row(p))
        row = "%d,%.17g" + ",%.17g" * len(self.space.point_columns()) + "\n"
        return row * len(self.points) % tuple(flat)

    def csv_lines(self, meta: Optional[dict] = None) -> list[str]:
        """`csv_header` lines, then the lines of `csv_text`."""
        return csv_header(self.space, meta) + self.csv_text().splitlines()


def _km_walk(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    n: int,
    points: Optional[list] = None,
    residuals: Optional[list] = None,
    stop_eps: Optional[float] = None,
    start: int = 0,
) -> tuple:
    """The averaged iteration: steps start..n-1 from x0 = x_start, evaluating
    T once per step until the orbit is stationary under a constant schedule.
    Step k uses lam_k, and an image or iterate outside the space raises
    DomainEscapeError naming the absolute step k:
    escaping iterates would silently falsify nonexpansiveness, so they are
    never clamped.  Iterates x_start+1.. go to ``points`` and residuals
    rho(x_k, T(x_k)) to ``residuals`` when given; with ``stop_eps`` the walk
    stops at the first x_k (k < n) with residual <= stop_eps.  Returns
    (x_k, k, r): where it stopped, and the residual there if ``residuals``
    or ``stop_eps`` asked for residuals (else None).  A NonexpansiveMap is
    called through its ``fn``, as its ``__call__`` does.  A walk under a
    constant schedule that asks for none of the three on an `IntervalSpace`
    itself goes to `_interval_orbit_end`, which returns what this loop would.

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
    if type(T) is NonexpansiveMap:
        T = T.fn  # its __call__ is fn: one frame less per step
    contains, distance, combine = space.contains, space.distance, space.combine
    if not contains(x0):
        raise DomainError(f"start {x0!r} is not a member of {space!r}")
    track = residuals is not None or stop_eps is not None
    constant = sched.constant is not None
    if constant and type(space) is IntervalSpace and points is None and not track:
        return _interval_orbit_end(space, T, x0, sched, n, start)
    x, r = x0, None
    for k, lam in zip(range(start, n), sched.float_steps(start)):
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


def _interval_orbit_end(
    space: IntervalSpace,
    T: Callable[[Point], Point],
    x: Point,
    sched: Schedule,
    n: int,
    start: int,
) -> tuple:
    """`_km_walk` on an `IntervalSpace` itself, constant steps, no ``points``,
    ``residuals`` or ``stop_eps``: one loop whose only call per step is T's.

    Its membership test is ``IntervalSpace.contains`` for a float, which
    ``float()`` returns as it is: a comparison with the widened bounds.
    Anything else goes to ``contains``.  The step is ``combine``'s own
    expression with the float that ``float_steps`` repeats; a step that
    leaves the space is computed again by ``combine``, which differs from it
    only where Tx - x overflows.  So every check, escape and stationary exit
    is the generic loop's, with the same bits.
    """
    lo, hi, contains = space._lo, space._hi, space.contains
    lam = float(sched.constant)
    for k in range(start, n):
        Tx = T(x)
        if not (lo <= Tx <= hi if type(Tx) is float else contains(Tx)):
            raise DomainEscapeError(k, Tx)
        y = x + lam * (Tx - x)
        if not (lo <= y <= hi if type(y) is float else contains(y)):
            y = space.combine(x, Tx, lam)  # the same y, unless Tx - x overflowed
            if not contains(y):
                raise DomainEscapeError(k, y)
        if y == x and repr(y) == repr(x):
            return x, n, None
        x = y
    return x, n, None


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
    return ResidualTrace(space, points, residuals)


def km_blocks(
    space: HyperbolicSpace,
    T: Callable[[Point], Point],
    x0: Point,
    sched: Schedule,
    N: int,
) -> Iterator[ResidualTrace]:
    """The trace of ``km_iterate(space, T, x0, sched, N)`` as consecutive
    blocks of at most BLOCK_ROWS rows that cover rows 0..N, so that a caller
    can render each block and drop it.  The schedule is validated once,
    when the first block is drawn.

    Each block walks from where the last one ended.  A block that ends
    before row N walks one step past its last row, to the next block's first
    point; the residual there is computed again as the next block's first,
    with the same bits, since T is a function of its argument.
    """
    require_valid_schedule(sched, N)
    x = x0
    for start in range(0, N + 1, BLOCK_ROWS):
        end = start + BLOCK_ROWS
        points, residuals = [x], []
        _km_walk(space, T, x, sched, min(end, N), points, residuals, start=start)
        if end <= N:
            x = points.pop()
            residuals.pop()
        yield ResidualTrace(space, points, residuals, start)


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
