"""Approximate fixed points on two-factor product spaces.

The pipeline: a parameter space M with an approximate-fixed-point oracle, a
first factor C (possibly a u-dependent family of fibers C(u)) with a
nonexpansive selection delta: M -> C, and a product map T.  Freezing the
parameter gives slices T_u on C; iterating the slice from delta(u) and
projecting back to M gives a parameter-space map whose near-fixed points u
lift to near-fixed pairs (x_n(u), u) of T.  The certified index n comes from
`rates`; when it is unaffordable the solver runs at its budget instead and
says so.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    ArgumentError,
    InvariantError,
    OracleError,
    ProbeContractError,
    RateOverflowError,
    SelectionError,
)
from .km import Schedule, _km_walk, constant_schedule, require_valid_schedule
from .maps import (
    NonexpansiveMap,
    ProductMap,
    SelectionFunction,
    clamped_drop,
    constant_map,
    constant_pair,
    coupled_average,
    family_drift,
    family_halving,
    identity_map,
    phi,
    slice_fn,
    slice_map,
    unit_drift,
)
from .rates import as_fraction, fmt_number, rate_g, rate_g_tilde
from .spaces import (
    DEFAULT_ETA,
    FamilyProduct,
    HyperbolicSpace,
    IntervalSpace,
    Point,
    Space,
    make_interval,
    make_real_line,
    product,
)

#: default iteration budget for solver runs.
DEFAULT_BUDGET = 2000

#: largest budget `product` reads from a config: a run's time grows linearly
#: with its budget, and `drift` at this one takes about 2 s.
MAX_BUDGET = 10_000_000

#: parameters u sampled by family_product to check delta(u) against its fiber.
SELECTION_SAMPLES = 64

#: violating pairs a FamilyInvarianceReport keeps; later ones are dropped.
KEPT_VIOLATIONS = 10


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class AfppOracle:
    """Produces eps-fixed points of nonexpansive self-maps of its space.

    Every answer is post-checked against the residual contract with an
    independent distance recomputation; a violation raises OracleError, so
    no bad point ever propagates into a certificate.
    """

    space: Space
    label: str = "oracle"

    def solve(self, f: NonexpansiveMap, eps: float) -> Point:
        if not eps > 0:
            raise ArgumentError(f"tolerance must be positive, got {eps}")
        u = self._solve(f, eps)
        if not self.space.contains(u):
            raise OracleError(
                f"{self.label} returned {u!r}, not a member of {self.space!r}"
            )
        r = self.space.distance(u, f(u))
        if not (r <= eps + DEFAULT_ETA):
            raise OracleError(
                f"{self.label} returned residual {r:.6g} > tolerance {eps:.6g}"
            )
        return u

    def _solve(self, f: NonexpansiveMap, eps: float) -> Point:
        raise NotImplementedError


class GridOracle(AfppOracle):
    """Mesh refinement over an interval with finite ends, bisected on the
    sign of f(u) - u.

    The residual r(u) = d(u, f(u)) of a nonexpansive f is 2-Lipschitz, so if
    near-fixed points exist, a fine enough mesh sees one.  The meshes
    space.mesh(step) are searched in order, halving the step, until a level
    holds a point with r <= eps; the best point so far is kept with a strict
    comparison, and a point is evaluated at most once per solve.  The first
    level, five points, is scanned in order; r = 0 ends it at once.  As
    g(u) = f(u) - u is nonincreasing, on a finer mesh t_0 <= ... <= t_n
    bisection finds the first k < n with f(t_k) <= t_k (else n), and the
    level's least residual lies at t_(k-1) or t_k.  The meshes are nested and
    the points within eps form one run, so a finer level holding one holds
    exactly one: the answer is that of a scan of every point.  A map that is
    not nonexpansive can mislead the bisection, not the post-check in solve.

    Maps with a positive residual infimum exhaust the refinement floor and
    raise OracleError with the best residual among the points evaluated.
    The first step is a quarter of the diameter.  The floor is the last level
    whose mesh fits MESH_POINT_CAP, counted without building it; space.mesh
    refuses the next, or a step that underflowed to 0, with ArgumentError.
    """

    def __init__(self, space: Space):
        if not (type(space) is IntervalSpace and math.isfinite(space.a) and math.isfinite(space.b)):
            raise ArgumentError(
                f"grid refinement needs a bounded space with a mesh: an interval with finite ends, "
                f"not {space!r}"
            )
        diameter = space.b - space.a
        # the mesh arithmetic starts from a quarter of it
        if not math.isfinite(diameter):
            raise ArgumentError(
                f"grid refinement needs a diameter that is a finite float; {space!r} is bounded, "
                f"but its diameter overflows to {diameter}"
            )
        if diameter / 4.0 == 0.0:
            raise ArgumentError(
                f"grid refinement needs a quarter diameter above 0; {space!r} has diameter {diameter!r}"
            )
        self.space = space
        self.label = "grid"
        self.first_step = diameter / 4.0

    def _solve(self, f, eps):
        space = self.space
        seen = {}

        def test(u):  # (r(u), f(u) <= u), evaluated once per point
            if u not in seen:
                fu = f(u)
                seen[u] = space.distance(u, fu), fu <= u
            return seen[u]

        step = self.first_step
        mesh = space.mesh(step)
        ks = range(mesh.n + 1)  # the first level, point by point
        best_u, best_r = None, math.inf
        while True:
            for k in ks:
                u = mesh[k]
                r = test(u)[0]
                if r == 0.0:
                    return u
                if r < best_r:
                    best_u, best_r = u, r
            if best_r <= eps:
                return best_u
            try:
                mesh = space.mesh(step / 2.0)
            except ArgumentError:
                raise OracleError(
                    f"grid refinement floor reached at step {step:.3g}; "
                    f"best residual {best_r:.6g} > tolerance {eps:.6g} "
                    "(the map may have no approximate fixed points)"
                ) from None
            step /= 2.0
            lo, hi = 0, mesh.n
            while lo < hi:
                mid = (lo + hi) // 2
                if test(mesh[mid])[1]:
                    hi = mid
                else:
                    lo = mid + 1
            ks = range(max(lo - 1, 0), lo + 1)


# ---------------------------------------------------------------------------
# fiber families
# ---------------------------------------------------------------------------


def family_product(
    M: Space,
    fiber_of: Callable[[Point], HyperbolicSpace],
    delta: SelectionFunction,
    ambient: HyperbolicSpace,
    label: str = "",
) -> FamilyProduct:
    """Build the fibered product, checking delta(u) lands in its fiber on
    sampled u (a selection violating that is a construction error)."""
    rng = random.Random(0)
    for _ in range(SELECTION_SAMPLES):
        u = M.sample(rng)
        if not fiber_of(u).contains(delta(u)):
            raise SelectionError(
                f"selection value {delta(u)!r} is outside the fiber at u={u!r}"
            )
    return FamilyProduct(M, ambient, fiber_of, label)


@dataclass
class FamilyInvarianceReport:
    samples: int
    violations: list
    ok: bool


def check_family_invariance(
    T: ProductMap, samples: int
) -> FamilyInvarianceReport:
    """Sample (x, u) in T's domain and flag any pair whose image's first
    coordinate leaves the fiber at u; the report keeps the first
    KEPT_VIOLATIONS."""
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    rng = random.Random(0)
    violations = []
    for _ in range(samples):
        p = T.domain.sample(rng)
        img = T(p)[0]
        if not T.domain.slice_space(p[1]).contains(img):
            if len(violations) < KEPT_VIOLATIONS:
                violations.append((p[0], p[1], img))
    return FamilyInvarianceReport(samples, violations, not violations)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AfppStep:
    """One lifted approximate fixed pair: the parameter point z returned by
    the oracle at tolerance 1/n, the pair p = (x_n(z), z), and its residual."""

    n: int
    z: Point
    point: Point
    residual: float
    slice_residual: float


def approx_fixed_pair(
    T: ProductMap,
    delta: SelectionFunction,
    sched: Schedule,
    oracle: AfppOracle,
    n: int,
) -> AfppStep:
    """Run the lift at index n >= 1 (tolerance 1/n is undefined at 0).

    The emitted residual is re-verified against its structural bound
    max(slice residual at n, 1/n): the second coordinate of T(p) is exactly
    the parameter-space map's value at z, which the oracle brought within
    1/n of z.  The post-check in AfppOracle.solve evaluated phi_n at z, so
    x_n(z) is read from phi_n's memo.
    """
    if n < 1:
        raise ArgumentError(f"index must be >= 1, got {fmt_number(n)}")
    memo: dict = {}
    phi_n = phi(T, delta, sched, n, memo=memo)
    z = oracle.solve(phi_n, 1.0 / n)
    fiber = T.domain.slice_space(z)
    xz = memo[(z, n)]
    p = (xz, z)
    Tp = T(p)
    residual = T.domain.distance(p, Tp)
    slice_residual = fiber.distance(xz, Tp[0])
    if not (residual <= max(slice_residual, 1.0 / n) + DEFAULT_ETA):
        raise InvariantError(
            f"lifted residual {residual:.6g} exceeds its structural bound "
            f"max({slice_residual:.6g}, 1/{n})"
        )
    return AfppStep(n=n, z=z, point=p, residual=residual, slice_residual=slice_residual)


@dataclass(frozen=True)
class Certificate:
    """A verified approximate fixed pair: residual recomputed at emission and
    guaranteed <= eps_target."""

    point_row: tuple
    residual: float
    eps_target: float
    n_used: int
    bound_used: Optional[int]
    theorem: str
    space_descriptor: dict
    map_label: str

    def to_record(self) -> dict:
        return {
            "point": [v for v in self.point_row],
            "residual": f"{self.residual:.17g}",
            "eps_target": f"{self.eps_target:.17g}",
            "n_used": self.n_used,
            "bound_used": self.bound_used,
            "theorem": self.theorem,
            "space": self.space_descriptor,
            "map": self.map_label,
        }


def make_certificate(
    T: ProductMap,
    point: Point,
    eps_target: float,
    n_used: int,
    bound_used: Optional[int],
    theorem: str,
) -> Certificate:
    residual = T.domain.distance(point, T(point))
    if not (residual <= eps_target):
        raise InvariantError(
            f"certificate residual {residual:.6g} exceeds its target {eps_target:.6g}"
        )
    return Certificate(
        point_row=tuple(T.domain.point_row(point)),
        residual=residual,
        eps_target=eps_target,
        n_used=n_used,
        bound_used=bound_used,
        theorem=theorem,
        space_descriptor=T.domain.descriptor,
        map_label=T.label,
    )


@dataclass
class CertifiedRunResult:
    step: AfppStep
    certified_n: Optional[int]
    truncated: bool
    probe_residual: float
    guarantee: float
    inequality_ok: bool
    selection_residual: float


def _budgeted_index(rate: Callable[[], int], budget: int) -> tuple[Optional[int], int, bool]:
    """(certified index, or None if it overflows; index to run at; truncated)."""
    try:
        certified_n = rate()
    except RateOverflowError:
        return None, budget, True
    if certified_n <= budget:
        return certified_n, certified_n, False
    return certified_n, budget, True


def certified_run(
    T: ProductMap,
    delta: SelectionFunction,
    sched: Schedule,
    oracle: AfppOracle,
    b1,
    b2,
    eps,
    probe: Callable[[Point], Point],
    budget: int = DEFAULT_BUDGET,
) -> CertifiedRunResult:
    """Run the lift at the certified index for tolerance eps.

    ``probe`` realizes the hypothesis that each slice has a point x* within
    b1 of the selection value and with slice residual at most b2; the
    contract is checked at the parameter the oracle actually returns.  At
    the certified index the emitted residual provably satisfies
    residual <= (probe's slice residual) + eps; a violation there is an
    implementation bug and raises.  When the certified index exceeds the
    budget, the run happens at the budget instead, and the inequality is
    reported rather than asserted.  No certificate is made here:
    solve_product_afpp makes the one certificate of a solve.
    """
    eps_f = as_fraction(eps)
    b1_f, b2_f = as_fraction(b1), as_fraction(b2)
    if eps_f <= 0 or b1_f <= 0 or b2_f <= 0:
        raise ArgumentError("eps, b1, b2 must all be positive")
    floor = math.ceil(1 / eps_f) + 1
    if budget < floor:
        raise ArgumentError(
            f"budget {fmt_number(budget)} is below the minimum usable index {fmt_number(floor)}"
        )
    certified_n, n, truncated = _budgeted_index(
        lambda: rate_g(eps_f, b1_f, b2_f, sched.K, sched.alpha), budget
    )
    step = approx_fixed_pair(T, delta, sched, oracle, n)
    z = step.z
    fiber = T.domain.slice_space(z)
    xstar = probe(z)
    if not fiber.contains(xstar):
        raise ProbeContractError(
            f"probe value {xstar!r} is outside the fiber at u={z!r}"
        )
    d_sel = fiber.distance(delta(z), xstar)
    r_star = fiber.distance(xstar, slice_fn(T, z)(xstar))
    if not (d_sel <= float(b1_f) + DEFAULT_ETA):
        raise ProbeContractError(
            f"probe at u={z!r}: distance {d_sel:.6g} from the selection "
            f"value exceeds b1={float(b1_f):.6g}"
        )
    if not (r_star <= float(b2_f) + DEFAULT_ETA):
        raise ProbeContractError(
            f"probe at u={z!r}: slice residual {r_star:.6g} exceeds "
            f"b2={float(b2_f):.6g}"
        )
    sel_res = fiber.distance(delta(z), slice_fn(T, z)(delta(z)))
    if not (sel_res <= float(2 * b1_f + b2_f) + DEFAULT_ETA):
        raise InvariantError(
            f"selection displacement {sel_res:.6g} exceeds 2*b1+b2; "
            "the probe contract makes that impossible for a nonexpansive slice"
        )
    guarantee = r_star + float(eps_f)
    inequality_ok = step.residual <= guarantee + DEFAULT_ETA
    if not truncated and not inequality_ok:
        raise InvariantError(
            f"residual {step.residual:.6g} exceeds the certified bound "
            f"{guarantee:.6g} at the certified index n={n}"
        )
    return CertifiedRunResult(
        step=step,
        certified_n=certified_n,
        truncated=truncated,
        probe_residual=r_star,
        guarantee=guarantee,
        inequality_ok=inequality_ok,
        selection_residual=sel_res,
    )


@dataclass
class Attempt:
    eps_attempt: float
    n: int
    truncated: bool
    residual: float


@dataclass
class SolveResult:
    mode: str
    eps_target: float
    certificate: Optional[Certificate]
    best_residual: float
    attempts: list
    exhausted: bool


#: orbit length and sampled parameters of the bounded-orbit precheck.
PRECHECK_ORBIT = 200
PRECHECK_SAMPLES = 8


def _precheck_orbit_bound(T, delta, sched, bound, budget, seed):
    rng = random.Random(seed)
    horizon = min(budget, PRECHECK_ORBIT)
    require_valid_schedule(sched, horizon)
    for _ in range(PRECHECK_SAMPLES):
        u = T.domain.right.sample(rng)
        fiber = T.domain.slice_space(u)
        x0 = delta(u)
        orbit: list = []
        try:
            _km_walk(fiber, slice_map(T, u), x0, sched, horizon, points=orbit)
        finally:
            # runs on a domain escape too: a bound broken before the escape
            # is the earlier fault and is reported instead
            for j, x in enumerate(orbit, 1):
                d = fiber.distance(x0, x)
                if not (d <= bound + DEFAULT_ETA):
                    raise ProbeContractError(
                        f"orbit bound {bound} violated at u={u!r}, step {j}: "
                        f"distance {d:.6g}"
                    )


def solve_product_afpp(
    T: ProductMap,
    delta: SelectionFunction,
    sched: Schedule,
    oracle: AfppOracle,
    eps,
    mode: str = "sup-rC",
    budget: int = DEFAULT_BUDGET,
    probe: Optional[Callable[[Point], Point]] = None,
    b1=None,
    b2=None,
    orbit_bound=None,
    seed: int = 0,
) -> SolveResult:
    """Drive the lift until a pair with residual <= eps appears, or the
    budget rules it out.

    mode "sup-rC": needs (probe, b1, b2) as in certified_run; each attempt
    halves the internal tolerance, which can only help when the slice
    residual infimum is below eps, until the least usable index
    ceil(1/eps_k) + 1 passes the budget.  mode "bounded-orbit": needs
    orbit_bound, an empirically prechecked bound on how far slice orbits
    stray from their start; the certified index then guarantees residual <=
    attempt tolerance outright.  Once the certified index stops fitting the
    budget, one final run at the budget is made.  A solve that misses eps
    ends in a partial report of its attempts, not a certificate.
    """
    eps_f = as_fraction(eps)
    if not 0 < eps_f <= sys.float_info.max:
        raise ArgumentError(f"eps must be positive and within float range, got {eps}")
    if budget < 1:
        raise ArgumentError(f"budget must be >= 1, got {fmt_number(budget)}")
    if mode not in ("sup-rC", "bounded-orbit"):
        raise ArgumentError(f"unknown mode {mode!r}")
    if mode == "sup-rC":
        if probe is None or b1 is None or b2 is None:
            raise ArgumentError("mode sup-rC needs probe, b1 and b2")
    else:
        if orbit_bound is None:
            raise ArgumentError("mode bounded-orbit needs orbit_bound")
        _precheck_orbit_bound(T, delta, sched, float(orbit_bound), budget, seed)
        bound_f = as_fraction(orbit_bound)

    eps_target = float(eps_f)
    attempts: list[Attempt] = []
    best_residual, certificate = math.inf, None
    eps_k = eps_f
    while certificate is None:
        if mode == "sup-rC":
            run = certified_run(
                T, delta, sched, oracle, b1, b2, eps_k, probe,
                budget=budget,
            )
            step, truncated, certified_n = run.step, run.truncated, run.certified_n
        else:
            certified_n, n, truncated = _budgeted_index(
                lambda: rate_g_tilde(eps_k, bound_f, sched.K, sched.alpha), budget
            )
            step = approx_fixed_pair(T, delta, sched, oracle, n)
            if not truncated and not (step.residual <= float(eps_k) + DEFAULT_ETA):
                raise InvariantError(
                    f"residual {step.residual:.6g} exceeds the attempt "
                    f"tolerance {float(eps_k):.6g} at the certified index {n}"
                )
        attempts.append(Attempt(float(eps_k), step.n, truncated, step.residual))
        best_residual = min(best_residual, step.residual)
        # the float test keeps nan and inf out; eps_target = float(eps) may lie above eps
        if step.residual <= eps_target and Fraction(step.residual) <= eps_f:
            # the first attempt within eps ends the solve: it holds the best pair
            tag = f"product-afpp[{mode}]" + (
                ":residual-certified-at-budget" if truncated else ":rate-certified"
            )
            certificate = make_certificate(T, step.point, eps_target, step.n, certified_n, tag)
        elif truncated or (mode == "sup-rC" and math.ceil(2 / eps_k) + 1 > budget):
            # shrinking the tolerance cannot change a budget-pinned run, and
            # certified_run refuses a budget below ceil(1 / (eps_k / 2)) + 1
            break
        else:
            eps_k = eps_k / 2
    return SolveResult(
        mode=mode,
        eps_target=eps_target,
        certificate=certificate,
        best_residual=best_residual,
        attempts=attempts,
        exhausted=certificate is None,
    )


def estimate_product_residual_inf(
    T: ProductMap,
    delta: SelectionFunction,
    sched: Schedule,
    oracle: AfppOracle,
    N: int,
) -> float:
    """Upper estimate of the infimum product residual inf_p d(p, T(p)):
    the best lifted residual over indices 1..N; nonincreasing in N."""
    if N < 1:
        raise ArgumentError(f"N must be >= 1, got {fmt_number(N)}")
    return min(
        approx_fixed_pair(T, delta, sched, oracle, n).residual
        for n in range(1, N + 1)
    )


@dataclass
class DisplacementReport:
    samples: int
    max_displacement: float
    argmax: Point
    first_violation: Optional[Point]
    bound: float
    ok: bool


def check_uniform_displacement(
    T: ProductMap,
    delta: SelectionFunction,
    b: float,
    samples: int,
) -> DisplacementReport:
    """Sample parameters u and report the largest selection displacement
    rho(delta(u), T_u(delta(u))), flagging any u beyond the claimed bound b."""
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    rng = random.Random(0)
    worst, argmax, violator = -math.inf, None, None
    for _ in range(samples):
        u = T.domain.right.sample(rng)
        fiber = T.domain.slice_space(u)
        x = delta(u)
        disp = fiber.distance(x, slice_fn(T, u)(x))
        if not (disp <= worst or math.isnan(worst)):  # the first nan stays the max
            worst, argmax = disp, u
        if not (disp <= b + DEFAULT_ETA) and violator is None:
            violator = u
    return DisplacementReport(
        samples=samples,
        max_displacement=worst,
        argmax=argmax,
        first_violation=violator,
        bound=b,
        ok=violator is None,
    )


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


@dataclass
class ProductExample:
    """A ready-to-run bundle for the solver and the CLI.  The space is
    T.domain; every example steps by 1/2 and solves the parameter space
    with a GridOracle on T.domain.right.  The hypotheses default to the
    values most examples share; each example states only where it differs."""

    T: ProductMap
    delta: SelectionFunction
    probe: Optional[Callable[[Point], Point]]
    b1: Fraction = Fraction(1)
    b2: Fraction = Fraction(1, 10**9)
    orbit_bound: Optional[Fraction] = Fraction(1)
    r_star: Optional[float] = 0.0

    @property
    def sched(self) -> Schedule:
        return constant_schedule("1/2")

    @property
    def oracle(self) -> GridOracle:
        return GridOracle(self.T.domain.right)


def _over_unit(left: Space) -> FamilyProduct:
    """left x [0, 1], the plain product of the first four examples."""
    return product(left, make_interval(0.0, 1.0))


def diagonal_example() -> ProductExample:
    """T(x,u) = ((x+u)/2, x) on [0,1] x [0,1]: every diagonal pair is fixed,
    so the infimum residual is 0 and the lift should reach it exactly."""
    P = _over_unit(make_interval(0.0, 1.0))
    return ProductExample(T=coupled_average(P), delta=identity_map(P.right), probe=lambda u: u)


def constant_example() -> ProductExample:
    """T(x,u) = (1, 1/2): slices are constant, the parameter-space map is
    constant, and the achieved residual decays like the step products."""
    P = _over_unit(make_interval(0.0, 1.0))
    return ProductExample(
        T=constant_pair(P, 1.0, 0.5), delta=constant_map(P.right, 0.0), probe=lambda u: 1.0
    )


def drop_example() -> ProductExample:
    """T(x,u) = (max(x-1, 0), u) on [0,10] x [0,1] from selection 5: the
    orbit walks to the fixed point 0, residual 1 until x dips below 1."""
    P = _over_unit(make_interval(0.0, 10.0))
    return ProductExample(
        T=clamped_drop(P, 1.0),
        delta=NonexpansiveMap(P.right, lambda u: 5.0, "constant(5.0)"),
        probe=lambda u: 0.0,
        b1=Fraction(5),
        orbit_bound=Fraction(5),
    )


def drift_example() -> ProductExample:
    """T(x,u) = (x+1, u) on the real line x [0,1]: displacement is
    identically 1, so 1 is the exact infimum product residual."""
    P = _over_unit(make_real_line())
    return ProductExample(
        T=unit_drift(P),
        delta=constant_map(P.right, 0.0),
        probe=lambda u: 0.0,
        b1=Fraction(1, 10**9),
        b2=Fraction(1),
        orbit_bound=None,
        r_star=1.0,
    )


def _growing_family_space() -> FamilyProduct:
    M = make_interval(0.0, 1.0)
    ambient = make_interval(0.0, 2.0)
    delta = constant_map(M, 0.0)
    return family_product(
        M,
        lambda u: make_interval(0.0, 1.0 + u),
        delta,
        ambient,
        label="interval[0,1+u]",
    )


def family_valid_example() -> ProductExample:
    """Halving map on the growing-fiber family [0, 1+u]: the image lands in
    [0, (1+u)/2], inside every fiber, and 0 is fixed in each slice."""
    H = _growing_family_space()
    return ProductExample(
        T=family_halving(H),
        delta=constant_map(H.right, 0.0),
        probe=lambda u: 0.0,
        b1=Fraction(1, 10**9),
    )


def family_violating_example() -> ProductExample:
    """Drift map on the growing-fiber family: leaves fibers, shipped only to
    exercise the invariance checker."""
    H = _growing_family_space()
    return ProductExample(
        T=family_drift(H),
        delta=constant_map(H.right, 0.0),
        probe=None,
        b2=Fraction(1),
        orbit_bound=None,
        r_star=None,
    )


def family_const_example() -> ProductExample:
    """The diagonal example routed through the family machinery with a
    constant fiber: must reproduce the plain-product run in everything but
    the space descriptor."""
    C, M = make_interval(0.0, 1.0), make_interval(0.0, 1.0)
    H = family_product(M, lambda u: C, identity_map(M), C, label="interval[0,1]")
    return ProductExample(T=coupled_average(H), delta=identity_map(M), probe=lambda u: u)


EXAMPLES: dict[str, Callable[[], ProductExample]] = {
    "diagonal": diagonal_example,
    "constant": constant_example,
    "drop": drop_example,
    "drift": drift_example,
    "family_valid": family_valid_example,
    "family_violating": family_violating_example,
    "family_const": family_const_example,
}


def solve_example(
    ex: ProductExample,
    eps,
    mode: str = "sup-rC",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> SolveResult:
    return solve_product_afpp(
        ex.T,
        ex.delta,
        ex.sched,
        ex.oracle,
        eps,
        mode=mode,
        budget=budget,
        probe=ex.probe,
        b1=ex.b1,
        b2=ex.b2,
        orbit_bound=ex.orbit_bound,
        seed=seed,
    )
