"""Scripted acceptance suite: eleven numbered checks, one per shipped
guarantee.

Each check runs a fixed-seed experiment against the library's public
surface and reports a single pass/fail line with timing; `hypkm demo`
prints these lines and the test suite asserts on them.  The checks never
shortcut through private internals: whatever they verify is reachable by
any caller.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .config import canonical_json
from .km import (
    constant_schedule,
    estimate_residual_inf,
    km_iterate,
    km_orbit_end,
    residuals_nonincreasing,
)
from .maps import (
    affine_map,
    constant_map,
    coupled_average,
    identity_map,
    interval_affine,
    scaled_coupling,
    slice_map,
)
from .product_afpp import (
    EXAMPLES,
    certified_run,
    check_family_invariance,
    estimate_product_residual_inf,
    solve_example,
)
from .rates import (
    alpha_double,
    alpha_hat,
    alpha_identity,
    alpha_plus,
    alpha_scale_ceil,
    alpha_table,
    alpha_tilde,
    ceil_exp_upper,
    digit_count,
    rate_g,
    rate_h,
    rate_h_tilde,
)
from .spaces import (
    BrokenW,
    check_axioms,
    make_box,
    make_euclidean,
    make_half_line,
    make_interval,
    make_poincare_disk,
    make_real_line,
    make_star_tree,
    product,
)
from .uafpp import (
    RegularityModulus,
    UafppModulus,
    banach_orbit_bound,
    banach_ufpp_modulus,
    check_uafpp_empirically,
    gk_boundedness_check,
    km_witness,
    regularity_to_uafpp,
    uafpp_to_regularity,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (
            f"criterion {self.number:2d} [{mark}] {self.name}: "
            f"{self.detail} ({self.seconds:.2f}s)"
        )


def criterion(number: int, name: str, limit: Optional[float] = None):
    """Make a check body into numbered criterion `number`.

    The body returns (notes, detail): the failures it found, and the line
    to report when it found none.  The criterion times the body, adds a note
    when it ran `limit` seconds or longer, and passes when no note is left.
    """

    def make(body: Callable[[], tuple[list[str], str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            notes, detail = body()
            seconds = time.perf_counter() - t0
            if limit is not None and seconds >= limit:
                notes.append(f"runtime {seconds:.1f}s is over the {limit} s limit")
            return CriterionResult(number, name, not notes, "; ".join(notes) or detail, seconds)

        return run

    return make


def affine_map_family(count: int, seed: int):
    """Random affine nonexpansive self-maps of the unit square with starts.

    Each map is T(x) = q + c R(theta) (x - q): a rotation-scale around an
    interior point q with c <= 0.3, so images stay within 0.26 of q and the
    square maps into itself.  Shared by the monotonicity and displacement
    checks so both speak about the same population.
    """
    rng = random.Random(seed)
    box = make_box(((0.0, 1.0), (0.0, 1.0)))
    out = []
    for _ in range(count):
        c = 0.3 * rng.random()
        th = 2.0 * math.pi * rng.random()
        q = (0.4 + 0.2 * rng.random(), 0.4 + 0.2 * rng.random())
        m = (
            (c * math.cos(th), -c * math.sin(th)),
            (c * math.sin(th), c * math.cos(th)),
        )
        offset = (
            q[0] - m[0][0] * q[0] - m[0][1] * q[1],
            q[1] - m[1][0] * q[0] - m[1][1] * q[1],
        )
        x0 = (rng.random(), rng.random())
        out.append((box, affine_map(box, m, offset), x0))
    return out


@criterion(1, "space axioms", limit=10)
def criterion_1() -> tuple[list[str], str]:
    """All four shipped spaces satisfy the metric and convexity axioms on
    10^4 random tuples at eta = 1e-9; the broken-combine demo fails W2."""
    notes = []
    shipped = (
        make_interval(0.0, 1.0),
        make_euclidean(2),
        make_poincare_disk(),
        make_star_tree(3, 1.0),
    )
    for sp in shipped:
        rep = check_axioms(sp, samples=10_000, seed=0, eta=1e-9)
        if not rep.passed:
            notes.append(f"{sp.descriptor['kind']} fails {', '.join(rep.failures())}")
    broken = check_axioms(
        BrokenW(make_interval(0.0, 1.0)), samples=2_000, seed=0, eta=1e-9
    )
    if broken.passed or "W2" not in broken.failures():
        notes.append("broken-combine demo was not caught on W2")
    return notes, "4 spaces pass at eta=1e-9; broken combine fails W2"


@criterion(2, "residual monotonicity", limit=10)
def criterion_2() -> tuple[list[str], str]:
    """Residuals are nonincreasing within 1e-12 along 100-step orbits of 500
    random affine nonexpansive maps on the unit square at lambda = 1/2."""
    sched = constant_schedule("1/2")
    bad = 0
    for box, T, x0 in affine_map_family(500, seed=2):
        trace = km_iterate(box, T, x0, sched, 100)
        if not residuals_nonincreasing(trace, tol=1e-12):
            bad += 1
    notes = [f"{bad} of 500 maps violated monotonicity at 1e-12"] if bad else []
    return notes, "500 random affine maps, N=100, tolerance 1e-12"


@criterion(3, "cross-parameter stability")
def criterion_3() -> tuple[list[str], str]:
    """Orbits started at x and y under slice parameters u and v stay within
    max(rho(x,y), d(u,v)) + 1e-9 of each other for n <= 50."""
    C = make_interval(0.0, 1.0)
    M = make_interval(0.0, 1.0)
    dom = product(C, M)
    rng = random.Random(3)
    scale = 0.2 + 0.7 * rng.random()
    shift = (1.0 - scale) * rng.random()
    tested = (coupled_average(dom), scaled_coupling(dom, scale, shift))
    sched = constant_schedule("1/2")
    violations = 0
    worst = -math.inf
    for T in tested:
        for _ in range(200):
            x, y = rng.random(), rng.random()
            u, v = rng.random(), rng.random()
            bound = max(C.distance(x, y), M.distance(u, v))
            left = km_iterate(C, slice_map(T, u), x, sched, 50).points
            right = km_iterate(C, slice_map(T, v), y, sched, 50).points
            for a, b in zip(left, right):
                worst = max(worst, C.distance(a, b) - bound)
                if C.distance(a, b) > bound + 1e-9:
                    violations += 1
                    break
    notes = [f"{violations} start tuples drifted past the bound + 1e-9"] if violations else []
    return notes, f"2 maps x 200 tuples, n <= 50, max excess {max(worst, 0.0):.1e}"


@criterion(4, "rate exactness")
def criterion_4() -> tuple[list[str], str]:
    """The settling recursion matches its closed forms exactly for i <= 64,
    and the rate bounds reproduce the frozen worked values h = 30,
    h_tilde = 178, g = 30."""
    notes = []
    id_cat, dbl_cat = alpha_identity(), alpha_double()
    raw_id, raw_dbl = (lambda m: m), (lambda m: 2 * m)

    def literal_hat(law, i, n):
        # the definition, each alpha_plus(a, n) a scan of law(n + j) - j + 1
        a = 0
        for _ in range(i + 1):
            a += max(law(n + j) - j + 1 for j in range(a + 1))
        return a

    def literal_h(eps, b, coeff, m_num):
        # rate_h (coeff 2) or rate_h_tilde (coeff 12) at K = 1 on the identity
        M = math.ceil(Fraction(1 + m_num * b, eps))
        return literal_hat(raw_id, ceil_exp_upper(coeff * b, M + 1) - 1, M)

    closed_bad = recursion_bad = 0
    for n in (0, 1, 5, 50):
        for i in range(65):
            if alpha_hat(id_cat, i, n) != (i + 1) * (n + 1):
                closed_bad += 1
            if alpha_hat(dbl_cat, i, n) != (2 * n + 1) * (2 ** (i + 1) - 1):
                closed_bad += 1
        # the same recursion with no closed form: the literal route scans
        # plain int laws, so the grid is kept where the scan is affordable
        for i in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
            if literal_hat(raw_id, i, n) != (i + 1) * (n + 1):
                recursion_bad += 1
        for i in range(11):
            if literal_hat(raw_dbl, i, n) != (2 * n + 1) * (2 ** (i + 1) - 1):
                recursion_bad += 1
    if closed_bad:
        notes.append(f"{closed_bad} closed-form mismatches for i <= 64")
    if recursion_bad:
        notes.append(f"{recursion_bad} literal-recursion mismatches")
    anchors = (
        ("h(4,1,1,id)", rate_h(4, 1, 1, id_cat), literal_h(4, 1, 2, 2), 30),
        ("h_tilde(7,1,1,id)", rate_h_tilde(7, 1, 1, id_cat), literal_h(7, 1, 12, 6), 178),
        (
            "g(4,1/4,1/2,1,id)",
            rate_g(4, Fraction(1, 4), Fraction(1, 2), 1, id_cat),
            # max(ceil(1/eps) + 1, rate_h at b = 2*b1 + b2 = 1)
            max(2, literal_h(4, 1, 2, 2)),
            30,
        ),
    )
    for label, got_cat, got_raw, want in anchors:
        if not (got_cat == got_raw == want):
            notes.append(f"{label} gave {got_cat}/{got_raw}, want {want}")
    return notes, "closed forms exact for i <= 64 on two routes; h=30, h_tilde=178, g=30"


@criterion(5, "settling monotonicity")
def criterion_5() -> tuple[list[str], str]:
    """The settling index is nondecreasing in its depth argument for every
    catalogued witness kind, i < 200, n <= 50, by exact comparison."""
    catalog = (
        alpha_identity(),
        alpha_double(),
        alpha_scale_ceil(Fraction(3, 2)),
        alpha_scale_ceil(5),
        alpha_table((0, 2, 9, 20)),
        alpha_table((5, 5, 5)),
    )
    notes = []
    for alpha in catalog:
        for n in range(51):
            # the defining recursion, unrolled once per n; spot values are
            # cross-checked against the public evaluator
            seq = [alpha_tilde(alpha, 0, n)]
            for _ in range(199):
                seq.append(seq[-1] + alpha_plus(alpha, seq[-1], n))
            if any(seq[i + 1] < seq[i] for i in range(199)):
                notes.append(f"{alpha.label} not monotone at n={n}")
                break
            for i in (0, 1, 7, 63, 199):
                if alpha_hat(alpha, i, n) != seq[i]:
                    notes.append(f"{alpha.label} evaluator mismatch at i={i}, n={n}")
                    break
    return notes, "6 catalogued witnesses, i < 200, n <= 50, exact integer comparison"


@criterion(6, "residual-infimum estimates")
def criterion_6() -> tuple[list[str], str]:
    """The residual-infimum estimator is exactly 1.0 at every N <= 1000 for
    the unit translation, and at most 1e-9 by N = 60 for the clamped drop."""
    notes = []
    line = make_real_line()
    sched = constant_schedule("1/2")
    drift = lambda x: x + 1.0  # noqa: E731 - two-character map, named inline
    trace = km_iterate(line, drift, 0.0, sched, 1000)
    # the estimate at N is the last residual of the length-N orbit, and this
    # orbit's prefix residuals are exactly those estimates
    if any(r != 1.0 for r in trace.residuals):
        notes.append("unit-translation residual left 1.0 within N <= 1000")
    for N in (0, 1, 17, 1000):
        if estimate_residual_inf(line, drift, 0.0, sched, N) != 1.0:
            notes.append(f"estimator at N={N} is not exactly 1.0")
    half = make_half_line()
    est = estimate_residual_inf(half, lambda x: max(x - 1.0, 0.0), 5.0, sched, 60)
    if not est <= 1e-9:
        notes.append(f"clamped-drop estimate {est:.3g} is above 1e-9 at N=60")
    return notes, f"translation estimate == 1.0 for N <= 1000; drop estimate {est:.1e} at N=60"


@criterion(7, "product pipeline", limit=30)
def criterion_7() -> tuple[list[str], str]:
    """The diagonal product demo certifies residual <= 0.01 through the full
    selection + oracle + lift path; the certified-index inequality holds at
    the index actually used; estimates stay within r* + 2*eps on every
    shipped example with known infimum."""
    notes = []
    ex = EXAMPLES["diagonal"]()
    res = solve_example(ex, Fraction(1, 100), budget=2000, seed=0)
    if res.certificate is None:
        notes.append("diagonal solve emitted no certificate")
    elif not res.certificate.residual <= 0.01:
        notes.append(f"certificate residual {res.certificate.residual:.3g} > 0.01")
    run = certified_run(
        ex.T, ex.delta, ex.sched, ex.oracle, ex.b1, ex.b2, Fraction(1, 100),
        ex.probe, budget=2000,
    )
    if not run.inequality_ok:
        notes.append(
            f"residual {run.step.residual:.3g} broke the certified bound "
            f"{run.guarantee:.3g} at n={run.step.n}"
        )
    eps = 0.125
    N = 12  # >= ceil(1/eps), so the oracle tolerance has reached eps
    for name in ("diagonal", "constant", "drop", "drift"):
        known = EXAMPLES[name]()
        if known.r_star is None:
            continue
        est = estimate_product_residual_inf(
            known.T, known.delta, known.sched, known.oracle, N
        )
        if not est <= known.r_star + 2 * eps + 1e-9:
            notes.append(
                f"{name}: estimate {est:.3g} above r* + 2*eps = "
                f"{known.r_star + 2 * eps:.3g}"
            )
    return notes, (
        "certificate residual 0 at the budget index; bound inequality holds; "
        "4 known-infimum estimates within r* + 2*eps"
    )


@criterion(8, "family mode")
def criterion_8() -> tuple[list[str], str]:
    """With a constant fiber the family route reproduces the plain product
    certificate byte for byte except its space descriptor, and the shipped
    fiber-invariance violator is flagged."""
    notes = []
    plain = solve_example(EXAMPLES["diagonal"](), Fraction(1, 100), budget=400, seed=0)
    viafam = solve_example(
        EXAMPLES["family_const"](), Fraction(1, 100), budget=400, seed=0
    )
    if plain.certificate is None or viafam.certificate is None:
        notes.append("one of the two routes emitted no certificate")
    else:
        left, right = plain.certificate.to_record(), viafam.certificate.to_record()
        if (left.pop("space")["kind"], right.pop("space")["kind"]) != ("product", "family_product"):
            notes.append("the two routes did not run on a plain and a family product")
        if canonical_json(left) != canonical_json(right):
            notes.append("family-route certificate differs from the plain route")
    good = EXAMPLES["family_valid"]()
    if not check_family_invariance(good.T, samples=500).ok:
        notes.append("valid family example was flagged")
    bad = EXAMPLES["family_violating"]()
    if check_family_invariance(bad.T, samples=500).ok:
        notes.append("violating family example was not flagged")
    return notes, (
        "constant-fiber certificates match but for the space; violator flagged on 500 samples"
    )


@criterion(9, "displacement moduli")
def criterion_9() -> tuple[list[str], str]:
    """Displacement moduli hold against live orbits: D = b * sum(lambda_i)
    bounds orbit displacement on the shared map family, the Banach bound
    k^n/(1-k) * r0 holds along contraction orbits, and the round-trip
    modulus passes the empirical checker at doubled tolerance."""
    notes = []
    sched = constant_schedule("1/2")
    fixed_100 = RegularityModulus(N_of=lambda eps, b: 100, label="fixed(100)")
    disp = regularity_to_uafpp(fixed_100, sched)
    disp_bad = 0
    for box, T, x0 in affine_map_family(500, seed=2):
        r0 = box.distance(x0, T(x0))
        if r0 <= 0.0:
            continue
        D = disp(1, r0)  # exactly r0 * 50 for 100 half-steps
        end = km_orbit_end(box, T, x0, sched, 100)
        if box.distance(x0, end) > float(D) + 1e-9:
            disp_bad += 1
    if disp_bad:
        notes.append(f"orbit displacement exceeded b*sum(lambda) on {disp_bad} maps")
    banach_bad = 0
    for k in (0.3, 0.5, 0.9):
        for c, x0 in ((0.0, 7.0), (1.0, -3.0), (0.25, 0.2)):
            fixed = c / (1.0 - k)
            T = lambda x, k=k, c=c: k * x + c  # noqa: E731
            r0 = abs(T(x0) - x0)
            x = x0
            for n in range(61):
                if abs(x - fixed) > banach_orbit_bound(k, n, r0) + 1e-9:
                    banach_bad += 1
                    break
                x = T(x)
    if banach_bad:
        notes.append(f"Banach orbit bound failed on {banach_bad} contraction runs")
    # round trip at eps = 1/2: the regularity index is an exact integer with
    # about 7 * 10^5 digits, and the induced displacement bound is a finite
    # exact rational; witnesses may exit as soon as their residual is within
    # the doubled tolerance, which the checker verifies
    unit = make_interval(0.0, 1.0)
    diam = UafppModulus(D_of=lambda eps, b: Fraction(1), label="diameter")
    reg = uafpp_to_regularity(diam, sched)
    roundtrip = regularity_to_uafpp(reg, sched)
    eps0 = Fraction(1, 2)
    N_rt = reg(eps0, 1)
    D_rt = roundtrip(eps0, 1)
    if not (N_rt > 0 and D_rt > 0):
        notes.append("round-trip modulus is not positive")
    stop = float(reg.eps_factor * eps0)

    def witness_probe(T, x):
        return km_witness(unit, T, x, sched, N_rt, stop_eps=stop).point

    entries = [
        (T, witness_probe)
        for T in (
            interval_affine(unit, 0.3, 0.2),
            interval_affine(unit, 0.5, 0.25),
            constant_map(unit, 0.4),
            identity_map(unit),
        )
    ]
    frozen = UafppModulus(
        D_of=lambda eps, b: D_rt, label="round-trip at eps0=1/2"
    )
    rt = check_uafpp_empirically(
        unit, entries, eps=stop, b=1, phi=frozen, samples=40, seed=9
    )
    if not rt.ok:
        notes.append(f"round-trip checker: {rt.summary()}")
    # the same checker with teeth: the Banach modulus D = b/(1-k) is far
    # below the ambient diameter, and analytic fixed points witness it
    wide = make_interval(0.0, 20.0)
    half_maps = [
        interval_affine(wide, 0.5, c) for c in (2.0, 5.0, 8.0)
    ]

    def fixed_point_probe(T, x):
        del x
        return T(0.0) / 0.5  # slope 1/2: fixed point is intercept / (1 - k)

    strict = UafppModulus(
        D_of=lambda eps, b: banach_ufpp_modulus(Fraction(1, 2), b),
        label="banach(k=1/2)",
    )
    st = check_uafpp_empirically(
        wide,
        [(T, fixed_point_probe) for T in half_maps],
        eps=1e-6,
        b=1,
        phi=strict,
        samples=60,
        seed=10,
    )
    if not st.ok:
        notes.append(f"Banach modulus checker: {st.summary()}")
    elif st.eligible == 0:
        notes.append("Banach modulus checker sampled no eligible starts")
    return notes, (
        "orbit displacement within D on 500 maps; Banach bound holds for "
        "k in {0.3, 0.5, 0.9}, n <= 60; round-trip D ~ 10^"
        f"{digit_count(int(D_rt)) - 1} passes at 2*eps; strict Banach "
        f"modulus passes on {st.eligible} eligible starts"
    )


@criterion(10, "displacement-to-diameter")
def criterion_10() -> tuple[list[str], str]:
    """A uniform displacement modulus at tolerance 1 bounds the diameter:
    the check passes on [0,1] with D1 = 1 and reports a violation on the
    real line."""
    notes = []
    bounded = gk_boundedness_check(make_interval(0.0, 1.0), 1.0, samples=2000)
    if not bounded.ok:
        notes.append("[0,1] was reported as exceeding 2*D1 + 1")
    unbounded = gk_boundedness_check(make_real_line(), 1.0, samples=2000)
    if unbounded.ok:
        notes.append("the real line produced no pair beyond 2*D1 + 1")
    return notes, (
        f"[0,1] within bound {bounded.bound:g}; real line violated it "
        f"(max sampled distance {unbounded.max_distance:.3g})"
    )


@criterion(11, "CLI determinism")
def criterion_11() -> tuple[list[str], str]:
    """Two product-solver CLI runs with identical config and seed write
    byte-identical certificate files."""
    from .cli import main as cli_main

    cfg = {"example": "diagonal", "eps": "1/100", "seed": 0, "budget": 400}
    notes = []
    with tempfile.TemporaryDirectory() as td:
        cfg_path = os.path.join(td, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        payloads = []
        for name in ("first.json", "second.json"):
            out = os.path.join(td, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["product", "--config", cfg_path, "--out", out])
            if code != 0:
                notes.append(f"CLI run exited {code}")
            with open(out, "rb") as f:
                payloads.append(f.read())
    if not payloads[0]:
        notes.append("CLI produced an empty certificate file")
    if payloads[0] != payloads[1]:
        notes.append("the two runs differ byte for byte")
    return notes, f"two runs, {len(payloads[0])} bytes each, byte-identical"


#: a tuple, not a list: perfbench's tracer rewraps functions held in tuples
CRITERIA: tuple[Callable[[], CriterionResult], ...] = tuple(
    globals()[f"criterion_{number}"] for number in range(1, 12)
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
