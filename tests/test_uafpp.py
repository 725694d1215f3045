"""Uniform approximate-fixed-point moduli: the two converters and their
frozen anchors, contraction moduli with certified Picard runs, witness
orbits, the boundedness consequence, and empirical certification."""

import math
import random
from fractions import Fraction

import pytest

import hypkm.uafpp as uafpp_module
from hypkm import (
    ArgumentError,
    BudgetExhausted,
    InvariantError,
    NonexpansiveMap,
    RegularityModulus,
    Schedule,
    UafppModulus,
    alpha_identity,
    banach_fixed_point,
    banach_orbit_bound,
    banach_ufpp_modulus,
    check_uafpp_empirically,
    clamped_translation,
    constant_map,
    constant_schedule,
    gk_boundedness_check,
    interval_affine,
    km_witness,
    make_interval,
    make_real_line,
    modulus_table,
    rate_h,
    regularity_to_uafpp,
    uafpp_to_regularity,
)

UNIT = make_interval(0.0, 1.0)
LINE = make_real_line()


def plain_schedule() -> Schedule:
    """K=1 witness pair used by the modulus converters, which read only K
    and alpha; the constant-zero lam is never iterated here."""
    return Schedule(lam=lambda n: Fraction(0), K=1, alpha=alpha_identity())


# ---------------------------------------------------------------------------
# modulus wrappers
# ---------------------------------------------------------------------------


def test_modulus_wrappers_validate_arguments():
    phi = UafppModulus(D_of=lambda e, b: b, label="id")
    R = RegularityModulus(N_of=lambda e, b: 5, label="five")
    assert phi(1, Fraction(1, 2)) == Fraction(1, 2)
    assert R(1, 1) == 5
    for m in (phi, R):
        with pytest.raises(ArgumentError):
            m(0, 1)
        with pytest.raises(ArgumentError):
            m(1, -1)


def test_regularity_modulus_clamps_to_natural():
    R = RegularityModulus(N_of=lambda e, b: Fraction(-3), label="neg")
    assert R(1, 1) == 0


# ---------------------------------------------------------------------------
# converters
# ---------------------------------------------------------------------------


def test_uafpp_to_regularity_anchor_thirty():
    phi = UafppModulus(D_of=lambda e, b: Fraction(1), label="unit")
    R = uafpp_to_regularity(phi, plain_schedule())
    assert R(4, 1) == 30
    assert R.eps_factor == 2
    assert R.label == "regularity-from-displacement[unit]"


def test_uafpp_to_regularity_small_b_collapses():
    # b <= D makes the comparison distance D itself, so shrinking b below D
    # changes nothing
    phi = UafppModulus(D_of=lambda e, b: Fraction(1), label="unit")
    R = uafpp_to_regularity(phi, plain_schedule())
    assert R(4, Fraction(1, 4)) == R(4, 1) == 30
    assert R(4, 1) == rate_h(4, 1, 1, alpha_identity())


def test_uafpp_to_regularity_monotone_in_D():
    sched = plain_schedule()
    values = []
    for D in (1, 2, 4):
        phi = UafppModulus(D_of=lambda e, b, D=D: Fraction(D), label=f"D{D}")
        values.append(uafpp_to_regularity(phi, sched)(4, 1))
    assert values[0] <= values[1] <= values[2]
    assert values[0] == 30


def test_regularity_to_uafpp_partial_sum():
    # N=10 at lam = 1/2 and b=2: the orbit moves at most 2 * (10/2) = 10
    R = RegularityModulus(N_of=lambda e, b: 10, label="ten")
    D = regularity_to_uafpp(R, constant_schedule("1/2"))
    assert D(1, 2) == Fraction(10)


def test_regularity_to_uafpp_zero_index():
    R = RegularityModulus(N_of=lambda e, b: 0, label="zero")
    D = regularity_to_uafpp(R, constant_schedule("1/2"))
    assert D(1, 1) == Fraction(0)


def test_regularity_to_uafpp_harmonic_partial_sum():
    # lam_n = 1/(n+1), N=4, b=1: 1 + 1/2 + 1/3 + 1/4 = 25/12 exactly
    sched = Schedule(lam=lambda n: Fraction(1, n + 1), K=2, alpha=alpha_identity())
    R = RegularityModulus(N_of=lambda e, b: 4, label="four")
    D = regularity_to_uafpp(R, sched)
    assert D(1, 1) == Fraction(25, 12)


def test_round_trip_displacement_is_movement_bound():
    # phi(eps, b) = b round-trips through N = 45 at eps=4, b=1/32 into
    # D' = b * 45/2; a slow clamped translation (residual 1/64 everywhere)
    # then meets both clauses of D' at the doubled tolerance empirically
    sched = constant_schedule("1/2")
    phi = UafppModulus(D_of=lambda e, b: b, label="id")
    R = uafpp_to_regularity(phi, sched)
    N = R(4, Fraction(1, 32))
    assert N == 45
    Dp = regularity_to_uafpp(R, sched)
    assert Dp(4, Fraction(1, 32)) == Fraction(45, 64)

    T = clamped_translation(UNIT, 1 / 64)
    probe = lambda T, x: km_witness(UNIT, T, x, sched, N).point
    report = check_uafpp_empirically(
        UNIT, [(T, probe)], eps=2 * 4, b=Fraction(1, 32), phi=Dp, samples=40
    )
    assert report.ok and report.eligible == 40


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def test_banach_modulus_values():
    assert banach_ufpp_modulus(Fraction(1, 2), 1) == 2
    assert banach_ufpp_modulus(Fraction(9, 10), 1) == 10
    assert banach_ufpp_modulus(Fraction(1, 2), Fraction(3, 2)) == 3
    for k in (0, 1, Fraction(3, 2)):
        with pytest.raises(ArgumentError):
            banach_ufpp_modulus(k, 1)
    with pytest.raises(ArgumentError):
        banach_ufpp_modulus(Fraction(1, 2), 0)


def test_banach_fixed_point_halving_equality_case():
    # T(x) = x/2 from x=1 at tol=1: the start already qualifies and its
    # certified displacement bound is exactly 1
    T = NonexpansiveMap(LINE, lambda x: x / 2.0, "halve")
    run = banach_fixed_point(T, 1.0, Fraction(1, 2), 1)
    assert run.steps == 0 and run.point == 1.0
    assert run.initial_residual == 0.5
    assert run.certified_bound == 1.0 <= 1.0


def test_banach_fixed_point_iterates_to_tolerance():
    T = NonexpansiveMap(LINE, lambda x: x / 2.0, "halve")
    run = banach_fixed_point(T, 1.0, Fraction(1, 2), Fraction(1, 100))
    assert run.steps == 7 and run.point == 2.0**-7
    assert abs(run.point - 0.0) <= 0.01  # true fixed point within tol
    assert run.certified_bound == 1.0
    assert run.residual <= (1 - 0.5) * 0.01


def test_banach_fixed_point_ratio_test():
    # claiming k=1/4 for the halving map fails the per-step ratio test
    T = NonexpansiveMap(LINE, lambda x: x / 2.0, "halve")
    with pytest.raises(ArgumentError) as exc:
        banach_fixed_point(T, 1.0, Fraction(1, 4), Fraction(1, 100))
    assert "ratio test" in str(exc.value)


def test_banach_fixed_point_ratio_test_fails_a_nan_residual():
    # nan > k * r is False: a map that turns nan mid-run fails the ratio
    # test, not the step bound
    T = NonexpansiveMap(LINE, lambda x: x / 2.0 if x > 0.3 else math.nan, "halve, then nan")
    with pytest.raises(ArgumentError) as exc:
        banach_fixed_point(T, 1.0, Fraction(1, 2), Fraction(1, 100))
    assert "ratio test failed at step 1: residual nan" in str(exc.value)


@pytest.mark.parametrize("image", [math.nan, math.inf])
def test_banach_fixed_point_refuses_a_non_finite_first_residual(image):
    T = NonexpansiveMap(LINE, lambda x: image, "non-finite")
    with pytest.raises(ArgumentError) as exc:
        banach_fixed_point(T, 1.0, Fraction(1, 2), Fraction(1, 100))
    assert f"initial residual {image} is not finite" in str(exc.value)


def test_banach_fixed_point_fails_a_nan_displacement():
    # a distance from the start that is not a number breaks the
    # geometric-series bound instead of passing it
    class NanFromStart(type(LINE)):
        def distance(self, x, y):
            return math.nan if x == 1.0 and y < 0.5 else super().distance(x, y)

    T = NonexpansiveMap(NanFromStart(-math.inf, math.inf), lambda x: x / 2.0, "halve")
    with pytest.raises(InvariantError):
        banach_fixed_point(T, 1.0, Fraction(1, 2), Fraction(1, 100))


def test_banach_fixed_point_at_fixed_start():
    T = NonexpansiveMap(LINE, lambda x: x / 2.0, "halve")
    run = banach_fixed_point(T, 0.0, Fraction(1, 2), Fraction(1, 10))
    assert run.steps == 0 and run.point == 0.0 and run.certified_bound == 0.0


def test_banach_fixed_point_validation():
    T = NonexpansiveMap(LINE, lambda x: x / 2.0, "halve")
    with pytest.raises(ArgumentError):
        banach_fixed_point(T, 1.0, 1, 1)
    with pytest.raises(ArgumentError):
        banach_fixed_point(T, 1.0, Fraction(1, 2), 0)


def test_banach_orbit_bound_formula_and_orbit():
    assert banach_orbit_bound(Fraction(1, 2), 3, 1.0) == 0.25
    assert banach_orbit_bound(Fraction(1, 2), 0, 1.0) == 2.0
    # halving from 1: r0 = 1/2 and the bound is attained exactly
    for n in range(8):
        assert 2.0**-n <= banach_orbit_bound(Fraction(1, 2), n, 0.5)
        assert banach_orbit_bound(Fraction(1, 2), n, 0.5) == 2.0**-n
    with pytest.raises(ArgumentError):
        banach_orbit_bound(1, 3, 1.0)
    with pytest.raises(ArgumentError):
        banach_orbit_bound(Fraction(1, 2), -1, 1.0)


# ---------------------------------------------------------------------------
# witness runs
# ---------------------------------------------------------------------------

DROP10 = make_interval(0.0, 10.0)


def drop_map():
    return NonexpansiveMap(DROP10, lambda x: max(x - 1.0, 0.0), "drop")


def test_km_witness_zero_steps():
    run = km_witness(DROP10, drop_map(), 5.0, constant_schedule("1/2"), 0)
    assert run.point == 5.0 and run.steps == 0
    assert run.residual == 1.0 and not run.early_exit


def test_km_witness_evaluates_map_once_per_step():
    calls = []
    T = NonexpansiveMap(DROP10, lambda x: calls.append(x) or max(x - 1.0, 0.0), "drop")
    run = km_witness(DROP10, T, 5.0, constant_schedule("1/2"), 20)
    assert run.steps == 20 and len(calls) == 21
    calls.clear()
    run = km_witness(DROP10, T, 5.0, constant_schedule("1/2"), 40, stop_eps=0.5)
    assert run.early_exit and len(calls) == run.steps + 1


def test_km_witness_early_exit_is_sound():
    run = km_witness(
        DROP10, drop_map(), 5.0, constant_schedule("1/2"), 40, stop_eps=1.5
    )
    assert run.early_exit and run.steps == 0 and run.point == 5.0
    assert run.residual == 1.0 <= 1.5


def test_km_witness_runs_to_horizon():
    run = km_witness(
        DROP10, drop_map(), 5.0, constant_schedule("1/2"), 20, stop_eps=1e-12
    )
    assert not run.early_exit and run.steps == 20
    assert run.point == 2.0**-12 and run.residual == 2.0**-12


def test_km_witness_refuses_huge_horizon_without_stop():
    with pytest.raises(ArgumentError):
        km_witness(DROP10, drop_map(), 5.0, constant_schedule("1/2"), 2_000_000)
    with pytest.raises(ArgumentError):
        km_witness(DROP10, drop_map(), 5.0, constant_schedule("1/2"), -1)
    # a horizon past Python's int-to-str limit is named by its magnitude
    with pytest.raises(ArgumentError, match=r"^witness at N=~10\^5000 needs more than"):
        km_witness(DROP10, drop_map(), 5.0, constant_schedule("1/2"), 10**5000)


def test_km_witness_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(uafpp_module, "WITNESS_STEP_CAP", 50)
    T = NonexpansiveMap(LINE, lambda x: x + 1.0, "translate")
    with pytest.raises(BudgetExhausted) as exc:
        km_witness(LINE, T, 0.0, constant_schedule("1/2"), 60, stop_eps=0.5)
    assert exc.value.best_residual == 1.0


# ---------------------------------------------------------------------------
# boundedness consequence
# ---------------------------------------------------------------------------


def test_gk_boundedness_unit_interval_passes():
    rep = gk_boundedness_check(UNIT, 1, samples=40)
    assert rep.ok and rep.max_distance <= 1.0


def test_gk_boundedness_tight_diameter_passes():
    # diameter 1 <= 2*0.01 + 1: even a tiny D1 survives on [0,1]
    rep = gk_boundedness_check(UNIT, Fraction(1, 100), samples=40)
    assert rep.ok


def test_gk_boundedness_refutes_wide_set():
    # [0,20] has pairs farther than 2*4.5+1 = 10 apart
    rep = gk_boundedness_check(make_interval(0.0, 20.0), Fraction(9, 2), samples=40)
    assert not rep.ok and rep.first_violation is not None
    assert rep.max_distance > 10.0
    with pytest.raises(ArgumentError):
        gk_boundedness_check(UNIT, 1, samples=0)


def test_gk_boundedness_refutes_a_nan_distance():
    # nan > bound is False: a distance that is not a number must not pass
    class NanDistance(type(UNIT)):
        def distance(self, x, y):
            return math.nan

    rep = gk_boundedness_check(NanDistance(0.0, 1.0), 1, samples=20)
    assert not rep.ok and rep.first_violation is not None
    # the running maximum reports the nan, not -inf
    assert math.isnan(rep.max_distance)


# ---------------------------------------------------------------------------
# empirical certification
# ---------------------------------------------------------------------------


def test_check_uafpp_contraction_family_passes():
    # for T(x) = x/2 the fixed point 0 witnesses D = b/(1-k) = 2b exactly
    phi = UafppModulus(
        D_of=lambda e, b: banach_ufpp_modulus(Fraction(1, 2), b), label="banach"
    )
    T = interval_affine(UNIT, 0.5, 0.0)
    probe = lambda T, x: 0.0
    report = check_uafpp_empirically(
        UNIT, [(T, probe)], eps=Fraction(1, 10), b=Fraction(1, 4), phi=phi
    )
    assert report.ok
    assert 0 < report.eligible < report.samples  # the residual filter bites
    assert "every witness met both clauses" in report.summary()


def test_check_uafpp_bounded_set_with_km_probe():
    # on a bounded set the diameter is a valid modulus; witnesses come from
    # live averaged orbits stopped at the target tolerance
    sched = constant_schedule("1/2")
    phi = UafppModulus(D_of=lambda e, b: Fraction(1), label="diam")
    eps = Fraction(1, 4)
    probe = lambda T, x: km_witness(UNIT, T, x, sched, 200, stop_eps=float(eps)).point
    entries = [
        (NonexpansiveMap(UNIT, lambda x: 1.0 - x, "flip"), probe),
        (interval_affine(UNIT, 0.5, 0.0), probe),
        (constant_map(UNIT, 0.3), probe),
    ]
    report = check_uafpp_empirically(UNIT, entries, eps=eps, b=2, phi=phi)
    assert report.ok
    assert report.samples == 50 * len(entries)  # totals span all entries
    assert report.eligible == report.samples  # b=2 exceeds the diameter


def test_check_uafpp_refutes_small_modulus():
    # claiming D = 1/1000 against a far-away fixed point lists failures
    phi = UafppModulus(D_of=lambda e, b: Fraction(1, 1000), label="tiny")
    T = constant_map(UNIT, 0.9)
    good_probe = lambda T, x: 0.9
    lazy_probe = lambda T, x: x
    report = check_uafpp_empirically(
        UNIT,
        [(T, good_probe), (T, lazy_probe)],
        eps=Fraction(1, 100),
        b=2,
        phi=phi,
    )
    assert not report.ok
    clauses = {f[2] for f in report.failures}
    assert clauses == {"displacement", "witness residual"}
    assert "failures, first on" in report.summary()
    with pytest.raises(ArgumentError):
        check_uafpp_empirically(UNIT, [(T, good_probe)], 1, 1, phi, samples=0)


def test_check_uafpp_flags_a_nan_witness():
    # a nan witness is outside every space, and its distances compare False
    phi = UafppModulus(D_of=lambda e, b: Fraction(1), label="diam")
    T = interval_affine(UNIT, 0.5, 0.0)
    report = check_uafpp_empirically(UNIT, [(T, lambda T, x: math.nan)], Fraction(1, 4), 2, phi)
    assert not report.ok
    assert len(report.failures) == report.eligible == report.samples
    assert {f[2] for f in report.failures} == {"witness outside the space"}
    assert "witness outside the space nan" in report.summary()
    # the witness 0 is a point of [0, 1], but the map is nan there
    T = NonexpansiveMap(UNIT, lambda x: math.nan if x == 0.0 else x / 2, "nan at 0")
    report = check_uafpp_empirically(UNIT, [(T, lambda T, x: 0.0)], Fraction(1, 4), 2, phi)
    assert not report.ok
    assert len(report.failures) == report.samples
    assert {f[2] for f in report.failures} == {"witness residual"}


def test_check_uafpp_flags_a_witness_outside_the_space():
    # the identity fixes 3/2 and every x in [1/2, 1] is within D = 1 of it,
    # but 3/2 is not a point of [0, 1]
    phi = UafppModulus(D_of=lambda e, b: Fraction(1), label="diam")
    T = NonexpansiveMap(UNIT, lambda x: x, "identity")
    report = check_uafpp_empirically(UNIT, [(T, lambda T, x: 1.5)], Fraction(1, 4), 2, phi)
    assert not report.ok
    assert len(report.failures) == report.samples
    assert {f[2] for f in report.failures} == {"witness outside the space"}
    assert report.failures[0][3:] == (1.5, None)


def test_check_uafpp_astronomical_modulus_stays_exact():
    # a huge exact D must not overflow into float during comparison
    phi = UafppModulus(D_of=lambda e, b: Fraction(10) ** 600, label="huge")
    T = interval_affine(UNIT, 0.5, 0.0)
    report = check_uafpp_empirically(UNIT, [(T, lambda T, x: 0.0)], 1, 2, phi)
    assert report.ok


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_modulus_table_rows():
    phi = UafppModulus(
        D_of=lambda e, b: banach_ufpp_modulus(Fraction(1, 2), b), label="banach"
    )
    rows = modulus_table(phi, [1, 2], [1])
    assert rows == [("1", "1", "2"), ("2", "1", "2")]


def test_modulus_table_overflow_formatting():
    phi = UafppModulus(D_of=lambda e, b: Fraction(10) ** 400, label="huge")
    rows = modulus_table(phi, [1], [1])
    assert rows == [("1", "1", "10^400")]


@pytest.mark.parametrize(
    "value, text",
    [
        (10**50, "10^50"),
        (10**50 - 1, "99999999999999999999999999999999999999999999999999"),  # 50 digits: exact
        (10**50 + 1, "10^51"),
        (Fraction(10**400) - Fraction(1, 3), "10^400"),
        (Fraction(10**400) + Fraction(1, 3), "10^401"),
        (2 * 10**308, "10^309"),
        (Fraction(10**401 - 1), "10^401"),
    ],
)
def test_modulus_table_value_is_a_power_of_ten_at_or_above_it(value, text):
    # fmt_number prints each of these but the 50-digit int as ~10^N with
    # 10^N <= value; the table's value column prints the least 10^k >= value
    phi = UafppModulus(D_of=lambda e, b: value, label="huge")
    assert modulus_table(phi, [1], [1]) == [("1", "1", text)]
