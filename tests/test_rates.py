"""Exact rate arithmetic: witness functions, the settling recursion, the
certified exponential ceiling, and the four rate bounds.

Dual-route discipline: closed forms are checked against literal mirror
recursions written here from the definitions, the exponential ceiling
against an mpmath evaluation at high precision, and the frozen anchors
against an in-test reconstruction of the whole pipeline (threshold, ceiling,
recursion) that shares no code with the library path.
"""

import math
import random
import re
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from hypkm import (
    ArgumentError,
    RateOverflowError,
    alpha_double,
    alpha_hat,
    alpha_identity,
    alpha_plus,
    alpha_scale_ceil,
    alpha_table,
    alpha_tilde,
    as_fraction,
    ceil_exp_upper,
    describe_overflow,
    digit_count,
    rate_g,
    rate_g_tilde,
    rate_h,
    rate_h_tilde,
)
from hypkm.rates import (
    _EXP1_HI,
    _LEAF_BITS,
    _RUN_EDGES,
    _STR_BITS,
    STEP_BUDGET,
    _exp1_hi_power,
    _linear_jump,
    _log10_upper,
    decimal_string,
    fmt_number,
    monus,
)

mpmath.mp.dps = 80


# --- mirror implementations straight from the definitions ------------------


def scan_alpha_plus(alpha, i, n):
    return max(alpha(n + j) - j + 1 for j in range(i + 1))


def mirror_alpha_hat(alpha, i, n):
    a = 0 + scan_alpha_plus(alpha, 0, n)
    for _ in range(i):
        a += scan_alpha_plus(alpha, a, n)
    return a


def linear_alpha_hat(c, i, n):
    """alpha_hat on the linear law m -> ceil(c m), c >= 1, stepped in
    Fractions: a(0) = ceil(c n) + 1 and a(k+1) = a(k) + alpha_plus(a(k), n) =
    ceil(c (n + a(k))) + 1, since ceil(c (n + j)) - j + 1 is nondecreasing
    in j."""
    c = Fraction(c)
    a = math.ceil(c * n) + 1
    for _ in range(i):
        a = math.ceil(c * (n + a)) + 1
    return a


def exp_ceiling_oracle(c, e):
    return int(mpmath.ceil(mpmath.mpf(c.numerator) / c.denominator * mpmath.e**e))


def mirror_rate(eps, b, K, alpha, coeff, m_num):
    eps, b = Fraction(eps), Fraction(b)
    M = math.ceil((1 + m_num * b) / eps)
    E = exp_ceiling_oracle(coeff * b, K * (M + 1))
    return mirror_alpha_hat(alpha, E - 1, M)


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def test_as_fraction():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(3) == 3
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    # floats are taken at their exact binary value, not re-rounded
    assert as_fraction(0.1) == Fraction(0.1) != Fraction(1, 10)
    for bad in ("x", "1/0", True, [1]):
        with pytest.raises(ArgumentError):
            as_fraction(bad)


def test_as_fraction_keeps_strings_printable():
    # a parsed numerator or denominator has at most MAX_STR_DIGITS digits, so
    # str() prints it under the interpreter's default int-to-str limit
    assert as_fraction("9" * 4300) == 10**4300 - 1
    assert as_fraction("1/" + "9" * 4298).denominator == 10**4298 - 1
    assert as_fraction("1e4299") == 10**4299
    for bad in ("1e4300", "-1e4300", "1e-4300", "9" * 2000 + "e2301"):
        with pytest.raises(ArgumentError, match="is over 4300 digits"):
            as_fraction(bad)


@pytest.mark.parametrize(
    "value, spec, text",
    [
        (30, ".6g", "30"),
        (10**50 - 1, ".6g", "9" * 50),
        (10**50, ".17g", "~10^50"),  # 51 digits: too long to print, inside float range
        (-(10**400), ".6g", "-~10^400"),
        (Fraction(1, 3), ".17g", "0.33333333333333331"),
        (Fraction(7, 2), ".6g", "3.5"),
        (Fraction(10**400, 3), ".6g", "~10^399"),
        (2.5e300, ".6g", "2.5e+300"),
    ],
)
def test_fmt_number(value, spec, text):
    assert fmt_number(value, spec) == text


def test_monus():
    assert monus(5, 3) == 2
    assert monus(3, 5) == 0
    assert monus(4, 4) == 0


def test_digit_count_against_str():
    values = [0, 1, 9, 10, 99, 100, 10**17 - 1, 10**17, 7**300, 2**4000 - 1]
    for v in values:
        assert digit_count(v) == len(str(v))
        assert digit_count(-v) == len(str(v))


@pytest.mark.parametrize("k", list(range(1, 64)) + [300, 4299, 4300, 4301, 20_000, 65_537, 100_000])
def test_digit_count_at_powers_of_ten(k):
    # every one of these lies within 1e-9 of an integer log10, so the exact
    # 10**k comparison decides it
    p = 10**k
    assert digit_count(p - 1) == k
    assert digit_count(p) == k + 1
    assert digit_count(p + 1) == k + 1
    assert digit_count(-p) == k + 1


@given(st.integers(min_value=-(10**1200), max_value=10**1200))
@example(2**64 - 1)
@example(2**64)
@example(2**64 + 1)
def test_digit_count_equals_len_str(x):
    assert digit_count(x) == len(str(abs(x)))


def test_digit_count_of_the_anchor_reads_bits_only():
    # the anchor h = 13 * (2^2405209 - 1) is far from a power of ten: no
    # 10**724041 is built (that alone takes about 0.2 s)
    h = 13 * (2**2405209 - 1)
    start = time.perf_counter()
    assert digit_count(h) == 724042
    assert time.perf_counter() - start < 0.05


def str_oracle(x):
    # str() with the int-to-str digit limit lifted for this call only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


#: (x, power): x up to about 2,000 bits at small powers, and below 200 bits
#: at the power _log10_upper takes
DIGIT_POWERS = st.one_of(
    st.tuples(st.integers(-(2**2000), 2**2000), st.sampled_from([1, 2, 3, 7])),
    st.tuples(st.integers(-(2**200), 2**200), st.just(256)),
)


@given(DIGIT_POWERS)
@example((0, 7))
@example((1, 256))
@example((2**63, 256))
@example((2**64, 256))
@example((2**64 - 1, 3))
@example((10**19 - 1, 256))
@example((10**19, 256))
@example((10**19 + 1, 256))
@example((10**60 - 1, 256))
@example((-(10**60), 256))
@example((10**600 + 1, 7))
@example((10**600 - 1, 7))
def test_digit_count_of_a_power_equals_len_str(x_power):
    # below 2**64 the estimate is log10|x| itself: an upper end at
    # log10(|x| + 1), scaled by 256, spans several integers, and counted 77
    # digits for 1**256 and 122 for 2**256 (which has 78)
    x, power = x_power
    assert digit_count(x, power) == len(str_oracle(abs(x) ** power))


def log10_upper_by_powers(c):
    """_log10_upper as it was written before digit_count took a power: from
    the digit counts of p**256 and q**256, built."""
    c = Fraction(c)
    return Fraction(digit_count(c.numerator**256) - digit_count(c.denominator**256) + 1, 256)


@given(
    p=st.integers(1, 2**1000),
    q=st.one_of(st.just(1), st.integers(1, 2**300)),
)
@example(p=1, q=1)
@example(p=2, q=1)
@example(p=10, q=1)
@example(p=10**19, q=1)
@example(p=10**40 + 1, q=10**20 - 1)
@example(p=2**64 - 1, q=2**64 + 1)
@example(p=2**200 + 1, q=3)
def test_log10_upper_equals_the_built_powers(p, q):
    c = Fraction(p, q)
    u = _log10_upper(c)
    assert u == log10_upper_by_powers(c)
    if c.denominator == 1:
        assert _log10_upper(c.numerator) == u
    if p < 2**300:
        # sound: c**256 < 10**(256 u)
        e = int(256 * u)
        assert c.numerator**256 * 10 ** max(0, -e) < c.denominator**256 * 10 ** max(0, e)


@st.composite
def renderer_inputs(draw):
    # random values up to ~200k bits, clustered on both sides of the str()
    # cutover, plus the shapes whose digits are all 0 or all 9 in some base,
    # the closed-form shapes m*2**k -/+ r, and runs of 0s and 1s whose
    # lengths straddle both the leaf width and the str() cutover
    bits = draw(
        st.one_of(
            st.integers(0, 200_000),
            st.integers(_STR_BITS - 64, _STR_BITS + 64),
            st.integers(100_000, 200_000),
        )
    )
    shape = draw(
        st.sampled_from(
            [
                "random",
                "10**k",
                "10**k - 1",
                "2**k - 1",
                "2**k",
                "m*2**k - r",
                "m*2**k + r",
                "runs",
            ]
        )
    )
    k10 = bits * 30103 // 100000
    if shape == "random":
        x = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)
    elif shape == "10**k":
        x = 10**k10
    elif shape == "10**k - 1":
        x = 10**k10 - 1
    elif shape == "2**k - 1":
        x = 2**bits - 1
    elif shape == "2**k":
        x = 2**bits
    elif shape == "runs":
        rng = random.Random(draw(st.integers(0, 2**32)))
        x, width, bit = 0, 0, rng.getrandbits(1)
        while width < bits:
            run = rng.choice(
                [
                    rng.randint(1, _LEAF_BITS - 1),
                    rng.randint(_LEAF_BITS, _STR_BITS),
                    rng.randint(_STR_BITS + 1, 2 * _STR_BITS),
                ]
            )
            x = (x << run) | (bit * ((1 << run) - 1))
            width, bit = width + run, bit ^ 1
    else:
        m = draw(st.integers(1, 1000))
        r = draw(st.integers(0, 1000))
        x = m * 2**bits - r if shape == "m*2**k - r" else m * 2**bits + r
    return x if draw(st.booleans()) else -x


def from_runs(widths):
    """The int whose runs of equal bits, from its top bit down, have these
    widths, 1s first: it has one edge per run."""
    x = 0
    for j, width in enumerate(widths):
        x = (x << width) | ((1 << width) - 1 if j % 2 == 0 else 0)
    return x


def test_from_runs_has_one_edge_per_run():
    for widths in ([1], [3, 2], [1] * 7 + [60_000] + [1] * 8, [5_000] * _RUN_EDGES):
        x = from_runs(widths)
        assert x.bit_length() == sum(widths)
        assert (x ^ (x >> 1)).bit_count() == len(widths)


#: renderer inputs at the edges of the run sum: exactly _RUN_EDGES edges and
#: one more, with one long gap or with many; the anchor's shape at the str()
#: cutover; a long run of 0s; gaps of _LEAF_BITS and one more; and an edge on
#: the first midpoint split
RUN_EXAMPLES = [
    from_runs([1] * 7 + [60_000] + [1] * 8),
    from_runs([1] * 8 + [60_000] + [1] * 8),
    from_runs([2] * 7 + [60_000] + [3] * 9),
    from_runs([5_000] * _RUN_EDGES),
    from_runs([5_000] * (_RUN_EDGES + 1)),
    13 * (2**_STR_BITS - 1),
    977 * 2**60_000 + 123_456_789,
    from_runs([_LEAF_BITS, 60_000, _LEAF_BITS]),
    from_runs([_LEAF_BITS + 1, 60_000, _LEAF_BITS + 1]),
    from_runs([3, _LEAF_BITS, 3, 60_000, 1, _LEAF_BITS + 1]),
    from_runs([_STR_BITS, _STR_BITS]),
    from_runs([_STR_BITS + 1, _STR_BITS]),
    from_runs([1] * 20 + [_STR_BITS - 20, _STR_BITS]),
]


def with_run_examples(test):
    """test with each of RUN_EXAMPLES and its negative as an @example."""
    for x in RUN_EXAMPLES:
        test = example(-x)(example(x)(test))
    return test


@given(renderer_inputs())
@example(0)
@example(-1)
@example(2**_STR_BITS - 1)
@example(2**_STR_BITS)
@example(-(2**_STR_BITS))
@example(10**60_000)
@example(10**60_000 - 1)
@example(13 * (2**60_000 - 1))
@example(-13 * (2**60_000 - 1))
@example(2**60_000)
@with_run_examples
def test_decimal_string_matches_str(x):
    assert decimal_string(x) == str_oracle(x)


def test_decimal_string_without_the_c_decimal_module(monkeypatch):
    # the fallback is str() with the int-to-str digit limit lifted for the
    # call only; 2**20000 has 6,021 digits, past the default limit
    import hypkm.rates as rates_module

    monkeypatch.setattr(rates_module, "_decimal", None)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for x in (2**20_000, -(2**20_000) + 1, 13 * (2**60_000 - 1)):
            assert decimal_string(x) == str_oracle(x)
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def literal_linear_steps(a, p, q, n, k):
    """k steps of a <- ceil(p(n + a)/q) + 1, one at a time."""
    for _ in range(k):
        a = -(-p * (n + a) // q) + 1
    return a


@given(
    q=st.integers(1, 50),
    p_minus_q=st.one_of(st.integers(0, 3), st.integers(0, 60 * 50)),
    n=st.one_of(st.integers(0, 10**3), st.integers(0, 10**30)),
    a=st.integers(0, 10**30),
    k=st.integers(0, 2_000),
)
@example(q=1, p_minus_q=2**20 - 1, n=10**30, a=10**30, k=2_000)  # p = 2**20: a shift
@example(q=2, p_minus_q=1, n=0, a=0, k=64)
@example(q=2, p_minus_q=1, n=0, a=0, k=65)
@example(q=7, p_minus_q=3, n=10**3, a=10**30, k=65)
@example(q=3, p_minus_q=100, n=5, a=2**100 - 1, k=100)  # a.bit_length() == k*(bits(q) - 1)
@example(q=3, p_minus_q=100, n=5, a=2**100, k=100)
@example(q=4, p_minus_q=1, n=0, a=2**140 - 1, k=70)
@example(q=4, p_minus_q=1, n=0, a=2**140, k=70)  # a = q**k: m = 1, r = 0
@example(q=50, p_minus_q=0, n=10**30, a=10**30, k=2_000)  # c = 1, p = q = 50
def test_linear_jump_matches_the_literal_loop(q, p_minus_q, n, a, k):
    # the jump against the recursion stepped literally; the budgets never
    # bind here (c <= 3,001 or p = 2**20: at most 12,100 digits)
    p = q + p_minus_q
    assert _linear_jump(a, p, q, n, k, "test") == literal_linear_steps(a, p, q, n, k)


# ---------------------------------------------------------------------------
# witness catalog
# ---------------------------------------------------------------------------


def test_alpha_catalog_values():
    assert [alpha_identity()(n) for n in range(4)] == [0, 1, 2, 3]
    assert [alpha_double()(n) for n in range(4)] == [0, 2, 4, 6]
    assert [alpha_scale_ceil(Fraction(3, 2))(n) for n in range(5)] == [0, 2, 3, 5, 6]
    t = alpha_table((0, 2, 9, 20))
    assert [t(n) for n in range(6)] == [0, 2, 9, 20, 20, 20]


def test_alpha_catalog_validation():
    with pytest.raises(ArgumentError):
        alpha_scale_ceil(Fraction(1, 2))
    with pytest.raises(ArgumentError):
        alpha_table(())
    with pytest.raises(ArgumentError):
        alpha_table((1, -2))
    with pytest.raises(ArgumentError):
        alpha_identity()(-1)


def test_alpha_descriptors():
    assert alpha_scale_ceil(Fraction(3, 2)).label == "scale_ceil(3/2)"
    assert alpha_identity().label == "identity" and alpha_double().label == "double"
    assert alpha_table((1, 2, 4, 7)).label == "table(len=4)"


# ---------------------------------------------------------------------------
# recursion combinators: closed forms vs literal scans
# ---------------------------------------------------------------------------

CATALOG = [
    alpha_identity(),
    alpha_double(),
    alpha_scale_ceil(Fraction(3, 2)),
    alpha_scale_ceil(5),
    alpha_table((0, 2, 9, 20)),
    alpha_table((5, 5, 5)),
]


@pytest.mark.parametrize("alpha", CATALOG, ids=lambda a: a.label)
def test_alpha_plus_matches_scan(alpha):
    for i in range(41):
        for n in range(7):
            assert alpha_plus(alpha, i, n) == scan_alpha_plus(alpha, i, n)
            assert alpha_plus(alpha, i, n) >= 1


def test_alpha_tilde_definition():
    for alpha in CATALOG:
        for i in range(10):
            assert alpha_tilde(alpha, i, 2) == i + alpha_plus(alpha, i, 2)


@pytest.mark.parametrize("alpha", CATALOG, ids=lambda a: a.label)
def test_alpha_hat_matches_mirror_recursion(alpha):
    # the mirror scan costs O(a) per step, so walk i while a stays small
    for n in (0, 1, 5):
        a = scan_alpha_plus(alpha, 0, n)
        i = 0
        while True:
            assert alpha_hat(alpha, i, n) == a
            if a > 50_000 or i >= 30:
                break
            a += scan_alpha_plus(alpha, a, n)
            i += 1
        assert i >= 5  # every catalog kind gets a meaningful depth


@st.composite
def table_laws(draw):
    """(table, n, i, i_hat): 1-30 entries in 0-60 after a run of zeros, n in
    0-40 (so n >= len occurs) but inside the table half the time, i in 0-600
    for alpha_plus, and i_hat for alpha_hat.  The zeros make the walk to the
    first clamped index long, with increments that grow on the way.  The
    mirror walk scans about (max(table) + 1) * i_hat**2 / 2 terms, so i_hat
    is drawn under a budget of 30,000 scans: up to 244 on zero entries, 31
    on entries of 60.  An example takes it to 600."""
    values = draw(st.lists(st.integers(0, 60), min_size=1, max_size=30))
    zeros = draw(st.integers(0, len(values)))
    table = alpha_table([0] * zeros + values[zeros:])
    n = draw(st.one_of(st.integers(0, len(values) - 1), st.integers(0, 40)))
    i = draw(st.integers(0, 600))
    i_hat = draw(st.integers(0, math.isqrt(60_000 // (max(table.table) + 1))))
    return table, n, i, i_hat


@given(table_laws())
@example((alpha_table([0] * 30), 0, 600, 600))
@example((alpha_table([60] * 30), 0, 600, 31))
@example((alpha_table((0, 2, 9, 20)), 3, 1, 50))
@example((alpha_table((7,)), 40, 0, 5))
@example((alpha_table(range(60, 30, -1)), 29, 2, 70))
@example((alpha_table([0] * 29 + [60]), 0, 29, 40))
def test_table_law_matches_the_scans(case):
    # the prefix maxima against a scan per call, at every i up to two past
    # the first clamped index and at a random i; alpha_hat against a walk
    # that scans at every step
    table, n, i, i_hat = case
    for j in [*range(len(table.table) + 2), i]:
        assert alpha_plus(table, j, n) == scan_alpha_plus(table, j, n)
    assert alpha_hat(table, i_hat, n) == mirror_alpha_hat(table, i_hat, n)


def test_alpha_hat_closed_forms():
    # identity: hat(i, n) = (i+1)(n+1); double: (2n+1)(2^(i+1)-1)
    for i in range(65):
        for n in (0, 1, 5, 50):
            assert alpha_hat(alpha_identity(), i, n) == (i + 1) * (n + 1)
            assert alpha_hat(alpha_double(), i, n) == (2 * n + 1) * (2 ** (i + 1) - 1)
    assert alpha_hat(alpha_identity(), 2, 3) == 12
    assert alpha_hat(alpha_double(), 1, 1) == 9


def _outcome(compute):
    """The value, or the bounds a RateOverflowError carries."""
    try:
        return compute()
    except RateOverflowError as exc:
        return ("overflow", exc.log10_upper, exc.log10_log10_upper)


#: identity and double against the linear law at c = 1 and c = 2.
FOLDS = [(alpha_identity(), alpha_scale_ceil(1)), (alpha_double(), alpha_scale_ceil(2))]


@given(
    n=st.integers(0, 10**20),
    i=st.one_of(st.integers(0, 1024), st.integers(0, 10**12)),
)
@example(n=0, i=511)
@example(n=3, i=512)
@example(n=3, i=513)
@example(n=7, i=3 * 10**6)
def test_identity_and_double_are_scale_ceil_one_and_two(n, i):
    assert alpha_identity()(n) == n and alpha_double()(n) == 2 * n
    assert type(alpha_scale_ceil("4/2").c) is int
    # the closed forms identity and double had before they became linear
    assert alpha_plus(alpha_identity(), i, n) == n + 1
    assert alpha_plus(alpha_double(), i, n) == 2 * n + i + 1
    for named, linear in FOLDS:
        assert alpha_plus(named, i, n) == alpha_plus(linear, i, n)
        assert _outcome(lambda: alpha_hat(named, i, n)) == _outcome(lambda: alpha_hat(linear, i, n))


@given(
    K=st.integers(1, 5),
    m=st.integers(10**7, 10**12),
    b=st.sampled_from([1, Fraction(1, 3), 10**400]),
)
def test_folded_witnesses_overflow_with_the_same_bounds(K, m, b):
    eps = Fraction(1, m)
    for named, linear in FOLDS:
        for rate in (rate_h, rate_h_tilde):
            bound = _outcome(lambda: rate(eps, b, K, named))
            assert bound[0] == "overflow"
            assert bound == _outcome(lambda: rate(eps, b, K, linear))


def test_alpha_hat_jump_agrees_with_literal_steps():
    # the catalog kinds jump in closed form; a literal route written here,
    # one step at a time, must agree exactly
    i = 600
    for alpha, c, n in [
        (alpha_identity(), 1, 4),
        (alpha_double(), 2, 2),
        (alpha_scale_ceil(3), 3, 1),
        (alpha_scale_ceil(Fraction(3, 2)), Fraction(3, 2), 1),
    ]:
        assert alpha_hat(alpha, i, n) == linear_alpha_hat(c, i, n)
    # the table is constant from index 3 on, where alpha(j) - j + 1 only
    # falls: the scan may stop at j = 3
    table = alpha_table((0, 2, 9, 20))
    a = scan_alpha_plus(table, 0, 0)
    for _ in range(i):
        a += scan_alpha_plus(table, min(a, 3), 0)
    assert alpha_hat(table, i, 0) == a


#: the linear law's scale: an int 1..5, or p/q >= 1 with q up to 10^6
LINEAR_C = st.one_of(
    st.integers(1, 5),
    st.integers(1, 10**6).flatmap(lambda q: st.integers(q, 5 * q).map(lambda p: Fraction(p, q))),
)


@given(c=LINEAR_C, n=st.integers(0, 10**20), i=st.integers(0, 1024))
@example(c=2, n=0, i=511)
@example(c=Fraction(7, 3), n=10**20, i=512)
@example(c=Fraction(999_999, 999_998), n=1, i=513)
@example(c=Fraction(3, 2), n=1, i=1024)
@example(c=Fraction(3, 2), n=10**20, i=812)
def test_linear_law_against_a_fraction_loop(c, n, i):
    # the closed form of integer c and the split jump of non-integer c
    # (leaves of 64 steps and their halves), against Fractions
    alpha, cf = alpha_scale_ceil(c), Fraction(c)
    assert alpha_plus(alpha, i, n) == max(math.ceil(cf * (n + j)) - j + 1 for j in range(i + 1))
    assert alpha_hat(alpha, i, n) == linear_alpha_hat(c, i, n)


def test_a_non_integer_law_raises_past_the_growth_cap(monkeypatch):
    # rate_h at c = (10^100 + 1)/3, eps 1/2, b 1, K 1 runs E - 1 = 2,193
    # steps from M = 6: the bound passes GROWTH_DIGIT_CAP, so the call
    # raises with it; with the cap raised to DIGIT_BUDGET the jump builds h,
    # 218,354 digits, and it is the literal recursion
    import hypkm.rates as rates_module

    c = Fraction(10**100 + 1, 3)
    E = exp_ceiling_oracle(Fraction(2), 7)
    assert E - 1 == 2_193
    got = _outcome(lambda: rate_h(Fraction(1, 2), 1, 1, alpha_scale_ceil(c)))
    assert got == ("overflow", linear_bound(c, 6, E - 1), None)
    monkeypatch.setattr(rates_module, "GROWTH_DIGIT_CAP", rates_module.DIGIT_BUDGET)
    h = rate_h(Fraction(1, 2), 1, 1, alpha_scale_ceil(c))
    assert digit_count(h) == 218_354
    assert h == linear_alpha_hat(c, E - 1, 6)


@pytest.mark.parametrize("c", [Fraction(10**40 + 1, 10**37), Fraction(2**22 + 1, 2**11)])
def test_a_large_q_raises_at_the_growth_cap(c):
    # each split of the jump divides by a power of q, so under the digit
    # budget alone these 300,000 steps built values of about 900,000 and
    # 994,000 digits in seconds to minutes; the cap refuses them up front
    alpha = alpha_scale_ceil(c)
    assert _outcome(lambda: alpha_hat(alpha, 300_000, 5)) == ("overflow", linear_bound(c, 5, 300_000), None)


def test_alpha_hat_monotone_in_i():
    for alpha in CATALOG:
        prev = alpha_hat(alpha, 0, 3)
        for i in range(1, 120):
            cur = alpha_hat(alpha, i, 3)
            assert cur > prev
            prev = cur


def test_alpha_hat_rejects_negatives():
    with pytest.raises(ArgumentError):
        alpha_hat(alpha_identity(), -1, 0)
    with pytest.raises(ArgumentError):
        alpha_hat(alpha_identity(), 0, -1)


# ---------------------------------------------------------------------------
# certified exponential ceiling
# ---------------------------------------------------------------------------


def test_ceil_exp_upper_anchors():
    assert ceil_exp_upper(2, 2) == 15
    assert ceil_exp_upper(12, 2) == 89
    assert ceil_exp_upper(2, 4) == 110
    assert ceil_exp_upper(1, 0) == 1
    assert ceil_exp_upper(Fraction(7, 2), 0) == 4


def test_ceil_exp_upper_against_mpmath():
    for c in (Fraction(1), Fraction(2), Fraction(12), Fraction(1, 2), Fraction(3, 7)):
        for e in (1, 2, 5, 13, 40, 64):
            true = exp_ceiling_oracle(c, e)
            got = ceil_exp_upper(c, e)
            assert true <= got <= true + 1


def test_cached_e_powers_are_the_powers():
    for e in range(1, 65):
        assert _exp1_hi_power(e) == _EXP1_HI**e
    for e in range(200):
        ceil_exp_upper(Fraction(1, 3), e)
    assert _exp1_hi_power.cache_info().currsize <= 64


def test_ceil_exp_upper_large_exponent_fallback():
    # beyond e=64 the sound fallback is c * 3^e
    assert ceil_exp_upper(2, 100) == 2 * 3**100
    assert ceil_exp_upper(Fraction(1, 2), 65) == math.ceil(Fraction(3**65, 2))


def test_ceil_exp_upper_validation_and_overflow():
    with pytest.raises(ArgumentError):
        ceil_exp_upper(0, 3)
    with pytest.raises(ArgumentError):
        ceil_exp_upper(1, -1)
    with pytest.raises(RateOverflowError) as exc:
        ceil_exp_upper(1, 3_000_000)
    # sound magnitude: log10(e^3e6) ~ 1.30e6, bounded above via log10(3)
    assert exc.value.log10_upper > 1_300_000


# ---------------------------------------------------------------------------
# rate bounds: frozen anchors, dual-route
# ---------------------------------------------------------------------------


def test_rate_h_anchors():
    ident = alpha_identity()
    assert rate_h(4, 1, 1, ident) == 30
    assert rate_h(4, Fraction(1, 4), 1, ident) == 8
    assert rate_h(1, 1, 1, ident) == 440
    assert rate_h_tilde(7, 1, 1, ident) == 178


def test_rate_anchors_match_mirror_pipeline():
    ident = alpha_identity()
    assert rate_h(4, 1, 1, ident) == mirror_rate(4, 1, 1, ident, coeff=2, m_num=2)
    assert rate_h(4, Fraction(1, 4), 1, ident) == mirror_rate(
        4, Fraction(1, 4), 1, ident, coeff=2, m_num=2
    )
    assert rate_h(1, 1, 1, ident) == mirror_rate(1, 1, 1, ident, coeff=2, m_num=2)
    assert rate_h_tilde(7, 1, 1, ident) == mirror_rate(
        7, 1, 1, ident, coeff=12, m_num=6
    )


def test_rate_g_anchors():
    ident = alpha_identity()
    assert rate_g(4, Fraction(1, 4), Fraction(1, 2), 1, ident) == 30
    assert rate_g(1, Fraction(1, 4), Fraction(1, 2), 1, ident) == 440
    assert rate_g_tilde(7, 1, 1, ident) == 178
    assert rate_g_tilde(10, Fraction(1, 100), 1, ident) == 2


def test_rate_g_is_max_of_floor_and_h():
    ident = alpha_identity()
    for eps in (Fraction(4), Fraction(1), Fraction(1, 2)):
        for b1, b2 in ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1), Fraction(1))):
            floor = math.ceil(1 / eps) + 1
            assert rate_g(eps, b1, b2, 1, ident) == max(
                floor, rate_h(eps, 2 * b1 + b2, 1, ident)
            )


def test_rate_h_monotone_grid():
    ident = alpha_identity()
    assert rate_h(4, 1, 1, ident) <= rate_h(2, 1, 1, ident)
    eps_grid = [Fraction(4), Fraction(2), Fraction(1), Fraction(1, 2)]
    b_grid = [Fraction(1, 4), Fraction(1), Fraction(2)]
    for b in b_grid:
        vals = [rate_h(e, b, 1, ident) for e in eps_grid]
        assert vals == sorted(vals)  # shrinking eps never shrinks the bound
    for e in eps_grid:
        vals = [rate_h(e, b, 1, ident) for b in b_grid]
        assert vals == sorted(vals)  # growing b never shrinks the bound


def test_rate_h_dominated_by_h_tilde_on_grid():
    # the bounded-orbit variant uses strictly larger constants
    ident = alpha_identity()
    for eps in (Fraction(4), Fraction(1)):
        for b in (Fraction(1, 2), Fraction(1)):
            assert rate_h(eps, b, 1, ident) <= rate_h_tilde(eps, b, 1, ident)


def test_rate_input_validation():
    ident = alpha_identity()
    with pytest.raises(ArgumentError):
        rate_h(0, 1, 1, ident)
    with pytest.raises(ArgumentError):
        rate_h(1, -1, 1, ident)
    with pytest.raises(ArgumentError):
        rate_h(1, 1, 0, ident)
    with pytest.raises(ArgumentError):
        rate_g(1, 0, 1, 1, ident)
    with pytest.raises(ArgumentError):
        rate_g(1, 1, -2, 1, ident)


def test_rate_h_exact_at_seven_hundred_thousand_digits():
    # eps=1/2, b=1, K=2, alpha(n)=2n: M=6, E=ceil(2 e^14), and the recursion
    # telescopes to 13 * (2^E - 1); the library value matches digit for digit
    E = exp_ceiling_oracle(Fraction(2), 14)
    expected = 13 * (2**E - 1)
    value = rate_h(Fraction(1, 2), 1, 2, alpha_scale_ceil(2))
    assert value == expected
    assert digit_count(value) == 724042


# ---------------------------------------------------------------------------
# overflow reporting
# ---------------------------------------------------------------------------


def test_rate_overflow_printable_exponent():
    # geometric witness at a 3*10^11-ish ceiling: the value itself is far
    # beyond the digit budget but its log10 still prints
    with pytest.raises(RateOverflowError) as exc:
        rate_h(Fraction(1, 4), 1, 2, alpha_double())
    lg = exc.value.log10_upper
    assert lg is not None and lg > 10**10
    text = describe_overflow(exc.value)
    assert text.startswith("<= ") and "decimal digits <= " in text


def test_rate_overflow_astronomical_digit_count():
    # E ~ 10^287: the digit count of the bound is itself unprintable
    with pytest.raises(RateOverflowError) as exc:
        rate_h(Fraction(1, 100), 1, 2, alpha_double())
    text = describe_overflow(exc.value)
    assert "digit count itself is astronomical" in text


def test_rate_overflow_double_log_form():
    # even the exponential ceiling overflows; a geometric witness then only
    # admits a bound on log10(log10(value))
    with pytest.raises(RateOverflowError) as exc:
        rate_h(Fraction(1, 3_000_000), 1, 2, alpha_double())
    assert exc.value.log10_log10_upper is not None
    assert "10^(10^" in describe_overflow(exc.value)


def test_double_log_exponent_prints_in_full():
    # the exponent of the tower has 400 digits; it prints as its decimal
    # text, never as ~10^N, so the line keeps the form 10^(10^<digits>)
    with pytest.raises(RateOverflowError) as exc:
        rate_h(4, 10**400, 1, alpha_double())
    expo = math.floor(exc.value.log10_log10_upper) + 1
    assert len(str(expo)) > 50
    text = describe_overflow(exc.value)
    assert text == f"<= 10^(10^{expo}) (digit count itself is astronomical)"


def test_rate_overflow_identity_keeps_single_log():
    # a linear witness keeps the digit count printable even when the
    # exponential ceiling cannot be materialized
    with pytest.raises(RateOverflowError) as exc:
        rate_g(Fraction(1, 10**7), 1, 1, 2, alpha_identity())
    lg = exc.value.log10_upper
    assert lg is not None and 10**7 < lg < 10**8
    assert "e+" in describe_overflow(exc.value)


def test_alpha_hat_noninteger_scale_growth_cap(monkeypatch):
    # the jump of fractional scales refuses once its bound outgrows the
    # digit cap, and reports that bound
    import hypkm.rates as rates_module

    monkeypatch.setattr(rates_module, "GROWTH_DIGIT_CAP", 500)
    n = 10**501
    with pytest.raises(RateOverflowError) as exc:
        alpha_hat(alpha_scale_ceil(Fraction(3, 2)), 600, n)
    lg = exc.value.log10_upper
    # sound: at least the size already reached, within the bound's slack
    assert lg is not None and 500 < lg < 800


def linear_bound(c, n, i):
    """The jump's log10 bound on alpha_hat(scale_ceil(c), i, n), written out:
    a(k+1) <= c*a(k) + (p*n + 2q - 1)/q <= c*(a(k) + e) - e for e =
    ceil((p*n + 2q - 1)/d), d = q at c >= 2 and p - q below, so a(i) <
    c**i * (a(0) + e)."""
    p, q = c.numerator, c.denominator
    a, d = (p * n + q - 1) // q + 1, q if c >= 2 else p - q
    return i * log10_upper_by_powers(c) + digit_count(a + (p * n + 2 * q - 1 + d - 1) // d)


@given(
    q=st.integers(1, 50),
    p_over_q=st.integers(1, 40),
    r=st.integers(0, 49),
    n=st.one_of(st.integers(0, 1000), st.integers(0, 10**70)),
    i=st.integers(0, 400),
)
@example(q=2, p_over_q=1, r=1, n=0, i=100)
@example(q=2, p_over_q=1, r=1, n=0, i=101)
@example(q=1, p_over_q=2, r=0, n=0, i=400)
@example(q=1, p_over_q=40, r=0, n=10**70, i=80)
@example(q=3, p_over_q=30, r=1, n=1, i=120)
@example(q=7, p_over_q=1, r=1, n=10**61, i=5)
@example(q=2, p_over_q=40, r=1, n=0, i=72)
@example(q=2, p_over_q=40, r=1, n=0, i=73)
@example(q=2, p_over_q=40, r=1, n=10**40, i=60)
def test_the_jump_raises_exactly_over_the_digit_budget(q, p_over_q, r, n, i):
    # budget 200 digits, and for non-integer c 120 digits and 100 steps:
    # alpha_hat raises when the bound plus 2 passes the digit limit of its
    # c, or past 100 steps of non-integer c, and then with a bound above
    # log10 of the literal value; otherwise it returns that value
    import hypkm.rates as rates_module

    c = Fraction(p_over_q * q + r % q, q)  # 1 <= c <= 40 + 49/50
    bound = linear_bound(c, n, i) if c > 1 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates_module, "DIGIT_BUDGET", 200)
        mp.setattr(rates_module, "GROWTH_DIGIT_CAP", 120)
        mp.setattr(rates_module, "STEP_BUDGET", 100)
        got = _outcome(lambda: alpha_hat(alpha_scale_ceil(c), i, n))
    value = linear_alpha_hat(c, i, n)
    limit = 200 if c.denominator == 1 else 120
    if c > 1 and (bound + 2 > limit or c.denominator > 1 and i > 100):
        assert got == ("overflow", bound, None)
        assert value**bound.denominator < 10**bound.numerator
    else:
        assert got == value


def test_the_walk_ends_on_the_step_budget():
    # c = 1 + 10**-6 grows a by about n + 2 per step, far below the digit
    # budget: the value at STEP_BUDGET steps is exact and one step more
    # raises with the jump's bound
    c, n = Fraction(1000001, 1000000), 5
    alpha = alpha_scale_ceil(c)
    assert alpha_hat(alpha, STEP_BUDGET, n) == linear_alpha_hat(c, STEP_BUDGET, n)
    for i in (STEP_BUDGET + 1, 10**6):
        assert _outcome(lambda: alpha_hat(alpha, i, n)) == ("overflow", linear_bound(c, n, i), None)


@given(p=st.integers(2, 10**6), n=st.integers(0, 10**30), i=st.integers(0, 40))
@example(p=10**6, n=10**30, i=40)
@example(p=10**6, n=0, i=33)
@example(p=10**6, n=0, i=32)
@example(p=2, n=0, i=40)
def test_the_integer_head_obeys_the_digit_budget(p, n, i):
    # budget 200 digits: the jump over all i steps raises with its bound
    # when that bound plus 2 passes the budget, and is exact otherwise
    import hypkm.rates as rates_module

    a, add = p * n + 1, p * n + 1  # alpha_tilde(0, n) and the jump's increment
    estimate = i * log10_upper_by_powers(p) + digit_count(a + add) + 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates_module, "DIGIT_BUDGET", 200)
        got = _outcome(lambda: alpha_hat(alpha_scale_ceil(p), i, n))
    assert got == (("overflow", estimate - 2, None) if estimate > 200 else linear_alpha_hat(p, i, n))


def test_describe_overflow_mantissa_is_upper_bound():
    text = describe_overflow(RateOverflowError(log10_upper=Fraction(7, 2)))
    assert text == "<= 3.164e+3 (decimal digits <= 4)"
    # the printed mantissa sits strictly above the true 10^0.5
    assert 3.164 > 10**0.5
    rolled = describe_overflow(
        RateOverflowError(log10_upper=Fraction(2_999_999, 1_000_000))
    )
    assert rolled == "<= 1.000e+3 (decimal digits <= 4)"
    assert (
        describe_overflow(RateOverflowError())
        == "magnitude bound unavailable"
    )


def test_overflow_message_never_overflows_str():
    # messages must build even when the bound is an astronomical Fraction
    exc = RateOverflowError(log10_upper=Fraction(10**400, 3), context="ctx")
    assert "ctx" in str(exc)


_MANTISSA_BOUND = re.compile(r"value <= ([1-9]\.[0-9]{3})e\+([0-9]+) \(decimal digits <= ([0-9]+)\)")
_TOWER_BOUND = re.compile(r"value <= 10\^\((10\^)?(~10\^)?([0-9]+)\)")


def assert_message_bounds(exc):
    """The bound printed in str(exc) is at least the bound exc carries."""
    text = str(exc)
    m = _MANTISSA_BOUND.search(text)
    if m:
        mantissa, expo = m.group(1), int(m.group(2))
        assert int(m.group(3)) == expo + 1
        # 10^frac needs only a float: the mantissa is rounded up by >= 1e-3
        assert math.log10(float(mantissa)) >= float(exc.log10_upper - expo), text
        return
    m = _TOWER_BOUND.search(text)
    assert m, text
    # "~10^N" stands for a number of N + 1 digits, so below 10^(N + 1)
    bound = 10 ** (int(m.group(3)) + 1) if m.group(2) else int(m.group(3))
    assert bound >= (exc.log10_log10_upper if m.group(1) else exc.log10_upper), text


@pytest.mark.parametrize("K", [1, 2, 5])
@pytest.mark.parametrize("alpha", [alpha_double(), alpha_scale_ceil(2), alpha_scale_ceil(3)],
                         ids=lambda a: a.label)
def test_overflow_message_bound_is_an_upper_bound(K, alpha):
    for eps in (Fraction(1, 3), Fraction(1, 7), Fraction(1, 10), Fraction(1, 20)):
        for rate in (rate_h, rate_h_tilde):
            try:
                rate(eps, 1, K, alpha)
            except RateOverflowError as exc:
                assert exc.log10_upper is not None
                assert_message_bounds(exc)


def test_overflow_message_bound_in_tower_forms():
    with pytest.raises(RateOverflowError) as double_log:
        rate_h(Fraction(1, 3_000_000), 1, 2, alpha_double())
    for exc in (
        double_log.value,
        RateOverflowError(log10_upper=Fraction(10**60, 3)),
        RateOverflowError(log10_log10_upper=Fraction(10**60, 3)),
        RateOverflowError(log10_log10_upper=Fraction(10**400 - 1, 7)),
    ):
        assert_message_bounds(exc)
