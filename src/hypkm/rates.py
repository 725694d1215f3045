"""Exact iteration-count bounds for asymptotic regularity.

Everything here is integer or rational arithmetic: no float ever touches a
bound.  The central recursion builds, from a divergence witness ``alpha`` for
the step-size sums, the index ``alpha_hat(i, n)`` by which an averaged
iteration has settled; the rate functions wrap it with a certified upper
bound on an exponential factor.

Outputs are exact Python ints.  Results too large to materialize (more than
about a million decimal digits) raise :class:`RateOverflowError` carrying a
rigorous rational upper bound on ``log10(value)`` (or, when even the digit
count is astronomical, on ``log10(log10(value))``), so callers can still
report a sound magnitude.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import ArgumentError, RateOverflowError

try:
    import _decimal
except ImportError:  # pure-Python decimal: its multiplication is quadratic
    _decimal = None

#: the jump of non-integer c raises past this many steps: values that grow
#: slowly are stepped literally, one step at a time.
STEP_BUDGET = 300_000

#: largest exact integer we will materialize, in decimal digits.
DIGIT_BUDGET = 1_050_000

#: the jump of non-integer c raises when its bound passes this many digits:
#: its work grows with the value times the size of q (each split divides by
#: a power of q, in quadratic time on CPython 3.11), so under DIGIT_BUDGET a
#: million-digit value at c = (10**40 + 1)/10**37 took minutes.
GROWTH_DIGIT_CAP = 20_000

#: rational upper bound on log10(3), used in soundness estimates.
LOG10_3_UPPER = Fraction(4771213, 10**7)

#: longest rational string, and largest decimal exponent magnitude, that
#: as_fraction parses: past either, Fraction() alone takes seconds.
MAX_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)$")


def as_fraction(x: Union[int, float, str, Fraction]) -> Fraction:
    """Coerce to an exact rational.

    Strings accept "p/q" and decimal forms; floats are taken at their exact
    binary value.  Strings longer than MAX_STR_DIGITS characters, or with a
    decimal exponent beyond +-MAX_STR_DIGITS, are refused before parsing.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ArgumentError(f"cannot treat {x!r} as a rational")
    if isinstance(x, float) and not math.isfinite(x):
        raise ArgumentError(f"not a rational: {x!r}")
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if len(text) > MAX_STR_DIGITS:
            raise ArgumentError(f"{len(text)}-character string is over the {MAX_STR_DIGITS} limit")
        exp = _EXPONENT.search(text)
        if exp and int(exp.group(1).replace("_", "") or "0") > MAX_STR_DIGITS:
            raise ArgumentError(f"decimal exponent of {text!r} is beyond +-{MAX_STR_DIGITS}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ArgumentError(f"not a rational: {x!r}") from exc
    raise ArgumentError(f"cannot treat {type(x).__name__} as a rational")


def monus(a: int, b: int) -> int:
    """Truncated subtraction on naturals: max(0, a - b)."""
    return a - b if a > b else 0


#: digit_count trusts its float estimate power * e of power * log10|x| only
#: when it lies farther than power * (_DIGIT_MARGIN_ABS + e * _DIGIT_MARGIN_REL)
#: from an integer.  Its error (math.log10 of 64 bits, s * log10(2), a sum and
#: a product) is power times a few units in the last place of e + 20.
_DIGIT_MARGIN_REL = 2.0**-40
_DIGIT_MARGIN_ABS = 1e-9
_LOG10_2 = math.log10(2)


def digit_count(x: int, power: int = 1) -> int:
    """Number of decimal digits of |x|**power, without building the power.

    With s = max(0, bits - 64) and top = |x| >> s, top * 2^s <= |x| <
    (top + 1) * 2^s and |x| = top at s = 0, so log10|x| lies in [log10(top),
    log10(top + (s > 0))] + s*log10(2).  Scaled by power and widened by the
    margin, that is far shorter than 1: if it holds no integer the count is
    read off, and otherwise one exact comparison with the integer k in it
    decides: |x| with 10**(k // power) if power divides k, else |x|**power
    with 10**k.  Only values within about 1e-9 of a power of ten pay for it.
    """
    if x == 0:
        return 1
    x = abs(x)
    s = max(0, x.bit_length() - 64)
    top = x >> s
    base = s * _LOG10_2
    margin = power * (_DIGIT_MARGIN_ABS + base * _DIGIT_MARGIN_REL)
    k = math.floor(power * (math.log10(top + (s > 0)) + base) + margin)
    if math.floor(power * (math.log10(top) + base) - margin) == k:
        return k + 1
    if k % power == 0:
        return k + 1 if x >= 10 ** (k // power) else k
    return k + 1 if x**power >= 10**k else k


#: below this bit length decimal_string defers to str(): at most 4,215
#: digits, inside the interpreter's default 4,300-digit conversion limit.
_STR_BITS = 14_000

#: leaves of the decimal_string split, converted by Decimal(int) directly.
_LEAF_BITS = 200

#: decimal_string sums a block of at most this many edges by its runs.
_RUN_EDGES = 16


def decimal_string(x: int) -> str:
    """Exact decimal text of x, equal to str(x).

    Large values are split into bit halves and recombined in decimal
    arithmetic, whose multiplication is subquadratic, so the cost is
    subquadratic where str() is quadratic; it also does not depend on the
    interpreter's int-to-str digit limit.  The context traps Inexact, so a
    rounding raises instead of changing a digit.  Divide and conquer after
    CPython's _pylong.int_to_decimal (gh-90716).  Without the C decimal
    module this is str(x), with the digit limit lifted for the call.

    An edge of a block n is a bit that differs from the next bit up: the set
    bits of n ^ (n >> 1), the top bit included.  n is a sum of runs of 1s,
    each run [s, e) adding 2**e - 2**s.  A block of at most _RUN_EDGES edges
    is not split but summed by Horner's rule from its top edge down, one
    power of two per gap between edges and from the last edge to bit 0,
    unless two gaps are longer than a leaf: Horner's rule would then
    multiply two large numbers, where the split is cheaper.  That covers 0,
    2**w - 1 and the closed forms at c = 2: for small a and add,
    2**s*(a + add) - add is a few edges at each end of one long gap, so the
    anchor costs one power ladder and a few linear steps.  Each 2**w is the
    square of the cached 2**(w >> 1), doubled when w is odd.
    """
    if x.bit_length() < _STR_BITS:
        return str(x)
    if _decimal is None:
        if not hasattr(sys, "set_int_max_str_digits"):
            return str(x)  # an interpreter without the digit limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
    )
    ctx.traps[decimal.Inexact] = True
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}  # 2**w per width, this call only

    def pow2(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = D(1 << w)
            else:
                p = pow2(w >> 1)
                p *= p
                if w & 1:
                    p += p
            powers[w] = p
        return p

    def run_gaps(n: int) -> Optional[list[int]]:
        # the gaps from each edge t_0 > t_1 > ... of n to the next, the last
        # to bit 0, counted from t_j + 1; None for more than _RUN_EDGES edges
        # (the lowest _LEAF_BITS + 1 bits of most such blocks show it at a
        # glance) or once two gaps are longer than a leaf, where Horner's rule
        # would multiply two large numbers
        low = n & ((2 << _LEAF_BITS) - 1)
        if ((low ^ (low >> 1)) & ((1 << _LEAF_BITS) - 1)).bit_count() > _RUN_EDGES:
            return None
        edges = n ^ (n >> 1)
        if edges.bit_count() > _RUN_EDGES:
            return None
        gaps, top, long = [], edges.bit_length(), 0
        while edges:
            edges ^= 1 << (top - 1)
            gap, top = top - edges.bit_length(), edges.bit_length()
            long += gap > _LEAF_BITS
            if long > 1:
                return None
            gaps.append(gap)
        return gaps

    def inner(n: int, w: int) -> decimal.Decimal:
        # n < 2**w: the top block is |x| at its bit length, and each split
        # keeps its halves below their widths
        if w <= _LEAF_BITS:
            return D(n)
        gaps = run_gaps(n)
        if gaps is not None:
            # n = 2**(t_0+1) - 2**(t_1+1) + ..., less 1 when the edge count
            # is odd and the last run reaches bit 0
            acc = D(0)
            for j, gap in enumerate(gaps):
                acc = (acc - 1 if j & 1 else acc + 1) * pow2(gap)
            return acc - (len(gaps) & 1)
        lo_w = w >> 1
        hi, lo = n >> lo_w, n & ((1 << lo_w) - 1)
        return inner(hi, w - lo_w) * pow2(lo_w) + inner(lo, lo_w)

    with decimal.localcontext(ctx):
        text = str(inner(abs(x), x.bit_length()))
    return "-" + text if x < 0 else text


def fmt_number(x, spec: str = ".6g") -> str:
    """The text of a number in outputs and messages: an int of at most 50
    digits exactly, anything else as format(float(x), spec), and a longer int
    or a value beyond float range as ~10^N, where N + 1 is the digit count of
    its integer part, after a minus sign if it is negative (-~10^N).  Never
    trips the int-to-str digit limit."""
    if not isinstance(x, int):
        try:
            return format(float(x), spec)
        except OverflowError:
            x = int(x)
    digits = digit_count(x)
    if digits <= 50:
        return str(x)
    return f"{'-' if x < 0 else ''}~10^{digits - 1}"


def _log10_upper(c) -> Fraction:
    """A rational u with log10(c) < u, tight to within 1/256, for a positive
    int or rational c."""
    c = Fraction(c)
    if c <= 0:
        raise ArgumentError(f"positive rational required, got {c}")
    return Fraction(digit_count(c.numerator, 256) - digit_count(c.denominator, 256) + 1, 256)


# ---------------------------------------------------------------------------
# the witness-function catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaFn:
    """A catalogued total function on the naturals: the one type of
    sum-divergence witness for step-size schedules.

    Two laws: linear (``table`` None), n -> ceil(c*n) for a rational c >= 1
    held as an int when integral, and a nonempty table of naturals.  Both
    have exact closed forms inside ``alpha_plus`` that keep the rate
    recursion feasible for huge first arguments.  ``kind`` must name the
    law: identity and double are the linear law at c = 1, 2.
    """

    kind: str  # "identity" | "double" | "scale_ceil" | "table"
    c: Union[int, Fraction, None] = None
    table: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        linear = self.table is None
        if linear:
            if type(self.c) not in (int, Fraction) or self.c < 1:
                raise ArgumentError(f"the linear law needs a rational c >= 1, got {self.c}")
        elif not self.table or any(type(v) is not int or v < 0 for v in self.table):
            raise ArgumentError("table must be a nonempty sequence of naturals")
        names = {"identity": linear and self.c == 1, "double": linear and self.c == 2,
                 "scale_ceil": linear, "table": not linear and self.c is None}
        if not names.get(self.kind, False):
            raise ArgumentError(f"alpha kind {self.kind!r} does not name its law")

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ArgumentError(f"defined on naturals only, got {n}")
        if self.table is None:
            return math.ceil(self.c * n)
        return self.table[min(n, len(self.table) - 1)]

    @property
    def label(self) -> str:
        if self.kind == "scale_ceil":
            return f"scale_ceil({self.c})"
        if self.table is not None:
            return f"table(len={len(self.table)})"
        return self.kind


def alpha_identity() -> AlphaFn:
    return AlphaFn("identity", c=1)


def alpha_double() -> AlphaFn:
    return AlphaFn("double", c=2)


def alpha_scale_ceil(c) -> AlphaFn:
    """n -> ceil(c*n) for rational c >= 1.

    c >= 1 keeps alpha(n+i) - i + 1 nondecreasing in i, which the
    closed form used by alpha_plus relies on.
    """
    c = as_fraction(c)
    return AlphaFn("scale_ceil", c=c.numerator if c.denominator == 1 else c)


def alpha_table(values: Sequence[int]) -> AlphaFn:
    """A finite table, clamped to its last entry beyond the covered range;
    any other function on the naturals is a witness only tabulated so.

    The clamp keeps the function total; schedule validation beyond the
    covered horizon will fail honestly if the clamped tail is too small.
    """
    return AlphaFn("table", table=tuple(int(v) for v in values))


def require_alpha_fn(alpha) -> None:
    """Refuse a witness that is not an AlphaFn, naming the way to make one."""
    if not isinstance(alpha, AlphaFn):
        raise ArgumentError(f"a {type(alpha).__name__} is no witness: tabulate it with alpha_table")


# ---------------------------------------------------------------------------
# the recursion combinators
# ---------------------------------------------------------------------------


def _table_plus(table: tuple[int, ...], n: int) -> list[int]:
    """alpha_plus(j, n) of the table law for j = 0 .. max(0, len - n): the
    prefix maxima of table[min(n+j, len-1)] - j + 1.  Past the first
    clamped index the terms decrease strictly, so the last entry is
    alpha_plus(i, n) for every larger i."""
    terms = table[n:] + table[-1:]
    return list(itertools.accumulate((v - j + 1 for j, v in enumerate(terms)), max))


def alpha_plus(alpha: AlphaFn, i: int, n: int) -> int:
    """max{alpha(n+j) - j + 1 : 0 <= j <= i}, always >= 1, since the j=0 term
    is alpha(n)+1.  Exact closed forms: on the linear law the max sits at
    j = i, and a table indexes its prefix maxima."""
    if i < 0 or n < 0:
        raise ArgumentError("indices must be naturals")
    if alpha.table is not None:
        plus = _table_plus(alpha.table, n)
        return plus[min(i, len(plus) - 1)]
    # c >= 1 makes each term nondecreasing in j, so the max sits at j=i:
    # ceil(c(n+i)) - i + 1, the ceiling as -floor(-p(n+i)/q)
    c = alpha.c
    if type(c) is int:
        return c * (n + i) - i + 1
    return -(-c.numerator * (n + i) // c.denominator) - i + 1


def alpha_tilde(alpha: AlphaFn, i: int, n: int) -> int:
    """i + alpha_plus(i, n)."""
    return i + alpha_plus(alpha, i, n)


def _linear_jump(a: int, p: int, q: int, n: int, steps: int, context: str) -> int:
    """Exact result of `steps` steps of the linear law's recursion a <- f(a)
    = ceil(p(n + a)/q) + 1 from a, for c = p/q >= 1.

    f(x) <= c*x + (p*n + 2q - 1)/q, so with e = ceil((p*n + 2q - 1)/d), d =
    q for c >= 2 and p - q below, f(x) + e <= c(x + e) and the value is
    below c**steps * (a + e).  Refuses, with that sound log10 upper bound,
    when the value would exceed the digit budget, or when c is not an
    integer and the value would exceed GROWTH_DIGIT_CAP or steps exceed the
    step budget.  Integer c has a closed form (f is affine); otherwise
    f(q*m + r) = p*m + f(r), so f**k(q**k * m + r) = p**k * m + f**k(r),
    and k is split in halves down to literal leaves.
    """
    if p == q:  # c = 1: f(a) = a + n + 1
        return a + steps * (n + 1)
    e = -(-(p * n + 2 * q - 1) // (q if p >= 2 * q else p - q))
    lg = steps * _log10_upper(Fraction(p, q)) + digit_count(a + e)
    if q > 1 and steps > STEP_BUDGET or lg + 2 > (DIGIT_BUDGET if q == 1 else GROWTH_DIGIT_CAP):
        raise RateOverflowError(log10_upper=lg, context=context)
    if q == 1:
        # a power of two is a shift, not a chain of squarings
        ps = 1 << steps * (p.bit_length() - 1) if p & (p - 1) == 0 else p**steps
        return ps * a + e * (ps - 1) // (p - 1)
    power = functools.cache(pow)  # p**k and q**k, each built once per call

    def jump(x: int, k: int) -> int:
        # x < 2**(k * (bits(q) - 1)) <= q**k means m = 0: q**k is not built
        m = 0
        if x.bit_length() > k * (q.bit_length() - 1):
            m, x = divmod(x, power(q, k))
        if k <= 64:
            for _ in range(k):
                x = -(-p * (n + x) // q) + 1
        else:
            x = jump(jump(x, k >> 1), k - (k >> 1))
        return power(p, k) * m + x if m else x

    return jump(a, steps)


def alpha_hat(alpha: AlphaFn, i: int, n: int) -> int:
    """The settling-index recursion: a(0) = alpha_tilde(0, n), a(k+1) =
    alpha_tilde(a(k), n); returns a(i), exactly.

    A table steps through its prefix maxima, built once, until a reaches
    the first clamped index, where the increment goes constant, and then
    jumps.  The linear law jumps over all i steps at once (_linear_jump).
    Results over the digit budget raise RateOverflowError with a sound
    magnitude bound.
    """
    if i < 0 or n < 0:
        raise ArgumentError("indices must be naturals")
    if alpha.table is not None:
        plus = _table_plus(alpha.table, n)
        last = len(plus) - 1
        a, k = plus[0], 0
        while k < i and a < last:
            a += plus[a]
            k += 1
        return a + (i - k) * plus[last]
    ctx = f"alpha_hat({alpha.label}, {fmt_number(i)}, {fmt_number(n)})"
    return _linear_jump(alpha_tilde(alpha, 0, n), alpha.c.numerator, alpha.c.denominator, n, i, ctx)


# ---------------------------------------------------------------------------
# certified exponential ceiling
# ---------------------------------------------------------------------------

# upper bound on e as a rational: truncated series plus a remainder cover.
# Sum_{k>=66} 1/k! < (1/66!) * (1/(1 - 1/67)) < 2/66!.
_EXP1_HI = sum(Fraction(1, math.factorial(k)) for k in range(66)) + Fraction(
    2, math.factorial(66)
)

#: beyond this exponent even the 3**e fallback exceeds the digit budget.
_EXP_EXACT_CAP = 2_000_000


@functools.cache
def _exp1_hi_power(e: int) -> Fraction:
    """_EXP1_HI**e, kept once computed: ceil_exp_upper asks only for
    1 <= e <= 64, about 180 KB for all 64, and one rates run repeats
    exponents (g_tilde repeats h_tilde's)."""
    return _EXP1_HI**e


def ceil_exp_upper(c, e: int) -> int:
    """A natural number N >= ceil(c * exp(e)), never smaller.

    For e <= 64 the bound comes from a rational upper bound on e of quality
    ~1e-92, so N is the true ceiling or at most one above it.  Larger
    exponents fall back to the cruder (still sound) c * 3**e.
    """
    c = as_fraction(c)
    if c <= 0:
        raise ArgumentError(f"coefficient must be positive, got {c}")
    if e < 0:
        raise ArgumentError(f"exponent must be a natural, got {e}")
    if e == 0:
        return math.ceil(c)
    if e <= 64:
        return math.ceil(c * _exp1_hi_power(e))
    if e <= _EXP_EXACT_CAP:
        return math.ceil(c * Fraction(3) ** e)
    raise RateOverflowError(
        log10_upper=_log10_upper(c) + e * LOG10_3_UPPER,
        context=f"ceil_exp_upper({fmt_number(c)}, {fmt_number(e)})",
    )


# ---------------------------------------------------------------------------
# the rate functions
# ---------------------------------------------------------------------------


def _validate_rate_args(eps: Fraction, b: Fraction, K: int, alpha: AlphaFn) -> None:
    require_alpha_fn(alpha)
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    if b <= 0:
        raise ArgumentError(f"b must be positive, got {b}")
    if not isinstance(K, int) or K < 1:
        raise ArgumentError(f"K must be a natural >= 1, got {K!r}")


def _alpha_hat_overflow(alpha: AlphaFn, e_log10: Fraction, n: int, ctx: str):
    """Build the overflow error for alpha_hat(i, n) when only a log10 upper
    bound on i (via the exponential factor) is available."""
    if alpha.table is None and alpha.c == 1:
        # value = (i+1)(n+1)
        return RateOverflowError(
            log10_upper=e_log10 + digit_count(n + 1) + 1, context=ctx
        )
    if alpha.table is not None:
        # increments are bounded by the table's final constant
        plus = _table_plus(alpha.table, n)
        return RateOverflowError(
            log10_upper=e_log10 + digit_count(plus[0] + plus[-1]) + 1, context=ctx
        )
    # geometric growth: the digit count itself is astronomical
    return RateOverflowError(log10_log10_upper=e_log10 + 1, context=ctx)


def _settling_bound(
    eps: Fraction, b: Fraction, K: int, alpha: AlphaFn, coeff: int, m_num: int
) -> int:
    """Shared core of rate_h / rate_h_tilde.

    m_num=2, coeff=2: threshold M >= (1+2b)/eps, factor ceil(2b e^(K(M+1))).
    m_num=6, coeff=12: the bounded-orbit variant's constants.
    """
    M = math.ceil((1 + m_num * b) / eps)
    exponent = K * (M + 1)
    ctx = f"settling bound at M={fmt_number(M)}, exponent={fmt_number(exponent)}"
    try:
        E = ceil_exp_upper(coeff * b, exponent)
    except RateOverflowError as exc:
        raise _alpha_hat_overflow(alpha, exc.log10_upper, M, ctx) from None
    return alpha_hat(alpha, monus(E, 1), M)


def rate_h(eps, b, K: int, alpha: AlphaFn) -> int:
    """Iterations after which the residual is within eps of its infimum.

    Valid for averaged iterations of a nonexpansive map, from any start
    within distance b of a comparison point, under a step-size schedule with
    cap witness K and sum-divergence witness alpha.  Exact integer.
    """
    eps, b = as_fraction(eps), as_fraction(b)
    _validate_rate_args(eps, b, K, alpha)
    return _settling_bound(eps, b, K, alpha, coeff=2, m_num=2)


def rate_h_tilde(eps, b, K: int, alpha: AlphaFn) -> int:
    """Iterations after which the residual is below eps outright, given the
    whole orbit stays within distance b of the start.  Exact integer."""
    eps, b = as_fraction(eps), as_fraction(b)
    _validate_rate_args(eps, b, K, alpha)
    return _settling_bound(eps, b, K, alpha, coeff=12, m_num=6)


def _with_floor(floor: int, inner: Callable[[], int], ctx: str) -> int:
    try:
        return max(floor, inner())
    except RateOverflowError as exc:
        lg = exc.log10_upper
        if lg is not None:
            lg = max(lg, Fraction(digit_count(floor)))
        raise RateOverflowError(
            log10_upper=lg,
            log10_log10_upper=exc.log10_log10_upper,
            context=ctx,
        ) from None


def rate_g(eps, b1, b2, K: int, alpha: AlphaFn) -> int:
    """Product-space certificate index: max(ceil(1/eps)+1, rate_h with
    displacement budget 2*b1 + b2).

    b1 budgets the selection-to-probe distance, b2 the probe's own residual;
    the floor makes the second product coordinate's tolerance 1/n <= eps.
    """
    eps, b1, b2 = as_fraction(eps), as_fraction(b1), as_fraction(b2)
    if b1 <= 0 or b2 <= 0:
        raise ArgumentError(f"b1, b2 must be positive, got {b1}, {b2}")
    _validate_rate_args(eps, b1, K, alpha)
    floor = math.ceil(1 / eps) + 1
    return _with_floor(
        floor,
        lambda: rate_h(eps, 2 * b1 + b2, K, alpha),
        f"rate_g(eps={fmt_number(eps)})",
    )


def rate_g_tilde(eps, b, K: int, alpha: AlphaFn) -> int:
    """Bounded-orbit analogue of rate_g: max(ceil(1/eps)+1, rate_h_tilde).

    This is the canonical completion of the bounded-orbit product argument:
    the maximum dominates both the orbit-settling index and the floor that
    drives the second coordinate's tolerance below eps.
    """
    eps, b = as_fraction(eps), as_fraction(b)
    _validate_rate_args(eps, b, K, alpha)
    floor = math.ceil(1 / eps) + 1
    return _with_floor(
        floor,
        lambda: rate_h_tilde(eps, b, K, alpha),
        f"rate_g_tilde(eps={fmt_number(eps)})",
    )


def describe_overflow(exc: RateOverflowError) -> str:
    """The text of a sound bound, mantissa rounded up: rate lines, overflow
    messages and the CLI's unprintable exact values all print it."""
    if exc.log10_upper is not None:
        lg = exc.log10_upper
        expo = math.floor(lg)
        if expo >= 10**50:
            # even the exponent is unprintable; drop to tower form
            return f"<= 10^({fmt_number(expo)}) (digit count itself is astronomical)"
        frac = lg - expo
        # 10**frac evaluated in floats, then bumped upward; the bump dwarfs
        # the float rounding, keeping the printed mantissa an upper bound
        mantissa = math.ceil(10 ** float(frac) * 1000 + 1) / 1000
        if mantissa >= 10.0:
            mantissa, expo = 1.0, expo + 1
        return f"<= {mantissa:.3f}e+{expo} (decimal digits <= {expo + 1})"
    if exc.log10_log10_upper is not None:
        expo = math.floor(exc.log10_log10_upper) + 1
        return f"<= 10^(10^{decimal_string(expo)}) (digit count itself is astronomical)"
    return "magnitude bound unavailable"
