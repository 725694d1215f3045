"""Independent output oracles for the benchmark.

Nothing here imports hypkm: every check recomputes what the output claims
from the config alone, with its own arithmetic, so a faster program that
prints a wrong value, an unsound bound or a bad certificate is counted as a
failed operation.  Each check returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import decimal
import json
import math
import re
from fractions import Fraction

#: decimal digits of the anchor value 13 * (2**2405209 - 1).
ANCHOR_DIGITS = 724_042

#: primes whose residues stand in for a full comparison of an exact value.
RESIDUE_PRIMES = (1_000_000_007, 998_244_353, 2_147_483_647, 1_000_003)

_HASH_RE = re.compile(r"# config_hash=[0-9a-f]{64}")
_VERSION_RE = re.compile(r"# version=\S+")
_EXACT_RE = re.compile(r"(\w+) = ([1-9][0-9]*)")
_SCI_RE = re.compile(
    r"(\w+) <= ([1-9]\.[0-9]+)e\+([0-9]+) "
    r"\((?:decimal digits <= ([0-9]+)|exact value has ([0-9]+) decimal digits)\)"
)
_TOWER_RE = re.compile(
    r"(\w+) <= 10\^\((~?)10\^([0-9]+)\) \(digit count itself is astronomical\)"
)
_CRITERION_RE = re.compile(r"criterion +([0-9]+) \[(pass|FAIL)\] .+: .* \([0-9]+\.[0-9]{2}s\)")


def _headers(lines: list[str]) -> list[str]:
    problems = []
    if len(lines) < 2 or not _VERSION_RE.fullmatch(lines[0]):
        problems.append("missing '# version=' header")
    if len(lines) < 2 or not _HASH_RE.fullmatch(lines[1]):
        problems.append("missing or malformed '# config_hash=' header")
    return problems


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _frac(v) -> Fraction:
    return Fraction(v) if not isinstance(v, str) else Fraction(v.strip())


def _growth(alpha: dict) -> Fraction:
    """c with a(k+1) >= c * a(k) along the alpha_hat recursion.

    For scale_ceil, a(k+1) = ceil(c (n + a(k))) + 1 >= c a(k); for double,
    a(k+1) = 2 a(k) + 2n + 1.  Other kinds are not used by the workloads.
    """
    if alpha["kind"] == "double":
        return Fraction(2)
    if alpha["kind"] == "scale_ceil":
        return _frac(alpha["c"])
    raise ValueError(f"no growth bound for alpha kind {alpha['kind']!r}")


def _settling_terms(cfg: dict, name: str):
    """(coeff * b, M) of the exponential factor E = ceil(coeff b e^(K(M+1)))
    behind one rate line, plus the floor ceil(1/eps) + 1 for g and g_tilde."""
    eps = _frac(cfg["eps"])
    floor = math.ceil(1 / eps) + 1
    if name == "g":
        b = 2 * _frac(cfg["b1"]) + _frac(cfg["b2"])
        return 2 * b, math.ceil((1 + 2 * b) / eps), floor
    b = _frac(cfg["b"])
    if name == "h":
        return 2 * b, math.ceil((1 + 2 * b) / eps), None
    if name in ("h_tilde", "g_tilde"):
        return 12 * b, math.ceil((1 + 6 * b) / eps), floor if name == "g_tilde" else None
    raise ValueError(f"unknown rate {name!r}")


def rate_lower_bound(cfg: dict, name: str):
    """An independent lower bound on the rate value, as ("log", x) meaning
    log10(value) >= x, or ("loglog", y) meaning log10(log10(value)) >= y.

    value >= c^(E-1) with E >= coeff b e^(K(M+1)), and value >= floor.
    Float slack is taken against the claim, never for it.
    """
    coeff_b, M, floor = _settling_terms(cfg, name)
    c = _growth(cfg["alpha"])
    K = int(cfg["K"])
    log10_E = math.log10(coeff_b) + K * (M + 1) * math.log10(math.e)
    log10_E -= 1e-12 * abs(log10_E) + 1e-12
    log10_c = math.log10(c)
    if log10_E < 300:
        lv = max(0.0, 10.0**log10_E - 1.0) * log10_c * (1 - 1e-12)
        if floor is not None:
            lv = max(lv, math.log10(floor) * (1 - 1e-12))
        return ("log", lv)
    return ("loglog", log10_E + math.log10(log10_c) - 1e-9)


def _exp_factor(coeff_b: Fraction, exponent: int) -> int:
    """ceil(coeff_b * e^exponent), with 80 significant digits in decimal."""
    ctx = decimal.Context(prec=80)
    v = ctx.multiply(
        ctx.divide(decimal.Decimal(coeff_b.numerator), decimal.Decimal(coeff_b.denominator)),
        ctx.exp(decimal.Decimal(exponent)),
    )
    return int(v.to_integral_value(rounding=decimal.ROUND_CEILING))


def exact_rate_h(cfg: dict):
    """(digit count, {p: value mod p}) of rate_h for alpha scale_ceil(2).

    The recursion a(k+1) = 2 a(k) + 2M + 1 from a(0) = 2M + 1 gives
    a(i) = (2M + 1)(2^(i+1) - 1), and h = a(E - 1) = (2M + 1)(2^E - 1).
    """
    if cfg["alpha"] != {"kind": "scale_ceil", "c": 2}:
        return None
    coeff_b, M, _ = _settling_terms(cfg, "h")
    E = _exp_factor(coeff_b, int(cfg["K"]) * (M + 1))
    odd = 2 * M + 1
    ctx = decimal.Context(prec=60)
    log10 = ctx.add(
        ctx.log10(decimal.Decimal(odd)),
        ctx.multiply(decimal.Decimal(E), ctx.log10(decimal.Decimal(2))),
    )
    digits = int(log10.to_integral_value(rounding=decimal.ROUND_FLOOR)) + 1
    residues = {p: odd * (pow(2, E, p) - 1) % p for p in RESIDUE_PRIMES}
    return digits, residues


def decimal_residues(text: str) -> dict:
    """Residues of a decimal numeral modulo RESIDUE_PRIMES, by Horner's rule
    over 18-digit chunks; no conversion of the whole numeral to an int."""
    modulus = math.prod(RESIDUE_PRIMES)
    head = len(text) % 18 or 18
    r = int(text[:head]) % modulus
    scale = 10**18
    for i in range(head, len(text), 18):
        r = (r * scale + int(text[i : i + 18])) % modulus
    return {p: r % p for p in RESIDUE_PRIMES}


def _claim_meets(lower, claim) -> bool:
    """Whether an upper-bound claim is at least the lower bound.

    ``claim`` is ("log", u): log10(value) <= u, or ("loglog", v)."""
    lkind, lv = lower
    ckind, cv = claim
    if lkind == "log" and ckind == "log":
        return cv >= lv
    if lkind == "log":
        return lv <= 0 or cv >= math.log10(lv)
    if ckind == "log":
        return cv > 0 and math.log10(cv) >= lv
    return cv >= lv


def expected_rate_names(cfg: dict) -> list[str]:
    names = []
    if "b" in cfg:
        names += ["h", "h_tilde", "g_tilde"]
    if "b1" in cfg and "b2" in cfg:
        names.append("g")
    return names


def check_rates(cfg: dict, out: str, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = out.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    problems = _headers(lines)
    body = lines[2:]
    names = expected_rate_names(cfg)
    if [ln.split(" ", 1)[0] for ln in body] != names:
        return problems + [f"rate lines {[ln[:40] for ln in body]} do not name {names}"]
    for line, name in zip(body, names):
        problems += _check_rate_line(cfg, name, line)
    return problems


def _check_rate_line(cfg: dict, name: str, line: str) -> list[str]:
    lower = rate_lower_bound(cfg, name)
    m = _EXACT_RE.fullmatch(line)
    if m:
        digits = m.group(2)
        claim_log = len(digits) - 1 + math.log10(int(digits[:15]) / 10 ** (min(15, len(digits)) - 1))
        problems = []
        if not _claim_meets(lower, ("log", claim_log)):
            problems.append(f"{name}: exact value is below the lower bound {lower}")
        exact = exact_rate_h(cfg) if name == "h" else None
        if exact is not None:
            want_digits, want_res = exact
            if len(digits) != want_digits:
                problems.append(f"{name}: {len(digits)} digits, expected {want_digits}")
            elif decimal_residues(digits) != want_res:
                problems.append(f"{name}: residues differ from (2M+1)(2^E-1)")
        return problems
    m = _SCI_RE.fullmatch(line)
    if m:
        mant, expo = float(m.group(2)), int(m.group(3))
        count = m.group(4) or m.group(5)
        if int(count) != expo + 1:
            return [f"{name}: digit count {count} disagrees with exponent {expo}"]
        if not 1.0 <= mant < 10.0:
            return [f"{name}: mantissa {mant} outside [1, 10)"]
        if not _claim_meets(lower, ("log", expo + math.log10(mant))):
            return [f"{name}: bound 10^{expo + math.log10(mant):.6g} is below the lower bound {lower}"]
        return []
    m = _TOWER_RE.fullmatch(line)
    if m:
        approx, expo = m.group(2), int(m.group(3))
        # "~10^X" abbreviates an exponent with X+1 digits, so below 10^(X+1)
        top = expo + 1 if approx else expo
        if not _claim_meets(lower, ("loglog", top)):
            return [f"{name}: bound 10^(10^{top}) is below the lower bound {lower}"]
        return []
    return [f"{name}: malformed rate line {line[:80]!r}"]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def _poincare_distance(x: complex, y: complex) -> float:
    # 2 asinh(|x - y| / sqrt((1 - |x|^2)(1 - |y|^2))): a different formula
    # from the Mobius one, well conditioned at small distances
    return 2.0 * math.asinh(abs(x - y) / math.sqrt((1 - abs(x) ** 2) * (1 - abs(y) ** 2)))


def _star_distance(x, y) -> float:
    return abs(x[1] - y[1]) if x[0] == y[0] else x[1] + y[1]


_SPACES = {
    # kind: (columns, parse row -> point, distance)
    "interval": (["x"], lambda v: v[0], lambda x, y: abs(x - y)),
    "poincare": (["re", "im"], lambda v: complex(v[0], v[1]), _poincare_distance),
    "star_tree": (["ray", "offset"], lambda v: (int(v[0]), v[1]), _star_distance),
    "euclidean": (["x0", "x1"], lambda v: (v[0], v[1]), lambda x, y: math.hypot(x[0] - y[0], x[1] - y[1])),
}


def _parse_point(kind: str, raw):
    if kind == "poincare":
        return complex(raw[0], raw[1])
    if kind == "star_tree":
        return (int(raw[0]), float(raw[1]))
    if kind == "euclidean":
        return (float(raw[0]), float(raw[1]))
    return float(raw)


def _own_orbit(cfg: dict):
    """The benchmark's own KM recurrence for the translate and matrix_affine
    maps: yields (point, residual) for n = 0..N."""
    kind = cfg["space"]["kind"]
    lam = float(Fraction(cfg["schedule"]["value"]))
    m = cfg["map"]
    x = _parse_point(kind, cfg["x0"])
    if m["name"] == "translate":
        lo, hi, t = float(cfg["space"]["a"]), float(cfg["space"]["b"]), float(Fraction(m["shift"]))

        def T(x):
            return min(max(x + t, lo), hi)

        def step(x, y):
            return x + lam * (y - x)

        def dist(x, y):
            return abs(x - y)
    elif m["name"] == "matrix_affine":
        (a, b), (c, d) = m["matrix"]
        o0, o1 = m["offset"]

        def T(x):
            return (a * x[0] + b * x[1] + o0, c * x[0] + d * x[1] + o1)

        def step(x, y):
            return (x[0] + lam * (y[0] - x[0]), x[1] + lam * (y[1] - x[1]))

        def dist(x, y):
            return math.hypot(x[0] - y[0], x[1] - y[1])
    else:
        raise ValueError(f"no own recurrence for map {m['name']!r}")
    for _ in range(int(cfg["N"]) + 1):
        Tx = T(x)
        yield x, dist(x, Tx)
        x = step(x, Tx)


def check_iterate(cfg: dict, out: str, rc: int) -> list[str]:
    """Residual trace against an oracle: for a constant map c, residual n is
    (1 - lam)^n d(x0, c) by axiom W2; for translate and matrix_affine, the
    benchmark's own recurrence.  Printed points must sit at the printed
    residual from c (constant maps) or on the own orbit (the others)."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = out.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    problems = _headers(lines)
    kind = cfg["space"]["kind"]
    cols, parse, dist = _SPACES[kind]
    if lines[5:6] != ["n,residual," + ",".join(cols)]:
        return problems + [f"bad CSV header {lines[5:6]!r}"]
    N = int(cfg["N"])
    rows = lines[6:]
    if len(rows) != N + 1:
        return problems + [f"{len(rows)} rows, expected {N + 1}"]
    m = cfg["map"]
    lam = float(Fraction(cfg["schedule"]["value"]))
    x0 = _parse_point(kind, cfg["x0"])
    if m["name"] == "constant":
        c = _parse_point(kind, m["value"])
        d0 = dist(x0, c)
        q = 1.0 - lam
        want = (q**n * d0 for n in range(N + 1))
        own = None
    else:
        want = None
        own = _own_orbit(cfg)
    bad = 0
    first = None
    for n, row in enumerate(rows):
        parts = row.split(",")
        try:
            if int(parts[0]) != n:
                raise ValueError
            r = float(parts[1])
            p = parse([float(v) for v in parts[2:]])
        except (ValueError, IndexError):
            return problems + [f"row {n} is malformed: {row[:80]!r}"]
        if want is not None:
            w = next(want)
            ok = abs(r - w) <= 1e-9 * d0 + 1e-6 * w and abs(dist(p, c) - r) <= 1e-9 * d0 + 1e-6 * r
        else:
            op, orr = next(own)
            ok = abs(r - orr) <= 1e-9 and dist(p, op) <= 1e-9
        if not ok:
            bad += 1
            if first is None:
                first = f"row {n}: residual {r!r} disagrees with the oracle"
    if bad:
        problems.append(f"{bad} rows disagree with the oracle; first {first}")
    return problems


# ---------------------------------------------------------------------------
# axioms, demo
# ---------------------------------------------------------------------------


def check_axioms(cfg: dict, out: str, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = out.rstrip("\n").split("\n")
    problems = _headers(lines)
    if not lines[2].startswith("# space="):
        problems.append("missing '# space=' line")
    verdicts = lines[3:-1]
    if len(verdicts) != 9 or not all(" pass  max violation " in v for v in verdicts):
        problems.append("not every axiom line reports pass")
    if lines[-1] != "all axioms pass":
        problems.append(f"verdict {lines[-1]!r}, expected 'all axioms pass'")
    return problems


def strip_timings(out: str) -> str:
    return re.sub(r" \([0-9]+\.[0-9]{2}s\)$", "", out, flags=re.M)


def check_demo(out: str, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = out.rstrip("\n").split("\n")
    problems = []
    if not _VERSION_RE.fullmatch(lines[0]):
        problems.append("missing '# version=' header")
    crit = lines[1:-1]
    numbers = []
    for ln in crit:
        m = _CRITERION_RE.fullmatch(ln)
        if not m or m.group(2) != "pass":
            problems.append(f"criterion line not passing: {strip_timings(ln)[:80]!r}")
        else:
            numbers.append(int(m.group(1)))
    if numbers != list(range(1, 12)) and not problems:
        problems.append(f"criteria {numbers}, expected 1..11")
    if lines[-1] != "all criteria pass":
        problems.append(f"verdict {lines[-1]!r}, expected 'all criteria pass'")
    return problems


# ---------------------------------------------------------------------------
# product certificates and lifts
# ---------------------------------------------------------------------------

#: the benchmark's own copy of each shipped product map, as (x, u) -> (x', u').
PRODUCT_MAPS = {
    "diagonal": lambda x, u: ((x + u) / 2.0, x),
    "family_const": lambda x, u: ((x + u) / 2.0, x),
    "constant": lambda x, u: (1.0, 0.5),
    "drop": lambda x, u: (max(x - 1.0, 0.0), u),
    "drift": lambda x, u: (x + 1.0, u),
    "family_valid": lambda x, u: (min(x, 1.0 + u) / 2.0, u),
}

#: the first factor each example's points live in, given u.
PRODUCT_FIBERS = {
    "diagonal": lambda u: (0.0, 1.0),
    "family_const": lambda u: (0.0, 1.0),
    "constant": lambda u: (0.0, 1.0),
    "drop": lambda u: (0.0, 10.0),
    "drift": lambda u: (-math.inf, math.inf),
    "family_valid": lambda u: (0.0, 1.0 + u),
}

#: exit codes of the shipped examples: drift has no eps-fixed pair at all,
#: and family_violating ships without the probe that mode sup-rC needs.
PRODUCT_EXIT = {"drift": 3, "family_violating": 2}


def _residual(name: str, x: float, u: float) -> float:
    tx, tu = PRODUCT_MAPS[name](x, u)
    return max(abs(x - tx), abs(u - tu))


def check_product(cfg: dict, out: str, err: str, rc: int) -> list[str]:
    name = cfg["example"]
    want_rc = PRODUCT_EXIT.get(name, 0)
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    if rc == 2:
        return [] if err.startswith("config error:") and out == "" else ["exit 2 without a config error"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    eps = float(Fraction(cfg["eps"]))
    cert = doc.get("certificate")
    problems = []
    if doc.get("example") != name or not re.fullmatch(r"[0-9a-f]{64}", str(doc.get("config_hash"))):
        problems.append("example name or config_hash missing")
    if rc == 3:
        if cert is not None or doc.get("exhausted") is not True:
            problems.append("exit 3 with a certificate")
        # every pair of the drift map is displaced by exactly 1
        if float(doc["best_residual"]) != 1.0:
            problems.append(f"best residual {doc['best_residual']} is not the infimum 1")
        return problems
    if cert is None or doc.get("exhausted") is not False:
        return problems + ["exit 0 without a certificate"]
    x, u = (float(v) for v in cert["point"])
    lo, hi = PRODUCT_FIBERS[name](u)
    if not (0.0 <= u <= 1.0 and lo <= x <= hi):
        problems.append(f"certified point {(x, u)} is outside the space")
    own = _residual(name, x, u)
    claimed = float(cert["residual"])
    if abs(own - claimed) > 1e-12:
        problems.append(f"certificate residual {claimed!r}, recomputed {own!r}")
    if not own <= eps or not claimed <= float(cert["eps_target"]) or float(cert["eps_target"]) > eps:
        problems.append(f"certificate residual {own!r} exceeds eps {eps}")
    if not str(cert.get("theorem", "")).startswith("product-afpp["):
        problems.append(f"unexpected theorem tag {cert.get('theorem')!r}")
    return problems


def lift_slice_orbit(z: float, n: int, scale: float, shift: float, lam: float) -> float:
    """x_n(z) of the slice x -> scale (x + z)/2 + shift, started at z (the
    identity selection), by the benchmark's own KM loop."""
    x = z
    for _ in range(n):
        x = x + lam * ((scale * (x + z) / 2.0 + shift) - x)
    return x


def check_lift(n: int, z: float, point, residual: float, scale: float, shift: float, lam: float) -> list[str]:
    """|phi_n(z) - z| <= 1/n, with phi_n(z) = (x_n(z) + z)/2 recomputed."""
    if not 0.0 <= z <= 1.0:
        return [f"parameter {z!r} outside [0, 1]"]
    xn = lift_slice_orbit(z, n, scale, shift, lam)
    problems = []
    if abs(point[0] - xn) > 1e-12 or point[1] != z:
        problems.append(f"pair {point!r} is not (x_{n}(z), z) = ({xn!r}, {z!r})")
    phi = (xn + z) / 2.0
    if abs(phi - z) > 1.0 / n:
        problems.append(f"|phi_{n}(z) - z| = {abs(phi - z):.3g} > 1/{n}")
    tx = scale * phi + shift
    own = max(abs(xn - tx), abs(z - phi))
    if abs(own - residual) > 1e-12:
        problems.append(f"lift residual {residual!r}, recomputed {own!r}")
    return problems
