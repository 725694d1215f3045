"""Configuration loading and the kind tables behind it.

Configs are JSON; rationals are written as "p/q" strings so preconditions
are checked exactly rather than on parsed floats.  One dispatcher builds
every descriptor from its kind's table entry, which reads each field once
through a typed reader; a key the entry did not read is refused, and every
failure is a ConfigError naming the key or the kind.  The canonical
serialization gives a stable hash for outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import ArgumentError, ConfigError
from .km import Schedule, constant_schedule, harmonic_schedule
from .maps import (
    NonexpansiveMap,
    affine_map,
    clamped_translation,
    constant_map,
    identity_map,
    interval_affine,
)
from .rates import (
    MAX_STR_DIGITS,
    AlphaFn,
    alpha_double,
    alpha_identity,
    alpha_scale_ceil,
    alpha_table,
    as_fraction,
)
from .spaces import (
    BrokenW,
    EuclideanSpace,
    IntervalSpace,
    Space,
    make_box,
    make_circle,
    make_euclidean,
    make_interval,
    make_poincare_disk,
    make_star_tree,
    product,
)
from .uafpp import UafppModulus, banach_ufpp_modulus, uafpp_to_regularity

#: largest euclidean dimension a config may ask for, checked before the
#: space exists: axiom sampling holds several dim-tuples per sample.
MAX_DIM = 10_000

_REQUIRED = object()


def _parse_int(literal: str) -> int:
    """JSON integers, refused past MAX_STR_DIGITS digits before int() runs:
    a longer literal would cost seconds under a raised int-to-str limit."""
    digits = len(literal) - literal.startswith("-")
    if digits > MAX_STR_DIGITS:
        raise ConfigError(f"{digits}-digit integer literal is over the {MAX_STR_DIGITS}-digit limit")
    return int(literal)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refusing a key that appears twice: json.load
    alone would keep the last value without a word."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"config key {key!r} appears more than once")
            seen.add(key)
    return obj


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# typed readers: reader(cfg, key) reads cfg[key] and names the key on failure
# ---------------------------------------------------------------------------


def config_rational(cfg: dict, key: str, default=None) -> Optional[Fraction]:
    """Read a rational-valued key ("p/q" string, int, or float)."""
    if key not in cfg:
        return default
    try:
        return as_fraction(cfg[key])
    except ArgumentError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def config_positive(cfg: dict, key: str) -> Optional[Fraction]:
    """Read a rational-valued key that must be > 0."""
    value = config_rational(cfg, key)
    if value is not None and value <= 0:
        raise ConfigError(f"config key {key!r}: must be positive, got {cfg[key]!r}")
    return value


def config_natural(cfg: dict, key: str) -> Optional[int]:
    """Read a key that must be an integer >= 0 (0, "3" and 3.0 qualify;
    -1, 2.5, "x" and true do not)."""
    if type(cfg.get(key)) is int and cfg[key] >= 0:
        return cfg[key]  # a JSON natural, read without a Fraction
    value = config_rational(cfg, key)
    if value is not None and (value < 0 or value.denominator != 1):
        raise ConfigError(f"config key {key!r}: must be a natural, got {cfg[key]!r}")
    return None if value is None else int(value)


def config_positive_int(cfg: dict, key: str) -> Optional[int]:
    """Read a key that must be an integer >= 1 (2, "2" and 2.0 qualify;
    0, 2.5 and true do not)."""
    value = config_natural(cfg, key)
    if value == 0:
        raise ConfigError(f"config key {key!r}: must be positive, got {cfg[key]!r}")
    return value


def config_real(cfg: dict, key: str) -> Optional[float]:
    """Read a real-valued key as the nearest float: a rational spelling or
    "inf"/"-inf" (never a bool), within float range."""
    raw = cfg.get(key)
    if raw in ("inf", "-inf"):
        return math.inf if raw == "inf" else -math.inf
    value = config_rational(cfg, key)
    try:
        return None if value is None else float(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r}: must lie within float range") from None


def config_tolerance(cfg: dict, key: str) -> Optional[float]:
    """Read a real-valued key that must be >= 0 ("inf" qualifies; "-1" and
    "-inf" do not)."""
    value = config_real(cfg, key)
    if value is not None and value < 0:
        raise ConfigError(f"config key {key!r}: must be >= 0, got {cfg[key]!r}")
    return value


def list_of(*reads: Callable, n: Optional[int] = None) -> Callable:
    """A reader of a nonempty JSON list, each item read under the list's
    key: one item per reader when several are given, else every item by
    the one reader (exactly n of them when n is given)."""

    def read_list(cfg: dict, key: str) -> tuple:
        raw, size = cfg[key], len(reads) if len(reads) > 1 else n
        if not isinstance(raw, list) or not raw or size is not None and len(raw) != size:
            items = "one or more" if size is None else size
            raise ConfigError(f"config key {key!r}: must be a list of {items} items, got {raw!r}")
        return tuple(read({key: item}, key) for read, item in zip(itertools.cycle(reads), raw))

    return read_list


def _dim(cfg: dict, key: str) -> int:
    dim = config_positive_int(cfg, key)
    if dim > MAX_DIM:
        raise ConfigError(f"config key {key!r}: must be at most {MAX_DIM}, got {cfg[key]!r}")
    return dim


def fields(cfg: dict, where: str) -> Callable:
    """field(key, read=None, default=required): cfg[key] through the typed
    reader `read` (the raw value without one), `default` when the key is
    absent; a missing required key is a ConfigError saying `where` needs it.
    ``field.read`` is the set of keys asked for so far; ``field.done()``
    refuses the keys of cfg never asked for, naming each."""

    def field(key: str, read: Optional[Callable] = None, default=_REQUIRED):
        field.read.add(key)
        if key not in cfg:
            if default is _REQUIRED:
                raise ConfigError(f"{where} needs {key!r}")
            return default
        return cfg[key] if read is None else read(cfg, key)

    def done() -> None:
        unknown = [key for key in cfg if key not in field.read]
        if unknown:
            keys = "key" if len(unknown) == 1 else "keys"
            raise ConfigError(f"{where}: unknown {keys} {', '.join(map(repr, unknown))}")

    field.read = set()
    field.done = done
    return field


def lookup(table: dict, kind, what: str):
    """table[kind] for a string kind the table has, else a ConfigError
    listing the kinds it has."""
    if isinstance(kind, str) and kind in table:
        return table[kind]
    raise ConfigError(f"unknown {what} {kind!r}; available: {', '.join(sorted(table))}")


def _dispatch(table: dict, desc, what: str, *args, tag: str = "kind"):
    """Build `desc` with table[desc[tag]](field, *args), where field reads
    desc's fields; the one place that checks a descriptor's shape and kind,
    refuses a key the kind's entry did not read, and names the kind in
    argument errors."""
    if not isinstance(desc, dict):
        raise ConfigError(f"{what} descriptor must be an object, got {desc!r}")
    kind = fields(desc, f"{what} descriptor")(tag)
    entry = lookup(table, kind, f"{what} {tag}")
    field = fields(desc, f"{what} {kind!r}")
    field.read.add(tag)
    try:
        built = entry(field, *args)
    except ArgumentError as exc:
        raise ConfigError(f"{what} {kind!r}: {exc}") from exc
    field.done()
    return built


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_space(desc: dict) -> Space:
    return _dispatch(SPACES, desc, "space")


def build_alpha(desc: dict) -> AlphaFn:
    return _dispatch(ALPHAS, desc, "alpha")


def build_schedule(desc: dict) -> Schedule:
    return _dispatch(SCHEDULES, desc, "schedule")


def build_map(space: Space, desc: dict) -> NonexpansiveMap:
    """Single-factor map catalog for the iterate subcommand."""
    return _dispatch(MAPS, desc, "map", space, tag="name")


def build_modulus(desc: dict):
    """A UAFPP or regularity modulus for the uafpp subcommand."""
    return _dispatch(MODULI, desc, "modulus")


def parse_point(space: Space, raw, key: str = "point"):
    """Deserialize a point in the representation its space owns; errors
    name `key`."""
    return _dispatch(POINTS, {"kind": space.descriptor.get("kind"), key: raw}, "point", space, key)


def _alpha(cfg: dict, key: str) -> AlphaFn:
    return build_alpha(cfg[key])


def _point(space: Space) -> Callable:
    """A reader of a point of `space`."""
    return lambda cfg, key: parse_point(space, cfg[key], key)


def _space_of(space: Space, cls: type, name: str) -> Space:
    if not isinstance(space, cls):
        raise ArgumentError(f"needs {name} space")
    return space


def _constant_modulus(D: Fraction) -> UafppModulus:
    return UafppModulus(D_of=lambda eps, b: D, label=f"constant(D={D})")


def _banach_modulus(f) -> UafppModulus:
    k = f("k", config_rational)
    return UafppModulus(D_of=lambda eps, b: banach_ufpp_modulus(k, b), label=f"banach(k={k})")


SPACES: dict[str, Callable] = {
    "interval": lambda f: make_interval(f("a", config_real), f("b", config_real)),
    "euclidean": lambda f: make_euclidean(f("dim", _dim)),
    "box": lambda f: make_box(f("bounds", list_of(list_of(config_real, n=2)))),
    "poincare": lambda f: make_poincare_disk(),
    "star_tree": lambda f: make_star_tree(f("rays", config_positive_int), f("length", config_real)),
    "circle": lambda f: make_circle(),
    "product": lambda f: product(build_space(f("left")), build_space(f("right"))),
    "broken_w": lambda f: BrokenW(build_space(f("base"))),
}

ALPHAS: dict[str, Callable] = {
    "identity": lambda f: alpha_identity(),
    "double": lambda f: alpha_double(),
    "scale_ceil": lambda f: alpha_scale_ceil(f("c", config_rational)),
    "table": lambda f: alpha_table(f("values", list_of(config_natural))),
}

SCHEDULES: dict[str, Callable] = {
    "constant": lambda f: constant_schedule(
        f("value", config_rational),
        K=f("K", config_positive_int, None),
        alpha=f("alpha", _alpha, None),
    ),
    "harmonic": lambda f: harmonic_schedule(
        offset=f("offset", config_natural, 2),
        K=f("K", config_positive_int, None),
        alpha=f("alpha", _alpha, None),
        alpha_horizon=f("alpha_horizon", config_natural, 6),
    ),
}

MAPS: dict[str, Callable] = {
    "identity": lambda f, space: identity_map(space),
    "constant": lambda f, space: constant_map(space, f("value", _point(space))),
    "affine": lambda f, space: interval_affine(
        _space_of(space, IntervalSpace, "an interval"),
        f("slope", config_real),
        f("intercept", config_real),
    ),
    "translate": lambda f, space: clamped_translation(
        _space_of(space, IntervalSpace, "an interval"), f("shift", config_real)
    ),
    "matrix_affine": lambda f, space: affine_map(
        _space_of(space, EuclideanSpace, "a euclidean"),
        f("matrix", list_of(list_of(config_real))),
        f("offset", list_of(config_real)),
    ),
}

POINTS: dict[str, Callable] = {
    "interval": lambda f, space, key: f(key, config_real),
    "circle": lambda f, space, key: f(key, config_real),
    "euclidean": lambda f, space, key: f(key, list_of(config_real, n=space.dim)),
    "box": lambda f, space, key: f(key, list_of(config_real, n=space.dim)),
    "poincare": lambda f, space, key: complex(*f(key, list_of(config_real, config_real))),
    "star_tree": lambda f, space, key: f(key, list_of(config_natural, config_real)),
    "product": lambda f, space, key: f(key, list_of(_point(space.ambient), _point(space.right))),
    "broken_w": lambda f, space, key: f(key, _point(space.base)),
}

MODULI: dict[str, Callable] = {
    "banach": _banach_modulus,
    "constant": lambda f: _constant_modulus(f("D", config_rational)),
    "regularity_from_constant": lambda f: uafpp_to_regularity(
        _constant_modulus(f("D", config_rational)), build_schedule(f("schedule"))
    ),
}
