"""Configuration loading and the name catalogs behind it.

Configs are JSON; rationals are written as "p/q" strings so preconditions
are checked exactly rather than on parsed floats.  Every builder raises
ConfigError with the offending key, and the canonical serialization gives a
stable hash for embedding in outputs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Optional

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


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
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


def _need(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return cfg[key]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_space(desc: dict) -> Space:
    if not isinstance(desc, dict):
        raise ConfigError(f"space descriptor must be an object, got {desc!r}")
    kind = _need(desc, "kind", "space descriptor")
    try:
        if kind == "interval":
            return make_interval(
                float(_need(desc, "a", "interval")), float(_need(desc, "b", "interval"))
            )
        if kind == "euclidean":
            return make_euclidean(config_positive_int(desc, "dim") or _need(desc, "dim", "euclidean"))
        if kind == "box":
            return make_box([tuple(b) for b in _need(desc, "bounds", "box")])
        if kind == "poincare":
            return make_poincare_disk()
        if kind == "star_tree":
            return make_star_tree(
                config_positive_int(desc, "rays") or _need(desc, "rays", "star_tree"),
                float(_need(desc, "length", "star_tree")),
            )
        if kind == "circle":
            return make_circle()
        if kind == "product":
            return product(
                build_space(_need(desc, "left", "product")),
                build_space(_need(desc, "right", "product")),
            )
        if kind == "broken_w":
            base = build_space(_need(desc, "base", "broken_w"))
            return BrokenW(base)
    except ArgumentError as exc:
        raise ConfigError(f"space {kind!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"space {kind!r}: bad parameter ({exc})") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def build_alpha(desc: dict) -> AlphaFn:
    if not isinstance(desc, dict):
        raise ConfigError(f"alpha descriptor must be an object, got {desc!r}")
    kind = _need(desc, "kind", "alpha descriptor")
    try:
        if kind == "identity":
            return alpha_identity()
        if kind == "double":
            return alpha_double()
        if kind == "scale_ceil":
            return alpha_scale_ceil(as_fraction(_need(desc, "c", "scale_ceil")))
        if kind == "table":
            return alpha_table([int(v) for v in _need(desc, "values", "table")])
    except ArgumentError as exc:
        raise ConfigError(f"alpha {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown alpha kind {kind!r}")


def build_schedule(desc: dict) -> Schedule:
    if not isinstance(desc, dict):
        raise ConfigError(f"schedule descriptor must be an object, got {desc!r}")
    kind = _need(desc, "kind", "schedule descriptor")
    K = config_positive_int(desc, "K")
    alpha = build_alpha(desc["alpha"]) if "alpha" in desc else None
    try:
        if kind == "constant":
            return constant_schedule(
                as_fraction(_need(desc, "value", "constant schedule")),
                K=K,
                alpha=alpha,
            )
        if kind == "harmonic":
            offset = config_natural(desc, "offset")
            horizon = config_natural(desc, "alpha_horizon")
            return harmonic_schedule(
                offset=2 if offset is None else offset,
                K=K,
                alpha=alpha,
                alpha_horizon=6 if horizon is None else horizon,
            )
    except ArgumentError as exc:
        raise ConfigError(f"schedule {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown schedule kind {kind!r}")


def parse_point(space: Space, raw):
    """Deserialize a point in the representation its space owns."""
    kind = space.descriptor.get("kind")
    try:
        if kind == "interval":
            return float(raw)
        if kind in ("euclidean", "box"):
            return tuple(float(v) for v in raw)
        if kind == "poincare":
            re, im = raw
            return complex(float(re), float(im))
        if kind == "star_tree":
            ray, offset = raw
            return (int(ray), float(offset))
        if kind == "circle":
            return float(raw)
        if kind == "product":
            left_raw, right_raw = raw
            return (
                parse_point(space.ambient, left_raw),
                parse_point(space.right, right_raw),
            )
        if kind == "broken_w":
            return parse_point(space.base, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad point {raw!r} for space kind {kind!r}") from exc
    raise ConfigError(f"no point parser for space kind {kind!r}")


def build_map(space: Space, desc: dict) -> NonexpansiveMap:
    """Single-factor map catalog for the iterate subcommand."""
    if not isinstance(desc, dict):
        raise ConfigError(f"map descriptor must be an object, got {desc!r}")
    name = _need(desc, "name", "map descriptor")
    try:
        if name == "identity":
            return identity_map(space)
        if name == "constant":
            return constant_map(space, parse_point(space, _need(desc, "value", "constant map")))
        if name == "affine":
            if not isinstance(space, IntervalSpace):
                raise ConfigError("map 'affine' needs an interval space")
            return interval_affine(
                space,
                as_fraction(_need(desc, "slope", "affine map")),
                as_fraction(_need(desc, "intercept", "affine map")),
            )
        if name == "translate":
            if not isinstance(space, IntervalSpace):
                raise ConfigError("map 'translate' needs an interval space")
            return clamped_translation(space, as_fraction(_need(desc, "shift", "translate map")))
        if name == "matrix_affine":
            if not isinstance(space, EuclideanSpace):
                raise ConfigError("map 'matrix_affine' needs a euclidean space")
            return affine_map(
                space,
                [[float(v) for v in row] for row in _need(desc, "matrix", "matrix_affine")],
                [float(v) for v in _need(desc, "offset", "matrix_affine")],
            )
    except ConfigError:
        raise
    except ArgumentError as exc:
        raise ConfigError(f"map {name!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"map {name!r}: bad parameter ({exc})") from exc
    raise ConfigError(f"unknown map name {name!r}")
