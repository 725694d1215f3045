"""Per-layer probes that run with tracing off.

Per-call functions that run far too often to wrap are timed here in
microbenchmark loops over seeded point sets; a few fixed-input layer costs
(the anchor's closed-form jump, digit count and rate calls made directly,
ceil_exp_upper, describe_overflow) are timed by direct calls.  Every figure
is the median of several repeats.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_ns(loop, calls: int, repeats: int = REPEATS) -> float:
    return _median_time(loop, repeats) / calls * 1e9


def space_probes(seed: int) -> dict[str, float]:
    from hypkm.spaces import make_box, make_interval, make_poincare_disk, make_star_tree

    spaces = {
        "interval": make_interval(0.0, 1.0),
        "box2": make_box([(0.0, 1.0), (0.0, 1.0)]),
        "poincare": make_poincare_disk(),
        "star_tree": make_star_tree(3, 2.0),
    }
    out = {}
    for k, (name, space) in enumerate(spaces.items()):
        rng = random.Random(f"spaces:{seed}:{k}")
        pts = [space.sample(rng) for _ in range(2001)]
        triples = [(pts[i], pts[i + 1], rng.random()) for i in range(2000)]
        pairs = [(x, y) for x, y, _ in triples]
        combine, distance, contains = space.combine, space.distance, space.contains
        reps = 10

        def loop_combine():
            for _ in range(reps):
                for x, y, lam in triples:
                    combine(x, y, lam)

        def loop_distance():
            for _ in range(reps):
                for x, y in pairs:
                    distance(x, y)

        def loop_contains():
            for _ in range(reps):
                for x in pts:
                    contains(x)

        out[f"spaces.combine_ns.{name}"] = _per_call_ns(loop_combine, reps * len(triples))
        out[f"spaces.distance_ns.{name}"] = _per_call_ns(loop_distance, reps * len(pairs))
        out[f"spaces.contains_ns.{name}"] = _per_call_ns(loop_contains, reps * len(pts))
    return out


def km_probes(seed: int) -> dict[str, float]:
    from hypkm.km import constant_schedule, km_iterate, km_orbit_end, validate_schedule
    from hypkm.maps import interval_affine
    from hypkm.spaces import make_interval
    from hypkm.uafpp import km_witness

    rng = random.Random(f"km:{seed}")
    space = make_interval(0.0, 1.0)
    T = interval_affine(space, Fraction(1, 2), Fraction(1, 4))
    sched = constant_schedule("1/2")
    x0 = rng.random()
    steps = 20_000
    out = {
        "km.step_ns.untraced": _per_call_ns(lambda: km_orbit_end(space, T, x0, sched, steps), steps),
        "km.step_ns.traced": _per_call_ns(
            lambda: km_iterate(space, T, x0, sched, steps, validate=False), steps),
        "uafpp.witness_step_ns": _per_call_ns(lambda: km_witness(space, T, x0, sched, steps), steps),
    }
    horizon = 100_000
    out["km.validate_ns_per_n"] = _per_call_ns(lambda: validate_schedule(sched, horizon), horizon + 1, 3)
    lam_float = sched.lam_float
    idx = [rng.randrange(10**6) for _ in range(50_000)]

    def loop_lam():
        for n in idx:
            lam_float(n)

    out["km.lam_float_ns"] = _per_call_ns(loop_lam, len(idx))
    return out


def rates_probes(anchor_cfg: dict) -> dict[str, float]:
    """Direct calls on the anchor config and the fixed ceil_exp_upper and
    describe_overflow inputs; returns the anchor's direct rate time too."""
    from hypkm.config import build_alpha
    from hypkm.errors import RateOverflowError
    from hypkm.rates import (
        alpha_double, alpha_hat, alpha_scale_ceil, ceil_exp_upper, describe_overflow,
        digit_count, rate_g, rate_g_tilde, rate_h, rate_h_tilde,
    )

    alpha = build_alpha(anchor_cfg["alpha"])
    eps, b, K = Fraction(anchor_cfg["eps"]), Fraction(anchor_cfg["b"]), anchor_cfg["K"]
    errors = []

    def direct():
        errors.clear()
        h = rate_h(eps, b, K, alpha)
        for fn in (rate_h_tilde, rate_g_tilde):
            try:
                fn(eps, b, K, alpha)
            except RateOverflowError as exc:
                errors.append(exc)
        return h

    h = direct()
    out = {"cli.anchor_direct_rates_s": _median_time(direct, 3)}
    # rate_h's own alpha_hat call: E = ceil(2b e^(K(M+1))) with M = 6
    E = ceil_exp_upper(2 * b, K * 7)
    out["rates.alpha_hat_s.jump"] = _median_time(lambda: alpha_hat(alpha, E - 1, 6), 3)
    out["rates.digit_count_s.anchor"] = _median_time(lambda: digit_count(h), 3)
    calls = 200
    out["rates.ceil_exp_upper_s.e64"] = _median_time(
        lambda: [ceil_exp_upper(2, 64) for _ in range(calls)]) / calls
    out["rates.ceil_exp_upper_s.e2000000"] = _median_time(lambda: ceil_exp_upper(2, 2_000_000), 3)
    for fn, args in (
        (rate_h, (Fraction(1, 4), 1, 2, alpha_double())),
        (rate_g, (Fraction(1, 100), 1, Fraction(1, 10**9), 2, alpha_scale_ceil(2))),
    ):
        try:
            fn(*args)
        except RateOverflowError as exc:
            errors.append(exc)
    out["rates.describe_overflow_s"] = _median_time(
        lambda: [describe_overflow(e) for _ in range(calls) for e in errors]) / (calls * len(errors))
    return out
