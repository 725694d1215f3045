"""The three workloads: which operations run, on which inputs, how often.

The seed picks the start point of every orbit, the axiom-sampling seeds and
the microbenchmark point sets; everything else is fixed.  Each workload has
primary operations, the inputs it exists to measure, and reduced controls
for the end-to-end metrics it does not own, so that every run reports every
end-to-end metric.  A control bypasses the mechanism its primary counterpart
stresses: on it a change aimed at that mechanism should show no effect.

This module does not import hypkm at import time, so the set-up probe can
time the import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from checks import (
    check_axioms,
    check_demo,
    check_iterate,
    check_lift,
    check_product,
    check_rates,
)

WORKLOADS = ("big-rates", "orbits", "product-lift")

ANCHOR = {"K": 2, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "1/2", "b": 1}
G72 = {"K": 2, "alpha": {"kind": "scale_ceil", "c": "7/2"}, "eps": "1/2", "b1": "1/2", "b2": "1/2"}
DOUBLE = {"K": 2, "alpha": {"kind": "double"}, "eps": "1/4", "b": 1}
# the diagonal example's schedule constant(1/2) has K = 2, alpha = scale_ceil(2)
DIAGONAL_G = {"K": 2, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "1/100", "b1": 1, "b2": "1/1000000000"}
# an exact h of about 98,000 digits: the anchor's path at a tenth of its size
EXACT_CONTROL = {"K": 2, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "3/5", "b": 1}

PRODUCT_EXAMPLES = (
    "diagonal", "constant", "drop", "drift", "family_valid", "family_violating", "family_const",
)
PRODUCT_BUDGETS = (300, 2000)

#: the scaled_coupling(0.5, 0.1) lift on [0,1] x [0,1], constant 1/2 steps.
LIFT_SCALE, LIFT_SHIFT, LIFT_LAM = 0.5, 0.1, 0.5
LIFT_INDICES = (100, 500, 2000, 4000)


@dataclass
class OpSpec:
    """One operation: a CLI subcommand on a config, or a direct lift call."""

    name: str
    kind: str  # "cli" | "lift"
    command: str = ""
    cfg: Optional[dict] = None
    n: int = 0  # lift index
    work: int = 0  # steps or samples, for the rate metrics


@dataclass
class GroupSpec:
    """Operations whose times add up to ``metric``; each operation runs
    ``reps`` times per round."""

    metric: str
    ops: list
    reps: int = 1


def _r6(v: float) -> float:
    return round(v, 6)


def orbit_ops(rng: random.Random, N: int) -> list[OpSpec]:
    """The four iterate configs of the orbits workload, x0 from the seed.

    Steps of 1/10000 keep every orbit far from a float fixed point for all
    N steps, so each row costs the same whatever the seed: an orbit that
    settles on an exactly representable point prints short rows.
    """
    lam = "1/10000"
    angle = 0.7
    mat = [[_r6(0.8 * math.cos(angle)), _r6(-0.8 * math.sin(angle))],
           [_r6(0.8 * math.sin(angle)), _r6(0.8 * math.cos(angle))]]
    r, t = 0.85 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
    cfgs = [
        ("interval-translate", {
            "space": {"kind": "interval", "a": 0, "b": "inf"},
            "map": {"name": "translate", "shift": "1"},
            "x0": _r6(rng.uniform(0, 10))}),
        ("poincare-constant", {
            "space": {"kind": "poincare"},
            "map": {"name": "constant", "value": [0.1, 0.2]},
            "x0": [_r6(r * math.cos(t)), _r6(r * math.sin(t))]}),
        ("star-constant", {
            "space": {"kind": "star_tree", "rays": 3, "length": 2},
            "map": {"name": "constant", "value": [1, 1.5]},
            "x0": [rng.randrange(3), _r6(rng.uniform(0, 2))]}),
        ("euclid-affine", {
            "space": {"kind": "euclidean", "dim": 2},
            "map": {"name": "matrix_affine", "matrix": mat, "offset": [0.3, -0.2]},
            "x0": [_r6(rng.uniform(-5, 5)), _r6(rng.uniform(-5, 5))]}),
    ]
    return [
        OpSpec(f"iterate:{name}:N{N}", "cli", "iterate",
               {**cfg, "schedule": {"kind": "constant", "value": lam}, "N": N}, work=N)
        for name, cfg in cfgs
    ]


AXIOM_SPACES = {
    "interval": {"kind": "interval", "a": 0, "b": 1},
    "box2": {"kind": "box", "bounds": [[0, 1], [0, 1]]},
    "poincare": {"kind": "poincare"},
    "star_tree": {"kind": "star_tree", "rays": 3, "length": 2},
}


def axiom_ops(rng: random.Random, samples: int, spaces) -> list[OpSpec]:
    return [
        OpSpec(f"axioms:{name}:{samples}", "cli", "axioms",
               {"space": AXIOM_SPACES[name], "samples": samples, "seed": rng.randrange(10**6)},
               work=samples)
        for name in spaces
    ]


def rates_op(name: str, cfg: dict) -> OpSpec:
    return OpSpec(f"rates:{name}", "cli", "rates", cfg)


def product_ops(examples, budgets) -> list[OpSpec]:
    return [
        OpSpec(f"product:{ex}:b{b}", "cli", "product", {"example": ex, "eps": "1/100", "budget": b})
        for ex in examples for b in budgets
    ]


def lift_ops(indices) -> list[OpSpec]:
    return [OpSpec(f"lift:n{n}", "lift", n=n) for n in indices]


DEMO = OpSpec("demo", "cli", "demo")


def specs(workload: str, seed: int) -> list[GroupSpec]:
    """The groups of one round of ``workload``; the same seed gives the same
    inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    controls = {
        "rates_exact_s": GroupSpec("rates_exact_s", [rates_op("exact-control", EXACT_CONTROL)], 3),
        "rates_overflow_s": GroupSpec(
            "rates_overflow_s", [rates_op("double", DOUBLE), rates_op("diagonal-g", DIAGONAL_G)], 10),
        "iterate_steps_per_s": GroupSpec("iterate_steps_per_s", orbit_ops(rng, 10_000)[:1], 3),
        "axioms_samples_per_s": GroupSpec(
            "axioms_samples_per_s", axiom_ops(rng, 1_000, ("interval", "poincare")), 4),
        "demo_s": GroupSpec("demo_s", [DEMO]),
        "product_s": GroupSpec("product_s", product_ops(("diagonal", "drift"), (300,)), 4),
        "lift_s": GroupSpec("lift_s", lift_ops((100, 500)), 6),
    }
    if workload == "big-rates":
        primary = [
            GroupSpec("rates_exact_s", [rates_op("anchor", ANCHOR)]),
            GroupSpec("rates_overflow_s", [rates_op("double", DOUBLE), rates_op("diagonal-g", DIAGONAL_G)], 10),
        ]
    elif workload == "orbits":
        primary = [
            GroupSpec("iterate_steps_per_s", orbit_ops(rng, 100_000)),
            GroupSpec("axioms_samples_per_s", axiom_ops(rng, 10_000, AXIOM_SPACES), 3),
            GroupSpec("demo_s", [DEMO], 2),
        ]
    else:
        primary = [
            GroupSpec("product_s", product_ops(PRODUCT_EXAMPLES, PRODUCT_BUDGETS), 3),
            GroupSpec("lift_s", lift_ops(LIFT_INDICES)),
        ]
    owned = {g.metric for g in primary}
    return primary + [g for m, g in controls.items() if m not in owned]


def named_ops() -> dict[str, OpSpec]:
    """Operations whose spans give per-layer metrics of a fixed input; the
    traced run adds them when its workload does not run them itself."""
    ops = [rates_op("anchor", ANCHOR), rates_op("g-literal-7/2", G72)] + lift_ops(LIFT_INDICES)
    return {op.name: op for op in ops}


# ---------------------------------------------------------------------------
# building inputs
# ---------------------------------------------------------------------------


def config_path(workdir: str, op: OpSpec) -> str:
    safe = op.name.replace(":", "_").replace("/", "_")
    return os.path.join(workdir, f"{safe}.json")


def write_configs(ops, workdir: str) -> None:
    for op in ops:
        if op.cfg is not None:
            with open(config_path(workdir, op), "w") as f:
                json.dump(op.cfg, f)


@dataclass
class Outcome:
    rc: int
    out: str = ""
    err: str = ""
    value: object = None


@dataclass
class Op:
    spec: OpSpec
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list]


def build_op(spec: OpSpec, workdir: str) -> Op:
    """Load the config and build what the operation needs through hypkm's
    own builders; this is the work ``setup_s`` times."""
    from hypkm import cli, config, product_afpp
    from hypkm.km import constant_schedule
    from hypkm.maps import identity_map, scaled_coupling
    from hypkm.spaces import make_interval, product

    if spec.kind == "lift":
        M = make_interval(0.0, 1.0)
        T = scaled_coupling(product(make_interval(0.0, 1.0), M), LIFT_SCALE, LIFT_SHIFT)
        delta, sched = identity_map(M), constant_schedule("1/2")
        n = spec.n

        def run_lift() -> Outcome:
            step = product_afpp.approx_fixed_pair(T, delta, sched, product_afpp.GridOracle(M), n)
            return Outcome(0, value=step)

        def check_lift_outcome(o: Outcome) -> list:
            s = o.value
            return check_lift(n, s.z, s.point, s.residual, LIFT_SCALE, LIFT_SHIFT, LIFT_LAM)

        return Op(spec, run_lift, check_lift_outcome)

    argv = [spec.command]
    cfg = spec.cfg
    if cfg is not None:
        path = config_path(workdir, spec)
        loaded = config.load_config(path)
        argv += ["--config", path]
        if spec.command in ("iterate", "axioms"):
            space = config.build_space(loaded["space"])
            if spec.command == "iterate":
                config.build_map(space, loaded["map"])
                config.build_schedule(loaded["schedule"])
                config.parse_point(space, loaded["x0"])
        elif spec.command == "rates":
            config.build_alpha(loaded["alpha"])
        elif spec.command == "product":
            product_afpp.EXAMPLES[loaded["example"]]()

    def run_cli() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return Outcome(rc, out.getvalue(), err.getvalue())

    checkers = {
        "rates": lambda o: check_rates(cfg, o.out, o.rc),
        "iterate": lambda o: check_iterate(cfg, o.out, o.rc),
        "axioms": lambda o: check_axioms(cfg, o.out, o.rc),
        "product": lambda o: check_product(cfg, o.out, o.err, o.rc),
        "demo": lambda o: check_demo(o.out, o.rc),
    }
    return Op(spec, run_cli, checkers[spec.command])


def all_ops(groups) -> list[OpSpec]:
    seen, out = set(), []
    for g in groups:
        for op in g.ops:
            if op.name not in seen:
                seen.add(op.name)
                out.append(op)
    return out
