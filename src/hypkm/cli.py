"""Configuration-driven command line front end.

Subcommands map one-to-one onto the library modules: axioms, iterate,
rates, product, uafpp, and demo (the full acceptance suite).  Every output
embeds the artifact version and a hash of the effective config, so any two
runs with the same config and seed are byte-identical.

Exit codes: 0 success, 1 property violation, 2 config error, 3 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Optional

from . import __version__
from .config import (
    build_alpha,
    build_map,
    build_modulus,
    build_schedule,
    build_space,
    canonical_json,
    config_hash,
    config_natural,
    config_positive,
    config_positive_int,
    config_rational,
    config_tolerance,
    fields,
    list_of,
    load_config,
    lookup,
    member_of,
    one_of,
    positive_int_at_most,
)
from .errors import (
    ArgumentError,
    BudgetExhausted,
    ConfigError,
    HypkmError,
    RateOverflowError,
    ScheduleError,
)
from .km import csv_header, km_blocks, residuals_nonincreasing
from .product_afpp import DEFAULT_BUDGET, EXAMPLES, MAX_BUDGET, solve_example
from .rates import (
    decimal_string,
    describe_overflow,
    rate_g,
    rate_g_tilde,
    rate_h,
    rate_h_tilde,
)
from .spaces import DEFAULT_ETA, HyperbolicSpace, check_axioms
from .uafpp import RegularityModulus, modulus_table


def _headers(cfg: dict) -> list[str]:
    return [f"# version={__version__}", f"# config_hash={config_hash(cfg)}"]


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _write(texts: list[str], out: Optional[str]) -> None:
    """Write ``texts`` in order to stdout, or to the file ``out``.  A file
    that cannot be opened or written is a config error naming --out, and a
    partly written file is removed."""
    if out is None:
        sys.stdout.writelines(texts)
        return
    opened = False
    try:
        with open(out, "w") as f:
            opened = True
            f.writelines(texts)
    except OSError as exc:
        if opened and os.path.isfile(out):
            os.remove(out)
        raise ConfigError(f"--out {out!r} cannot be written: {exc.strerror}") from None
    print(f"wrote {out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_axioms(cfg: dict, args) -> int:
    f = fields(cfg, "axioms")
    space = build_space(f("space"))
    samples = f("samples", config_positive_int, 10_000)
    seed, eta = f("seed", config_natural, 0), f("eta", config_tolerance, DEFAULT_ETA)
    f.done()
    rep = check_axioms(space, samples, seed=seed, eta=eta)
    lines = _headers(cfg)
    lines.append(f"# space={canonical_json(space.descriptor)}")
    lines.extend(rep.summary_lines())
    verdict = "all axioms pass" if rep.passed else f"FAILED: {', '.join(rep.failures())}"
    lines.append(verdict)
    _write([_text(lines)], args.out)
    return 0 if rep.passed else 1


def cmd_iterate(cfg: dict, args) -> int:
    f = fields(cfg, "iterate")
    space = build_space(f("space"))
    if not isinstance(space, HyperbolicSpace):
        raise ConfigError("iterate needs a space with a combine operator")
    T = build_map(space, f("map"))
    sched = build_schedule(f("schedule"))
    x0 = f("x0", member_of(space))
    N, eta = f("N", config_natural), f("eta", config_tolerance, DEFAULT_ETA)
    f.done()
    meta = {
        "space": canonical_json(space.descriptor),
        "map": T.label,
        "schedule": sched.label,
    }
    # each block is rendered and then dropped; nothing is written before
    # the whole walk has finished
    texts = [_text(_headers(cfg) + csv_header(space, meta))]
    ok, last = True, None
    try:
        for block in km_blocks(space, T, x0, sched, N):
            texts.append(block.csv_text())
            ok = ok and (last is None or block.residuals[0] <= last + eta)
            ok = ok and residuals_nonincreasing(block, tol=eta)
            last = block.final_residual
    except ScheduleError as exc:
        raise ConfigError(f"schedule invalid up to N={N}: {exc}") from exc
    _write(texts, args.out)
    if not ok:
        print("residuals are not nonincreasing: map is not nonexpansive "
              "or schedule is out of range", file=sys.stderr)
        return 1
    return 0


def _rate_line(name: str, compute) -> str:
    """`name = <exact decimal>`, or a sound upper bound for a value never built."""
    try:
        return f"{name} = {decimal_string(compute())}"
    except RateOverflowError as exc:
        return f"{name} {describe_overflow(exc)}"


def cmd_rates(cfg: dict, args) -> int:
    f = fields(cfg, "rates")
    K = f("K", config_positive_int)
    alpha = build_alpha(f("alpha"))
    eps = f("eps", config_positive)
    b, b1, b2 = (f(key, config_positive, None) for key in ("b", "b1", "b2"))
    f.done()
    if (b1 is None) != (b2 is None):
        given, missing = ("b2", "b1") if b1 is None else ("b1", "b2")
        raise ConfigError(f"rates needs {missing!r} for g: {given!r} is given without it")
    if b is None and b1 is None:
        raise ConfigError("rates needs 'b' (for h, h_tilde, g_tilde) or 'b1' and 'b2' (for g)")
    lines = _headers(cfg)
    if b is not None:
        lines.append(_rate_line("h", lambda: rate_h(eps, b, K, alpha)))
        lines.append(_rate_line("h_tilde", lambda: rate_h_tilde(eps, b, K, alpha)))
        lines.append(_rate_line("g_tilde", lambda: rate_g_tilde(eps, b, K, alpha)))
    if b1 is not None:
        lines.append(_rate_line("g", lambda: rate_g(eps, b1, b2, K, alpha)))
    _write([_text(lines)], args.out)
    return 0


def cmd_product(cfg: dict, args) -> int:
    f = fields(cfg, "product")
    name = f("example")
    ex = lookup(EXAMPLES, name, "product example")()
    eps = f("eps", config_rational)
    budget = f("budget", positive_int_at_most(MAX_BUDGET), DEFAULT_BUDGET)
    seed = f("seed", config_natural, 0)
    mode = f("mode", one_of("sup-rC", "bounded-orbit"), "sup-rC")
    f.done()
    try:
        res = solve_example(ex, eps, mode=mode, budget=budget, seed=seed)
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    record = res.certificate and res.certificate.to_record()
    bound = record and record["bound_used"]
    if bound is not None:
        # json.dumps writes an int through str(), quadratic in its digits
        record["bound_used"] = "<bound_used>"
    doc = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "command": "product",
        "example": name,
        "mode": res.mode,
        "eps": f"{res.eps_target:.17g}",
        "exhausted": res.exhausted,
        "best_residual": f"{res.best_residual:.17g}",
        "attempts": [
            {
                "eps_attempt": f"{a.eps_attempt:.17g}",
                "n": a.n,
                "truncated": a.truncated,
                "residual": f"{a.residual:.17g}",
            }
            for a in res.attempts
        ],
        "certificate": record,
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    if bound is not None:
        text = text.replace('"<bound_used>"', decimal_string(bound), 1)
    _write([_text([text])], args.out)
    return 0 if res.certificate is not None else 3


def cmd_uafpp(cfg: dict, args) -> int:
    f = fields(cfg, "uafpp")
    modulus = build_modulus(f("modulus"))
    value_col = "N" if isinstance(modulus, RegularityModulus) else "D"
    eps_values = f("eps_values", list_of(config_positive))
    b_values = f("b_values", list_of(config_positive))
    f.done()
    try:
        rows = modulus_table(modulus, eps_values, b_values)
    except (ArgumentError, RateOverflowError) as exc:
        raise ConfigError(f"modulus grid: {exc}") from exc
    lines = _headers(cfg)
    lines.append(f"# modulus={modulus.label}")
    lines.append(f"eps,b,{value_col}")
    lines.extend(",".join(row) for row in rows)
    _write([_text(lines)], args.out)
    return 0


def cmd_demo(cfg: dict, args) -> int:
    from .acceptance import run_all

    results = run_all()
    lines = [f"# version={__version__}"]
    lines.extend(r.line() for r in results)
    ok = all(r.passed for r in results)
    lines.append("all criteria pass" if ok else "SOME CRITERIA FAILED")
    _write([_text(lines)], args.out)
    return 0 if ok else 1


#: subcommand -> (function, the flags it reads, help text)
COMMANDS = {
    "axioms": (cmd_axioms, ("seed", "eta"), "check the metric and convexity axioms of a space"),
    "iterate": (cmd_iterate, ("eta",), "run the averaged iteration and write a residual trace CSV"),
    "rates": (cmd_rates, (), "evaluate the exact rate bounds h, h_tilde, g, g_tilde"),
    "product": (cmd_product, ("seed", "budget"), "run the product approximate-fixed-point solver"),
    "uafpp": (cmd_uafpp, (), "tabulate a displacement or regularity modulus on a grid"),
    "demo": (cmd_demo, (), "run the built-in acceptance suite"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call of a process and
    reused by every later one; parse_args leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="hypkm",
        description="averaged iteration on hyperbolic spaces: axioms, rates, "
        "and product-space approximate fixed points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--budget", help="override the iteration budget")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--eta", help="override the test tolerance (rational)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        command, reads, _ = COMMANDS[args.command]
        flags = {k: v for k in ("seed", "budget", "eta") if (v := getattr(args, k)) is not None}
        unread = [f"--{key}" for key in flags if key not in reads]
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        if args.command == "demo":
            if args.config is not None:
                raise ConfigError("demo does not read --config")
            cfg = {}
        elif not args.config:
            raise ConfigError(f"{args.command} needs --config")
        else:
            cfg = load_config(args.config)
        # flags override config keys of the same name; merged in before
        # dispatch so that config_hash covers the effective config
        return command({**cfg, **flags}, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except HypkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the rest of stdout's buffer goes to devnull, not to a second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 1
