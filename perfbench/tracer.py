"""Span tracing from outside the program.

The tracer replaces traced functions with wrappers that record a span per
call: name, layer, start, end, parent, the exception raised if any, and an
optional work count.  Every binding of a traced function is replaced, not
just the one in its defining module: ``from .km import km_orbit_end`` gives
``maps``, ``product_afpp`` and ``acceptance`` their own names for the same
object, and the CLI dispatches through a dict of command functions.  Spans
stay in memory until the run ends.

Functions called more than about 10^5 times per run (``combine``,
``distance``, ``contains``, ``lam_float``, the maps themselves) are not
wrapped: a wrapper would cost more than they do.  Their time lands in the
self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

# (layer module, qualified name, work extractor or None)
TRACED = [
    ("cli", "main", None),
    ("cli", "cmd_axioms", None),
    ("cli", "cmd_iterate", None),
    ("cli", "cmd_rates", None),
    ("cli", "cmd_product", None),
    ("cli", "cmd_demo", None),
    ("config", "load_config", None),
    ("config", "config_hash", None),
    ("config", "build_space", None),
    ("config", "build_alpha", None),
    ("config", "build_schedule", None),
    ("config", "build_map", None),
    ("config", "parse_point", None),
    ("km", "constant_schedule", None),
    ("km", "validate_schedule", lambda a, k, r: a[1] if len(a) > 1 else k["horizon"]),
    ("km", "require_valid_schedule", None),
    ("km", "km_iterate", lambda a, k, r: a[4] if len(a) > 4 else k["N"]),
    ("km", "km_orbit_end", lambda a, k, r: a[4] if len(a) > 4 else k["n"]),
    ("km", "ResidualTrace.csv_lines", None),
    ("km", "residuals_nonincreasing", None),
    ("km", "estimate_residual_inf", None),
    ("rates", "rate_h", None),
    ("rates", "rate_h_tilde", None),
    ("rates", "rate_g", None),
    ("rates", "rate_g_tilde", None),
    ("rates", "alpha_hat", None),
    ("rates", "ceil_exp_upper", None),
    ("rates", "describe_overflow", None),
    ("rates", "digit_count", None),
    ("maps", "phi", None),
    ("maps", "slice_map", None),
    ("maps", "falsify_nonexpansive", None),
    ("product_afpp", "AfppOracle.solve", None),
    ("product_afpp", "approx_fixed_pair", None),
    ("product_afpp", "certified_run", None),
    ("product_afpp", "solve_product_afpp", None),
    ("product_afpp", "solve_example", None),
    ("product_afpp", "make_certificate", None),
    ("product_afpp", "check_family_invariance", None),
    ("product_afpp", "estimate_product_residual_inf", None),
    ("product_afpp", "check_uniform_displacement", None),
    ("spaces", "check_axioms", None),
    ("uafpp", "km_witness", None),
    ("uafpp", "check_uafpp_empirically", None),
    ("uafpp", "gk_boundedness_check", None),
    ("uafpp", "banach_fixed_point", None),
    ("uafpp", "modulus_table", None),
    ("uafpp", "uafpp_to_regularity", None),
    ("uafpp", "regularity_to_uafpp", None),
    ("acceptance", "run_all", None),
] + [("acceptance", f"criterion_{i}", lambda a, k, r: r.seconds) for i in range(1, 12)]

# fields of a span record
NAME, LAYER, START, END, PARENT, ERROR, WORK = range(7)


class Tracer:
    """Records spans; ``install`` patches hypkm, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- recording --------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span recorded by the benchmark itself."""
        return self.wrap(name, layer, fn)(*args)

    # --- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every module-level binding in the
        hypkm package, including those held in module-level tuples and
        dicts, plus the ``mesh`` methods of the space classes."""
        import hypkm.acceptance  # noqa: F401  (bind everything before scanning)
        import hypkm.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items()) if n == "hypkm" or n.startswith("hypkm.")]
        for layer, qualname, work in TRACED:
            home = sys.modules[f"hypkm.{layer}"]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self.wrap(qualname, layer, cls.__dict__[meth], work))
                continue
            original = getattr(home, qualname)
            wrapper = self._phi_wrapper(original) if qualname == "phi" else self.wrap(qualname, layer, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
                    elif isinstance(value, dict) and any(v is original for v in value.values()):
                        for key in [k for k, v in value.items() if v is original]:
                            self._set(value, key, wrapper)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        self._set(mod, attr, tuple(wrapper if v is original else v for v in value))
        self._install_mesh()

    def _phi_wrapper(self, original):
        """phi builds the parameter-space map; count its construction and,
        by wrapping the map it returns, each evaluation."""
        import dataclasses

        def build(*args, **kwargs):
            pmap = original(*args, **kwargs)
            return dataclasses.replace(pmap, fn=self.wrap("phi_n", "maps", pmap.fn))

        return self.wrap("phi", "maps", functools.wraps(original)(build))

    def _install_mesh(self) -> None:
        from hypkm import product_afpp, spaces

        for mod in (spaces, product_afpp):
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod.__name__ and "mesh" in value.__dict__:
                    self._set(value, "mesh", self.wrap("mesh", "spaces", value.__dict__["mesh"],
                                                       lambda a, k, r: len(r)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# reading spans
# ---------------------------------------------------------------------------


def self_times(spans, lo: int = 0, hi: Optional[int] = None) -> dict[str, float]:
    """Self time per layer over spans[lo:hi]: each span's duration minus the
    time its direct children cover.  Benchmark-level spans are skipped."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            child[p - lo] += spans[i][END] - spans[i][START]
    out: dict[str, float] = {}
    for i in range(lo, hi):
        s = spans[i]
        if s[LAYER] != "bench":
            out[s[LAYER]] = out.get(s[LAYER], 0.0) + (s[END] - s[START]) - child[i - lo]
    return out


def within(spans, root: int, hi: int) -> list[int]:
    """Indices of the descendants of span ``root``: they follow it in
    recording order until the first span that ends after it."""
    end = spans[root][END]
    out = []
    for i in range(root + 1, hi):
        if spans[i][START] > end:
            break
        out.append(i)
    return out
