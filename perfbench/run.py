"""hypkm benchmark: three workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {big-rates,orbits,product-lift}
                             --seed N --seconds S --trace {0,1}

One process, one thread, a closed loop with one operation at a time.  CLI
operations run in-process through ``hypkm.cli.main`` with stdout captured in
memory.  Every output is checked by an independent oracle (``checks.py``);
a failed check counts in ``failed``.

``--trace 0`` runs one round of the workload, then keeps running the
round's operations in order until the next would end past ``--seconds``, and
reports the end-to-end metrics: a group's summed median operation time over
the whole run (or its work over that, for the rates), on the reference-scaled
clock of ``reference.py``.  ``--trace 1`` runs one untraced round, one traced
round, the fixed-input operations the workload lacks, and the per-layer
probes, and reports the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  A record with the run's metadata and every sample goes to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import probes  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import END, ERROR, LAYER, NAME, PARENT, START, WORK, Tracer, self_times, within  # noqa: E402

#: fresh interpreters timed for setup_s, after one discarded warm-up.
SETUP_PROBES = 9

RATE_METRICS = {"iterate_steps_per_s", "axioms_samples_per_s"}
#: metrics reported unscaled: the anchor's time goes to big-integer
#: rendering, whose speed does not follow the reference (``reference.py``)
RAW_METRICS = {"rates_exact_s"}
RATE_FNS = {"rate_h", "rate_h_tilde", "rate_g", "rate_g_tilde"}
LAYERS = ("cli", "config", "km", "rates", "maps", "product_afpp", "spaces", "uafpp", "acceptance")


class Recorder:
    """Operation times, attempts and failures of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}  # operation name -> times
        self.scaled: dict[str, list[float]] = {}  # the same, scaled by the reference
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def run_op(self, op, tracer: Tracer | None = None) -> float:
        """Run and check one operation; returns its unscaled time.  Without
        a tracer the operation runs on the reference-scaled clock."""
        gc.collect()
        clock = reference.ScaledClock() if tracer is None else None
        t0 = time.perf_counter()
        try:
            if clock is None:
                outcome = tracer.span(f"op:{op.spec.name}", "bench", op.run)
            else:
                clock.start()
                try:
                    outcome = op.run()
                finally:
                    clock.stop()
        except Exception:
            outcome, problems = None, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        dt = time.perf_counter() - t0 if clock is None else clock.raw_s
        if outcome is not None:
            try:
                problems = op.check(outcome)
            except Exception:
                problems = ["checker raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        self.attempted += 1
        if outcome is not None:
            self.output_bytes += len(outcome.out)
        if problems:
            self.failures.append(f"{op.spec.name}: {'; '.join(problems)[:300]}")
        self.samples.setdefault(op.spec.name, []).append(dt)
        if clock is not None:
            self.scaled.setdefault(op.spec.name, []).append(clock.scaled_s)
        return dt

    def run_round(self, groups, tracer: Tracer | None = None) -> float:
        """One round of ``round_order(groups)``; returns the summed
        operation time."""
        return sum(self.run_op(op, tracer) for op in round_order(groups))

    def metric(self, name: str, ops, scaled: bool = True) -> tuple[float, int]:
        """A group's value and sample count: the summed median time of its
        operations, scaled by the reference unless ``scaled`` is false, or
        for a rate metric their summed work over it."""
        times = self.scaled if scaled else self.samples
        median_s = sum(statistics.median(times[op.spec.name]) for op in ops)
        n = sum(len(self.samples[op.spec.name]) for op in ops)
        if name in RATE_METRICS:
            return sum(op.spec.work for op in ops) / median_s, n
        return median_s, n


def round_order(groups) -> list:
    """The operations of one round: each operation ``reps`` times, the
    repetitions spread evenly over the round with each operation at its own
    phase, and operations run once spread evenly among themselves, so that
    the slow and fast spells of a shared machine reach every metric alike."""
    units = [(op, reps) for _, ops, reps in groups for op in ops]
    once = [u for u, (_, reps) in enumerate(units) if reps == 1]

    def position(u: int, j: int, reps: int) -> float:
        if reps == 1:
            return (once.index(u) + 0.5) / len(once)
        return (j + (u + 1) / (len(units) + 1)) / reps

    order = sorted((position(u, j, reps), u) for u, (_, reps) in enumerate(units) for j in range(reps))
    return [units[u][0] for _, u in order]


def build_groups(specs, workdir: str, once: bool = False):
    """(metric, built ops, reps) per group; ``once`` runs each group once
    per round, as the traced run does."""
    built = {}
    out = []
    for g in specs:
        ops = []
        for spec in g.ops:
            if spec.name not in built:
                built[spec.name] = workloads.build_op(spec, workdir)
            ops.append(built[spec.name])
        out.append((g.metric, ops, 1 if once else g.reps))
    return out


def setup_times(workload: str, seed: int, workdir: str) -> list[dict]:
    """SETUP_PROBES fresh interpreters, after one warm-up that also fills
    the bytecode cache.  Each probe's ``ref_s`` is the reference timed in
    this process right before and after it: in a fresh interpreter the
    reference itself runs cold."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir]
    out = []
    reference.sample()  # warm-up
    for i in range(SETUP_PROBES + 1):
        ref_before = reference.sample()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        ref_after = reference.sample()
        if p.returncode != 0:
            raise RuntimeError(f"setup probe failed: {p.stderr.strip()[-300:]}")
        if i:
            out.append({**json.loads(p.stdout.strip().splitlines()[-1]), "ref_s": (ref_before + ref_after) / 2})
    return out


def metadata(args) -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or platform.machine()

    def git_commit() -> str:
        try:
            p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = p.stdout.split()
        if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return "unknown (not a git checkout)"
        return lines[1]

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hypkm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, groups, rec: Recorder, setups) -> dict:
    """One full round, then the round's operations in the same order, round
    after round, until the next would end past ``--seconds``."""
    order = round_order(groups)
    last: dict[str, float] = {}
    t_start = time.perf_counter()
    for op in order:
        last[op.spec.name] = rec.run_op(op)
    ops_run = len(order)
    while time.perf_counter() - t_start + last[order[ops_run % len(order)].spec.name] <= args.seconds:
        op = order[ops_run % len(order)]
        last[op.spec.name] = rec.run_op(op)
        ops_run += 1
    metrics = {
        "setup_s": (statistics.median((s["import_s"] + s["build_s"]) * reference.REF_S / s["ref_s"]
                                      for s in setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    raw = {"setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups)}
    for metric, ops, _ in groups:
        value, n = rec.metric(metric, ops, scaled=metric not in RAW_METRICS)
        metrics[metric] = (value, "1/s" if metric in RATE_METRICS else "s", n)
        raw[metric] = rec.metric(metric, ops, scaled=False)[0]
    metrics["_rounds"] = ops_run / len(order)
    metrics["_raw"] = raw
    return metrics


def traced(args, groups, rec: Recorder, setups) -> tuple[dict, list]:
    untraced_s = rec.run_round(groups)
    tracer = Tracer()
    tracer.install()
    try:
        rec.output_bytes = 0
        traced_s = rec.run_round(groups, tracer)
        output_bytes = rec.output_bytes
    finally:
        tracer.uninstall()
    spans, hi = tracer.spans, len(tracer.spans)

    have = {op.spec.name for _, ops, _ in groups for op in ops}
    extra = [s for name, s in workloads.named_ops().items() if name not in have]
    if extra:
        workloads.write_configs(extra, args.workdir)
        extra_ops = [workloads.build_op(s, args.workdir) for s in extra]
        tracer.install()
        try:
            for op in extra_ops:
                rec.run_op(op, tracer)
        finally:
            tracer.uninstall()

    m: dict[str, tuple] = {}

    def put(name, value, unit, n=1):
        m[name] = (value, unit, n)

    put("config.import_s", statistics.median(s["import_s"] for s in setups), "s", len(setups))
    put("config.build_s", statistics.median(s["build_s"] for s in setups), "s", len(setups))
    for name, value in probes.space_probes(args.seed).items():
        put(name, value, "ns", probes.REPEATS)
    for name, value in probes.km_probes(args.seed).items():
        put(name, value, "ns", probes.REPEATS)
    rp = probes.rates_probes(workloads.ANCHOR)
    for name, value in rp.items():
        put(name, value, "s", 3)

    round_spans = spans[:hi]

    def select(name):
        return [s for s in round_spans if s[NAME] == name]

    def total(name):
        return sum(s[END] - s[START] for s in select(name))

    mesh = select("mesh")
    put("spaces.mesh_calls", len(mesh), "count")
    put("spaces.mesh_points", sum(s[WORK] for s in mesh), "count")
    iters = select("km_iterate")
    put("km.iterate_s", total("km_iterate"), "s", len(iters))
    put("km.iterate_ns_per_step", total("km_iterate") / max(1, sum(s[WORK] for s in iters)) * 1e9, "ns")
    put("km.validate_s", total("validate_schedule"), "s", len(select("validate_schedule")))
    put("km.csv_s", total("ResidualTrace.csv_lines"), "s", len(select("ResidualTrace.csv_lines")))
    ends = select("km_orbit_end")
    put("km.orbit_end_calls", len(ends), "count")
    put("km.orbit_end_steps", sum(s[WORK] for s in ends), "count")
    put("km.orbit_end_s", total("km_orbit_end"), "s", len(ends))
    outer = [s for s in round_spans if s[NAME] in RATE_FNS
             and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME] in RATE_FNS)]
    put("rates.rate_calls", len(outer), "count")
    put("rates.overflows", sum(1 for s in outer if s[ERROR] == "RateOverflowError"), "count")
    put("cli.output_bytes", output_bytes, "count")
    put("maps.phi_calls", len(select("phi")), "count")
    put("maps.phi_evals", len(select("phi_n")), "count")
    solves = [i for i in range(hi) if spans[i][NAME] == "AfppOracle.solve"]
    inside = [j for i in solves for j in within(spans, i, hi)]
    put("product_afpp.oracle_solves", len(solves), "count")
    put("product_afpp.oracle_solve_s", total("AfppOracle.solve"), "s", len(solves))
    put("product_afpp.map_evals_per_solve",
        sum(1 for j in inside if spans[j][NAME] == "phi_n") / max(1, len(solves)), "count")
    put("product_afpp.mesh_levels_per_solve",
        sum(1 for j in inside if spans[j][NAME] == "mesh") / max(1, len(solves)), "count")
    put("product_afpp.certified_run_s", total("certified_run"), "s", len(select("certified_run")))
    by_product = [s for s in select("rate_g") if s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "product_afpp"]
    put("product_afpp.rate_g_s", sum(s[END] - s[START] for s in by_product), "s", len(by_product))
    for k in range(1, 12):
        crit = select(f"criterion_{k}")
        put(f"acceptance.criterion_s.{k}", sum(s[WORK] or 0.0 for s in crit) / max(1, len(crit)), "s",
            len(crit))
    layer_self = self_times(spans, 0, hi)
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self.get(layer, 0.0), "s")

    def op_span(op_name, child_name):
        """Summed ``child_name`` spans inside the first run of operation
        ``op_name``: from the traced round, else from the added operations."""
        root = next(i for i, s in enumerate(spans) if s[NAME] == f"op:{op_name}")
        return sum(spans[j][END] - spans[j][START] for j in within(spans, root, len(spans))
                   if spans[j][NAME] == child_name)

    put("rates.alpha_hat_s.literal", op_span("rates:g-literal-7/2", "alpha_hat"), "s")
    anchor_s = op_span("rates:anchor", "main")
    put("cli.anchor_rates_s", anchor_s, "s")
    put("cli.render_s.anchor", anchor_s - rp["cli.anchor_direct_rates_s"], "s")
    for n in workloads.LIFT_INDICES:
        put(f"product_afpp.lift_s.n{n}", op_span(f"lift:n{n}", "approx_fixed_pair"), "s")
    put("trace.untraced_round_s", untraced_s, "s")
    put("trace.traced_round_s", traced_s, "s")
    put("trace.overhead_frac", (traced_s - untraced_s) / untraced_s, "frac")
    return m, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypkm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypkm", "__init__.py")):
        print(f"perfbench: hypkm sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    # the demo's CLI-determinism criterion writes temporary files
    tempfile.tempdir = args.workdir
    try:
        specs = workloads.specs(args.workload, args.seed)
        workloads.write_configs(workloads.all_ops(specs), args.workdir)
        setups = setup_times(args.workload, args.seed, args.workdir)
        meta = metadata(args)
        groups = build_groups(specs, args.workdir, once=bool(args.trace))
        rec = Recorder()
        spans = None
        if args.trace:
            metrics, spans = traced(args, groups, rec, setups)
        else:
            metrics = end_to_end(args, groups, rec, setups)
            meta["rounds"] = metrics.pop("_rounds")
            meta["unscaled"] = metrics.pop("_raw")
    finally:
        tempfile.tempdir = None
        shutil.rmtree(args.workdir, ignore_errors=True)

    failed = len(rec.failures)
    meta["failed_ops_frac"] = failed / rec.attempted
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"meta": meta, "failures": rec.failures, "samples": rec.samples, "scaled": rec.scaled,
                   "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}},
                  f, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as f:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "error", "work"],
                       "spans": spans}, f)

    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    for line in rec.failures:
        print(f"# FAILED {line}")
    print(f"# failed_ops_frac = {meta['failed_ops_frac']:.6g} ({failed}/{rec.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
