"""Pinned outputs: run hypkm on slow or large configs and check what each prints.

Each row of ``PINS`` holds a name, a ``hypkm`` command, its config, the sha256
of its stdout, its exit code, a wall-clock ceiling in seconds, an optional
max-RSS ceiling in MB and its reason (what the config cost before the fix it
guards).  Rows run one at a time, each in its own temporary directory with
this checkout's ``src`` first on ``PYTHONPATH``; exits 1 if a row printed
other bytes, ended with another code or ran over a ceiling.  Standard library
only; writes nothing into the checkout.  Run:  python3 tools/pins.py
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Pin = namedtuple("Pin", "name command config sha256 exit seconds rss_mb reason")


def scale_ceil(K, c, eps, b=1) -> dict:
    return {"K": K, "alpha": {"kind": "scale_ceil", "c": c}, "eps": eps, "b": b}


def iterate_1e5(config: dict) -> dict:
    return dict(config, schedule={"kind": "constant", "value": "1/10000"}, N=100000)


LITERAL_HEAD = "a literal head built millions of digits only to print a bound (52 s to over 600 s)"
LITERAL_WALK = "a literal walk stepped to 20,000 digits (about 5 s)"
ONE_FORMAT = "each block of 2,048 rows is rendered by one format operation, to the bytes of one per row"
AXIOMS = "eta 0 prints each violation's first witness; math.dist and the getrandbits ray draw keep them"
REFUSED = "refused from the config before any work, with exit 2 and nothing on stdout"
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
STAR = {"kind": "star_tree", "rays": 3, "length": 2}
ROTATION = [[0.573636, -0.515379], [0.515379, 0.573636]]

PINS = [
    Pin("table60k", "rates", {"K": 2, "alpha": {"kind": "table", "values": list(range(0, 120000, 2))},
                              "eps": "1/2", "b": 1},
        "e6844e5e5e2d481b1682abbffc000699cb315c725357b47220861f8905384a7f", 0, 10, None,
        "the settling index rescanned the table at every step (about a minute)"),
    Pin("big3", "rates", scale_ceil(1, "1" + "0" * 99 + "1/3", "1/2"),
        "aef490240eb92c179fdd323cd891ce5cd942d02619f0116cf2dd42785e695339", 0, 10, None, LITERAL_HEAD),
    Pin("nines", "rates", scale_ceil(1, "9" * 4300, "3/4"),
        "29e94e8d0d20f2253344792d3cc698ae6ec323a389da417ce147529d07fc1d08", 0, 10, None, LITERAL_HEAD),
    Pin("nines2", "rates", scale_ceil(1, "9" * 4298 + "/2", "3/4"),
        "ecd80fac7b6b1fec02f34e9bd5f9543843862b15a0dd60a299a1b1b9eb6db0d5", 0, 10, None, LITERAL_HEAD),
    Pin("c32eps1000", "rates", scale_ceil(2, "3/2", "1/1000"),
        "114b1834b7183187f9f749d39c3e879e711e8fdf6818985178b545c4919c8400", 0, 5, None, LITERAL_WALK),
    Pin("c32eps2", "rates", scale_ceil(2, "3/2", "1/2"),
        "a1f1364f265b330bae53b474d878d4f30f267b9b9975120861f2b6263ce728c0", 0, 5, None, LITERAL_WALK),
    Pin("c123", "rates", scale_ceil(1, "123.456789", "3/10"),
        "bd78dfcdf336e60e306d6c6e61ff68cd51b31e6aba0fc700dd2d14ce2b181b79", 0, 5, None,
        "the linear jump built its 250,458-digit h (2.6 s)"),
    Pin("anchor", "rates", scale_ceil(2, 2, "1/2"),
        "84b1faf4fd1b25df80afaaa105065b3941b9d733f00667cc568435a5f4ef51d8", 0, 5, None,
        "str() took seconds on the 724,042-digit h; decimal_string sums its runs by Horner's rule"),
    Pin("overmillion", "rates", scale_ceil(1, 2, "3/20", "13/25"),
        "5a099d26a629950ffa59f54e156751bccf84161414b8e598b84e2b82ee61cfb0", 0, 5, None,
        "the exact 1,023,437-digit h, printed by decimal_string well within the ceiling"),
    Pin("drop92", "product", {"example": "drop", "eps": "9/2"},
        "570cec40e8f2ddffe17ad7df5806cdea479fb7a773ee4c93acd4d588f7f2dd91", 0, 10, None,
        "json.dumps wrote the 979,883-digit bound_used through str() (about 16 s)"),
    Pin("euclid1m", "iterate", {"space": {"kind": "euclidean", "dim": 2},
                                "map": {"name": "matrix_affine", "matrix": ROTATION, "offset": [0.3, -0.2]},
                                "schedule": {"kind": "constant", "value": "1/10000"}, "x0": [3.1, -2.4],
                                "N": 1000000},
        "208fe78e0ab3c53999d1860e32a221ba17ccec299f59ca9c7b3d68b8e2562b13", 0, 120, 200,
        "holding the whole orbit took over 400 MB; blocks of rows keep memory to the output's"),
    Pin("iterate-interval", "iterate", iterate_1e5({"space": {"kind": "interval", "a": 0, "b": "inf"},
                                                    "map": {"name": "translate", "shift": "1"}, "x0": 3.7}),
        "f5f45afd4b339eeb77703fd8b7bddd7843ff0eba7814a1b2e2bdc87ee219b44e", 0, 20, None, ONE_FORMAT),
    Pin("iterate-poincare", "iterate", iterate_1e5({"space": {"kind": "poincare"}, "x0": [-0.5, 0.6],
                                                    "map": {"name": "constant", "value": [0.1, 0.2]}}),
        "8caa222f53693bbb13a16a86e472df90c091412ec2b5be31310489395403d0ea", 0, 20, None, ONE_FORMAT),
    Pin("iterate-star", "iterate", iterate_1e5({"space": STAR, "x0": [2, 0.7],
                                                "map": {"name": "constant", "value": [1, 1.5]}}),
        "700ddd6eabe681496ee644c45b866cd6aaf352ff4b34ca65c3cfa356b514015d", 0, 20, None, ONE_FORMAT),
    Pin("harmonic50k", "iterate", {"space": {"kind": "interval", "a": 0, "b": 1}, "map": {"name": "identity"},
                                   "schedule": {"kind": "harmonic", "alpha": {"kind": "scale_ceil", "c": 50000}},
                                   "x0": 0.5, "N": 12},
        "1bc6d97ca0f74bf2619f54a8023e97735af0de4a2c41eb788278e472b3199adf", 0, 3, None,
        "validation re-summed all alpha(n) + 1 float steps with math.fsum at every n (about 5 s)"),
    Pin("axioms-interval", "axioms", {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 10000,
                                      "seed": 1, "eta": 0},
        "7fa0275aa9a3681be80cfd2c925b8ea38dee842baebcc0ef3dd4367c9a6c700e", 1, 20, None, AXIOMS),
    Pin("axioms-box2", "axioms", {"space": {"kind": "box", "bounds": [[0, 1], [0, 1]]}, "samples": 10000,
                                  "seed": 2, "eta": 0},
        "8fea87cec5bee1fc7f3a97012f54abaf9c8ce32e1598b026cc5a2097eac15bd9", 1, 20, None, AXIOMS),
    Pin("axioms-poincare", "axioms", {"space": {"kind": "poincare"}, "samples": 10000, "seed": 3, "eta": 0},
        "e7f1a25d58e18acb5e5eb77fd0cbb980841ecba72f7adb6391cba517979e740f", 1, 20, None, AXIOMS),
    Pin("axioms-star", "axioms", {"space": STAR, "samples": 10000, "seed": 4, "eta": 0},
        "972d4e05628fcf357fb2a27c67f16cd5e84be2b04c971b39588558872f627705", 1, 20, None, AXIOMS),
    Pin("budget1e400", "product", {"example": "drop", "eps": "1/2", "budget": 10**400, "mode": "bounded-orbit"},
        NO_OUTPUT, 2, 1, None, f"{REFUSED}; 1.0 / budget ended in an OverflowError traceback"),
    Pin("offset1e100", "iterate", {"space": {"kind": "interval", "a": 0, "b": 1}, "map": {"name": "identity"},
                                   "schedule": {"kind": "harmonic", "offset": "1e100"}, "x0": 0.5, "N": 5},
        NO_OUTPUT, 2, 1, None, f"{REFUSED}; the witness table summed 5,000 exact terms first (9.5 s)"),
    Pin("witness1e100", "iterate", {"space": {"kind": "interval", "a": 0, "b": 1}, "map": {"name": "identity"},
                                    "schedule": {"kind": "harmonic", "offset": "1e100",
                                                 "alpha": {"kind": "table", "values": [0, 4999]}},
                                    "x0": 0.5, "N": 5},
        NO_OUTPUT, 2, 1, None, "refused by the float sum of the witness's 5,000 terms; validation "
                               "summed them exactly first (11.6 s)"),
]


def check(pin: Pin) -> list[str]:
    """Run one row and print its line; return what it broke, empty when it holds."""
    path_var = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, pin.name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(pin.config, f)
        digest, start = hashlib.sha256(), time.perf_counter()
        argv = [sys.executable, "-m", "hypkm", pin.command, "--config", path]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=tmp, env=env) as child:
            timer = threading.Timer(pin.seconds, child.kill)
            timer.start()
            while chunk := child.stdout.read(1 << 20):
                digest.update(chunk)
            # this child's own peak, not a running maximum over every child so far
            _, status, usage = os.wait4(child.pid, 0)
            timer.cancel()
            child.returncode = code = os.waitstatus_to_exitcode(status)
    seconds, rss_mb, got = time.perf_counter() - start, usage.ru_maxrss / 1024, digest.hexdigest()
    problems = [text for broken, text in (
        (got != pin.sha256, f"printed {got}, not {pin.sha256}"),
        (code != pin.exit, f"exited {code}, not {pin.exit}"),
        (seconds > pin.seconds, f"ran over {pin.seconds} s"),
        (pin.rss_mb is not None and rss_mb >= pin.rss_mb, f"held {pin.rss_mb} MB or more"),
    ) if broken]
    print(f"{pin.name}: {pin.command} exit {code}, {seconds:.2f} s of {pin.seconds}, "
          f"{rss_mb:.1f} MB max RSS: {'; '.join(problems) or 'ok'}", flush=True)
    return problems


def main() -> int:
    failed = [pin.name for pin in PINS if check(pin)]
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins hold; failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
