"""Reachability audit: every function and method of src/hypkm must run
under the command line, or be allow-listed here with its reason.

Records the code objects entered, under ``sys.setprofile``, while
``hypkm.cli.main`` runs the README's configs, a sweep of every space, map,
schedule, alpha and modulus kind of ``hypkm.config``, the seven product
examples in both modes at budget 300, and ``demo``.  It then lists each
module-level function and each method of a module-level class in
``src/hypkm`` with ``ast``, abstract methods left out, and exits 1 if one
was not entered and is not in ``ALLOWED``, or if an ``ALLOWED`` entry was
entered or names nothing.  Standard library only; needs Python 3.11 or
newer (``co_qualname``).

Run from the repository root:  python3 tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypkm"
sys.path.insert(0, str(SRC.parent))

from hypkm import cli  # noqa: E402
from hypkm.product_afpp import EXAMPLES  # noqa: E402

PERFBENCH = "kept for perfbench, whose tracer or probes call it (ROADMAP item 13)"
ERROR_PATH = "an error path that no run here takes"
NO_COMBINE = "asked of no space by a command: only iterate reads points, and it needs a combine"

#: "module.qualname" -> why nothing the audit runs enters it
ALLOWED = {
    "km.ResidualTrace.csv_lines": PERFBENCH,
    "maps.falsify_nonexpansive": PERFBENCH,
    "product_afpp.check_uniform_displacement": PERFBENCH,
    "uafpp.banach_fixed_point": PERFBENCH,
    "spaces.Mesh.__len__": PERFBENCH,
    "errors.BudgetExhausted.__init__": ERROR_PATH,
    "errors.DomainEscapeError.__init__": ERROR_PATH,
    "errors.RateOverflowError.__str__": ERROR_PATH,
    "km.ScheduleReport.summary": ERROR_PATH,
    "rates._alpha_hat_overflow": ERROR_PATH,
    "spaces.Space.__repr__": ERROR_PATH,
    "uafpp.UafppCheckReport.summary": ERROR_PATH,
    "spaces.Space.point_columns": NO_COMBINE,
    "spaces.CircleSpace.contains": NO_COMBINE,
    "spaces.CircleSpace.point_columns": NO_COMBINE,
    "spaces.FamilyProduct.point_columns": NO_COMBINE,
}


def _abstract(node: ast.FunctionDef) -> bool:
    """A body that is only ``raise NotImplementedError``, after any docstring."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return len(body) == 1 and ast.unparse(body[0]) == "raise NotImplementedError"


def _defined() -> set[str]:
    """module.qualname of every module-level function and every method of a
    module-level class in src/hypkm, abstract methods left out."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _abstract(item):
                        names.add(f"{module}.{node.name}.{item.name}")
    return names


def _readme_configs() -> dict[str, dict]:
    """The README's `<command>.json` blocks, as tests/test_cli.py reads them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^`(\w+)\.json`.*?```json\n(.*?)```", text, re.S | re.M)
    return {name: json.loads(body) for name, body in blocks}


INTERVAL = {"kind": "interval", "a": 0, "b": 1}
R3 = {"kind": "euclidean", "dim": 3}
HALF = {"kind": "constant", "value": "1/2"}

#: a descriptor and a point of each space kind
SPACES = [
    (INTERVAL, 0.5),
    (R3, [1, 2, 3]),
    ({"kind": "box", "bounds": [[0, 1], [0, 1]]}, [0.5, 0.25]),
    ({"kind": "poincare"}, [0.1, 0.2]),
    ({"kind": "star_tree", "rays": 3, "length": 2}, [1, 0.5]),
    ({"kind": "circle"}, 1.0),
    ({"kind": "product", "left": INTERVAL, "right": INTERVAL}, [0.5, 0.25]),
    ({"kind": "broken_w", "base": INTERVAL}, 0.5),
]
#: a space, a descriptor and a start of each map name
MAPS = [
    (INTERVAL, {"name": "identity"}, 0.5),
    (INTERVAL, {"name": "constant", "value": 0.25}, 0.5),
    (INTERVAL, {"name": "affine", "slope": "1/2", "intercept": "1/4"}, 0.5),
    (INTERVAL, {"name": "translate", "shift": "1/4"}, 0.5),
    (R3, {"name": "matrix_affine", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "offset": [1, 0, 0]}, [1, 2, 3]),
]
#: a descriptor of each schedule, alpha and modulus kind
SCHEDULES = [{"kind": "constant", "value": "1/2", "K": 2, "alpha": {"kind": "double"}}, {"kind": "harmonic"},
             # a witness past EXACT_SUM_CAP: validation sums floats
             {"kind": "harmonic", "alpha": {"kind": "scale_ceil", "c": 5000}}]
ALPHAS = [
    {"kind": "identity"},
    {"kind": "double"},
    {"kind": "scale_ceil", "c": "3/2"},
    {"kind": "table", "values": [0, 2, 4, 6]},
]
MODULI = [
    {"kind": "banach", "k": "1/2"},
    {"kind": "constant", "D": 1},
    {"kind": "regularity_from_constant", "D": 1, "schedule": HALF},
]


def _configs() -> list[tuple[str, dict]]:
    """(command, config) of every run but demo."""
    configs = list(_readme_configs().items())
    for space, point in SPACES:
        configs.append(("axioms", {"space": space, "samples": 200, "eta": "1/1000000000"}))
        configs.append(("iterate", {"space": space, "map": {"name": "identity"}, "schedule": HALF,
                                    "x0": point, "N": 5}))
    for space, desc, point in MAPS:
        configs.append(("iterate", {"space": space, "map": desc, "schedule": HALF, "x0": point, "N": 5}))
    for desc in SCHEDULES:
        configs.append(("iterate", {"space": INTERVAL, "map": {"name": "identity"}, "schedule": desc,
                                    "x0": 0.5, "N": 5}))
    for desc in ALPHAS:
        configs.append(("rates", {"K": 2, "alpha": desc, "eps": "1/2", "b": 1, "b1": 1, "b2": 1}))
    for desc in MODULI:
        configs.append(("uafpp", {"modulus": desc, "eps_values": [1], "b_values": [1, 2]}))
    for example in EXAMPLES:
        for mode in ("sup-rC", "bounded-orbit"):
            configs.append(("product", {"example": example, "eps": "1/100", "budget": 300, "mode": mode}))
    return configs


def _runs(workdir: Path):
    """(label, argv for cli.main), one per run."""
    for i, (command, cfg) in enumerate(_configs()):
        path = workdir / f"{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        yield f"{command} {json.dumps(cfg)}", [command, "--config", str(path)]
    yield "demo", ["demo"]


def _entered() -> set[str]:
    """module.qualname of every src/hypkm code object the runs enter."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in _runs(Path(tmp)):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                sys.setprofile(profile)
                try:
                    code = cli.main(argv)
                finally:
                    sys.setprofile(None)
            print(f"exit {code}: {label}")
    src = str(SRC)
    return {
        f"{Path(c.co_filename).stem}.{c.co_qualname}"
        for c in codes
        if str(Path(c.co_filename).parent) == src
    }


def main() -> int:
    defined, entered = _defined(), _entered()
    missed = defined - entered - ALLOWED.keys()
    problems = [f"never entered and not allow-listed: {name}" for name in sorted(missed)]
    problems += [f"allow-listed but entered: {name}" for name in sorted(ALLOWED.keys() & entered)]
    problems += [f"allow-listed but not defined: {name}" for name in sorted(ALLOWED.keys() - defined)]
    print(f"{len(defined & entered)} of {len(defined)} functions entered; {len(ALLOWED)} allow-listed")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
