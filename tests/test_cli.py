"""Command line front end: golden outputs, exit codes, config builders, and
the stable hashing that makes reruns byte-identical."""

import argparse
import contextlib
import decimal
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hypkm
from hypkm import ConfigError, alpha_scale_ceil, cli, km, make_euclidean, make_interval, rate_h
from hypkm.cli import main
from hypkm.errors import BudgetExhausted, DomainEscapeError
from hypkm.km import km_iterate, residuals_nonincreasing
from hypkm.product_afpp import MAX_BUDGET, solve_example
from hypkm.config import (
    SPACES,
    build_alpha,
    build_map,
    build_schedule,
    build_space,
    canonical_json,
    config_hash,
    config_rational,
    config_real,
    load_config,
    parse_point,
)


def run_cli(tmp_path, capsys, command, cfg=None, *extra):
    argv = [command]
    if cfg is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += list(extra)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_interval_passes(tmp_path, capsys):
    cfg = {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 1500}
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == f"# config_hash={config_hash(cfg)}"
    assert lines[2].startswith("# space=")
    assert lines[-1] == "all axioms pass"


def test_axioms_broken_space_fails(tmp_path, capsys):
    cfg = {
        "space": {"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}},
        "samples": 500,
    }
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 1
    assert "FAILED" in out.splitlines()[-1]
    assert "W2" in out.splitlines()[-1]


def test_axioms_eta_override_absorbs_violations(tmp_path, capsys):
    cfg = {
        "space": {"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}},
        "samples": 500,
    }
    code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg, "--eta", "10")
    assert code == 0 and out.splitlines()[-1] == "all axioms pass"


def test_axioms_out_file(tmp_path, capsys):
    cfg = {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 500}
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg, "--out", str(target))
    assert code == 0
    assert out.strip() == f"wrote {target}"
    assert target.read_text().endswith("all axioms pass\n")


def test_axioms_bad_kind_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "axioms", {"space": {"kind": "torus"}})
    assert code == 2 and "config error" in err


#: sha256 of `axioms` stdout less its version line, 2,000 samples at seeds
#: 0, 1, 2 per space, taken while every sample also built an unused
#: combine(z, w, lam): dropping it draws nothing from the RNG.  The entries
#: from r1 on were taken while the samplers still called rng.uniform and
#: the axiom loop still called a record() closure per axiom; interval_wide
#: fails on rounding at magnitude 1e8 and pins the counterexample lines.
AXIOMS_GOLDEN = {
    "interval": ({"kind": "interval", "a": 0, "b": 1}, 0, (
        "2fe7a6d57395f032639e18e265af3efd45071768bf5b31dcd692d725d2e2255f",
        "9d1c778697f92a85058145484fd0bd932ee458fcaa851e0e74b531f655595f96",
        "fb9ef1a2ab078e5de8706fa0f422ea2a2178527e84b9d1eba7e3d9ca35c65e20")),
    "box2": ({"kind": "box", "bounds": [[0, 1], [0, 1]]}, 0, (
        "e551eb1e3ba1921d6f6182804ec114887290800d53e758db21a1292c8635f097",
        "76d0a05175106147f571e7e992e2935f918fa472f5ac3f82cb289420a3af628c",
        "a16257345b294008e9c9851ada18148d0e9e3330beed1fa7413d1bded9b03110")),
    "poincare": ({"kind": "poincare"}, 0, (
        "7074e492f9382a39438b8c7e1383b956e80f40e3b942e28ee076ae08c25d230b",
        "bb52c43c92c798876a2756d4e2aaed2c80060bf7187ed13575bf2d4887693adf",
        "a83aae137a84ce0c627899d656b6ac9d810bf7dec83d33bd39c6af30323cbea8")),
    "star_tree": ({"kind": "star_tree", "rays": 3, "length": 2}, 0, (
        "823f32169244fa72df72e4cc2ccadc0bebde819b780d24a5c6926b643eac93ad",
        "409a0bbca4dd2802413332fb8975d7ea1602534e4144c61cb466c1038883252c",
        "219c8177bde607bb55fb446feedd0eb7d8da29eadefd832a48fd8bb634b70458")),
    "broken_w": ({"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}}, 1, (
        "202b6f4fa981ede70cf433e1e326f6da4ad585d3e278a1aee4ae88090df4a613",
        "7862ed51f37fa068a92b3f8d6dfda36ee0d628d37e7347018685521bd5adcdf2",
        "a5232ffe8e466efd19903b92ac9ff038accf31b33ddefd045f9f7b754f34d985")),
    "circle": ({"kind": "circle"}, 0, (
        "e506ea50239f5ad6436dafa6a715758527517fb7091954d98a834249e034657d",
        "713cc9abfcb8d68d2dd8c5f8ee898e9f19a181286548f109825a011ddca73f80",
        "356f24dc839b6d5c18fd7b71d48934638900ba4e0a25fedddc6daa66ba4c7956")),
    "r1": ({"kind": "euclidean", "dim": 1}, 0, (
        "3089cbc979bda3708ed1f405791de32fbdecb31a9b3294e3e1648317ef30f85a",
        "06c91cca6401a3fda3dd02532da4da576854880e3229eefa2f61c27aca7a4a2f",
        "79375648811bc988a5539e6178c2af61d3f4339d5954b4adcf115ed0e53ecb43")),
    "r2": ({"kind": "euclidean", "dim": 2}, 0, (
        "9472b2bb1646e898830797993c398e896fab5bd5189ed7928e2e4f6de8c8c001",
        "2600eb924de61056d6dbe73ef850674cb1e3b2a67bd1e565a8c1a72bfc1abe44",
        "a7e0f1c89df85a88104b6de929587355c7ad03ed8ee7914442f6549fcbb426a6")),
    "r3": ({"kind": "euclidean", "dim": 3}, 0, (
        "8c22fdc6d0eece5249a2f62c985886599e3444ccf8247001e4a0698548708954",
        "90a6473c0514af3874812972e1ec81f22717e452b8e68acf17ab3f4ac6d45012",
        "dab363a9803b3f26e89879d7f87b309be1c301a8ed9b0db9524cb157452c5eba")),
    "box3": ({"kind": "box", "bounds": [[0, 1], [-2, 3], [0, 0.5]]}, 0, (
        "13296be7f502b173653cc5a7350108c032433b95bb4357bf7a7adf1ea9bbd5f3",
        "a3003a0774885ab27d8287d3d72cf6127404dd6f8def393822aa76f840e5ebdb",
        "fd5f5c00ada24d523969671310ed7948658bac55c8089c57134fbb9cb1f2bcdc")),
    "interval_wide": ({"kind": "interval", "a": -1e8, "b": 1e8}, 1, (
        "1f57be1a9270e3edc2931d70f0b492cebe169ce8f8a29d6511c420d313f0b8e9",
        "dbe01ed0f25ff3a8f0388d8337b0ee65a69907b19e1fa00c4ee722501df4b8c1",
        "5a6dece41d44e2e38a2ffb10a970f125d3a0a4b7db70b64f64983614f86da8d3")),
}


@pytest.mark.parametrize("name", AXIOMS_GOLDEN)
def test_axioms_match_their_goldens(tmp_path, capsys, name):
    space, expected_code, digests = AXIOMS_GOLDEN[name]
    for seed, digest in enumerate(digests):
        code, out, err = run_cli(tmp_path, capsys, "axioms", {"space": space, "samples": 2000, "seed": seed})
        assert code == expected_code and err == ""
        version, body = out.split("\n", 1)
        assert version.startswith("# version=")
        assert hashlib.sha256(body.encode()).hexdigest() == digest


AXIOMS_CFG = {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 300, "seed": 3}


@pytest.mark.parametrize(
    "key, value",
    [("samples", 2.5), ("samples", "x"), ("samples", None), ("samples", 0),
     ("seed", -1), ("seed", 2.5), ("seed", "x")],
)
def test_axioms_rejects_bad_values(tmp_path, capsys, key, value):
    cfg = dict(AXIOMS_CFG, **{key: value})
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 2 and f"config key {key!r}" in err and out == ""


def test_axioms_accepts_integral_spellings(tmp_path, capsys):
    _, golden, _ = run_cli(tmp_path, capsys, "axioms", AXIOMS_CFG)
    for samples, seed in (("300", 3.0), (300.0, "3")):
        cfg = dict(AXIOMS_CFG, samples=samples, seed=seed)
        code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg)
        assert code == 0
        assert out.splitlines()[2:] == golden.splitlines()[2:]
        assert out.splitlines()[1] == f"# config_hash={config_hash(cfg)}"


SPACE_INT_KEYS = [
    ({"kind": "euclidean", "dim": 3}, "dim"),
    ({"kind": "star_tree", "rays": 3, "length": 2}, "rays"),
]


@pytest.mark.parametrize("space, key", SPACE_INT_KEYS)
@pytest.mark.parametrize("value", [2.7, "x", True, 0])
def test_axioms_rejects_bad_space_ints(tmp_path, capsys, space, key, value):
    cfg = {"space": dict(space, **{key: value}), "samples": 50}
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 2 and f"config key {key!r}" in err and out == ""


@pytest.mark.parametrize("space, key", SPACE_INT_KEYS)
def test_axioms_accepts_integral_space_ints(tmp_path, capsys, space, key):
    _, golden, _ = run_cli(tmp_path, capsys, "axioms", {"space": space, "samples": 50})
    for value in ("3", 3.0):
        cfg = {"space": dict(space, **{key: value}), "samples": 50}
        code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg)
        assert code == 0
        assert out.splitlines()[2:] == golden.splitlines()[2:]
        assert out.splitlines()[1] == f"# config_hash={config_hash(cfg)}"


def test_missing_config_flag(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "axioms", None)
    assert code == 2 and "needs --config" in err


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

ITERATE_CFG = {
    "space": {"kind": "interval", "a": 0, "b": 1},
    "map": {"name": "translate", "shift": 1},
    "schedule": {"kind": "constant", "value": "1/2"},
    "x0": 0,
    "N": 2,
}


def test_iterate_golden_csv(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "iterate", ITERATE_CFG)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == f"# config_hash={config_hash(ITERATE_CFG)}"
    assert "# map=clamped_translation(1.0)" in lines
    assert "# schedule=constant(1/2)" in lines
    assert lines[-4] == "n,residual,x"
    assert lines[-3] == "0,1,0"
    assert lines[-2] == "1,0.5,0.5"
    assert lines[-1] == "2,0.25,0.75"


def test_iterate_byte_identical_reruns(tmp_path, capsys):
    _, first, _ = run_cli(tmp_path, capsys, "iterate", ITERATE_CFG)
    _, second, _ = run_cli(tmp_path, capsys, "iterate", ITERATE_CFG)
    assert first == second


#: sha256 of `iterate` stdout less its version line: the four point types of
#: the benchmark's orbits at steps 1/10000 and N = 5,000, three blocks of
#: rows, taken while each row was formatted on its own
ITERATE_GOLDEN = {
    "interval-translate": ({"space": {"kind": "interval", "a": 0, "b": "inf"},
                            "map": {"name": "translate", "shift": "1"}, "x0": 3.7},
                           "65eb3fb46b0920c57650e7bf3f551f2c25dbc88003bbf5354bb5f5313de185e0"),
    "poincare-constant": ({"space": {"kind": "poincare"},
                           "map": {"name": "constant", "value": [0.1, 0.2]}, "x0": [-0.5, 0.6]},
                          "da22a0aa48f8dfbef40c9c28136cb19a3a68dc06d2108714aa41edaf12fd03c7"),
    "star-constant": ({"space": {"kind": "star_tree", "rays": 3, "length": 2},
                       "map": {"name": "constant", "value": [1, 1.5]}, "x0": [2, 0.7]},
                      "7d0820726e49d0fc7b5e8f7505cd8cce4c2294ad96f137d8ea8659f66f176c1b"),
    "euclid-affine": ({"space": {"kind": "euclidean", "dim": 2},
                       "map": {"name": "matrix_affine", "offset": [0.3, -0.2],
                               "matrix": [[0.611874, -0.515374], [0.515374, 0.611874]]},
                       "x0": [3.1, -2.4]},
                      "8200a36ef00f3ba3858808a168be58ad377022fc8e598d47181303d79aae8992"),
}


@pytest.mark.parametrize("name", ITERATE_GOLDEN)
def test_iterate_matches_its_goldens(tmp_path, capsys, name):
    cfg, digest = ITERATE_GOLDEN[name]
    cfg = {**cfg, "schedule": {"kind": "constant", "value": "1/10000"}, "N": 5000}
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 0 and err == ""
    version, body = out.split("\n", 1)
    assert version.startswith("# version=")
    assert body.count("\n") == 5006  # config hash, space, map, schedule, header, rows 0..5000
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_iterate_detects_expansive_map(tmp_path, capsys):
    # doubling on the plane: residuals grow 1.5x per averaged step
    cfg = {
        "space": {"kind": "euclidean", "dim": 2},
        "map": {"name": "matrix_affine", "matrix": [[2, 0], [0, 2]], "offset": [0, 0]},
        "schedule": {"kind": "constant", "value": "1/2"},
        "x0": [0.1, 0],
        "N": 4,
    }
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 1
    assert "not nonincreasing" in err
    assert "n,residual," in out  # the trace itself is still emitted


def test_iterate_escaping_image_is_refused(tmp_path, capsys):
    # images leaving the interval are an error, never silently clamped
    cfg = dict(ITERATE_CFG)
    cfg["map"] = {"name": "affine", "slope": 2, "intercept": 0}
    cfg["x0"] = 0.1
    cfg["N"] = 4
    code, _, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 1
    assert "left the domain" in err


def test_iterate_from_rim_to_rim_on_the_disk(tmp_path, capsys):
    # d(x0, x*) = 4 artanh(r) rounds the Mobius form to artanh(1); the rim
    # form answers, and the averaged walk halves the distance each step
    r = 0.999999999999
    cfg = {
        "space": {"kind": "poincare"},
        "map": {"name": "constant", "value": [r, 0]},
        "schedule": {"kind": "constant", "value": "1/2"},
        "x0": [-r, 0],
        "N": 3,
    }
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[-4:]]
    assert [row[:2] for row in rows[:3]] == [
        ["0", "56.648380836905602"], ["1", "28.324190418452805"], ["2", "14.162094502119103"],
    ]
    assert float(rows[0][1]) == pytest.approx(4 * math.atanh(r), rel=1e-15)


def test_iterate_stops_when_a_point_turns_non_finite(tmp_path, capsys):
    cfg = {
        "space": {"kind": "euclidean", "dim": 2},
        "map": {"name": "matrix_affine", "matrix": [["inf", 0], [0, 0]], "offset": [0, 0]},
        "schedule": {"kind": "constant", "value": "1/3"},
        "x0": [1, 1],
        "N": 50,
    }
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 1 and out == ""
    assert "iterate left the domain at step 0" in err


def test_iterate_missing_keys(tmp_path, capsys):
    for drop in ("map", "schedule", "x0", "N"):
        cfg = {k: v for k, v in ITERATE_CFG.items() if k != drop}
        code, _, err = run_cli(tmp_path, capsys, "iterate", cfg)
        assert code == 2 and "config error" in err


@pytest.mark.parametrize(
    "key, value",
    [("N", -1), ("N", 2.5), ("N", "x"), ("K", 2.5), ("K", "two"), ("K", 0)],
)
def test_iterate_rejects_bad_values(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(ITERATE_CFG))
    if key == "K":
        cfg["schedule"]["K"] = value
    else:
        cfg[key] = value
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and f"config key {key!r}" in err and out == ""


def test_iterate_accepts_integral_spellings(tmp_path, capsys):
    _, golden, _ = run_cli(tmp_path, capsys, "iterate", ITERATE_CFG)
    for N, K in (("2", 2), (2.0, "2"), (2, 2.0)):
        cfg = json.loads(json.dumps(ITERATE_CFG))
        cfg["N"] = N
        cfg["schedule"]["K"] = K
        code, out, _ = run_cli(tmp_path, capsys, "iterate", cfg)
        assert code == 0
        assert out.splitlines()[-4:] == golden.splitlines()[-4:]
        assert f"# config_hash={config_hash(cfg)}" in out.splitlines()


HARMONIC_CFG = dict(ITERATE_CFG, schedule={"kind": "harmonic", "offset": 3, "alpha_horizon": 6})


@pytest.mark.parametrize(
    "key, value",
    [("offset", 2.5), ("offset", "x"), ("offset", None), ("offset", 1),
     ("alpha_horizon", 2.5), ("alpha_horizon", "x"), ("alpha_horizon", None),
     ("alpha_horizon", -1)],
)
def test_iterate_rejects_bad_harmonic_keys(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(HARMONIC_CFG))
    cfg["schedule"][key] = value
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and key in err and out == ""


def test_iterate_accepts_integral_harmonic_spellings(tmp_path, capsys):
    _, golden, _ = run_cli(tmp_path, capsys, "iterate", HARMONIC_CFG)
    assert "# schedule=harmonic(offset=3)" in golden.splitlines()
    for offset, horizon in (("3", 6.0), (3.0, "6")):
        cfg = json.loads(json.dumps(HARMONIC_CFG))
        cfg["schedule"].update(offset=offset, alpha_horizon=horizon)
        code, out, _ = run_cli(tmp_path, capsys, "iterate", cfg)
        assert code == 0
        assert out.splitlines()[2:] == golden.splitlines()[2:]
        assert out.splitlines()[1] == f"# config_hash={config_hash(cfg)}"


def test_iterate_rejects_metric_only_space(tmp_path, capsys):
    cfg = dict(ITERATE_CFG)
    cfg["space"] = {"kind": "circle"}
    code, _, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and "combine" in err


def test_iterate_invalid_harmonic_schedule_is_a_config_error(tmp_path, capsys):
    # the default witness table covers n <= 6 and clamps at 614 beyond
    cfg = dict(ITERATE_CFG, schedule={"kind": "harmonic"}, N=10)
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and out == ""
    assert err == ("config error: schedule invalid up to N=10: invalid at n=7: "
                   "sum_witness (sum of lam_0..lam_614 = 6.00127 < n = 7)\n")


@pytest.mark.parametrize("K, alpha, code, tail", [
    (3, "double", 0, ["n,residual,x", "0,0.25,0.5", "1,0.125,0.375", "2,0.0625,0.3125",
                      "3,0.03125,0.28125"]),
    (1, "double", 2, "invalid at n=0: lambda_cap (lam_0=1/2 > 1-1/K=0)"),
    (3, "identity", 2, "invalid at n=2: sum_witness (sum of lam_0..lam_2 = 1.5 < n = 2)"),
], ids=["K3-double", "K1-double", "K3-identity"])
def test_iterate_constant_schedule_reads_K_and_alpha(tmp_path, capsys, K, alpha, code, tail):
    cfg = dict(ITERATE_CFG, map={"name": "constant", "value": 0.25}, x0=0.5, N=3,
               schedule={"kind": "constant", "value": "1/2", "K": K, "alpha": {"kind": alpha}})
    got, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert got == code
    if code == 0:
        assert out.splitlines()[-5:] == tail and err == ""
    else:
        assert out == "" and err == f"config error: schedule invalid up to N=3: {tail}\n"


def _no_walk(*args):
    raise AssertionError("a config refused from its keys must not start a walk")


def test_iterate_refuses_a_start_outside_the_space(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "km_blocks", _no_walk)
    # refused when x0 is read, before the unknown-key check at the end
    cfg = dict(ITERATE_CFG, x0=2, extra=1)
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and out == ""
    assert err == ("config error: config key 'x0': 2.0 is not a member of "
                   "IntervalSpace({'kind': 'interval', 'a': 0.0, 'b': 1.0})\n")


@pytest.mark.parametrize("space, value, shown", [
    ({"kind": "interval", "a": 0, "b": 1}, 2, "2.0 is not a member of "
     "IntervalSpace({'kind': 'interval', 'a': 0.0, 'b': 1.0})"),
    ({"kind": "star_tree", "rays": 3, "length": 2}, [3, 1.5], "(3, 1.5) is not a member of "
     "StarTree({'kind': 'star_tree', 'rays': 3, 'length': 2.0})"),
], ids=["interval", "star_tree"])
def test_iterate_refuses_a_constant_map_outside_the_space(tmp_path, capsys, monkeypatch, space, value, shown):
    monkeypatch.setattr(cli, "km_blocks", _no_walk)
    x0 = 0.5 if space["kind"] == "interval" else [0, 0.5]
    cfg = dict(ITERATE_CFG, space=space, map={"name": "constant", "value": value}, x0=x0)
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and out == ""
    assert err == f"config error: config key 'value': {shown}\n"


def test_iterate_refuses_an_alpha_horizon_no_table_covers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "km_blocks", _no_walk)
    cfg = dict(ITERATE_CFG, schedule={"kind": "harmonic", "alpha_horizon": 100000})
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and out == ""
    assert err == ("config error: config key 'alpha_horizon': witness table needs more "
                   "than 5000 exact terms to cover n=9\n")


def test_iterate_refuses_a_witness_past_the_summation_cap(tmp_path, capsys):
    # alpha(1) = 1000001 would need a partial sum of more terms than the cap
    # allows; that is a bad schedule before any step, not a failed run
    alpha = {"kind": "scale_ceil", "c": 1000001}
    cfg = dict(ITERATE_CFG, schedule={"kind": "harmonic", "alpha": alpha})
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 2 and out == ""
    assert err == ("config error: schedule invalid up to N=2: alpha(1) = 1000001: a partial sum "
                   "of 1000002 terms exceeds the summation cap\n")


def test_iterate_on_broken_w(tmp_path, capsys):
    # combine returns x, so under the identity every row is the start
    cfg = dict(ITERATE_CFG, space={"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}},
               map={"name": "identity"}, x0=0.5, N=3)
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert '# space={"base":{"a":0.0,"b":1.0,"kind":"interval"},"kind":"broken_w"}' in lines
    assert lines[-5:] == ["n,residual,x", "0,0,0.5", "1,0,0.5", "2,0,0.5", "3,0,0.5"]


@pytest.mark.parametrize("base", [{"kind": "circle"},
                                  {"kind": "product", "left": ITERATE_CFG["space"], "right": ITERATE_CFG["space"]}])
@pytest.mark.parametrize("command", ["axioms", "iterate"])
def test_broken_w_refuses_a_base_without_combine(tmp_path, capsys, base, command):
    cfg = {"space": {"kind": "broken_w", "base": base}, "samples": 10}
    if command == "iterate":
        cfg = dict(ITERATE_CFG, space=cfg["space"], map={"name": "identity"}, x0=0.5)
    code, out, err = run_cli(tmp_path, capsys, command, cfg)
    assert (code, out) == (2, "")
    assert err == f"config error: space 'broken_w': base {base['kind']!r} has no combine operator\n"


# ---------------------------------------------------------------------------
# iterate in blocks
# ---------------------------------------------------------------------------


def _whole_trace_run(cfg):
    """(exit code, stdout, stderr) of `iterate` on ``cfg`` computed from one
    whole km_iterate trace: the reference the streamed command must match."""
    space = build_space(cfg["space"])
    T = build_map(space, cfg["map"])
    sched = build_schedule(cfg["schedule"])
    x0 = parse_point(space, cfg["x0"], "x0")
    try:
        trace = km_iterate(space, T, x0, sched, cfg["N"])
    except DomainEscapeError as exc:
        return 1, "", f"error: {exc}\n"
    meta = {"version": hypkm.__version__, "config_hash": config_hash(cfg),
            "space": canonical_json(space.descriptor), "map": T.label, "schedule": sched.label}
    out = "\n".join(trace.csv_lines(meta)) + "\n"
    if residuals_nonincreasing(trace):
        return 0, out, ""
    return 1, out, ("residuals are not nonincreasing: map is not nonexpansive "
                    "or schedule is out of range\n")


#: per kind a space, a map and start points that keep every orbit inside
STREAM_CASES = {
    "interval": ({"kind": "interval", "a": 0, "b": 1}, {"name": "affine", "slope": -0.5, "intercept": 0.7},
                 [0, 0.1, 1]),
    "box": ({"kind": "box", "bounds": [[0, 1], [0, 1]]},
            {"name": "matrix_affine", "matrix": [[0.4, -0.3], [0.3, 0.4]], "offset": [0.3, 0.1]},
            [[0.9, 0.05], [0, 1]]),
    "poincare": ({"kind": "poincare"}, {"name": "constant", "value": [0.1, 0.2]}, [[-0.5, 0.6], [0.1, 0.2]]),
    "star_tree": ({"kind": "star_tree", "rays": 3, "length": 2}, {"name": "constant", "value": [1, 1.5]},
                  [[2, 0.7], [1, 0]]),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(STREAM_CASES) + ["settling"]), rows=st.sampled_from([1, 2, 7]),
       data=st.data())
def test_streamed_iterate_prints_the_whole_trace(tmp_path_factory, kind, rows, data):
    harmonic = data.draw(st.booleans(), label="harmonic")
    # the harmonic witness is tabulated by exact sums, affordable up to N = 7
    N = data.draw(st.integers(0, min(3 * rows + 1, 7) if harmonic else 3 * rows + 1), label="N")
    if harmonic:
        schedule = {"kind": "harmonic", "offset": data.draw(st.sampled_from([2, 3])), "alpha_horizon": N}
    else:
        schedule = {"kind": "constant", "value": data.draw(st.sampled_from(["1/2", "1/3", "3/4"]))}
    if kind == "settling":
        # under steps 1/2 the orbit of 0 from 2^(j - 1074) turns stationary
        # at step j, inside a block or where one opens
        space, T = STREAM_CASES["interval"][0], {"name": "constant", "value": 0}
        x0 = math.ldexp(1.0, data.draw(st.integers(0, 3 * rows + 1), label="j") - 1074)
    else:
        space, T, starts = STREAM_CASES[kind]
        x0 = data.draw(st.sampled_from(starts), label="x0")
    cfg = {"space": space, "map": T, "schedule": schedule, "x0": x0, "N": N}
    path = tmp_path_factory.mktemp("stream") / "config.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "BLOCK_ROWS", rows)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["iterate", "--config", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == _whole_trace_run(cfg)


#: x -> x + 0.3 on [0, 1] from 0 with steps 1/2: the image of x_5 escapes
ESCAPE_CFG = dict(ITERATE_CFG, map={"name": "affine", "slope": 1, "intercept": 0.3}, N=10)

#: x -> diag(0, 3) x from (-1, 2^-13) with steps 1/2: the residual
#: (2^-k, 2^(k-12)) falls through row 6 and first rises at row 7
RISE_CFG = {
    "space": {"kind": "euclidean", "dim": 2},
    "map": {"name": "matrix_affine", "matrix": [[0, 0], [0, 3]], "offset": [0, 0]},
    "schedule": {"kind": "constant", "value": "1/2"},
    "x0": [-1, 0.0001220703125],
    "N": 7,
}


@pytest.mark.parametrize("rows", [2, 5, 7])
def test_escape_in_a_block_or_at_its_boundary_prints_nothing(tmp_path, capsys, monkeypatch, rows):
    # with 5 rows a block, the image that escapes is the first block's tail
    monkeypatch.setattr(km, "BLOCK_ROWS", rows)
    code, out, err = run_cli(tmp_path, capsys, "iterate", ESCAPE_CFG)
    assert (code, out, err) == (1, "", "error: iterate left the domain at step 5: 1.0499999999999998\n")


@pytest.mark.parametrize("rows", [2, 7, 8])
def test_first_residual_rise_across_a_block_boundary_exits_1(tmp_path, capsys, monkeypatch, rows):
    # with 7 rows a block the rise from row 6 to row 7 is the only pair that
    # straddles two blocks, and the second block holds row 7 alone
    monkeypatch.setattr(km, "BLOCK_ROWS", rows)
    code, out, err = run_cli(tmp_path, capsys, "iterate", RISE_CFG)
    assert code == 1 and err.startswith("residuals are not nonincreasing")
    assert out.splitlines()[-2:] == ["6,0.022097086912079612,-0.015625,0.0078125",
                                     "7,0.032211762700137973,-0.0078125,0.015625"]
    assert (code, out, err) == _whole_trace_run(RISE_CFG)


def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(km, "BLOCK_ROWS", 2)
    cfg = dict(ITERATE_CFG, N=9)
    code, stdout, _ = run_cli(tmp_path, capsys, "iterate", cfg)
    target = tmp_path / "trace.csv"
    assert run_cli(tmp_path, capsys, "iterate", cfg, "--out", str(target))[:2] == (code, f"wrote {target}\n")
    assert code == 0 and target.read_bytes() == stdout.encode()


@pytest.mark.parametrize("command, cfg", [("iterate", ITERATE_CFG),
                                          ("rates", {"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "b": 1})])
@pytest.mark.parametrize("target", ["directory", "missing/trace.csv"])
def test_unwritable_out_exits_2_naming_it(tmp_path, capsys, command, cfg, target):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    code, out, err = run_cli(tmp_path, capsys, command, cfg, "--out", str(path))
    assert code == 2 and out == "" and err.startswith(f"config error: --out {str(path)!r} cannot be written: ")
    assert path.is_dir() != (target == "missing/trace.csv") and not (tmp_path / "missing").exists()


def test_out_that_fails_midway_leaves_no_file(tmp_path):
    # a file size limit of 1000 bytes, set in the child, makes the write
    # fail with EFBIG
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(ITERATE_CFG, N=200)))
    target = tmp_path / "trace.csv"
    child = ("import resource, signal, sys\n"
             "from hypkm.cli import main\n"
             "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
             "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    p = subprocess.run([sys.executable, "-c", child, "iterate", "--config", str(path), "--out", str(target)],
                       capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=os.path.dirname(hypkm.__path__[0])))
    assert p.returncode == 2 and p.stdout == "" and not target.exists()
    assert p.stderr.startswith(f"config error: --out {str(target)!r} cannot be written: ")


class _LengthSink:
    """A stdout that keeps only the length of what is written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def test_iterate_memory_stays_within_three_times_its_output(tmp_path):
    # 50,000 rows of a 2-D orbit: whole-orbit lists of points, residuals
    # and row strings, then their join, took about 6x the output
    angle = 0.7
    cfg = {
        "space": {"kind": "euclidean", "dim": 2},
        "map": {"name": "matrix_affine", "offset": [0.3, -0.2],
                "matrix": [[0.8 * math.cos(angle), -0.8 * math.sin(angle)],
                           [0.8 * math.sin(angle), 0.8 * math.cos(angle)]]},
        "schedule": {"kind": "constant", "value": "1/10000"},
        "x0": [3.1, -2.4],
        "N": 50_000,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    sink = _LengthSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["iterate", "--config", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 3_000_000 and peak <= 3 * sink.length


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_golden_lines(tmp_path, capsys):
    cfg = {
        "K": 1,
        "alpha": {"kind": "identity"},
        "eps": 4,
        "b": 1,
        "b1": "1/4",
        "b2": "1/2",
    }
    code, out, _ = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0
    lines = out.splitlines()
    assert "h = 30" in lines
    assert "h_tilde = 726" in lines
    assert "g_tilde = 726" in lines
    assert "g = 30" in lines


ID, DBL = {"kind": "identity"}, {"kind": "double"}
C32, TAB = {"kind": "scale_ceil", "c": "3/2"}, {"kind": "table", "values": [1, 2, 4, 7]}

#: sha256 of `rates` stdout less its version line, taken while identity and
#: double had their own code paths: exact, overflow and tower lines of each
#: witness law.  double-overflow was retaken when the linear law's 512-step
#: literal head went: its bounds now count all steps at log10 2 < 39/128,
#: about 1.9 digits more, h <= 3.107e+119272730745 -> 3.107e+119272730747
#: and h_tilde, g_tilde <= 1.717e+56508767332513174953534367 ->
#: 1.717e+56508767332513174953534369 (digit counts 2 more).
RATES_GOLDEN = {
    "identity-exact": ({"K": 1, "alpha": ID, "eps": "1/2", "b": 1, "b1": "1/2", "b2": 1},
        "0ef4eb84ca1f56a375c281fb73ed10194fd844a56f154add66a823d208a0f9e4"),
    "identity-overflow": ({"K": 1, "alpha": ID, "eps": "1/1000000", "b": 1, "b1": "1/2", "b2": 1},
        "9d4bcb1a580d4f27a7d3c3eafdecaf8d40872981132ed9f5e0313c19d012df36"),
    "identity-tower": ({"K": 1, "alpha": ID, "eps": 4, "b": "1e400"},
        "3c2313dfc9150fbb49f4485afedc504d1026cd9da576d4e544f6b200655c45fb"),
    "double-exact": ({"K": 1, "alpha": DBL, "eps": 4, "b": 1, "b1": "1/2", "b2": 1},
        "39c7378edd422dd9148dfc9779477ebc8fffc4df6d203d3600f8ea50818cfa68"),
    "double-overflow": ({"K": 2, "alpha": DBL, "eps": "1/4", "b": 1},
        "1b3eeea7c96fc8fb33313c9a57cf1bd1d79fded420951de608dc24dd5a728463"),
    "double-tower": ({"K": 1, "alpha": DBL, "eps": 4, "b": "1e400"},
        "94d6a50e4702ffb338e1e634b3034ed0b3fb4d7cb6b15a94111659befbc59132"),
    "scale_ceil-3/2-exact": ({"K": 1, "alpha": C32, "eps": 4, "b": 1, "b1": "1/2", "b2": 1},
        "27a7cb8755b9fe1806ea6236cad8b1fbe4d80b6716f3ef096ca1a99e88c4e58b"),
    "scale_ceil-3/2-tower": ({"K": 1, "alpha": C32, "eps": 4, "b": "1e400"},
        "372f0025f46b883b7ca4a42fa09572cbf62683fb01d85bc69df1c616bdf89791"),
    "table-exact": ({"K": 3, "alpha": TAB, "eps": "1/100", "b": 1, "b1": "1/2", "b2": 1},
        "6a7fc98b15d8b0d0cb59265b41e1abc6cd1b2a6c4a016b24f986cd9eb055ee7d"),
    "table-overflow": ({"K": 1, "alpha": TAB, "eps": "1/1000000", "b": 1},
        "8482d5f48f024223827619f6ed1681ef021930e362bb120ea26c149757e7f91c"),
    "table-tower": ({"K": 1, "alpha": TAB, "eps": 4, "b": "1e400"},
        "573b55d4876ee9ac02f53c433a2f2e8c08e1ee24d57ed3aadc6829d9756088b0"),
    # taken while each alpha_plus call rescanned the table (about 2 s)
    "table-2000-exact": ({"K": 2, "alpha": {"kind": "table", "values": list(range(0, 4000, 2))},
                          "eps": "1/2", "b": 1},
        "4e45eb572bb4b16eec1d291153af884e927369057659add0f8a1f9efdf2e1e14"),
}


@pytest.mark.parametrize("name", RATES_GOLDEN)
def test_rates_match_their_goldens(tmp_path, capsys, name):
    cfg, digest = RATES_GOLDEN[name]
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0 and err == ""
    version, body = out.split("\n", 1)
    assert version.startswith("# version=")
    assert hashlib.sha256(body.encode()).hexdigest() == digest


#: `rates` configs whose literal head built millions of digits only to print
#: a bound: 52 s to over 600 s each, about 0.1 s now.  sha256 of stdout less
#: its version line, and its bound lines.  Each line went old -> new when
#: the linear law got one jump, whose bound is c**i * (a(0) + e) for
#: e = ceil((p*n + 2q - 1)/d), d = q at c >= 2 and p - q below:
#: - big3, c = (10^100 + 1)/3: h is 218,354 digits, past GROWTH_DIGIT_CAP,
#:   and its bound comes before any step, not after a walk to 20,000 digits:
#:   h <= 7.568e+218362 (decimal digits <= 218363) ->
#:   h <= 2.918e+218364 (decimal digits <= 218365); h_tilde and g_tilde
#:   <= 1.242e+3904279442 (decimal digits <= 3904279443) ->
#:   <= 2.055e+3904279443 (decimal digits <= 3904279444).
#: - nines, c = 10^4300 - 1: unchanged; the jump over all steps raised
#:   already.
#: - nines2, c = (10^4298 - 1)/2: h <= 1.878e+1276417 -> 9.307e+1276417 and
#:   h_tilde, g_tilde <= 4.828e+3087853912 -> 9.562e+3087853912 (digit counts
#:   unchanged).
#: - c123, c = 123.456789: as big3 (under the digit budget alone, the jump
#:   built h, 250,458 digits, five times slower than the walk's bound).
#:   h <= 1.276e+250704 (decimal digits <= 250705) ->
#:   h <= 2.373e+250726 (decimal digits <= 250727); h_tilde and g_tilde
#:   <= 4.069e+1809123095832 (decimal digits <= 1809123095833) ->
#:   <= 3.164e+1809123095854 (decimal digits <= 1809123095855).
RATES_PAST_THE_HEAD = {
    "big3": ({"K": 1, "alpha": {"kind": "scale_ceil", "c": "1" + "0" * 99 + "1/3"}, "eps": "1/2", "b": 1},
        "86c951a82c71b8380ec74b8b8656d76429031ed570dc350c9d04fe05091e83c9",
        ["h <= 2.918e+218364 (decimal digits <= 218365)",
         "h_tilde <= 2.055e+3904279443 (decimal digits <= 3904279444)",
         "g_tilde <= 2.055e+3904279443 (decimal digits <= 3904279444)"]),
    "nines": ({"K": 1, "alpha": {"kind": "scale_ceil", "c": "9" * 4300}, "eps": "3/4", "b": 1},
        "89172dbfe4925af827fbd413dcf33bb965e2187dd29e6ff54292e82ec1c43864",
        ["h <= 1.001e+1277101 (decimal digits <= 1277102)",
         "h_tilde <= 1.001e+3089507002 (decimal digits <= 3089507003)",
         "g_tilde <= 1.001e+3089507002 (decimal digits <= 3089507003)"]),
    "nines2": ({"K": 1, "alpha": {"kind": "scale_ceil", "c": "9" * 4298 + "/2"}, "eps": "3/4", "b": 1},
        "87f9027d4a887bce9c595cd9eb30040abe5335302c74cf474b1684ce62039d41",
        ["h <= 9.307e+1276417 (decimal digits <= 1276418)",
         "h_tilde <= 9.562e+3087853912 (decimal digits <= 3087853913)",
         "g_tilde <= 9.562e+3087853912 (decimal digits <= 3087853913)"]),
    "c123": ({"K": 1, "alpha": {"kind": "scale_ceil", "c": "123.456789"}, "eps": "3/10", "b": 1},
        "f251014a4a3e1fb94c25e5b163f2521912d354c98550a60a5e2e08af7b9e1573",
        ["h <= 2.373e+250726 (decimal digits <= 250727)",
         "h_tilde <= 3.164e+1809123095854 (decimal digits <= 1809123095855)",
         "g_tilde <= 3.164e+1809123095854 (decimal digits <= 1809123095855)"]),
}


@pytest.mark.parametrize("name", RATES_PAST_THE_HEAD)
def test_rates_bound_what_the_head_would_build(tmp_path, capsys, name):
    cfg, digest, bound_lines = RATES_PAST_THE_HEAD[name]
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0 and err == ""
    version, body = out.split("\n", 1)
    assert version.startswith("# version=")
    assert [line for line in body.splitlines()[1:] if " <= " in line] == bound_lines
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_rates_prints_seven_hundred_thousand_digits(tmp_path, capsys):
    cfg = {
        "K": 2,
        "alpha": {"kind": "scale_ceil", "c": 2},
        "eps": "1/2",
        "b": 1,
    }
    code, out, _ = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0
    lines = out.splitlines()
    h_line = next(l for l in lines if l.startswith("h = "))
    # the oracle is 13 * 2^2405209 - 13 in exact decimal arithmetic, not the
    # binary split the CLI renders with; str() of that int takes seconds
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = True
    with decimal.localcontext(ctx):
        expected = str(decimal.Decimal(13) * decimal.Decimal(2) ** 2405209 - 13)
    assert len(expected) == 724042
    assert h_line == f"h = {expected}"
    # the bounded-orbit variant overflows the digit budget and degrades to a
    # sound upper bound instead
    h_tilde_line = next(l for l in lines if l.startswith("h_tilde"))
    assert h_tilde_line.startswith("h_tilde <= ") and "e+" in h_tilde_line


def test_rates_argument_errors(tmp_path, capsys):
    base = {"K": 1, "alpha": {"kind": "identity"}, "eps": 4}
    code, _, err = run_cli(tmp_path, capsys, "rates", base)  # no b, b1, b2
    assert code == 2 and "rates needs" in err
    code, _, err = run_cli(
        tmp_path, capsys, "rates", {"alpha": {"kind": "identity"}, "eps": 4, "b": 1}
    )
    assert code == 2 and "'K'" in err
    code, _, err = run_cli(
        tmp_path, capsys, "rates", {"K": 1, "alpha": {"kind": "identity"}, "b": 1}
    )
    assert code == 2 and "'eps'" in err


@pytest.mark.parametrize("b", [None, 1])
@pytest.mark.parametrize("given, missing", [("b1", "b2"), ("b2", "b1")])
def test_rates_refuses_half_a_g_pair(tmp_path, capsys, b, given, missing):
    # g needs both of b1 and b2; one of them alone is refused by name, with
    # or without the b that h, h_tilde and g_tilde read
    cfg = {"K": 1, "alpha": ID, "eps": 4, given: "1/4"}
    if b is not None:
        cfg["b"] = b
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 2 and out == "" and f"rates needs {missing!r}" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("K", 2.5),
        ("K", "two"),
        ("K", True),
        ("K", 0),
        ("eps", 0),
        ("eps", "-1/2"),
        ("b", 0),
        ("b1", "-1/4"),
        ("b2", 0),
    ],
)
def test_rates_rejects_bad_values(tmp_path, capsys, key, value):
    cfg = {"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "b": 1, "b1": "1/4", "b2": "1/2"}
    cfg[key] = value
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 2 and f"config key {key!r}" in err and out == ""


def test_rates_prints_an_exact_value_past_a_million_digits(tmp_path, capsys):
    # h has 1,023,437 digits, within DIGIT_BUDGET: its line is the exact value,
    # checked by length and by its residue modulo a Mersenne prime, read in
    # 9-digit chunks; h_tilde and g_tilde overflow to bounds
    cfg = {"K": 1, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "3/20", "b": "13/25"}
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0 and err == ""
    digits = out.splitlines()[2].removeprefix("h = ")
    assert len(digits) == 1023437 and digits[0] != "0"
    p = 2**127 - 1
    residue = 0
    for j in range(0, len(digits), 9):
        chunk = digits[j : j + 9]
        residue = (residue * 10 ** len(chunk) + int(chunk)) % p
    assert residue == rate_h(Fraction(3, 20), Fraction(13, 25), 1, alpha_scale_ceil(2)) % p
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5a099d26a629950ffa59f54e156751bccf84161414b8e598b84e2b82ee61cfb0"
    )


@pytest.mark.parametrize("eps", ["1e10000000", "1" * 10**6])
def test_rates_refuses_slow_rational_strings(tmp_path, capsys, eps):
    cfg = {"K": 1, "alpha": {"kind": "identity"}, "eps": eps, "b": 1}
    start = time.perf_counter()
    code, out, err = run_cli(tmp_path, capsys, "rates", cfg)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and "config key 'eps'" in err and out == ""


def test_rates_accepts_integral_K_spellings(tmp_path, capsys):
    for K in ("1", 1.0):
        cfg = {"K": K, "alpha": {"kind": "identity"}, "eps": 4, "b": 1}
        code, out, _ = run_cli(tmp_path, capsys, "rates", cfg)
        assert code == 0 and "h = 30" in out.splitlines()


def test_rates_restores_int_str_limit(tmp_path, capsys):
    # main leaves the int-to-str digit limit as it was, and prints the anchor
    # exactly under it; the digits are checked by length and by their
    # residue modulo a Mersenne prime, read in 9-digit chunks
    cfg = {"K": 2, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "1/2", "b": 1}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(tmp_path, capsys, "rates", cfg)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    digits = next(l for l in out.splitlines() if l.startswith("h = "))[len("h = "):]
    assert len(digits) == 724042 and digits[0] != "0"
    p = 2**127 - 1
    residue = 0
    for j in range(0, len(digits), 9):
        chunk = digits[j : j + 9]
        residue = (residue * 10 ** len(chunk) + int(chunk)) % p
    assert residue == 13 * (pow(2, 2405209, p) - 1) % p


#: (command, config, exit code): the largest exact values each command prints
UNLIFTED_RUNS = [
    ("rates", {"K": 2, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "1/2", "b": 1}, 0),
    ("rates", {"K": 1, "alpha": {"kind": "scale_ceil", "c": 2}, "eps": "3/20", "b": "13/25"}, 0),
    ("product", {"example": "drop", "eps": "9/2"}, 0),
    ("uafpp", {"modulus": {"kind": "regularity_from_constant", "D": 1,
                           "schedule": {"kind": "constant", "value": "1/2"}},
               "eps_values": ["1/1000000"], "b_values": [1]}, 2),
]


@contextlib.contextmanager
def _fixed_int_str_limit(monkeypatch):
    """The interpreter's default int-to-str limit, which no one may change."""
    limit, set_limit = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
    set_limit(sys.int_info.default_max_str_digits)

    def refuse(maxdigits):
        raise AssertionError(f"the int-to-str limit was set to {maxdigits}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        yield
    finally:
        monkeypatch.undo()
        set_limit(limit)


def test_commands_print_under_the_default_int_str_limit(tmp_path, capsys, monkeypatch):
    # every exact value is printed without str(), so no command needs the
    # limit lifted, or touches it
    with _fixed_int_str_limit(monkeypatch):
        codes = [run_cli(tmp_path, capsys, command, cfg)[0] for command, cfg, _ in UNLIFTED_RUNS]
    assert codes == [code for _, _, code in UNLIFTED_RUNS]


NINES = "9" * 4300


@pytest.mark.parametrize("command, cfg, err", [
    ("rates", {"K": 1, "alpha": {"kind": "identity"}, "eps": "1e-4300", "b": 1},
     "config error: config key 'eps': numerator or denominator of '1e-4300' is over 4300 digits\n"),
    ("uafpp", {"modulus": {"kind": "constant", "D": "1e4300"}, "eps_values": [1], "b_values": [1]},
     "config error: config key 'D': numerator or denominator of '1e4300' is over 4300 digits\n"),
    ("iterate", dict(ITERATE_CFG, schedule={"kind": "harmonic", "alpha": {"kind": "scale_ceil", "c": NINES}}),
     f"config error: schedule invalid up to N=2: alpha(1) = {NINES}: a partial sum of 1{'0' * 4300} "
     "terms exceeds the summation cap\n"),
], ids=["eps", "D", "alpha"])
def test_config_values_print_under_the_default_int_str_limit(tmp_path, capsys, monkeypatch, command, cfg, err):
    # a rational read from a config has at most 4,300 digits above and below,
    # and a value computed from one is printed without str()
    with _fixed_int_str_limit(monkeypatch):
        code, out, got = run_cli(tmp_path, capsys, command, cfg)
    assert (code, out, got) == (2, "", err)


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def test_product_diagonal_json(tmp_path, capsys):
    cfg = {"example": "diagonal", "eps": "1/100", "budget": 300}
    code, out, _ = run_cli(tmp_path, capsys, "product", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["config_hash"] == config_hash(cfg)
    assert doc["exhausted"] is False
    assert doc["best_residual"] == "0"
    assert doc["attempts"] == [
        {"eps_attempt": "0.01", "n": 300, "truncated": True, "residual": "0"}
    ]
    cert = doc["certificate"]
    assert cert["theorem"] == "product-afpp[sup-rC]:residual-certified-at-budget"
    assert cert["n_used"] == 300 and cert["bound_used"] is None


def test_product_drift_exhausts(tmp_path, capsys):
    cfg = {"example": "drift", "eps": "1/2", "budget": 50}
    code, out, _ = run_cli(tmp_path, capsys, "product", cfg)
    assert code == 3
    doc = json.loads(out)
    assert doc["exhausted"] is True and doc["certificate"] is None
    assert doc["best_residual"] == "1"


def test_product_config_errors(tmp_path, capsys):
    code, _, err = run_cli(
        tmp_path, capsys, "product", {"example": "bogus", "eps": 1}
    )
    assert code == 2 and "unknown product example" in err
    code, _, err = run_cli(
        tmp_path, capsys, "product",
        {"example": "diagonal", "eps": "1/100", "budget": 50},
    )
    assert code == 2 and "below the minimum usable index" in err
    code, _, err = run_cli(tmp_path, capsys, "product", {"example": "drop", "eps": "1e-300"})
    assert code == 2
    assert err == "config error: budget 2000 is below the minimum usable index ~10^300\n"
    code, _, err = run_cli(
        tmp_path, capsys, "product",
        {"example": "diagonal", "eps": 1, "mode": "sideways"},
    )
    assert code == 2 and "unknown mode" in err


PRODUCT_CFG = {"example": "drop", "eps": "1/100", "budget": 300, "seed": 3, "mode": "bounded-orbit"}


@pytest.mark.parametrize(
    "key, value",
    [("budget", "x"), ("budget", 2.5), ("budget", None), ("budget", 0),
     ("seed", -1), ("seed", 2.5), ("seed", "x")],
)
def test_product_rejects_bad_values(tmp_path, capsys, key, value):
    cfg = dict(PRODUCT_CFG, **{key: value})
    code, out, err = run_cli(tmp_path, capsys, "product", cfg)
    assert code == 2 and f"config key {key!r}" in err and out == ""


@pytest.mark.parametrize("mode", [None, 5, "x", "SUP-RC"])
def test_product_refuses_a_mode_it_does_not_run(tmp_path, capsys, mode):
    code, out, err = run_cli(tmp_path, capsys, "product", dict(PRODUCT_CFG, mode=mode))
    assert (code, out) == (2, "")
    assert err == f"config error: config key 'mode': unknown mode {mode!r}; available: sup-rC, bounded-orbit\n"


@pytest.mark.parametrize("mode", ["sup-rC", "bounded-orbit"])
def test_product_refuses_a_budget_past_its_ceiling(tmp_path, capsys, mode):
    # 10**400 used to end in an OverflowError traceback from 1.0 / budget
    cfg = {"example": "drop", "eps": "1/2", "mode": mode}
    for extra, flags in (({"budget": 10**400}, ()), ({}, ("--budget", str(MAX_BUDGET + 1)))):
        code, out, err = run_cli(tmp_path, capsys, "product", {**cfg, **extra}, *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config key 'budget': must be at most {MAX_BUDGET}, got ")


@pytest.mark.parametrize("mode", ["sup-rC", "bounded-orbit"])
def test_product_runs_at_the_budget_ceiling(tmp_path, capsys, mode):
    cfg = {"example": "drop", "eps": "1/2", "budget": MAX_BUDGET, "mode": mode}
    code, out, _ = run_cli(tmp_path, capsys, "product", cfg)
    assert code == 0 and json.loads(out)["certificate"] is not None


def test_product_accepts_integral_spellings(tmp_path, capsys):
    _, golden, _ = run_cli(tmp_path, capsys, "product", PRODUCT_CFG)
    expected = json.loads(golden)
    assert expected["attempts"][0]["n"] == 300
    for budget, seed in (("300", 3.0), (300.0, "3")):
        cfg = dict(PRODUCT_CFG, budget=budget, seed=seed)
        code, out, _ = run_cli(tmp_path, capsys, "product", cfg)
        assert code == 0
        doc = json.loads(out)
        assert doc.pop("config_hash") == config_hash(cfg)
        assert doc == {k: v for k, v in expected.items() if k != "config_hash"}


NO_OUTPUT = hashlib.sha256(b"").hexdigest()

#: (exit code, sha256 of `product` stdout less its version entry) at eps
#: 1/100 for budgets 300, 2000 (outer) and modes default, sup-rC,
#: bounded-orbit (inner), taken while `constant` had a closed-form oracle
#: of its own and each example could set its schedule and oracle
PRODUCT_GOLDEN = {
    "diagonal": (
        (0, "8b5d851a60080c30321bed4169b614a2344e7eeb10dcd706c0b4c42149dd6811"),
        (0, "70029d03cae3f024d84a7cca278d7b0ad7959f4242da033fd5f46217f5d09ca7"),
        (0, "a8bcf148f5573f6fdd4c4812c1788a441034e617ca6c3131bd52992600810fe3"),
        (0, "e0efdd4c450639fd1b47f4bced612c7e7954d283cdd015aadd48b36b47e0d620"),
        (0, "f2527bc6ac414e6edb5ca4826850a0c14732372fa93ceda119fccbaa8019462d"),
        (0, "4b3acb1482d11c8d72c114fbd849eb22590a743003272159c36dfbab289830a8"),
    ),
    "constant": (
        (0, "c7148103e15fb4500b15b6870ed64d1f4a4676855eec89fd0c6bb7ef819f6459"),
        (0, "236a6a794a0f879f6f85a708aabffc0904ccba1fdf4263f24e1c31f3a31d8724"),
        (0, "b94598813d5a7ac04793273ee47e0bcd278ffa943e3cdb19d2381fadeb39a044"),
        (0, "78f3f6f76a3e7b2890faade3d7203e1db04e5091f0e955804ab7e3067557f140"),
        (0, "9c1cb7b922f4ac5652e015d861a203d53eb75930156e821165167d22f6094a57"),
        (0, "658d9b18191a119733b5d44eb62ddeaa434f07b50560f6abaf4bcb5fa50b0022"),
    ),
    "drop": (
        (0, "a58195b7fffb3aa26c423bf19d12458c5b2e6d071ffa932b5cc0b1b52d385a0d"),
        (0, "7de0eea55a34f702d58d57b908f36858c09c59a6971f25a583cc834eee43f01d"),
        (0, "3c907bb483c8a97bad3cb010991802c5aa424d28ad053a46a6f464cf0a051723"),
        (0, "e22280f6547f073624064c7dee277bd622439e156b3397bd45595043ba053147"),
        (0, "e9cecd49e426203e01fe678e80d933cf4fdfa903eacfe5643a5d825a7b20fc6a"),
        (0, "98ec5afda17d93f0f24ae76e7a024844965be5e5fee5388cd50d650e36be44e2"),
    ),
    "drift": (
        (3, "4d474fa80310e6ef06bca1a3adc00530150d6367232b2d386d9dde70ef469712"),
        (3, "8a07dfcfa789a4026e1640f9b16fea2bde764aa0ba7ceda22ed4a190559c642b"),
        (2, NO_OUTPUT),
        (3, "0ccba5296abbe0b977c89e5ceac2855ba7899a355c7d01cb8e207a37e2df42b6"),
        (3, "83ef2797233a7a5f53bba34bf86633ca922b7ba89704a16e7901a0c58d353b09"),
        (2, NO_OUTPUT),
    ),
    "family_valid": (
        (0, "8a7d4824a6a77a67a05e61eccb7ab8c1fcf4488919f15519eab94cacce36d624"),
        (0, "3eed6223636f3f4fd50dfc577589758aa168b1201ac9ab79256ab8edc29a52ff"),
        (0, "13434fb2263bc2ac76de013bb46554822acfac8b84f6cafd86b89769e48ec957"),
        (0, "4173f8ef9c8458886bcc3de9122388809863faba9c59fc80ebff53637da248d6"),
        (0, "e071b4b479e39e032b64d44e4a96c304588dc6c2d012e5eb8c5ee6cdf3de3d72"),
        (0, "808f180631e18a7b124c6f4e2db8c136943363094963634958e95cb738f3a42b"),
    ),
    "family_violating": ((2, NO_OUTPUT),) * 6,
    "family_const": (
        (0, "041df3d0ecd67c53984ba57f3a071406496826dbf660a763bf4eca78b43e6b5f"),
        (0, "ffb083d1cdb2de5f0a4c345edb3dfb79542ca0e7b19f24b24d50a16ec6c088a5"),
        (0, "0f381c49d4f014352bdd19ecb8a0d8cbce4aac9f081055c6d50946c37035d2d6"),
        (0, "d7bab38c78a88c3b40f0a4f5ec6a77959eb7973e7f20fed4316d7dd859d4e286"),
        (0, "4c220a19ce35cc5f79cb6bce953d9c71f9e9b5bf4fc8a953911baa0a762ef2fe"),
        (0, "6dd32ee315210bc8bd6f8bd10c5241ceeaeb8532e7fbba7b6bd31a1a5133c959"),
    ),
}


@pytest.mark.parametrize("name", PRODUCT_GOLDEN)
def test_product_matches_its_goldens(tmp_path, capsys, name):
    runs = [(budget, mode) for budget in (300, 2000) for mode in (None, "sup-rC", "bounded-orbit")]
    for (budget, mode), (expected_code, digest) in zip(runs, PRODUCT_GOLDEN[name], strict=True):
        cfg = {"example": name, "eps": "1/100", "budget": budget}
        if mode is not None:
            cfg["mode"] = mode
        code, out, _ = run_cli(tmp_path, capsys, "product", cfg)
        body = out.replace(f'"version": "{hypkm.__version__}"', "")
        assert code == expected_code
        assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_product_prints_a_million_digit_bound_under_a_low_int_str_limit(tmp_path, capsys):
    # the certified index of drop at eps 9/2 has 979,883 digits, past the
    # int-to-str limit, so the certificate's bound_used must be rendered
    # without str()
    code, out, err = run_cli(tmp_path, capsys, "product", {"example": "drop", "eps": "9/2"})
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "570cec40e8f2ddffe17ad7df5806cdea479fb7a773ee4c93acd4d588f7f2dd91"


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", "2.5"), ("--seed", "x"),
     ("--budget", "0"), ("--budget", "2.5"), ("--budget", "x")],
)
def test_product_rejects_bad_flags(tmp_path, capsys, flag, value):
    code, out, err = run_cli(tmp_path, capsys, "product", PRODUCT_CFG, flag, value)
    assert code == 2 and f"config key {flag[2:]!r}" in err and out == ""


def test_flags_match_config_keys(tmp_path, capsys, monkeypatch):
    _, golden, _ = run_cli(tmp_path, capsys, "product", PRODUCT_CFG)
    bare = {k: v for k, v in PRODUCT_CFG.items() if k not in ("budget", "seed")}
    seen = []

    def recording_solve(*args, **kwargs):
        seen.append((kwargs["budget"], kwargs["seed"]))
        return solve_example(*args, **kwargs)

    monkeypatch.setattr(hypkm.cli, "solve_example", recording_solve)
    for budget, seed in (("300", "3"), ("300.0", "3.0")):
        code, out, _ = run_cli(tmp_path, capsys, "product", bare, "--budget", budget, "--seed", seed)
        assert code == 0
        doc, expected = json.loads(out), json.loads(golden)
        del doc["config_hash"], expected["config_hash"]
        assert doc == expected
    assert seen == [(300, 3), (300, 3)]
    code, _, err = run_cli(tmp_path, capsys, "axioms", {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 10}, "--seed", "-1")
    assert code == 2 and "config key 'seed'" in err


def test_flags_enter_the_config_hash(tmp_path, capsys):
    bare = {"example": "drop", "eps": "1/100"}
    _, plain, _ = run_cli(tmp_path, capsys, "product", bare)
    code, out, _ = run_cli(tmp_path, capsys, "product", bare, "--budget", "300", "--seed", "3")
    assert code == 0
    flagged = json.loads(out)["config_hash"]
    assert flagged == config_hash(bare | {"budget": "300", "seed": "3"})
    assert flagged != json.loads(plain)["config_hash"]
    cfg = {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 10}
    code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg, "--eta", "1/10")
    assert code == 0 and out.splitlines()[1] == f"# config_hash={config_hash(cfg | {'eta': '1/10'})}"


# ---------------------------------------------------------------------------
# uafpp
# ---------------------------------------------------------------------------


def test_uafpp_banach_table(tmp_path, capsys):
    cfg = {
        "modulus": {"kind": "banach", "k": "1/2"},
        "eps_values": [1],
        "b_values": [1, 2],
    }
    code, out, _ = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 0
    lines = out.splitlines()
    assert "# modulus=banach(k=1/2)" in lines
    assert lines[-3] == "eps,b,D"
    assert lines[-2] == "1,1,2"
    assert lines[-1] == "1,2,4"


def test_uafpp_huge_value_prints_a_power_of_ten_at_or_above_it(tmp_path, capsys):
    # D = 2 * 10^308 at b = 1e308: ~10^308 would be below it
    cfg = {"modulus": {"kind": "banach", "k": "1/2"}, "eps_values": ["1/2"], "b_values": [1e308]}
    code, out, _ = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 0
    assert out.splitlines()[-2:] == ["eps,b,D", "0.5,1e+308,10^309"]


def test_uafpp_regularity_from_constant(tmp_path, capsys):
    cfg = {
        "modulus": {
            "kind": "regularity_from_constant",
            "D": 1,
            "schedule": {"kind": "constant", "value": "1/2"},
        },
        "eps_values": [4],
        "b_values": [1],
    }
    code, out, _ = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "eps,b,N"
    assert lines[-1] == f"4,1,{3 * (2**110 - 1)}"


def test_uafpp_grid_overflow_is_config_error(tmp_path, capsys):
    cfg = {
        "modulus": {
            "kind": "regularity_from_constant",
            "D": 1,
            "schedule": {"kind": "constant", "value": "1/2"},
        },
        "eps_values": ["1/100"],
        "b_values": [1],
    }
    code, _, err = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 2 and "modulus grid" in err


def test_uafpp_config_errors(tmp_path, capsys):
    code, _, err = run_cli(
        tmp_path, capsys, "uafpp",
        {"modulus": {"kind": "nope"}, "eps_values": [1], "b_values": [1]},
    )
    assert code == 2 and "unknown modulus kind" in err
    code, _, err = run_cli(
        tmp_path, capsys, "uafpp",
        {"modulus": {"kind": "banach"}, "eps_values": [1], "b_values": [1]},
    )
    assert code == 2 and "needs 'k'" in err


@pytest.mark.parametrize("kind", ["constant", "regularity_from_constant"])
@pytest.mark.parametrize("D", [-1, "-1/2", -5])
def test_uafpp_refuses_a_negative_displacement_bound(tmp_path, capsys, kind, D):
    modulus = {"kind": kind, "D": D}
    if kind == "regularity_from_constant":
        modulus["schedule"] = {"kind": "constant", "value": "1/2"}
    cfg = {"modulus": modulus, "eps_values": ["1/2"], "b_values": [1]}
    code, out, err = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 2 and out == ""
    assert err == f"config error: config key 'D': must be >= 0, got {Fraction(D)}\n"


def test_uafpp_accepts_a_zero_displacement_bound(tmp_path, capsys):
    cfg = {"modulus": {"kind": "constant", "D": 0}, "eps_values": ["1/2"], "b_values": [1]}
    code, out, err = run_cli(tmp_path, capsys, "uafpp", cfg)
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == ["eps,b,D", "0.5,1,0"]


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def test_demo_runs_all_criteria(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, "demo", None)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all criteria pass"
    criterion_lines = [l for l in lines if l.startswith("criterion")]
    assert len(criterion_lines) == 11
    assert all("[pass]" in l for l in criterion_lines)


def _python_m_hypkm(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypkm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "hypkm", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = _python_m_hypkm("demo", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hypkm demo")


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # 10^4 rows of a 2-D orbit, far more than a pipe buffer holds: the
    # reader takes one line and closes its end while iterate still writes
    cfg = {
        "space": {"kind": "euclidean", "dim": 2},
        "map": {"name": "matrix_affine", "matrix": [[0.573636, -0.515379], [0.515379, 0.573636]],
                "offset": [0.3, -0.2]},
        "schedule": {"kind": "constant", "value": "1/10000"},
        "x0": [3.1, -2.4],
        "N": 10_000,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypkm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "hypkm", "iterate", "--config", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == f"# version={hypkm.__version__}\n" and proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout was closed before all output was written\n"


def test_a_closed_stdout_in_this_process_points_stdout_at_devnull(tmp_path, capsys, monkeypatch):
    # the branch the subprocess above takes, run here on a file as stdout:
    # its descriptor then writes to devnull, so nothing more reaches the file
    def closed(cfg, args):
        raise BrokenPipeError

    monkeypatch.setitem(cli.COMMANDS, "demo", (closed, (), "closed stdout"))
    target = tmp_path / "stdout.txt"
    with open(target, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["demo"])
        out.write("after the pipe closed\n")
        out.flush()
        monkeypatch.undo()
    assert code == 1 and target.read_text() == ""
    assert capsys.readouterr().err == "error: stdout was closed before all output was written\n"


def test_an_exhausted_budget_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, args):
        raise BudgetExhausted(0.25)

    monkeypatch.setitem(cli.COMMANDS, "demo", (exhausted, (), "exhausted"))
    assert run_cli(tmp_path, capsys, "demo") == (3, "", "budget exhausted: budget exhausted; best residual 0.25\n")


@pytest.mark.parametrize("space, x0, target, last_row", [
    ({"kind": "interval", "a": "-inf", "b": "inf"}, -1e308, 1e308, "1,1e+308,0"),
    ({"kind": "euclidean", "dim": 2}, [-1e308, -1e308], [1e308, 1e308], "1,1.4142135623730951e+308,0,0"),
    ({"kind": "euclidean", "dim": 3}, [-1e308, 0, 0], [1e308, 0, 0], "1,1e+308,0,0,0"),
], ids=["line", "r2", "r3"])
def test_a_step_whose_difference_overflows_lands_on_the_midpoint(tmp_path, capsys, space, x0, target, last_row):
    # T(x0) - x0 = 2e308 overflowed, so x_1 was inf and iterate exited 1
    cfg = {"space": space, "map": {"name": "constant", "value": target},
           "schedule": {"kind": "constant", "value": "1/2"}, "x0": x0, "N": 1}
    code, out, err = run_cli(tmp_path, capsys, "iterate", cfg)
    assert (code, err, out.splitlines()[-1]) == (0, "", last_row)


def test_an_explicit_witness_the_float_sum_refuses_exits_2(tmp_path, capsys):
    schedule = {"kind": "harmonic", "offset": "1e100", "alpha": {"kind": "table", "values": [0, 4999]}}
    cfg = {"space": {"kind": "interval", "a": 0, "b": 1}, "map": {"name": "identity"}, "schedule": schedule,
           "x0": 0.5, "N": 5}
    assert run_cli(tmp_path, capsys, "iterate", cfg) == (2, "", (
        "config error: schedule invalid up to N=5: invalid at n=1: sum_witness "
        "(sum of lam_0..lam_4999 = 5e-97 < n = 1)\n"))


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    cfg = {"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "b": 1}
    assert run_cli(tmp_path, capsys, "rates", cfg)[0] == 0
    assert built and built[0] == "hypkm"
    first = len(built)
    assert run_cli(tmp_path, capsys, "rates", cfg)[0] == 0
    assert len(built) == first


def test_a_flag_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = {"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 200}
    code, seeded, _ = run_cli(tmp_path, capsys, "axioms", cfg, "--seed", "7")
    assert code == 0
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 0 and err == "" and out != seeded
    proc = _python_m_hypkm("axioms", "--config", str(tmp_path / "config.json"))
    assert proc.returncode == 0, proc.stderr
    assert out == proc.stdout


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------


def test_canonical_json_and_hash_stability():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    h = config_hash({"b": 1, "a": 2})
    assert h == config_hash({"a": 2, "b": 1})
    assert h == hashlib.sha256(b'{"a":2,"b":1}').hexdigest()


def test_config_rational_parsing():
    assert config_rational({"x": "2/3"}, "x") == Fraction(2, 3)
    assert config_rational({}, "x") is None
    assert config_rational({}, "x", default=1) == 1
    with pytest.raises(ConfigError):
        config_rational({"x": "no"}, "x")


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_load_config_refuses_oversized_int_literals(tmp_path):
    path = tmp_path / "c.json"
    for literal in ("1" * 4300, "-" + "1" * 4300):
        path.write_text('{"eps": %s}' % literal)
        assert load_config(path)["eps"] == int(literal)
    for literal in ("1" * 4301, "-" + "1" * 4301):
        path.write_text('{"eps": %s}' % literal)
        with pytest.raises(ConfigError, match="4301-digit integer literal"):
            load_config(path)


def test_rates_refuses_a_400000_digit_literal_quickly(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"K": 1, "alpha": {"kind": "identity"}, "eps": %s, "b": 1}' % ("4" * 400_000))
    start = time.perf_counter()
    code = main(["rates", "--config", str(path)])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "config error: 400000-digit integer literal" in capsys.readouterr().err


def test_rates_tower_line_prints_the_exponent_in_full(tmp_path, capsys):
    cfg = {"K": 1, "alpha": {"kind": "double"}, "eps": 4, "b": "1e400"}
    code, out, _ = run_cli(tmp_path, capsys, "rates", cfg)
    assert code == 0
    lines = out.splitlines()[2:]
    assert [l.split(" ")[0] for l in lines] == ["h", "h_tilde", "g_tilde"]
    tower = re.compile(r"(\w+) <= 10\^\(10\^([1-9][0-9]*)\) \(digit count itself is astronomical\)")
    exponents = [tower.fullmatch(l).group(2) for l in lines]
    assert exponents[0] == "23856065" + "0" * 389 + "403"
    assert exponents[1] == exponents[2] == "71568195" + "0" * 389 + "404"


def test_build_space_catalog_and_errors():
    interval = build_space({"kind": "interval", "a": 0, "b": 1})
    assert (interval.a, interval.b) == (0.0, 1.0)
    prod = build_space(
        {
            "kind": "product",
            "left": {"kind": "interval", "a": 0, "b": 1},
            "right": {"kind": "interval", "a": 0, "b": 2},
        }
    )
    assert prod.distance((0.0, 0.0), (1.0, 2.0)) == 2.0
    with pytest.raises(ConfigError):
        build_space({"kind": "interval", "a": 1, "b": 0})
    with pytest.raises(ConfigError):
        build_space({"kind": "euclidean", "dim": 0})
    with pytest.raises(ConfigError):
        build_space({"a": 0})
    with pytest.raises(ConfigError):
        build_space("interval")


def test_build_alpha_errors():
    assert build_alpha({"kind": "identity"})(7) == 7
    with pytest.raises(ConfigError):
        build_alpha({"kind": "scale_ceil", "c": "1/2"})
    with pytest.raises(ConfigError):
        build_alpha({"kind": "nope"})


def test_build_schedule_errors():
    sched = build_schedule({"kind": "constant", "value": "1/2"})
    assert sched.K == 2
    with pytest.raises(ConfigError):
        build_schedule({"kind": "constant", "value": "3/2"})
    with pytest.raises(ConfigError):
        build_schedule({"kind": "geometric"})


def test_parse_point_shapes():
    box = build_space({"kind": "box", "bounds": [[0, 1], [0, 1]]})
    assert parse_point(box, [0.25, 0.5]) == (0.25, 0.5)
    disk = build_space({"kind": "poincare"})
    assert parse_point(disk, [0.1, -0.2]) == complex(0.1, -0.2)
    prod = build_space(
        {
            "kind": "product",
            "left": {"kind": "interval", "a": 0, "b": 1},
            "right": {"kind": "interval", "a": 0, "b": 1},
        }
    )
    assert parse_point(prod, [0.5, 0.25]) == (0.5, 0.25)
    with pytest.raises(ConfigError):
        parse_point(box, "zero")


def test_build_map_catalog_and_errors():
    unit = make_interval(0.0, 1.0)
    assert build_map(unit, {"name": "identity"})(0.3) == 0.3
    assert build_map(unit, {"name": "constant", "value": 0.5})(0.1) == 0.5
    assert build_map(unit, {"name": "affine", "slope": "1/2", "intercept": 0})(0.8) == 0.4
    plane = make_euclidean(2)
    rot = build_map(
        plane,
        {"name": "matrix_affine", "matrix": [[0, -1], [1, 0]], "offset": [0, 0]},
    )
    assert rot((1.0, 0.0)) == (0.0, 1.0)
    with pytest.raises(ConfigError):
        build_map(plane, {"name": "affine", "slope": 1, "intercept": 0})
    with pytest.raises(ConfigError):
        build_map(unit, {"name": "warp"})
    with pytest.raises(ConfigError):
        build_map(
            plane,
            {"name": "matrix_affine", "matrix": [[1, 0]], "offset": [0, 0]},
        )


# ---------------------------------------------------------------------------
# strict descriptors: each lax input exits 2 naming its key
# ---------------------------------------------------------------------------


def _with(cfg, path, value):
    """A deep copy of cfg with the node at `path` set to value."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


STAR_CFG = dict(ITERATE_CFG, space={"kind": "star_tree", "rays": 3, "length": 2},
                map={"name": "identity"}, x0=[0, 0.5])
MATRIX_CFG = dict(ITERATE_CFG, space={"kind": "euclidean", "dim": 1}, x0=[0],
                  map={"name": "matrix_affine", "matrix": [[1]], "offset": [0]})
BOX_CFG = {"space": {"kind": "box", "bounds": [[0, 1]]}, "samples": 10}
INTERVAL_CFG = {"space": {"kind": "interval", "a": 0, "b": 2}, "samples": 10}
TABLE_CFG = {"K": 2, "alpha": {"kind": "table", "values": [2, 4]}, "eps": "1/2", "b": 1}
UAFPP_CFG = {"modulus": {"kind": "banach", "k": "1/2"}, "eps_values": [1], "b_values": [1, 2]}

LAX_INPUTS = [
    ("iterate", STAR_CFG, ("x0",), [2.7, 0.5]),
    ("uafpp", UAFPP_CFG, ("eps_values",), "12"),
    ("rates", TABLE_CFG, ("alpha", "values"), [2.5, True]),
    ("axioms", INTERVAL_CFG, ("space", "a"), True),
    ("axioms", BOX_CFG, ("space", "bounds"), [[True, 2]]),
    ("iterate", MATRIX_CFG, ("map", "matrix"), [[True]]),
    ("iterate", MATRIX_CFG, ("x0",), "12"),
    ("uafpp", UAFPP_CFG, ("eps_values",), 5),
    ("rates", TABLE_CFG, ("alpha", "values"), 5),
    ("axioms", INTERVAL_CFG, ("space", "b"), 10**400),
    ("iterate", ITERATE_CFG, ("eta",), "x"),
] + [
    (command, cfg, path, value)
    for command, cfg, path in [
        ("axioms", BOX_CFG, ("space", "bounds")),
        ("iterate", MATRIX_CFG, ("map", "matrix")),
        ("iterate", MATRIX_CFG, ("map", "offset")),
        ("iterate", MATRIX_CFG, ("x0",)),
    ]
    for value in (True, 2.5, "x")
] + [
    ("axioms", INTERVAL_CFG, ("eta",), "-1"),
    ("axioms", INTERVAL_CFG, ("eta",), "-inf"),
    ("iterate", ITERATE_CFG, ("eta",), "-1/1000000"),
    ("iterate", ITERATE_CFG, ("eta",), -1e-300),
    ("iterate", ITERATE_CFG, ("eta",), "-inf"),
    ("axioms", _with(INTERVAL_CFG, ("space",), {"kind": "star_tree", "rays": 3, "length": 2}),
     ("space", "length"), "inf"),
]


@pytest.mark.parametrize("command, cfg, path, value", LAX_INPUTS)
def test_lax_input_exits_2_naming_the_key(tmp_path, capsys, command, cfg, path, value):
    code, out, err = run_cli(tmp_path, capsys, command, _with(cfg, path, value))
    assert code == 2 and out == "" and repr(path[-1]) in err and "Traceback" not in err


@pytest.mark.parametrize("command, cfg", [("axioms", INTERVAL_CFG), ("iterate", ITERATE_CFG)])
@pytest.mark.parametrize("eta", ["-1", "-1/1000000", "-inf"])
def test_negative_eta_flag_exits_2(tmp_path, capsys, command, cfg, eta):
    code, out, err = run_cli(tmp_path, capsys, command, cfg, f"--eta={eta}")
    assert code == 2 and out == "" and "config key 'eta'" in err


@pytest.mark.parametrize("eta", ["0", "-0", "inf"])
def test_zero_and_infinite_eta_are_tolerances(tmp_path, capsys, eta):
    cfg = dict(INTERVAL_CFG, space={"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}})
    code, out, _ = run_cli(tmp_path, capsys, "axioms", cfg, "--eta", eta)
    # broken_w fails W2 at any finite tolerance
    assert code == (0 if eta == "inf" else 1)
    assert ("W2" in out.splitlines()[-1]) == (eta != "inf")


DUPLICATE_KEYS = [
    ("axioms", '{"space": {"kind": "interval", "a": 0, "b": 1}, "samples": 10, "samples": 20}', "samples"),
    ("axioms", '{"space": {"kind": "interval", "a": 0, "a": 0.5, "b": 1}, "samples": 10}', "a"),
    ("rates", '{"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "eps": 2, "b": 1}', "eps"),
    ("rates", '{"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "b": 1, "eps": 4}', "eps"),
]


@pytest.mark.parametrize("command, text, key", DUPLICATE_KEYS)
def test_duplicate_keys_exit_2_naming_the_key(tmp_path, capsys, command, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and f"config key {key!r} appears more than once" in captured.err


UNKNOWN_KEYS = [
    ("axioms", {"space": {"kind": "interval", "a": 0, "b": 1, "c": 5}, "samples": 10}, "c"),
    ("axioms", {"space": {"kind": "poincare", "dim": 2}, "samples": 10}, "dim"),
    ("axioms", {"space": {"kind": "product", "left": {"kind": "interval", "a": 0, "b": 1},
                          "right": {"kind": "euclidean", "dim": 1, "dimm": 7}}, "samples": 10}, "dimm"),
    ("iterate", _with(ITERATE_CFG, ("map", "slope"), 2), "slope"),
    ("iterate", _with(ITERATE_CFG, ("schedule", "offset"), 3), "offset"),
    ("rates", _with(TABLE_CFG, ("alpha", "c"), 2), "c"),
    ("uafpp", _with(UAFPP_CFG, ("modulus", "D"), 1), "D"),
]


@pytest.mark.parametrize("command, cfg, key", UNKNOWN_KEYS)
def test_unknown_descriptor_key_exits_2_naming_the_key(tmp_path, capsys, command, cfg, key):
    code, out, err = run_cli(tmp_path, capsys, command, cfg)
    assert code == 2 and out == "" and f"unknown key {key!r}" in err


def test_unknown_descriptor_keys_are_all_named():
    with pytest.raises(ConfigError, match="space 'interval': unknown keys 'c', 'd'"):
        build_space({"kind": "interval", "a": 0, "b": 1, "c": 5, "d": 6})
    # optional keys a kind reads stay accepted, present or absent
    assert build_schedule({"kind": "harmonic", "offset": 3, "K": 2}).K == 2


#: per command, a config, the function that does its work, and keys no
#: field read asks for
UNKNOWN_TOP_LEVEL_KEYS = [
    ("axioms", INTERVAL_CFG, "check_axioms", {"budget": 300}),
    ("iterate", ITERATE_CFG, "km_blocks", {"seed": 1}),
    ("rates", TABLE_CFG, "rate_h", {"samples": 10, "b3": 1}),
    ("product", PRODUCT_CFG, "solve_example", {"dimm": 7}),
    ("uafpp", UAFPP_CFG, "modulus_table", {"eps": 1}),
]


@pytest.mark.parametrize("command, cfg, work, extra", UNKNOWN_TOP_LEVEL_KEYS)
def test_unknown_top_level_keys_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command, cfg, work, extra):
    monkeypatch.setattr(hypkm.cli, work, lambda *a, **k: pytest.fail(f"{work} ran"))
    code, out, err = run_cli(tmp_path, capsys, command, {**cfg, **extra})
    keys = "key" if len(extra) == 1 else "keys"
    assert code == 2 and out == ""
    assert f"config error: {command}: unknown {keys} {', '.join(map(repr, extra))}\n" == err


def test_unhashable_example_is_a_config_error(tmp_path, capsys):
    cfg = {"example": ["diagonal"], "eps": "1/100"}
    code, out, err = run_cli(tmp_path, capsys, "product", cfg)
    assert code == 2 and out == "" and "unknown product example ['diagonal']" in err


def test_huge_dim_is_refused_before_any_space_exists(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hypkm.config, "make_euclidean", lambda n: pytest.fail(f"built dim {n}"))
    cfg = {"space": {"kind": "euclidean", "dim": 100000000}, "samples": 10}
    code, out, err = run_cli(tmp_path, capsys, "axioms", cfg)
    assert code == 2 and out == "" and "config key 'dim'" in err
    monkeypatch.undo()
    assert build_space({"kind": "euclidean", "dim": hypkm.config.MAX_DIM}).dim == 10_000
    with pytest.raises(ConfigError, match="at most 10000"):
        build_space({"kind": "euclidean", "dim": 10_001})


def test_kinds_that_are_not_strings_are_config_errors():
    for kind in (["interval"], {"a": 1}, 3, None):
        with pytest.raises(ConfigError, match="unknown space kind"):
            build_space({"kind": kind})
    with pytest.raises(ConfigError, match="unknown map name"):
        build_map(make_interval(0.0, 1.0), {"name": ["identity"]})


def test_real_spellings():
    for raw in (0.5, "1/2", "0.5", " 1/2 "):
        assert config_real({"x": raw}, "x") == 0.5
    assert config_real({"x": 3}, "x") == 3.0 and config_real({}, "x") is None
    assert config_real({"x": "inf"}, "x") == float("inf")
    assert config_real({"x": "-inf"}, "x") == float("-inf")
    for raw in (True, False, None, "nan", "x", "1/0", [], {}):
        with pytest.raises(ConfigError, match="config key 'x'"):
            config_real({"x": raw}, "x")
    with pytest.raises(ConfigError, match="within float range"):
        config_real({"x": 10**400}, "x")
    space = build_space({"kind": "interval", "a": "-inf", "b": "inf"})
    assert space.descriptor == {"kind": "interval", "a": "-inf", "b": "inf"}


@pytest.mark.parametrize(
    "command, cfg, flags",
    [("product", PRODUCT_CFG, ["--eta", "x"]),
     ("rates", {"K": 1, "alpha": {"kind": "identity"}, "eps": 4, "b": 1}, ["--seed", "x", "--budget", "-5"]),
     ("demo", None, ["--seed", "1"])],
)
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command, cfg, flags):
    code, out, err = run_cli(tmp_path, capsys, command, cfg, *flags)
    assert code == 2 and out == "" and flags[0] in err


def test_demo_refuses_a_config_exit_2(tmp_path, capsys):
    # demo reads no config: a file given to it is refused, not ignored
    code, out, err = run_cli(tmp_path, capsys, "demo", {"junk": 1})
    assert (code, out, err) == (2, "", "config error: demo does not read --config\n")


# ---------------------------------------------------------------------------
# every space kind: valid JSON descriptors and clean exits
# ---------------------------------------------------------------------------

#: (descriptor, a start for iterate or None where the kind has no combine):
#: each kind of the config table, with infinite ends where a kind takes them
SPACE_KINDS = [
    ({"kind": "interval", "a": 0, "b": 1}, 0.5),
    ({"kind": "interval", "a": "-inf", "b": "inf"}, 3.0),
    ({"kind": "interval", "a": 0, "b": "inf"}, 3.0),
    ({"kind": "euclidean", "dim": 3}, [1, 2, 3]),
    ({"kind": "box", "bounds": [[0, 1], [0, 1]]}, [0.5, 0.25]),
    ({"kind": "box", "bounds": [[0, "inf"], [0, 1]]}, [3, 0.5]),
    ({"kind": "box", "bounds": [["-inf", "inf"], ["-inf", 1], [-1, "inf"]]}, [0, 0, 0]),
    ({"kind": "poincare"}, [0.1, 0.2]),
    ({"kind": "star_tree", "rays": 3, "length": 2}, [1, 0.5]),
    ({"kind": "circle"}, None),
    ({"kind": "product", "left": {"kind": "interval", "a": 0, "b": 1}, "right": {"kind": "circle"}}, None),
    ({"kind": "broken_w", "base": {"kind": "interval", "a": 0, "b": 1}}, 0.5),
]


def test_space_kinds_cover_the_config_table():
    assert {space["kind"] for space, _ in SPACE_KINDS} == set(SPACES)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("space, x0", SPACE_KINDS, ids=lambda v: json.dumps(v, separators=(",", ":")))
def test_every_space_kind_runs_cleanly(tmp_path, capsys, space, x0):
    runs = [("axioms", {"space": space, "samples": 50})]
    if x0 is not None:
        runs.append(("iterate", dict(ITERATE_CFG, space=space, map={"name": "identity"}, x0=x0)))
    for command, cfg in runs:
        code, out, err = run_cli(tmp_path, capsys, command, cfg)
        assert code in (0, 1) and "Traceback" not in err, (command, err)
        line = next(l for l in out.splitlines() if l.startswith("# space="))
        assert json.loads(line.removeprefix("# space="), parse_constant=_refuse_constant)["kind"] == space["kind"]


# ---------------------------------------------------------------------------
# fuzz: one bad leaf in each README config never escapes as an exception
# ---------------------------------------------------------------------------


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_configs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^`(\w+)\.json`.*?```json\n(.*?)```", fh.read(), re.S | re.M)
    configs = {name: json.loads(body) for name, body in blocks}
    # a huge count makes a long run, not a bad input
    for cfg in configs.values():
        for key in COUNT_KEYS & cfg.keys():
            cfg[key] = min(cfg[key], 100)
    return configs


COUNT_KEYS = {"N", "samples", "budget"}
README_CONFIGS = _readme_configs()
BAD_LEAVES = [True, None, 2.5, -1, 0, "x", "", "1/0", "nan", [], {}, [1, 2, 3], 10**400]


def _paths(node, prefix=()):
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _on_alarm(signum, frame):
    raise TimeoutError("fuzz case ran over its time limit")


def test_readme_configs_are_the_five_subcommands():
    assert sorted(README_CONFIGS) == ["axioms", "iterate", "product", "rates", "uafpp"]


def test_readme_python_blocks_run_on_their_own():
    # each block runs in a fresh namespace, so it must import what it uses
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)```", fh.read(), re.S | re.M)
    assert len(blocks) == 4
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


@pytest.mark.parametrize("command", sorted(README_CONFIGS))
@given(data=st.data())
@settings(max_examples=80)
def test_fuzzed_readme_config_exits_0_to_3(tmp_path_factory, command, data):
    base = README_CONFIGS[command]
    path = data.draw(st.sampled_from(list(_paths(base))), label="path")
    # budget has a ceiling, so only N and samples keep 10**400 out
    leaves = [v for v in BAD_LEAVES if path[-1] not in ("N", "samples") or v != 10**400]
    cfg = _with(base, path, data.draw(st.sampled_from(leaves), label="value"))
    target = tmp_path_factory.mktemp("fuzz") / "config.json"
    target.write_text(json.dumps(cfg))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(target)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
