"""The pinned-output table of tools/pins.py: its rows are well formed, and
its runner fails a row whose digest is not what the command prints."""

import importlib.util
import json
import re
from pathlib import Path

from hypkm import cli
from hypkm.config import load_config


def _pins():
    path = Path(__file__).resolve().parents[1] / "tools" / "pins.py"
    spec = importlib.util.spec_from_file_location("pins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pins = _pins()


def test_every_row_is_well_formed(tmp_path):
    names = [pin.name for pin in pins.PINS]
    assert len(names) == len(set(names))
    for pin in pins.PINS:
        assert pin.command in cli.COMMANDS, pin.name
        assert re.fullmatch("[0-9a-f]{64}", pin.sha256), pin.name
        assert pin.seconds > 0 and (pin.rss_mb is None or pin.rss_mb > 0), pin.name
        assert isinstance(pin.exit, int) and pin.reason, pin.name
        path = tmp_path / f"{pin.name}.json"
        path.write_text(json.dumps(pin.config), encoding="utf-8")
        assert load_config(path) == pin.config, pin.name


def test_a_changed_digest_fails_the_runner(capsys):
    (pin,) = [pin for pin in pins.PINS if pin.name == "c32eps2"]
    assert pins.check(pin) == []
    flipped = pin.sha256[:-1] + ("0" if pin.sha256[-1] != "0" else "1")
    problems = pins.check(pin._replace(sha256=flipped))
    assert problems == [f"printed {pin.sha256}, not {flipped}"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(": ok") and lines[1].endswith(problems[0])
