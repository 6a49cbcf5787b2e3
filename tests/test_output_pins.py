"""Every entry of `output_pins.json` writes its pinned bytes through
`cli.main`: the symbolic `gf` expansion at the level and order bounds (the
column kernel) and the rational-x one (the scalar kernel), the four tables
at 150 rows, the `poly` texts at the index bound, and the dense coefficient
lists of `poly` and `incomplete`.  CI checks the same file, one fresh
process per entry, on every Python of its matrix."""

import hashlib
import json
from pathlib import Path

import pytest

from triblucas import cli

PINS = json.loads((Path(__file__).parent / "output_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_every_output_pin_holds(capsys, pin):
    code = cli.main(pin["argv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == pin["sha256"]
