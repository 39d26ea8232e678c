"""Every verdict in verdicts.jsonl, re-run and compared byte for byte: each
campaign's claim text, each campaign runner on both backends, each
`check_*` and the exit code, stdout and files of each command-line run, at
the calls record_verdicts.py lists.  A residue line is skipped without
numpy."""

import json
from importlib.util import find_spec
from pathlib import Path

import pytest

from record_verdicts import verdict_line

RECORDED = Path(__file__).with_name("verdicts.jsonl").read_text().splitlines()


def _id(line: str) -> str:
    kind, *call = json.loads(line)[0]
    if kind == "cli":
        return " ; ".join("ptmpow " + " ".join(argv) for argv in call)
    if kind == "claim":
        return f"{call[0]}-claim"
    if kind == "campaign":
        name, backend, bounds = call
        return f"{name}-{backend}-{'-'.join(map(str, bounds.values()))}"
    _, function, args = call
    return f"{function}{tuple(args)}"


@pytest.mark.parametrize("recorded", RECORDED, ids=[_id(line) for line in RECORDED])
def test_a_recorded_verdict_is_unchanged(recorded):
    call = json.loads(recorded)[0]
    if call[:1] == ["campaign"] and call[2] == "residue" and find_spec("numpy") is None:
        pytest.skip("the residue runners need numpy")
    assert verdict_line(call) == recorded
