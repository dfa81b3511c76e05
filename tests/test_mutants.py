"""The kill matrix stays true: every mutant ``tests/fixtures/kill_matrix.md``
marks as killed is still killed by its first killing input, and no mutant
leaks out of its ``with`` block into another test."""

import pytest

from repro.chaos import get
from tests.mutants import (BY_NAME, CATALOGUE, TABLE, killed_in, moved,
                           moved_table, observe)

KILLED = sorted(killed_in(TABLE.read_text()).items())


def test_the_table_records_kills():
    assert len(KILLED) >= 5


@pytest.mark.parametrize("name, first", KILLED, ids=[n for n, _ in KILLED])
def test_first_killing_input_still_kills(name, first):
    scenario, arm = first
    with BY_NAME[name]:
        outcome = observe(get(scenario), arm)
    assert outcome.killed, f"{name} survived {scenario}:{arm}"


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_mutant_restores_what_it_patched(mutant):
    original = vars(mutant.owner)[mutant.attr]
    with pytest.raises(RuntimeError):
        with mutant:
            assert vars(mutant.owner)[mutant.attr] is not original
            raise RuntimeError("leave the block by an exception")
    assert vars(mutant.owner)[mutant.attr] is original


def test_a_pin_names_each_track_that_moved():
    """Digests compare by their pinned prefix; a track on one side only
    moved too, and the re-pin table groups runs by what moved."""
    now = {"net": "a" * 64, "router": "b" * 64, "solver": "c" * 64}
    pin = {"net": "a" * 16, "router": "d" * 16, "shards": "e" * 16}
    assert moved(now, pin) == ["router", "shards", "solver"]
    assert moved(now, {track: d[:16] for track, d in now.items()}) == []
    assert moved_table([["solver"], [], ["net", "solver"], ["solver"]]) == [
        "2 runs: `solver`", "1 run: `net` + `solver`",
        "1 run: nothing moved"]
