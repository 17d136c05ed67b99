"""Smoke runs of the block-size sweeps in ``bench/`` on one tiny shape each.

The sweeps patch private names of :mod:`dimdecomp.decomp`
(``_BLOCK_VALUES``, ``_BLOCK_ROWS``, ``_evaluate_full_grid``), so a rename
there shows here, and each sweep must hand the package its one block rule
back.  ``bench/table_memory.py`` runs the CLI and the anchored checks in
fresh processes.
"""
from __future__ import annotations

import json
from pathlib import Path

from dimdecomp import decomp
from dimdecomp.mc import MIN_PAIRS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_sweeps_write_their_keys_and_restore_the_block_rule(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import anchor_blocks
    import grid_blocks

    rule = (decomp._BLOCK_VALUES, decomp._BLOCK_ROWS)
    # set to themselves, so teardown restores them should a sweep fail
    for name, value in zip(("_BLOCK_VALUES", "_BLOCK_ROWS"), rule):
        monkeypatch.setattr(decomp, name, value)
    monkeypatch.setattr(anchor_blocks, "BLOCK_ROWS", [7, 13])
    monkeypatch.setattr(anchor_blocks, "ROWS", 200)
    monkeypatch.setattr(anchor_blocks, "REPEATS", 1)
    out = json.loads(json.dumps(anchor_blocks.sweep(5, 2)))
    assert set(out) == {"N", "S", "rows_per_point", "by_block_rows"}
    assert set(out["by_block_rows"]) == {"7", "13"}
    for cell in out["by_block_rows"].values():
        assert set(cell) == {"mrows_per_s", "target_ns_per_value"}
    assert (decomp._BLOCK_VALUES, decomp._BLOCK_ROWS) == rule

    monkeypatch.setattr(grid_blocks, "CAPS", [4])
    monkeypatch.setattr(grid_blocks, "REPEATS", 1)
    out = json.loads(json.dumps(grid_blocks.sweep("product_linear", 2, 3)))
    assert set(out) == {"target", "N", "q", "points", "by_cap"}
    assert set(out["by_cap"]) == {"4", "rule"}
    for cell in out["by_cap"].values():
        assert set(cell) == {"calls", "rows_per_call", "grid_ms", "target_ms"}
    # the 9 grid points: one call under the rule, three at 4 rows a call
    assert [out["by_cap"][R]["calls"] for R in ("rule", "4")] == [1, 3]
    assert (decomp._BLOCK_VALUES, decomp._BLOCK_ROWS) == rule


def test_table_memory_reads_every_command_in_fresh_processes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import table_memory

    monkeypatch.setattr(table_memory, "SAMPLES", MIN_PAIRS)
    monkeypatch.setattr(table_memory, "REPEATS", 1)
    out = json.loads(json.dumps(table_memory.sweep(2, 2)))
    assert set(out) == {"N", "q", "table_mib", "by_command"}
    assert set(out["by_command"]) == {"decompose", "errors", "verify"}
    for cell in out["by_command"].values():
        assert set(cell) == {"exit_codes", "max_rss_mib", "wall_s"}
        assert cell["exit_codes"] == [0]
        # a fresh interpreter with numpy is tens of MiB, not a pass of the parent's
        assert 10 < cell["max_rss_mib"][0] < 500


def test_table_memory_runs_only_the_commands_of_a_shape(monkeypatch):
    # the lattice-edge shape leaves verify out
    monkeypatch.syspath_prepend(str(BENCH))
    import table_memory

    monkeypatch.setattr(table_memory, "REPEATS", 1)
    assert ["decompose", "errors"] in [commands for _, _, commands in table_memory.SHAPES]
    out = json.loads(json.dumps(table_memory.sweep(2, 1, ["errors"])))
    assert set(out["by_command"]) == {"errors"}
    assert out["by_command"]["errors"]["exit_codes"] == [0]


def test_table_memory_reads_the_anchored_checks_in_fresh_processes(monkeypatch):
    # one traced process for the peak and one untraced for the seconds
    monkeypatch.syspath_prepend(str(BENCH))
    import table_memory

    monkeypatch.setattr(table_memory, "REPEATS", 1)
    assert table_memory.CHECK_SHAPES == [(16, 1), (18, 1)]
    out = json.loads(json.dumps(table_memory.sweep_checks(3, 2)))
    assert set(out) == {"N", "q", "by_check"}
    assert set(out["by_check"]) == {"check_rdd_structure", "check_rdd_on_grid"}
    for cell in out["by_check"].values():
        assert set(cell) == {"passed", "peak_mib", "wall_s"}
        assert cell["passed"] == [True, True]
        # the check's own allocations at N = 3, not a fresh interpreter's
        assert len(cell["peak_mib"]) == len(cell["wall_s"]) == 1
        assert 0 <= cell["peak_mib"][0] < 10
        assert 0 <= cell["wall_s"][0] < 60
