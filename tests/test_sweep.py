"""Sweep orchestration: per-scenario streams, parallel determinism,
relative utilities and their matrix report."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from smartrar import (
    CANONICAL_DESIGNS,
    R_GRID,
    S_GRID,
    DesignConfig,
    SweepConfig,
    TrialSettings,
    relative_utility,
    run_block,
    run_sweep,
    scenario_grid,
    scenario_rng,
)
from smartrar.cli import fmt_real, main, write_sweep_csvs
import smartrar.sweep

SCENARIOS = (
    (0.5, 0.45, 0.05, 0.95),
    (0.1, 0.3, 0.45, 0.5),
    (0.0, 0.0, 0.4, 0.4),
)


def small_config(**overrides) -> SweepConfig:
    defaults = dict(
        cells=SCENARIOS,
        designs=CANONICAL_DESIGNS,
        replicates=3,
        base_seed=11,
        parallelism=1,
        settings=TrialSettings(max_patients=400, num_interims=4),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


# Scenarios per block in TestSeedContract, whose sweeps run all four
# designs at 3 replicates.
BLOCK = 16


class TestSeedContract:
    """A scenario's results depend on (base seed, scenario index) only."""

    # More scenarios than one block holds, the first one twice.
    BLOCKED = (SCENARIOS[0],) * 2 + tuple(
        (x, 1.0 - x, 0.1 + 0.8 * x, 0.9 - 0.8 * x) for x in (i / (BLOCK + 2) for i in range(1, BLOCK + 2))
    )

    @pytest.fixture(autouse=True)
    def blocks_of_sixteen(self, monkeypatch):
        monkeypatch.setattr(smartrar.sweep, "BLOCK_TRIALS", BLOCK * len(CANONICAL_DESIGNS) * 3)

    @pytest.mark.parametrize("engine", ["conjugate", "mcmc"])
    def test_block_composition_invariance(self, engine):
        # The logistic engine is slower: a short scenario list at 1 replicate.
        scenarios, replicates = (self.BLOCKED, 3) if engine == "conjugate" else (SCENARIOS, 1)
        settings = TrialSettings(max_patients=400, num_interims=4, engine=engine)
        config = small_config(cells=scenarios, replicates=replicates, settings=settings)
        in_blocks = run_sweep(config)
        three_workers = run_sweep(replace(config, parallelism=3))
        for name in ("utility", "u_bar_bar", "std_err"):
            assert np.array_equal(getattr(three_workers, name), getattr(in_blocks, name))
        n_designs = len(config.designs)
        for index, cell in enumerate(config.cells):
            rng = scenario_rng(config.base_seed, index)
            block = run_block([cell], [rng], config.designs, config.replicates, settings)
            alone = block.mean_utility.reshape(n_designs, config.replicates)
            assert in_blocks.utility[index].tolist() == alone.tolist()

    def test_distinct_indices_draw_distinct_streams(self):
        result = run_sweep(small_config(cells=self.BLOCKED))
        # the same scenario at indices 0 and 1 keeps one result per index
        assert result.utility[0].tolist() != result.utility[1].tolist()
        for rel_u in result.relative.values():
            assert rel_u.shape == (len(self.BLOCKED),)
            assert rel_u[0] != rel_u[1]


class TestRunSweep:
    def test_row_shape_and_order(self):
        result = run_sweep(small_config())
        # scenario, design, replicate axes in the config's order
        assert result.utility.shape == (len(SCENARIOS), 4, 3)
        assert result.u_bar_bar.shape == result.std_err.shape == (len(SCENARIOS), 4)
        assert result.config.cells.tolist() == [list(cell) for cell in SCENARIOS]
        assert [(d.myopic_m, d.adapt_c) for d in result.config.designs] == [
            (0, 0.0),
            (0, 1.0),
            (1, 0.0),
            (1, 1.0),
        ]
        assert np.array_equal(result.u_bar_bar, result.utility.mean(axis=2))
        assert np.all((0.0 <= result.u_bar_bar) & (result.u_bar_bar <= 1.0))
        assert np.all(np.isfinite(result.std_err))

    def test_parallelism_degree_does_not_change_results(self):
        serial = run_sweep(small_config(parallelism=1))
        parallel = run_sweep(small_config(parallelism=2))
        assert np.array_equal(serial.utility, parallel.utility)
        assert serial.relative.keys() == parallel.relative.keys()
        for m, rel_u in serial.relative.items():
            assert np.array_equal(rel_u, parallel.relative[m])

    def test_relative_rows(self):
        result = run_sweep(small_config())
        assert list(result.relative) == [0, 1]
        for m, rel_u in result.relative.items():
            # canonical design columns: (m, c=0) at 2m, (m, c=1) at 2m + 1
            fixed, adaptive = result.u_bar_bar[:, 2 * m], result.u_bar_bar[:, 2 * m + 1]
            assert rel_u.tolist() == [a / f for a, f in zip(adaptive.tolist(), fixed.tolist())]

    def test_no_infection_scenario_is_exactly_neutral(self):
        result = run_sweep(small_config())
        for rel_u in result.relative.values():
            for (r0, r1, _, _), rel in zip(SCENARIOS, rel_u):
                if r0 == 0.0 and r1 == 0.0:
                    assert rel == 1.0

    def test_degenerate_denominator_flagged(self):
        # everyone infected, everyone dies: fixed-design utility is zero
        config = small_config(cells=[(1.0, 1.0, 1.0, 1.0)], replicates=2)
        result = run_sweep(config)
        assert len(result.relative) == 2
        assert all(math.isnan(rel) for rel_u in result.relative.values() for rel in rel_u)

    def test_replicate_std_err(self):
        result = run_sweep(small_config(replicates=1))
        assert np.all(result.std_err == 0.0)

    def test_cells_are_stored_as_a_float64_array(self):
        config = small_config(cells=[(0, 1, 0.5, 0.25), (0.1, 0.2, 0.3, 0.4)])
        names = [f.name for f in dataclasses.fields(SweepConfig)]
        assert names[0] == "cells" and "scenarios" not in names
        assert config.cells.dtype == np.float64 and config.cells.shape == (2, 4)
        assert config.cells.tolist() == [[0.0, 1.0, 0.5, 0.25], [0.1, 0.2, 0.3, 0.4]]

    def test_a_bad_row_raises_before_any_trial_runs(self, monkeypatch):
        import smartrar.sweep

        calls = []
        monkeypatch.setattr(smartrar.sweep, "run_block", lambda *args: calls.append(args))
        for cells, message in [
            ([SCENARIOS[0], (0.1, 0.2, 0.3, 1.2)], "s1 must be a probability"),
            ([(0.1, 0.2, 0.3)], "non-empty"),
            ([], "non-empty"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_sweep(small_config(cells=cells))
        assert calls == []

    def test_subset_of_designs_skips_relative(self):
        config = small_config(designs=(DesignConfig(myopic_m=0, adapt_c=1.0),))
        result = run_sweep(config)
        assert result.relative == {}

    @pytest.mark.parametrize(
        "name, value",
        [
            ("replicates", 2.0),
            pytest.param("replicates", np.float64(2.0), id="replicates-float64"),
            ("replicates", True),
            ("replicates", "2"),
            ("replicates", 0),
            ("parallelism", 1.5),
            ("parallelism", True),
            ("parallelism", "2"),
            ("parallelism", 0),
        ],
    )
    def test_a_bad_count_raises_before_any_trial_runs(self, monkeypatch, name, value):
        calls = []
        monkeypatch.setattr(smartrar.sweep, "run_block", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            run_sweep(small_config(**{name: value}))
        assert calls == []

    def test_numpy_integer_counts_are_accepted(self):
        result = run_sweep(small_config(replicates=np.int64(2), parallelism=np.int32(1)))
        assert np.array_equal(result.utility, run_sweep(small_config(replicates=2)).utility)


class InProcessPool:
    """Stands in for the process pool: runs the blocks in this process."""

    def __init__(self, max_workers):
        pass

    def map(self, fn, tasks):
        return map(fn, tasks)

    def shutdown(self):
        pass


class TestBlockPlan:
    """A block holds at least one scenario and at most ``BLOCK_TRIALS``
    trials, and no more than an equal share of the scenarios per requested
    worker; none of this changes a result."""

    CELLS = scenario_grid()[::563][:50]

    def block_sizes(self, monkeypatch, **overrides) -> tuple[list[int], object]:
        sizes, real_run_block = [], smartrar.sweep.run_block

        def counted_run_block(cells, *args):
            sizes.append(len(cells))
            return real_run_block(cells, *args)

        monkeypatch.setattr(smartrar.sweep, "run_block", counted_run_block)
        monkeypatch.setattr(smartrar.sweep, "ProcessPoolExecutor", InProcessPool)
        return sizes, run_sweep(small_config(**{"cells": self.CELLS, **overrides}))

    def test_a_serial_sweep_under_the_budget_is_one_block(self, monkeypatch):
        # 50 scenarios x 4 designs x 10 replicates: 2,000 trials
        sizes, result = self.block_sizes(monkeypatch, replicates=10)
        assert sizes == [50] and result.workers == 1

    def test_each_requested_worker_gets_a_block(self, monkeypatch):
        sizes, result = self.block_sizes(monkeypatch, replicates=10, parallelism=2)
        assert sizes == [25, 25] and result.workers == 2

    @pytest.mark.parametrize("parallelism", [8, 16, 64])
    def test_a_small_grid_keeps_few_workers_at_many_threads(self, monkeypatch, parallelism):
        # 40 trials a scenario: a share is never cut below 512 trials (13
        # scenarios), so 50 scenarios make 4 blocks however many threads.
        sizes, result = self.block_sizes(monkeypatch, replicates=10, parallelism=parallelism)
        assert sizes == [13, 13, 13, 11] and result.workers == 4
        # a grid smaller than that floor is one block, run serially
        sizes, result = self.block_sizes(monkeypatch, cells=SCENARIOS, parallelism=parallelism)
        assert sizes == [len(SCENARIOS)] and result.workers == 1

    def test_a_sweep_above_the_budget_splits(self, monkeypatch):
        # 12 trials a scenario: 33 scenarios fit in 400 trials
        monkeypatch.setattr(smartrar.sweep, "BLOCK_TRIALS", 400)
        sizes, _ = self.block_sizes(monkeypatch)
        assert sizes == [33, 17]
        # a scenario above the budget is a block of its own
        monkeypatch.setattr(smartrar.sweep, "BLOCK_TRIALS", 1)
        sizes, _ = self.block_sizes(monkeypatch, cells=SCENARIOS)
        assert sizes == [1, 1, 1]

    @pytest.mark.parametrize("engine", ["conjugate", "mcmc"])
    def test_sweep_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, engine):
        # The logistic engine is slower: fewer scenarios at 1 replicate.
        cells, replicates = (self.CELLS, 10) if engine == "conjugate" else (self.CELLS[:6], 1)
        settings = TrialSettings(max_patients=400, num_interims=4, engine=engine)
        written = []
        for budget in (smartrar.sweep.BLOCK_TRIALS, 1):
            monkeypatch.setattr(smartrar.sweep, "BLOCK_TRIALS", budget)
            sizes, result = self.block_sizes(monkeypatch, cells=cells, replicates=replicates, settings=settings)
            assert len(sizes) == (1 if budget > 1 else len(cells))
            out_dir = tmp_path / str(budget)
            out_dir.mkdir()
            written.append([path.read_bytes() for path in write_sweep_csvs(out_dir, result)])
        assert written[0] == written[1]


class TestRelativeUtility:
    def test_pairs_in_input_order(self):
        designs = [(1, 1.0), (0, 0.0), (1, 0.0), (0, 1.0), (2, 0.0)]  # m = 2: no adaptive partner
        u_bar_bar = np.array([[0.6, 0.5, 0.3, 0.25, 0.4], [0.9, 0.8, 0.7, 0.6, 0.5]])
        rel = relative_utility(u_bar_bar, designs)
        assert list(rel) == [1, 0]
        assert rel[1].tolist() == [0.6 / 0.3, 0.9 / 0.7]
        assert rel[0].tolist() == [0.25 / 0.5, 0.6 / 0.8]

    def test_zero_fixed_utility_is_nan(self):
        rel = relative_utility(np.array([[0.0, 0.5], [0.5, 0.5]]), [(0, 0.0), (0, 1.0)])
        assert math.isnan(rel[0][0])
        assert rel[0][1] == 1.0


def write_aggregate(path, cells, m=0):
    """Aggregate CSV whose ratios for flag ``m`` are exactly ``cells``:
    fixed utility 1, adaptive utility the cell value."""
    lines = ["r0,r1,s0,s1,m,c,u_bar_bar,std_err"]
    for cell, value in cells.items():
        prefix = ",".join(fmt_real(v) for v in cell) + f",{m}"
        lines.append(f"{prefix},0,1,0")
        lines.append(f"{prefix},1,{fmt_real(value)},0")
    path.write_text("\n".join(lines) + "\n")
    return path


def matrix_report(aggregate, out_dir, m=0):
    return main([
        "report", "--in", str(aggregate), "--m", str(m),
        "--format", "csv-matrix", "--out-dir", str(out_dir),
    ])


def read_matrix(path):
    """Header r0 values and {r1: row values} of one matrix file."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return header[1:], {row[0]: [float(v) for v in row[1:]] for row in rows}


class TestFigureMatrix:
    """The ``report --format csv-matrix`` layout: one file per (s0, s1)
    pair, r0 along columns, r1 along rows."""

    def test_layout_from_synthetic_cells(self, tmp_path):
        r_values = (0.0, 0.5, 1.0)
        s_values = (0.1, 0.9)
        cells = {
            (r0, r1, s0, s1): r0 + 10 * r1 + 100 * s0 + 1000 * s1
            for r0 in r_values
            for r1 in r_values
            for s0 in s_values
            for s1 in s_values
        }
        out_dir = tmp_path / "report"
        assert matrix_report(write_aggregate(tmp_path / "agg.csv", cells), out_dir) == 0
        assert {p.name for p in out_dir.iterdir()} == {
            f"rel_u_m0_s0_{s0}_s1_{s1}.csv" for s0 in s_values for s1 in s_values
        }
        columns, rows = read_matrix(out_dir / "rel_u_m0_s0_0.1_s1_0.9.csv")
        assert columns == ["0.0", "0.5", "1.0"]
        assert list(rows) == ["0.0", "0.5", "1.0"]
        # rows indexed by r1, columns by r0
        assert rows["0.0"][2] == 1.0 + 0.0 + 10.0 + 900.0
        assert rows["1.0"][0] == 0.0 + 10.0 + 10.0 + 900.0

    def test_missing_cells_reported(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        aggregate = write_aggregate(tmp_path / "agg.csv", {(0.0, 1.0, 0.1, 0.1): 1.0})
        assert matrix_report(aggregate, out_dir) == 1
        err = capsys.readouterr().err
        assert "3 grid cells missing for m=0: " in err
        assert "(1.0, 0.0, 0.1, 0.1)" in err
        assert not out_dir.exists()

    def test_figure_matrix_from_sweep_result(self, tmp_path):
        r_values = (0.2, 0.7)
        scenarios = tuple(
            (r0, r1, 0.3, 0.3) for r0 in r_values for r1 in r_values
        )
        result = run_sweep(
            small_config(cells=scenarios, replicates=1)
        )
        write_sweep_csvs(tmp_path, result)
        out_dir = tmp_path / "report"
        assert matrix_report(tmp_path / "sweep_aggregate.csv", out_dir, m=1) == 0
        assert [p.name for p in out_dir.iterdir()] == ["rel_u_m1_s0_0.3_s1_0.3.csv"]
        columns, rows = read_matrix(out_dir / "rel_u_m1_s0_0.3_s1_0.3.csv")
        assert columns == ["0.2", "0.7"]
        rel_u = result.relative[1].tolist()
        for r1 in r_values:
            assert rows[str(r1)] == [
                rel_u[scenarios.index((r0, r1, 0.3, 0.3))] for r0 in r_values
            ]

    def test_matrix_report_errors_on_scattered_scenarios(self, tmp_path, capsys):
        # 3 scenarios span 5 r values and 5 s values: 622 of 625 cells missing
        write_sweep_csvs(tmp_path, run_sweep(small_config(replicates=1)))
        out_dir = tmp_path / "report"
        assert matrix_report(tmp_path / "sweep_aggregate.csv", out_dir) == 1
        assert "622 grid cells missing for m=0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_full_grid_panel_shape(self, tmp_path):
        cells = {
            (r0, r1, s0, s1): 1.0
            for s0 in S_GRID
            for s1 in S_GRID
            for r0 in R_GRID
            for r1 in R_GRID
        }
        out_dir = tmp_path / "report"
        assert matrix_report(write_aggregate(tmp_path / "agg.csv", cells), out_dir) == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 64
        for path in files:
            columns, rows = read_matrix(path)
            assert len(columns) == 21
            assert len(rows) == 21
            assert all(len(row) == 21 for row in rows.values())
