"""Domain-type contracts: grids, stage-two cells, terminal rows, utility tables."""

import dataclasses
import math

import numpy as np
import pytest

from smartrar import (
    CANONICAL_DESIGNS,
    ConfigurationError,
    DesignConfig,
    SweepConfig,
    PriorSpec,
    R_GRID,
    S_GRID,
    TrialSettings,
    UtilityTable,
    reduced_scenario_grid,
    run_trial,
    scenario_grid,
)
from smartrar.core import TERMINAL_ROWS, UTILITY_ROW_KEYS, check_cells

from test_inference import sufficient_stats


class TestScenarioGrid:
    def test_full_grid_size(self):
        assert scenario_grid().shape == (28224, 4)
        assert scenario_grid().dtype == np.float64

    def test_grid_axes(self):
        assert len(R_GRID) == 21
        assert len(S_GRID) == 8
        assert R_GRID[0] == 0.0 and R_GRID[-1] == 1.0
        assert S_GRID == (0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.90, 0.95)

    def test_first_element(self):
        assert scenario_grid()[0].tolist() == [0.0, 0.0, 0.05, 0.05]

    def test_membership(self):
        grid = set(map(tuple, scenario_grid().tolist()))
        assert (0.10, 0.30, 0.40, 0.60) in grid
        # 0.45 is not a death-probability grid value
        assert not any(s0 == 0.45 for _, _, s0, _ in grid)

    def test_duplicate_free(self):
        grid = scenario_grid()
        assert len(np.unique(grid, axis=0)) == len(grid)

    def test_order_deterministic(self):
        assert np.array_equal(scenario_grid(), scenario_grid())

    def test_row_major_nesting(self):
        grid = scenario_grid()
        # r1 varies fastest, then r0; (s0, s1) changes only every 441 rows
        assert grid[1].tolist() == [0.0, 0.05, 0.05, 0.05]
        assert grid[21].tolist() == [0.05, 0.0, 0.05, 0.05]
        assert grid[441].tolist() == [0.0, 0.0, 0.05, 0.10]

    def test_reduced_grid(self):
        reduced = reduced_scenario_grid()
        assert reduced.shape == (400, 4)
        assert len(np.unique(reduced, axis=0)) == 400

    def test_free_form_scenarios_accept_any_probability(self):
        # off-grid values are fine outside the generator
        check_cells([(0.1, 0.3, 0.45, 0.5)])
        with pytest.raises(ValueError):
            check_cells([(0.1, 0.3, 1.45, 0.5)])


class TestCheckCells:
    """``check_cells``: the one validator of (r0, r1, s0, s1) rows."""

    def test_returns_the_rows_as_float64(self):
        rows = [(0, 1, 0.5, 0.25), (0.1, 0.2, 0.3, 0.4)]
        cells = check_cells(rows)
        assert cells.dtype == np.float64 and cells.shape == (2, 4)
        assert cells.tolist() == [[0.0, 1.0, 0.5, 0.25], [0.1, 0.2, 0.3, 0.4]]

    @pytest.mark.parametrize("cells", [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 4)), []])
    def test_other_shapes_and_zero_rows_are_rejected(self, cells):
        with pytest.raises(ValueError, match="non-empty"):
            check_cells(cells)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
    @pytest.mark.parametrize("column", range(4))
    def test_a_non_probability_names_its_column(self, bad, column):
        row = [0.5] * 4
        row[column] = bad
        name = ("r0", "r1", "s0", "s1")[column]
        with pytest.raises(ValueError, match=rf"^{name} must be a probability in \[0, 1\], got {bad!r}$"):
            check_cells([(0.2, 0.2, 0.2, 0.2), row])


class TestHistory:
    def test_stage2_histories_by_flag(self):
        # one stage-two cell per (a1, a2) under a dynamic design, one per a2
        # when a myopic design pools over the stage-one arm (held in both
        # a1 cells of that a2)
        counts = np.arange(10)[None, :]
        for m, cells in ((0, 4), (1, 2)):
            events1, trials1, events2, trials2 = sufficient_stats(counts, m)
            assert events1.shape == trials1.shape == (1, 2)
            assert events2.shape == trials2.shape == (1, 4)
            assert len({tuple(events2[0, 2 * a1 : 2 * a1 + 2]) for a1 in (0, 1)}) == cells // 2


# A patient's utility is its terminal row's entry: checked on simulated
# patients under a table with ten distinct values.
DISTINCT = UtilityTable.from_entries(
    {key: 0.05 * (i + 1) for i, key in enumerate(UtilityTable.default().entries())}
)


def records_by_row() -> dict[str, list[float]]:
    """Simulated patients' utilities (the table's entry at their row index)
    grouped by the name their (a1, y1, a2, y2) gives their terminal row."""
    design = DesignConfig(myopic_m=0, adapt_c=1.0)
    settings = TrialSettings(max_patients=400, utilities=DISTINCT)
    result = run_trial((0.5, 0.5, 0.5, 0.5), design, settings, seed=3, keep_records=True)
    utility = DISTINCT.rows
    rows: dict[str, list[float]] = {}
    for row in result.patient_rows.tolist():
        a1, y1, a2, y2 = TERMINAL_ROWS[row]
        if y1 == 0:
            key = f"uninfected_a1_{a1}"
        else:
            kind = "died" if y2 else "survived"
            key = f"{kind}_a1_{a1}_a2_{a2}"
        rows.setdefault(key, []).append(utility[row])
    return rows


def test_row_keys_name_the_terminal_rows():
    assert UTILITY_ROW_KEYS == (
        "uninfected_a1_0",
        "uninfected_a1_1",
        "survived_a1_0_a2_0",
        "died_a1_0_a2_0",
        "survived_a1_0_a2_1",
        "died_a1_0_a2_1",
        "survived_a1_1_a2_0",
        "died_a1_1_a2_0",
        "survived_a1_1_a2_1",
        "died_a1_1_a2_1",
    )
    # Key i names the (a1, y1, a2, y2) of terminal row i.
    for key, row in zip(UTILITY_ROW_KEYS, TERMINAL_ROWS, strict=True):
        words = key.split("_")
        if words[0] == "uninfected":
            assert row == (int(words[2]), 0, None, None)
        else:
            assert row == (int(words[2]), 1, int(words[4]), int(words[0] == "died"))


class TestUtilityTable:
    def test_default_rows(self, default_table):
        entries = default_table.entries()
        assert len(entries) == 10
        assert all(v == 1.0 for k, v in entries.items() if not k.startswith("died"))
        assert all(v == 0.0 for k, v in entries.items() if k.startswith("died"))

    def _check(self, prefix: str) -> None:
        entries = DISTINCT.entries()
        rows = {k: v for k, v in records_by_row().items() if k.startswith(prefix)}
        assert rows
        for key, utilities in rows.items():
            assert all(u == entries[key] for u in utilities)

    def test_lookup_uninfected(self):
        self._check("uninfected")

    def test_lookup_died(self):
        self._check("died")

    def test_lookup_survived_after_infection(self):
        self._check("survived")

    def test_lookup_total_over_generative_rows(self):
        # every realisation row is reachable and resolves to its entry
        assert set(records_by_row()) == set(DISTINCT.entries())
        self._check("")

    def test_override_rows(self):
        table = UtilityTable.from_entries({"died_a1_0_a2_0": 0.1, "uninfected_a1_1": 0.8})
        assert table.rows == (1.0, 0.8, 1.0, 0.1) + (1.0, 0.0) * 3
        assert table.entries()["died_a1_0_a2_0"] == 0.1
        assert table.entries()["died_a1_1_a2_1"] == 0.0

    def test_unknown_row_rejected(self):
        with pytest.raises(ConfigurationError):
            UtilityTable.from_entries({"died_a1_2_a2_0": 0.5})

    def test_negative_utility_rejected(self):
        with pytest.raises(ConfigurationError):
            UtilityTable.from_entries({"died_a1_0_a2_0": -0.5})
        with pytest.raises(ConfigurationError):
            UtilityTable.from_entries({"survived_a1_0_a2_0": math.inf})

    def test_pooled_stage2_utilities_require_invariance(self):
        myopic = (DesignConfig(myopic_m=1, adapt_c=1.0),)
        ambiguous = TrialSettings(utilities=UtilityTable.from_entries({"survived_a1_0_a2_0": 0.9}))
        with pytest.raises(ConfigurationError, match="a2_0"):
            ambiguous.check_pooling(myopic)
        # a dynamic design never pools, so any table will do
        ambiguous.check_pooling((DesignConfig(myopic_m=0, adapt_c=1.0),))
        # a change made to both stage-one arms' rows still pools
        table = UtilityTable.from_entries({"survived_a1_0_a2_0": 0.9, "survived_a1_1_a2_0": 0.9})
        TrialSettings(utilities=table).check_pooling(myopic)


class TestDesignConfig:
    def test_table1_cells(self):
        assert [(d.myopic_m, d.adapt_c) for d in CANONICAL_DESIGNS] == [
            (0, 0.0),
            (0, 1.0),
            (1, 0.0),
            (1, 1.0),
        ]

    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(DesignConfig)] == ["myopic_m", "adapt_c"]

    def test_generalised_exponent(self):
        DesignConfig(myopic_m=0, adapt_c=0.5)
        with pytest.raises(ValueError):
            DesignConfig(myopic_m=0, adapt_c=-0.1)

    def test_seed_range(self, monkeypatch):
        # The trial seed, given to run_trial beside the design, is 64-bit
        # unsigned, and a sweep's base seed a non-negative integer; a bad
        # one raises before any trial runs.
        import smartrar.simulator

        scenario, design = (0.5, 0.5, 0.5, 0.5), DesignConfig(myopic_m=0, adapt_c=0.0)
        settings = TrialSettings(max_patients=4, num_interims=1)
        run_trial(scenario, design, settings, seed=2**64 - 1)
        SweepConfig(cells=[scenario], designs=(design,), base_seed=np.uint64(5))
        calls = []
        monkeypatch.setattr(smartrar.simulator, "run_block", lambda *args: calls.append(args))
        for seed in (-1, 2**64, 2.5, 3.0, np.float64(4.0), "5"):
            with pytest.raises(ValueError, match="64-bit"):
                run_trial(scenario, design, settings, seed=seed)
            if seed != 2**64:
                with pytest.raises(ValueError, match="base_seed must be a non-negative integer"):
                    SweepConfig(cells=[scenario], designs=(design,), base_seed=seed)
        assert calls == []

    def test_myopic_flag_is_stored_as_an_int(self):
        for flag in (True, False, 1.0, np.int64(1)):
            design = DesignConfig(myopic_m=flag, adapt_c=1.0)
            assert type(design.myopic_m) is int and design.myopic_m == flag
        with pytest.raises(ValueError, match="myopic_m must be 0 or 1"):
            DesignConfig(myopic_m=0.5, adapt_c=1.0)

    def test_prior_spec_positivity(self):
        with pytest.raises(ValueError):
            PriorSpec(conjugate_alpha=0.0)
        with pytest.raises(ValueError):
            PriorSpec(coefficient_prior_sd=-1.0)


class TestTrialSettings:
    def test_cohort_divisibility(self):
        TrialSettings(max_patients=2000, num_interims=4)
        with pytest.raises(ValueError, match="divisible"):
            TrialSettings(max_patients=2001, num_interims=4)

    def test_positive_sizes(self):
        with pytest.raises(ValueError, match="max_patients"):
            TrialSettings(max_patients=0)
        with pytest.raises(ValueError, match="num_interims"):
            TrialSettings(num_interims=0)

    def test_known_engine(self):
        with pytest.raises(ValueError, match="engine"):
            TrialSettings(engine="gibbs")
