"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success; failures show the line regardless). The heavyweight fixture is a
reduced-grid sweep (400 scenarios x 4 designs x 10 replicates, conjugate
engine) run at two parallelism degrees; several checks share it.

BASE_SEED pins the whole suite, so every run is deterministic. The Monte
Carlo checks state their bounds in standard errors rather than as raw
tolerances on a ratio, so they hold for any correct random stream, not
only for this seed: c1 compares null-scenario rows against their exact
binomial spread, c2 puts its floor 4 SE below each rel(m=0), c3 runs
its one scenario at 400 replicates against a fluid-limit value computed in
the test, and c10 compares every fixed-design row with its exact binomial
distribution.
"""

import math
import time

import numpy as np
import pytest

from smartrar import (
    CANONICAL_DESIGNS,
    DesignConfig,
    PriorSpec,
    SweepConfig,
    TrialSettings,
    UtilityTable,
    allocation_probs,
    conjugate_mean,
    fixed_design_value,
    logistic_mean,
    reduced_scenario_grid,
    run_block,
    run_sweep,
    run_trial,
    scenario_rng,
)
from mcmc_reference import posterior_mcmc
from smartrar.cli import write_sweep_csvs
from smartrar.simulator import _q_values

BASE_SEED = 53

FULL_GRID_TRIALS = 28224 * 4 * 10


def arm_value(cell, a1: int) -> float:
    """Expected utility of a patient on stage-one arm a1 of the scenario
    ``cell`` (r0, r1, s0, s1) under the default 0/1 table, written out from
    the model: uninfected with probability 1 - r, else survived with
    probability 1 - s."""
    r0, r1, s0, s1 = cell
    r, s = (r1, s1) if a1 else (r0, s0)
    return (1.0 - r) + r * (1.0 - s)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def reduced_sweep(tmp_path_factory):
    """Reduced-grid sweep at parallelism 1 and 2, with serial timing."""
    cells = reduced_scenario_grid()
    designs = CANONICAL_DESIGNS
    t0 = time.perf_counter()
    serial = run_sweep(
        SweepConfig(
            cells=cells,
            designs=designs,
            replicates=10,
            base_seed=BASE_SEED,
            parallelism=1,
        )
    )
    serial_seconds = time.perf_counter() - t0
    parallel = run_sweep(
        SweepConfig(
            cells=cells,
            designs=designs,
            replicates=10,
            base_seed=BASE_SEED,
            parallelism=2,
        )
    )
    serial_dir = tmp_path_factory.mktemp("serial")
    parallel_dir = tmp_path_factory.mktemp("parallel")
    write_sweep_csvs(serial_dir, serial)
    write_sweep_csvs(parallel_dir, parallel)
    return {
        "result": serial,
        "serial_seconds": serial_seconds,
        "n_trials": len(cells) * len(designs) * 10,
        "serial_agg": (serial_dir / "sweep_aggregate.csv").read_bytes(),
        "parallel_agg": (parallel_dir / "sweep_aggregate.csv").read_bytes(),
    }


def _column(result, m: int, c: float) -> int:
    """Design axis index of (m, c) in ``result``."""
    return [(d.myopic_m, d.adapt_c) for d in result.config.designs].index((m, c))


def _delta_se(result, m: int) -> np.ndarray:
    """Delta-method SE of each scenario's rel(m) = adaptive / fixed from the
    designs' ``std_err``.

    Fixed and adaptive trials use disjoint draws, so the two relative
    errors combine in quadrature.
    """
    fixed, adaptive = _column(result, m, 0.0), _column(result, m, 1.0)
    u, se = result.u_bar_bar, result.std_err
    return result.relative[m] * np.hypot(
        se[:, adaptive] / u[:, adaptive], se[:, fixed] / u[:, fixed]
    )


C1_Z_LIMIT = 4.5


def test_c1_null_effect_neutrality(reduced_sweep):
    """r0 = r1 and s0 = s1: adaptive and fixed designs are equivalent.

    In a null scenario under the default table every patient's utility is
    Bernoulli(p) with p = 1 - r s, whatever arm they are allocated to, so
    each design's ``u_bar_bar`` is exactly Binomial(N, p) / N with N =
    replicates x patients = 20,000, and the fixed and adaptive rows are
    independent (disjoint draws). The check is therefore exact rather than
    a tolerance on rel: |u_adaptive - u_fixed| <= 4.5 sd with sd =
    sqrt(2 p (1 - p) / N) for each (scenario, m), and exact equality where
    p = 1 (r = 0). That leaves 16 scenarios x 2 flags = 32 z-tests; at
    P(|z| > 4.5) = 6.8e-6 each, the family-wise false-alarm rate is at most
    about 2.2e-4 (Bonferroni, normal approximation).
    """
    result = reduced_sweep["result"]
    u_bar_bar = result.u_bar_bar.tolist()
    n = result.config.replicates * result.config.settings.max_patients
    null_scenarios = [
        (index, sc)
        for index, sc in enumerate(result.config.cells.tolist())
        if sc[0] == sc[1] and sc[2] == sc[3]
    ]
    assert len(null_scenarios) == 20
    worst_z = 0.0
    failures = []
    for index, sc in null_scenarios:
        p = 1.0 - sc[0] * sc[2]
        sd = math.sqrt(2.0 * p * (1.0 - p) / n)
        for m in (0, 1):
            cells = u_bar_bar[index]
            diff = cells[_column(result, m, 1.0)] - cells[_column(result, m, 0.0)]
            if sd == 0.0:
                if diff != 0.0:
                    failures.append(f"{sc} m={m}: diff {diff!r} with p = 1")
                continue
            z = diff / sd
            worst_z = max(worst_z, abs(z))
            if abs(z) > C1_Z_LIMIT:
                failures.append(f"{sc} m={m}: z = {z:.2f}")
    report(
        1,
        not failures,
        f"20 null scenarios, both m: max |u_adaptive - u_fixed| / sd = {worst_z:.2f} "
        f"(limit {C1_Z_LIMIT}; exact where p = 1)"
        + (f"; failed: {'; '.join(failures)}" if failures else ""),
    )


def test_c2_dynamic_dominance(reduced_sweep):
    """Dynamic adaptation never materially hurts and sometimes helps a lot.

    Per scenario, rel(m=0) + 4 SE >= 0.98, with SE by the delta method from
    the rows' ``std_err`` (as in c3); and max rel(m=0) > 1.05. A raw
    ``min rel >= 0.98`` over 400 cells at 10 replicates is a statement
    about Monte Carlo noise as much as about the design.
    """
    result = reduced_sweep["result"]
    rel_m0 = result.relative[0].tolist()
    assert len(rel_m0) == 400
    assert not any(np.isnan(rel_u).any() for rel_u in result.relative.values())
    failures = []
    worst_z = math.inf
    for scenario, rel_u, se in zip(result.config.cells.tolist(), rel_m0, _delta_se(result, 0).tolist()):
        if rel_u + 4.0 * se < 0.98:
            failures.append(f"{scenario}: rel = {rel_u:.4f} +/- {se:.4f}")
        if se > 0.0:
            worst_z = min(worst_z, (rel_u - 0.98) / se)
    lo = min(rel_m0)
    hi = max(rel_m0)
    report(
        2,
        not failures and hi > 1.05,
        f"400 scenarios: min (rel(m=0) - 0.98) / SE = {worst_z:.2f} (need >= -4), "
        f"min rel = {lo:.4f}, max rel = {hi:.4f} (need > 1.05)"
        + (f"; below floor: {'; '.join(failures)}" if failures else ""),
    )


def _fluid_limit(cell, design: DesignConfig, settings: TrialSettings) -> float:
    """Expected-count ("fluid-limit") mean utility of one design.

    Follows the trial's cohort loop with every count replaced by its
    expectation, so each interim posterior mean is the true rate: the
    Beta(1, 1) prior and the sampling noise both drop out. Q-values and the
    p ∝ Q^c rule are written out from their documented formulas, not taken
    from the library.
    """
    r0, r1, s0, s1 = cell
    r = np.array([r0, r1])
    s = np.array([s0, s1])
    u1 = np.array(settings.utilities.rows[:2])
    u2 = np.reshape(settings.utilities.rows[2:], (2, 2, 2))  # [a1, a2, (survived, died)]
    q2_true = u2[..., 0] * (1.0 - s[:, None]) + u2[..., 1] * s[:, None]

    def rule(q: np.ndarray) -> np.ndarray:
        w = q**design.adapt_c
        return w / w.sum(axis=-1, keepdims=True)

    p1 = np.full(2, 0.5)
    p2 = np.full((2, 2), 0.5)  # [a1, a2]
    stage2_trials = np.zeros((2, 2))
    utility = 0.0
    for _ in range(settings.num_interims):
        cell2 = (p1 * r)[:, None] * p2  # share of the cohort in stage-2 cell (a1, a2)
        utility += float(np.sum(p1 * (1.0 - r) * u1) + np.sum(cell2 * q2_true))
        stage2_trials += cell2
        if design.myopic_m:
            pooled_s = stage2_trials.T @ s / stage2_trials.sum(axis=0)
            pooled_q2 = u2[0, :, 0] * (1.0 - pooled_s) + u2[0, :, 1] * pooled_s
            q2 = np.broadcast_to(pooled_q2, (2, 2))
            q1 = u1 * (1.0 - r)
        else:
            q2 = q2_true
            q1 = u1 * (1.0 - r) + r * q2.max(axis=1)
        p1, p2 = rule(q1), rule(q2)
    return utility / settings.num_interims


C3_REPLICATES = 400


def test_c3_myopic_harm():
    """Myopic adaptation shifts mass toward the ultimately more fatal arm.

    Scenario (0.5, 0.45, 0.05, 0.95): true arm values 0.975 vs 0.5725, yet
    the myopic stage-one view prefers the lower-infection arm. Its Q-values
    are u * (1 - r) = (0.50, 0.55), so p ∝ Q^c with c = 1 tilts stage one
    to about 0.55 / 1.05 = 0.524 toward arm 1, and the harm is about 1%:
    rel(m=1) ≈ 0.991. Four checks:

    (a) harm: rel(m=1) plus 3 standard errors is below 1;
    (b) size: rel(m=1) lies within 4 SE of the fluid-limit value of the
        same rule (``_fluid_limit``), computed here from the scenario;
    (c) dynamic adaptation does not harm: rel(m=0) >= 1;
    (d) mechanism: the mean final stage-one allocation to arm 1 is above
        0.5 under m = 1 and below 0.5 under m = 0.

    The SE of rel is the delta-method combination of the two rows'
    ``std_err`` (fixed and adaptive trials use disjoint draws). One
    replicate of rel(m=1) has an SD of about 0.0166, so the expected harm
    of about 0.0093 is 5 SE at 80 replicates. 400 replicates (about 0.5 s
    on one core of a 2-vCPU VM) make it about 11 SE: the 3-SE bound in (a)
    clears 1 by about 8 SE, and the band in (b), about ±0.0033, excludes
    no harm.

    The fluid limit ignores Beta(1, 1) shrinkage and the upward bias of
    the max over noisy stage-two estimates. At 4,000 replicates (base seed
    53) rel(m=1) is 0.99067 ± 0.00026 against the fluid 0.99071. Under
    m = 0 the gap is visible: rel(m=0) is 1.0497 ± 0.0003 against 1.0507,
    and the final allocation to arm 1 is 0.372 against 0.370. So only
    m = 1 is held to its fluid value.
    """
    scenario = (0.5, 0.45, 0.05, 0.95)
    assert arm_value(scenario, 0) == pytest.approx(0.975)
    assert arm_value(scenario, 1) == pytest.approx(0.5725)
    designs = CANONICAL_DESIGNS
    result = run_sweep(
        SweepConfig(
            cells=[scenario],
            designs=designs,
            replicates=C3_REPLICATES,
            base_seed=BASE_SEED,
            parallelism=1,
        )
    )
    rel = {m: float(rel_u[0]) for m, rel_u in result.relative.items()}
    se = float(_delta_se(result, 1)[0])
    settings = result.config.settings
    fluid = {d.adapt_c: _fluid_limit(scenario, d, settings) for d in designs if d.myopic_m}
    expected = fluid[1.0] / fluid[0.0]

    # Re-run the scenario's stream at the sweep's own coordinates (base
    # seed, scenario index 0) through the block function to read the
    # allocation paths.
    rngs = [scenario_rng(BASE_SEED, 0)]
    block = run_block(result.config.cells, rngs, designs, C3_REPLICATES, settings)
    u_bars = block.mean_utility.reshape(len(designs), C3_REPLICATES)
    final_stage1 = block.stage1[:, -1, 1].reshape(len(designs), C3_REPLICATES)
    final_p1 = {}
    for d_idx, design in enumerate(designs):
        assert u_bars[d_idx].tolist() == result.utility[0, d_idx].tolist()
        if design.adapt_c == 1.0:
            final_p1[design.myopic_m] = float(np.mean(final_stage1[d_idx]))

    checks = {
        "a": rel[1] + 3.0 * se < 1.0,
        "b": abs(rel[1] - expected) <= 4.0 * se,
        "c": rel[0] >= 1.0,
        "d": final_p1[1] > 0.5 > final_p1[0],
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(
        3,
        not failed,
        f"{C3_REPLICATES} replicates: rel(m=1) = {rel[1]:.4f} +/- {se:.4f} "
        f"(need +3 SE < 1, and within 4 SE of fluid limit {expected:.4f}), "
        f"rel(m=0) = {rel[0]:.4f} (need >= 1.0), final stage-one P(arm 1) = "
        f"{final_p1[1]:.3f} (m=1, need > 0.5) vs {final_p1[0]:.3f} (m=0, need < 0.5)"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )


def enumerated_stage1_values(
    means1: tuple[float, float], means2: tuple[float, ...], table: UtilityTable
) -> list[float]:
    """Best two-stage expected utility of each stage-one arm, by enumeration.

    For each stage-one arm a1, every stage-two rule (give a2 = 0 or a2 = 1
    to the infected) is one regimen. Its expected utility is written out
    from the documented model, not taken from the library: uninfected with
    probability 1 - pi1[a1], else survived or died at stage two with
    probability pi2[2 a1 + a2]. The value of a1 is its best regimen's.
    """
    entries = table.entries()
    values = []
    for a1 in (0, 1):
        regimens = []
        for a2 in (0, 1):
            survived = entries[f"survived_a1_{a1}_a2_{a2}"]
            died = entries[f"died_a1_{a1}_a2_{a2}"]
            death = means2[2 * a1 + a2]
            infected = means1[a1]
            regimens.append(
                entries[f"uninfected_a1_{a1}"] * (1.0 - infected)
                + infected * ((1.0 - death) * survived + death * died)
            )
        values.append(max(regimens))
    return values


def test_c4_backward_induction_oracle_equivalence():
    """The simulator's stage-one Q-values (m = 0) equal exhaustive regimen
    enumeration to 1e-12."""
    rng = np.random.default_rng(BASE_SEED)
    row_keys = list(UtilityTable.default().entries())
    worst = 0.0
    for _ in range(1000):
        means1 = tuple(rng.uniform(1e-6, 1 - 1e-6, size=2).tolist())
        means2 = tuple(rng.uniform(1e-6, 1 - 1e-6, size=4).tolist())
        table = UtilityTable.from_entries(
            dict(zip(row_keys, rng.uniform(0.0, 5.0, size=10)))
        )
        utility = np.array([table.rows])
        induction, _ = _q_values(np.array([means1]), np.array([means2]), utility, myopic_m=0)
        induction = induction[0]
        oracle = enumerated_stage1_values(means1, means2, table)
        worst = max(worst, max(abs(induction[a] - oracle[a]) for a in (0, 1)))
    report(4, worst <= 1e-12, f"1000 randomised inputs: max |induction - oracle| = {worst:.2e}")


def _random_counts(rng: np.random.Generator, n_cells: int) -> tuple[list[int], list[int]]:
    """Flat (events, trials) arrays with 200 to 2,000 trials per cell."""
    events, trials = [], []
    for _ in range(n_cells):
        trials.append(int(rng.integers(200, 2000)))
        events.append(int(rng.integers(0, trials[-1] + 1)))
    return events, trials


def _c5_datasets() -> list[tuple[list[int], list[int], int]]:
    """c5's 20 (events, trials, MCMC seed) datasets: stage one (2 cells by
    a1), dynamic stage two (4 cells) and pooled stage two (2 by a2)."""
    rng = np.random.default_rng(BASE_SEED + 1)
    datasets = []
    for n in [2] * 7 + [4] * 7 + [2] * 6:
        events, trials = _random_counts(rng, n)
        datasets.append((events, trials, int(rng.integers(2**32))))
    return datasets


def test_c5_engine_parity():
    """The conjugate means agree with the logistic model's, both from the
    MCMC reference sampler and from ``logistic_mean``."""
    prior = PriorSpec()
    worst_diff = worst_quad = 0.0
    worst_rhat = 0.0
    for events, trials, seed in _c5_datasets():
        n = len(events)
        mcmc = posterior_mcmc(events, trials, prior, chains=4, warmup=1000, sampling=1000, seed=seed)
        quad = logistic_mean(prior, np.array([events]), np.array([trials]))[0]
        worst_rhat = max(worst_rhat, max(mcmc.rhat))
        for j in range(n):
            conj = conjugate_mean(prior, events[j], trials[j])
            worst_diff = max(worst_diff, abs(conj - mcmc.cells[j].mean_event_prob))
            worst_quad = max(worst_quad, abs(conj - quad[j]))
        assert all(len(s.draws) == 4000 for s in mcmc.cells.values())
    report(
        5,
        worst_diff < 0.03 and worst_rhat <= 1.05 and worst_quad < 0.03,
        f"20 datasets, >=200 trials/cell: max |conjugate - mcmc| = {worst_diff:.4f}, "
        f"max |conjugate - logistic_mean| = {worst_quad:.4f} (tolerance 0.03), "
        f"max R-hat = {worst_rhat:.4f} (ceiling 1.05)",
    )


# Small and degenerate data beside c5's: every cell empty, a cell whose
# every trial is an event, and an empty cell next to cells with data.
EDGE_DATASETS = [
    ([0, 0], [0, 0]),
    ([0, 0, 0, 0], [0, 0, 0, 0]),
    ([500, 3], [500, 40]),
    ([12, 0, 7, 40], [30, 0, 25, 40]),
    ([0, 9], [0, 20]),
]


def test_logistic_mean_matches_mcmc_reference():
    """``logistic_mean`` is within 4 SE + 1e-3 of the MCMC reference's
    mean over 8 seeds, cell by cell, on c5's datasets and the edge cases."""
    prior = PriorSpec()
    datasets = [(e, t) for e, t, _ in _c5_datasets()] + EDGE_DATASETS
    worst = -np.inf
    for events, trials in datasets:
        quad = logistic_mean(prior, np.array([events]), np.array([trials]))[0]
        ref = np.array([
            [c.mean_event_prob for c in posterior_mcmc(events, trials, prior, seed=s).cells.values()]
            for s in range(BASE_SEED, BASE_SEED + 8)
        ])  # fmt: skip
        se = ref.std(axis=0, ddof=1) / math.sqrt(len(ref))
        worst = max(worst, float(np.max(np.abs(quad - ref.mean(axis=0)) - 4 * se)))
    report(
        5,
        worst <= 1e-3,
        f"{len(datasets)} datasets: max |logistic_mean - mcmc| - 4 SE = {worst:.2e} (ceiling 1e-3)",
    )


def test_c6_fixed_design_calibration():
    """Fixed-design mean utility matches the analytic mixture value."""
    scenario = (0.1, 0.3, 0.45, 0.5)
    expected = 0.5 * (arm_value(scenario, 0) + arm_value(scenario, 1))
    assert expected == pytest.approx(0.9025)
    design = DesignConfig(myopic_m=0, adapt_c=0.0)
    seeds = [
        int(np.random.SeedSequence((BASE_SEED, 0, 0, rep)).generate_state(1, np.uint64)[0])
        for rep in range(100)
    ]
    utilities = [run_trial(scenario, design, TrialSettings(), seed=seed).mean_utility for seed in seeds]
    u_bar_bar = float(np.mean(utilities))
    report(
        6,
        abs(u_bar_bar - expected) < 0.01,
        f"100 replicates: u_bar_bar = {u_bar_bar:.5f}, analytic value {expected} (tolerance 0.01)",
    )


def test_c7_allocation_rule_properties():
    """Sum-to-one, c=0 equality, scale invariance, degenerate fallback and
    the stop-allocating limit over 1000 randomised inputs, evaluated in one
    array call per property."""
    rng = np.random.default_rng(BASE_SEED + 2)
    # Per case: q0, q1, c, lam and q_pos, drawn case by case.
    draws = np.array([
        [*rng.uniform(0.0, 5.0, size=2), rng.uniform(0.0, 3.0), rng.uniform(0.01, 100.0), rng.uniform(1e-9, 5.0)]
        for _ in range(1000)
    ])  # fmt: skip
    q, c, lam, q_pos = draws[:, :2], draws[:, 2], draws[:, 3:4], draws[:, 4]
    alloc = allocation_probs(q, c)
    dead_arm = np.stack([np.zeros_like(q_pos), q_pos], axis=1)
    violations = {
        "sum != 1": np.abs(alloc.sum(axis=1) - 1.0) > 1e-12,
        "c=0 not equal": (allocation_probs(q, 0.0) != 0.5).any(axis=1),
        "not scale invariant": np.abs(allocation_probs(lam * q, c)[:, 0] - alloc[:, 0]) > 1e-9,
        "degenerate fallback broken": (allocation_probs(0.0 * q, np.maximum(c, 0.5)) != 0.5).any(axis=1),
        "dead arm still allocated": (allocation_probs(dead_arm, 1.0) != [0.0, 1.0]).any(axis=1),
    }
    failures = [f"case {i}: {what}" for i in range(len(q)) for what, bad in violations.items() if bad[i]]
    report(
        7,
        not failures,
        "1000 randomised inputs x 5 properties, no violations"
        if not failures
        else f"{len(failures)} violations, first: {failures[0]}",
    )


def test_c8_parallelism_byte_identical(reduced_sweep):
    """Aggregated CSV is byte-identical at parallelism 1 and 2."""
    identical = reduced_sweep["serial_agg"] == reduced_sweep["parallel_agg"]
    report(
        8,
        identical,
        f"reduced-grid aggregate CSV, {len(reduced_sweep['serial_agg'])} bytes, "
        "parallelism 1 vs 2",
    )


def test_c9_full_grid_feasibility(reduced_sweep):
    """Full-grid sweep projects to well under the 30-minute budget.

    Projection from the measured serial reduced sweep; the single-core
    estimate bounds the multi-threaded wall time from above.
    """
    per_trial = reduced_sweep["serial_seconds"] / reduced_sweep["n_trials"]
    full_seconds = per_trial * FULL_GRID_TRIALS
    report(
        9,
        full_seconds < 1800.0,
        f"{per_trial * 1000:.3f} ms/trial serial -> full grid "
        f"({FULL_GRID_TRIALS} trials) estimated {full_seconds / 60:.1f} min single-core "
        "(budget 30 min multi-threaded)",
    )


C10_Z_LIMIT = 5.0


def test_c10_fixed_design_exact(reduced_sweep):
    """Every fixed-design row matches its exact binomial distribution.

    With c = 0 the allocation stays at (1/2, 1/2) at both stages, so under
    the default table each patient's utility is an independent Bernoulli(p)
    with p = ``fixed_design_value`` (the terminal-row probabilities at
    (1/2, 1/2) that the sampler draws from, dotted with the row
    utilities), and a c = 0 row's ``u_bar_bar`` is Binomial(N, p) / N with
    N = replicates x patients = 20,000. Two checks:

    (a) p equals the mean of the two arms' ``arm_value`` (per-arm survival
        1 - r s, computed without the terminal-row probabilities) to 1e-15
        for every scenario, so a fault in those probabilities shows here;
    (b) each of the 400 scenarios x 2 flags = 800 rows is z-tested at
        |z| <= 5.0; at P(|z| > 5) = 5.7e-7 each, the family-wise
        false-alarm rate is at most about 4.6e-4 (Bonferroni, normal
        approximation). Where p is 0 or 1 the row must equal p exactly.
    """
    result = reduced_sweep["result"]
    n = result.config.replicates * result.config.settings.max_patients
    fixed_rows = [
        (scenario, design.myopic_m, u_bar_bar[d_idx])
        for scenario, u_bar_bar in zip(result.config.cells.tolist(), result.u_bar_bar.tolist())
        for d_idx, design in enumerate(result.config.designs)
        if design.adapt_c == 0.0
    ]
    assert len(fixed_rows) == 800
    worst_z = 0.0
    failures = []
    for scenario, m, u_bar_bar in fixed_rows:
        p = fixed_design_value(scenario)
        mixture = 0.5 * (arm_value(scenario, 0) + arm_value(scenario, 1))
        if abs(p - mixture) > 1e-15:
            failures.append(f"{scenario}: fixed-design value {p!r} != {mixture!r}")
        if p in (0.0, 1.0):
            if u_bar_bar != p:
                failures.append(f"{scenario} m={m}: {u_bar_bar!r} != {p}")
            continue
        z = (u_bar_bar - p) / math.sqrt(p * (1.0 - p) / n)
        worst_z = max(worst_z, abs(z))
        if abs(z) > C10_Z_LIMIT:
            failures.append(f"{scenario} m={m}: z = {z:.2f}")
    report(
        10,
        not failures,
        f"800 fixed-design rows: p = arm mixture to 1e-15, max |u_bar_bar - p| / sd = "
        f"{worst_z:.2f} (limit {C10_Z_LIMIT}; exact where p is 0 or 1)"
        + (f"; failed: {'; '.join(failures[:5])}" if failures else ""),
    )
