"""End-to-end acceptance gate.

Eight criteria, each printing one ``acceptance N [PASS|FAIL] label`` line
with its measured numbers; run with ``pytest tests/test_acceptance.py -v -s``
to see every line.  Criterion 3 states orderings that this implementation
does not all reach; its assertion messages explain the mechanics.  The
30-replication benchmark sweep is shared by criteria 3 and 4, so the first
of them pays its cost once per session.
"""

import filecmp
import time

import numpy as np
import pytest

from ndglab import (
    DirichletLearner,
    GameConfig,
    HeuristicModel,
    MdpAgent,
    backward_induction,
    benchmark_spec,
    heuristic_table,
    reward,
    round_columns,
    run_game,
    run_test,
    uniform_table,
)
from ndglab.cli import EXIT_OK, main

from oracles import bootstrap_lower, policy_value, random_model, table_prob, tree_value

GRID11 = tuple(i / 10 for i in range(11))


def report(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {num} [{'PASS' if ok else 'FAIL'}] {label}{suffix}")


@pytest.fixture(scope="module")
def benchmarks():
    start = time.perf_counter()
    results = {k: run_test(benchmark_spec(k, replications=30)) for k in (1, 2, 3, 4, 5)}
    return results, time.perf_counter() - start


def _success_by_replication(result):
    """Each replication's success rate, averaged over the sweep's grid cells."""
    return np.stack([cell.rep_values("success_rate_pct") for cell in result.cells]).mean(axis=0)


def test_01_fixed_uniform_grid_is_exact():
    start = time.perf_counter()
    result = run_test(benchmark_spec(3, replications=1))
    elapsed = time.perf_counter() - start
    exact = all(
        c.profit_a == (298.0,)
        and c.profit_b == (298.0,)
        and c.total == (596.0,)
        and c.success_rate_pct == (100.0,)
        for c in result.cells
    )
    ok = exact and len(result.cells) == 121 and elapsed < 5.0
    report(1, "fixed uniform planners: exact grid outcome", ok, f"121 cells in {elapsed:.2f}s")
    assert exact, "every grid cell must land exactly on 298/298/596/100"
    assert len(result.cells) == 121
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s, budget is 5s"


def test_02_solver_equals_exhaustive_policy_search():
    start = time.perf_counter()
    rng = np.random.default_rng(20250814)
    worst = 0.0
    for q in (3, 4, 5, 6):
        models = [random_model(rng, q) for _ in range(20)]
        for model in models:
            prob = table_prob(model)
            for h in (1, 2, 3):
                for omega in (0.0, 0.5, 1.0):
                    values, _ = backward_induction(model, omega, h, q)
                    # the stage rules the solver implies, stitched into one policy
                    policy = {}
                    for k in range(1, h + 1):
                        _, actions = backward_induction(model, omega, k, q)
                        policy[k] = {
                            (own, opp): int(actions[own - 1, opp - 1])
                            for own in range(1, q)
                            for opp in range(1, q)
                        }
                    for own in range(1, q):
                        for opp in range(1, q):
                            best = tree_value(prob, omega, h, q, own, opp)
                            got = values[h, own - 1, opp - 1]
                            played = policy_value(prob, policy, omega, h, q, own, opp)
                            worst = max(worst, abs(got - best), abs(played - best))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        2,
        "lookahead solver equals exhaustive policy search",
        ok,
        f"max |diff| {worst:.2e} over 720 instances in {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 60.0, f"search took {elapsed:.1f}s, budget is 60s"


def test_03_learning_keeps_the_benchmark_ordering(benchmarks):
    results, elapsed = benchmarks
    success = {k: _success_by_replication(results[k]) for k in results}
    means = {k: success[k].mean() for k in success}
    diff_21 = success[2] - success[1]
    diff_43 = success[4] - success[3]
    diff_54 = success[5] - success[4]
    leg_a = diff_21.mean() >= 5.0 and bootstrap_lower(diff_21) > 0.0
    leg_b = diff_43.mean() > 0.0 and bootstrap_lower(diff_43) > 0.0
    leg_c = diff_54.mean() >= 0.0 and bootstrap_lower(diff_54) >= 0.0
    ok = leg_a and leg_b and leg_c and elapsed < 600.0
    report(
        3,
        "learning and warm starts keep the benchmark ordering",
        ok,
        "success means "
        + " ".join(f"T{k}={means[k]:.2f}" for k in sorted(means))
        + f"; sweeps took {elapsed:.0f}s",
    )
    assert elapsed < 600.0, f"benchmark sweeps took {elapsed:.0f}s, budget is 600s"
    problems = []
    if not leg_a:
        problems.append(
            f"leg A: learning gain {diff_21.mean():.2f} points is below the required 5. "
            f"The fixed sigma-3 structured model (T1 {means[1]:.2f}%) already steers the "
            f"rule-based opponent into its hold-and-concede pattern, so the learned model "
            f"(T2 {means[2]:.2f}%) has no headroom on this pairing."
        )
    if not leg_b:
        problems.append(
            f"leg B: both-learning mean success {means[4]:.2f}% does not strictly exceed "
            f"the fixed uniform-model grid's {means[3]:.2f}%. That grid is a deterministic "
            f"fixed point at 100% success (criterion 1 pins it), so no strict improvement "
            f"exists; learners pay a small exploration cost in a few cells instead."
        )
    if not leg_c:
        problems.append(
            f"leg C: warm-started success {means[5]:.2f}% fell below cold-started "
            f"{means[4]:.2f}%"
        )
    assert not problems, "ordering legs failed:\n" + "\n".join(problems)


def test_04_success_magnitudes_in_expected_windows(benchmarks):
    results, _ = benchmarks
    t2 = _success_by_replication(results[2]).mean()
    t5 = _success_by_replication(results[5]).mean()
    ok = 50.0 <= t2 <= 85.0 and t5 >= 85.0
    report(
        4,
        "benchmark success magnitudes in expected windows",
        ok,
        f"T2={t2:.2f} in [50, 85]; T5={t5:.2f} >= 85",
    )
    assert 50.0 <= t2 <= 85.0
    assert t5 >= 85.0


def test_05_belief_converges_to_a_known_opponent():
    target = heuristic_table(HeuristicModel(sigma=2.0, q=10))
    contexts = [(pa, pb) for pa in range(1, 10) for pb in range(1, 10)]
    checkpoints = (10, 100, 1_000, 10_000)
    curves = np.zeros((10, len(checkpoints)))
    worst_final = 0.0
    for seed in range(10):
        rng = np.random.default_rng(5_000 + seed)
        learner = DirichletLearner.uniform(10)
        errs = np.zeros((len(contexts), len(checkpoints)))
        for idx, (pa, pb) in enumerate(contexts):
            row = target[pa - 1, pb - 1]
            draws = rng.choice(9, size=checkpoints[-1], p=row) + 1
            cp = 0
            for i, d in enumerate(draws, start=1):
                learner.update(pa, pb, int(d))
                if cp < len(checkpoints) and i == checkpoints[cp]:
                    errs[idx, cp] = np.abs(learner.estimate[pa - 1, pb - 1] - row).sum()
                    cp += 1
        curves[seed] = errs.mean(axis=0)
        worst_final = max(worst_final, float(errs[:, -1].max()))
    curve = curves.mean(axis=0)
    monotone = bool(np.all(np.diff(curve) <= 1e-12))
    ok = worst_final < 0.1 and monotone
    report(
        5,
        "belief estimate converges to a known opponent",
        ok,
        "mean L1 " + " -> ".join(f"{e:.3f}" for e in curve) + f"; worst final {worst_final:.3f}",
    )
    assert worst_final < 0.1, f"some context kept L1 {worst_final:.3f} after 10k observations"
    assert monotone, f"mean L1 curve is not non-increasing: {curve}"


def test_06_normalization_and_conservation():
    tables = [uniform_table(10)]
    for sigma in (0.5, 1.0, 2.0, 3.0):
        tables.append(heuristic_table(HeuristicModel(sigma=sigma, q=10)))
    learner = DirichletLearner.uniform(10)
    rng = np.random.default_rng(1)
    for _ in range(2_000):
        learner.update(int(rng.integers(1, 10)), int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    tables.append(learner.estimate)
    norm_err = max(float(np.abs(t.sum(axis=-1) - 1.0).max()) for t in tables)
    non_negative = all(float(t.min()) >= 0.0 for t in tables)

    rounds_checked = 0
    conserved = True
    pairings = [(10, 1.0, 1.0, 3), (7, 2.0, 1.0, 2), (4, 1.5, 0.7, 1)]
    for seed in range(56):
        for q, sigma_a, sigma_b, opening in pairings:
            config = GameConfig(
                q=q, initial_demand=opening, seed=seed,
                omega_a=(seed % 11) / 10, omega_b=((seed * 7) % 11) / 10,
            )
            log = run_game(config, HeuristicModel(sigma=sigma_a, q=q), HeuristicModel(sigma=sigma_b, q=q))
            assert 0.0 <= log.success_rate_pct <= 100.0
            cols = round_columns(config, log.demands)
            good = cols["profit_a"] + cols["profit_b"] + cols["unclaimed"] == q
            forfeit = (cols["profit_a"] == 0) & (cols["profit_b"] == 0) & (cols["unclaimed"] == q)
            good &= (cols["compatible"] == 1) | forfeit  # a failed round pays nothing
            conserved = conserved and bool(good.all())
            rounds_checked += len(good)
    for omega in (0.0, 0.3, 0.5, 0.8, 1.0):
        config = GameConfig(omega_a=omega, omega_b=1.0 - omega, seed=17)
        log = run_game(
            config,
            MdpAgent(omega, 10, 10, learner=DirichletLearner.uniform(10)),
            MdpAgent(1.0 - omega, 10, 10, learner=DirichletLearner.uniform(10)),
        )
        assert 0.0 <= log.success_rate_pct <= 100.0
        cols = round_columns(config, log.demands)
        conserved = conserved and bool(np.all(cols["profit_a"] + cols["profit_b"] + cols["unclaimed"] == 10))
        rounds_checked += len(log.demands)

    ok = norm_err <= 1e-12 and non_negative and conserved and rounds_checked >= 10_000
    report(
        6,
        "distributions normalized; payouts conserved",
        ok,
        f"max |sum - 1| {norm_err:.1e}; {rounds_checked} rounds checked",
    )
    assert norm_err <= 1e-12
    assert non_negative
    assert conserved
    assert rounds_checked >= 10_000


def test_07_identical_invocations_are_byte_identical(tmp_path):
    run_args = ["run", "--agent-a", "mdp-learning", "--agent-b", "heuristic", "--seed", "123"]
    test_args = ["test", "--id", "2", "--replications", "2", "--grid", "0.0,0.5,1.0"]
    identical = True
    for args, names in (
        (run_args, ("game_rounds.csv", "game_summary.csv")),
        (test_args, ("test2_cells.csv", "test2_summary.csv")),
    ):
        dirs = [tmp_path / f"{args[0]}_{i}" for i in (1, 2)]
        for d in dirs:
            assert main(args + ["--out", str(d)]) == EXIT_OK
        for name in names:
            identical = identical and filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
    report(7, "identical invocations produce byte-identical files", identical)
    assert identical


def test_08_compatible_branch_reward_identity():
    worst = 0.0
    for omega in GRID11:
        for a in range(1, 10):
            for b in range(1, 10):
                if a + b <= 10:
                    worst = max(worst, abs(reward(a, b, omega, 10) - (a - omega * (10 - b))))
    ok = worst <= 1e-12
    report(8, "compatible-branch reward identity", ok, f"max |diff| {worst:.1e}")
    assert worst <= 1e-12
