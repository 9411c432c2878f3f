"""Independent reference implementations used to cross-check the package.

Most of it is plain-Python scalar arithmetic (math.exp, dict memos,
explicit loops) so that a bug in the vectorized production code cannot
hide in a mirror image of itself.  The numpy references work one state or
one row at a time with the package's float operations, so the vectorized
code must match them bit for bit.
"""

import csv
import itertools
import math

import numpy as np

from ndglab import HeuristicModel, backward_induction


def scalar_reward(a, b, omega, q):
    ok = 1 if a + b <= q else 0
    return a * (1.0 - omega) * ok - omega * abs(q - (a + b))


def gaussian_row(mu, sigma, q):
    """Discretized Gaussian over demands 1..q-1, normalized by direct summation."""
    weights = [math.exp(-((b - mu) ** 2) / (2.0 * sigma * sigma)) for b in range(1, q)]
    z = sum(weights)
    return [w / z for w in weights]


def table_prob(table):
    """Adapt a (q-1, q-1, q-1) conditional table to a scalar lookup."""
    return lambda own, opp, b: float(table[own - 1, opp - 1, b - 1])


def one_step_action_values(prob, omega, q, own_prev, opp_prev):
    return [
        sum(prob(own_prev, opp_prev, b) * scalar_reward(a, b, omega, q) for b in range(1, q))
        for a in range(1, q)
    ]


def tree_value(prob, omega, h, q, own_prev, opp_prev):
    """Maximum expected h-step reward over all closed-loop policies.

    Exhaustive scalar recursion with memoization on (state, stages left);
    interchanging max and expectation over disjoint branches makes this
    equal to the best deterministic policy's value.
    """
    memo = {}

    def best(own, opp, k):
        if k == 0:
            return 0.0
        key = (own, opp, k)
        if key not in memo:
            top = -math.inf
            for a in range(1, q):
                total = 0.0
                for b in range(1, q):
                    p = prob(own, opp, b)
                    if p > 0.0:
                        total += p * (scalar_reward(a, b, omega, q) + best(a, b, k - 1))
                top = max(top, total)
            memo[key] = top
        return memo[key]

    return best(own_prev, opp_prev, h)


def policy_value(prob, policy, omega, h, q, own_prev, opp_prev):
    """Expected h-step reward of a fixed stage policy.

    ``policy[k]`` maps (own_prev, opp_prev) to the demand played when k
    stages remain.
    """
    memo = {}

    def walk(own, opp, k):
        if k == 0:
            return 0.0
        key = (own, opp, k)
        if key not in memo:
            a = policy[k][(own, opp)]
            total = 0.0
            for b in range(1, q):
                p = prob(own, opp, b)
                if p > 0.0:
                    total += p * (scalar_reward(a, b, omega, q) + walk(a, b, k - 1))
            memo[key] = total
        return memo[key]

    return walk(own_prev, opp_prev, h)


def exhaustive_policy_max(prob, omega, h, q, own_prev, opp_prev):
    """Literal maximum over every deterministic stage policy.  Tiny q only."""
    states = [(i, j) for i in range(1, q) for j in range(1, q)]
    stage_rules = [
        dict(zip(states, combo))
        for combo in itertools.product(range(1, q), repeat=len(states))
    ]
    best = -math.inf
    for rules in itertools.product(stage_rules, repeat=h):
        policy = {k: rules[k - 1] for k in range(1, h + 1)}
        best = max(best, policy_value(prob, policy, omega, h, q, own_prev, opp_prev))
    return best


def stage_loop_backward_induction(model, omega, h, q, tie_break="smallest", rng=None):
    """Backward induction in (state, action) orientation, one row per state.

    The package solver works in (action, state) orientation; every Q-value
    is the same dot product over the same demands either way, so the two
    must agree bit for bit, ties and random tie draws included.  Returns
    ``(values[k, own_prev - 1, opp_prev - 1], actions[own_prev - 1, opp_prev - 1])``.
    """
    n = q - 1
    gains = np.array([[scalar_reward(a, b, omega, q) for b in range(1, q)] for a in range(1, q)])
    flat_model = np.asarray(model, dtype=float).reshape(n * n, n)
    values = np.zeros((h + 1, n, n))
    for k in range(1, h + 1):
        landing = gains + values[k - 1]
        q_vals = flat_model @ landing.T  # (state, action)
        values[k] = q_vals.max(axis=1).reshape(n, n)
    actions = q_vals.argmax(axis=1)
    if tie_break == "random":
        for i in range(n * n):
            row = q_vals[i]
            ties = np.flatnonzero(row == row.max())
            if len(ties) > 1:
                actions[i] = rng.choice(ties)
    return values, (actions + 1).reshape(n, n)


def reference_heuristic_distribution(model, own_prev, opp_prev):
    """One state's rule-based row, built per state with the package's float operations.

    The modelled player holds its previous demand ``own_prev`` after an
    incompatible round in which it demanded at most half of ``q``; otherwise
    it moves to its proportional share of the leftover.  The package builds
    every row at once on numpy grids, which must give these bits.
    """
    if 2 * own_prev <= model.q and own_prev + opp_prev > model.q:
        mu = float(own_prev)
    else:
        mu = own_prev + own_prev / (own_prev + opp_prev) * (model.q - own_prev - opp_prev)
    support = np.arange(1, model.q)
    log_w = -((support - mu) ** 2) / (2.0 * model.sigma**2)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    return weights / weights.sum()


def reference_heuristic_sample(model, own_prev, opp_prev, rng):
    """One rule-based draw rebuilt from scratch: distribution, running sum, inverse CDF."""
    cdf = np.cumsum(reference_heuristic_distribution(model, own_prev, opp_prev))
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, model.q - 2) + 1


def reference_game(config, seats, plan):
    """One game replayed a round at a time and a seat at a time, from scalar parts.

    Each of the two ``seats`` is a ``HeuristicModel``, drawn with
    :func:`reference_heuristic_sample`, or a planner under the seat's weight
    and the horizon and tie rule of ``config``: a fixed
    ``(prev_a, prev_b, demand)`` table, solved once before round 2, or None
    for a learner from the uniform prior, re-solved every later round
    against its counts.  Rules come from :func:`backward_induction` on the
    seat's own view; random ties draw from the seat's stream of ``plan``.
    Returns the demand pairs of every round.
    """
    q = config.q
    streams = (plan.agent_a, plan.agent_b)
    omegas = (config.omega_a, config.omega_b)
    counts = [np.ones((q - 1,) * 3) for _ in seats]
    rules = [None, None]
    played = [(config.initial_demand, config.initial_demand)]
    for t in range(1, config.rounds + 1):
        prev = played[-1]
        if t > 1:
            demands = []
            for seat, agent in enumerate(seats):
                own, opp = prev[seat], prev[1 - seat]
                if isinstance(agent, HeuristicModel):
                    demands.append(reference_heuristic_sample(agent, own, opp, streams[seat]))
                    continue
                table = agent
                if table is None or rules[seat] is None:
                    if table is None:
                        table = counts[seat] / counts[seat].sum(axis=-1, keepdims=True)
                    view = table if seat == 0 else table.transpose(1, 0, 2)
                    rng = streams[seat] if config.tie_break == "random" else None
                    _, rules[seat] = backward_induction(
                        view, omegas[seat], config.horizon, q, tie_break=config.tie_break, rng=rng
                    )
                demands.append(int(rules[seat][own - 1, opp - 1]))
            played.append(tuple(demands))
        for seat in (0, 1):  # the opening round is observed too, at the opening pair
            counts[seat][prev[0] - 1, prev[1] - 1, played[-1][1 - seat] - 1] += 1.0
    return played


def count_played_games(monkeypatch):
    """Count the games a sweep hands to the game loop, which still plays them.

    Patches ``experiments.play_games``, the one call through which a sweep
    plays every lockstep chunk, and returns the list that receives each
    call's game count.
    """
    from ndglab import experiments

    real = experiments.play_games
    counts = []

    def counting(configs, pairs, plans, *args, **kwargs):
        pairs = list(pairs)
        counts.append(len(pairs))
        return real(configs, pairs, plans, *args, **kwargs)

    monkeypatch.setattr(experiments, "play_games", counting)
    return counts


def csv_rows(path):
    """Rows of a written CSV file as dicts of strings, per the README's file formats."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def random_model(rng, q):
    """Random conditional table with strictly positive normalized rows."""
    n = q - 1
    raw = rng.random((n, n, n)) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def bootstrap_lower(diffs, n_boot=10_000, seed=0, alpha=0.05):
    """One-sided lower confidence bound for the mean of paired differences."""
    rng = np.random.default_rng(seed)
    diffs = np.asarray(diffs, dtype=float)
    idx = rng.integers(0, len(diffs), size=(n_boot, len(diffs)))
    return float(np.quantile(diffs[idx].mean(axis=1), alpha))
