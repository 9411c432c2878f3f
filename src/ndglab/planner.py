"""Finite-horizon lookahead against a demand model, and the agent built on it.

The solver works from the planning player's own seat: a state is the pair
``(own_prev, opp_prev)`` and the model gives the opponent's next demand
conditional on that pair.  One stage scores action ``a`` at state ``s`` as
the model-expected reward plus the value of the landing state ``(a, b)``;
values roll back from a zero terminal stage:

    V_0 = 0
    Q_k(s, a) = sum_b model(b | s) * (reward(a, b) + V_{k-1}(a, b))
    V_k(s)    = max_a Q_k(s, a)

The opponent's demand depends on the current state only, so the own action
deterministically becomes the first component of the next state.

:func:`backward_induction` returns the pair ``(values, actions)`` as plain
arrays: ``values[k, own_prev - 1, opp_prev - 1]`` for k = 0..h, and the
first-stage optimal demand ``actions[own_prev - 1, opp_prev - 1]``.  It is
the one-item case of :func:`backward_induction_batch`, which stacks the same
arrays along a leading axis, one item per planner, and trusts its tables.
"""

from __future__ import annotations

import numpy as np

from .core import reward, reward_matrix

__all__ = [
    "backward_induction",
    "backward_induction_batch",
    "solve_key",
    "solve_rules",
    "brute_force_value",
    "MdpAgent",
]

TIE_BREAKS = ("smallest", "random")


# The tolerance of np.allclose(row_sum, 1.0, atol=1e-9) with its default
# rtol=1e-5, spelled out because allclose alone took a fifth of a solve.
_ROW_SUM_TOL = 1e-9 + 1e-5


def _validate_model(model: np.ndarray, q: int) -> np.ndarray:
    """``model`` as a float array of shape ``(q-1,)*3`` whose rows are distributions."""
    n = q - 1
    model = np.asarray(model, dtype=float)
    if model.shape != (n, n, n):
        raise ValueError(f"model must have shape {(n, n, n)} for q={q}, got {model.shape}")
    # Written so that NaN fails both comparisons and inf fails the second.
    if not (model.min() >= 0.0 and np.abs(model.sum(axis=-1) - 1.0).max() <= _ROW_SUM_TOL):
        raise ValueError("every model row must be a distribution over demands")
    return model


def backward_induction(
    model: np.ndarray,
    omega: float,
    h: int,
    q: int,
    *,
    tie_break: str = "smallest",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the h-stage lookahead and return ``(values, actions)``.

    The one-item case of :func:`backward_induction_batch`.

    Args:
        model: conditional table ``model[own_prev-1, opp_prev-1, b-1]`` of the
            opponent's next demand, every row a distribution.
        omega: reward weight of the planning player.
        h: number of stages, at least 1.
        q: amount being split.
        tie_break: ``"smallest"`` keeps the lowest maximizing demand;
            ``"random"`` draws uniformly among exactly-equal maximizers.
        rng: required for random tie-breaking.

    Returns:
        ``values`` of shape ``(h + 1, q - 1, q - 1)``, indexed
        ``[k, own_prev - 1, opp_prev - 1]`` with k stages to go, and
        ``actions`` of shape ``(q - 1, q - 1)``, the first-stage optimal
        demand indexed ``[own_prev - 1, opp_prev - 1]``.

    Raises:
        ValueError: on a malformed model, h < 1, or a bad tie-break setup.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    if tie_break == "random" and rng is None:
        raise ValueError("random tie-breaking needs an rng")
    values, actions = backward_induction_batch(
        [_validate_model(model, q)], [omega], h, q, rngs=[rng if tie_break == "random" else None]
    )
    return values[0], actions[0]


def backward_induction_batch(
    models,
    omegas,
    h: int,
    q: int,
    *,
    rngs=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve B lookaheads at once, each with the bits of its own solve.

    Every stage is one stacked ``(B, a, b) @ (B, b, state)`` product, which
    runs the same matrix product per item as a single solve, so values,
    actions and tie draws equal B calls of :func:`backward_induction`.

    Args:
        models: B tables, each a model of :func:`backward_induction`, trusted to be valid.
        omegas: the B planners' reward weights, one per model.
        h: number of stages, at least 1.
        q: amount being split.
        rngs: None for smallest-demand ties throughout, or B entries: a
            generator draws that item's ties uniformly, column by column in
            state order; None keeps its smallest maximizing demand.

    Returns:
        ``values`` of shape ``(B, h + 1, q - 1, q - 1)`` and ``actions`` of
        shape ``(B, q - 1, q - 1)``, each item indexed as in
        :func:`backward_induction`.
    """
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    count = len(omegas)
    n = q - 1
    gains = np.stack([reward_matrix(omega, q) for _, omega in zip(models, omegas, strict=True)])  # (B, a, b)
    by_demand = np.stack([model.reshape(n * n, n).T for model in models])  # (B, b, state)

    values = np.zeros((count, h + 1, n * n))
    q_vals = None
    for k in range(1, h + 1):
        landing = gains + values[:, k - 1].reshape(count, n, n)  # total gain of finishing the stage at (a, b)
        q_vals = landing @ by_demand  # (B, action, state)
        q_vals.max(axis=1, out=values[:, k])

    actions = q_vals.argmax(axis=1)  # first maximum = smallest maximizing demand
    for i, rng in enumerate(rngs or ()):
        if rng is None:
            continue
        tied = q_vals[i] == values[i, h]  # (action, state): every maximizer of each column
        for column in np.flatnonzero(tied.sum(axis=0) > 1):
            actions[i, column] = rng.choice(np.flatnonzero(tied[:, column]))
    return values.reshape(count, h + 1, n, n), (actions + 1).reshape(count, n, n)


def brute_force_value(
    model: np.ndarray, omega: float, h: int, q: int, state: tuple[int, int]
) -> float:
    """Best expected total reward from ``state`` with ``h`` stages to go.

    Plain scalar recursion over every action choice and every opponent
    reply, written independently of the vectorized solver as a cross-check.
    Exponential in ``h``; meant for small instances only.
    """
    model = _validate_model(model, q)

    def best(own_prev: int, opp_prev: int, stages: int) -> float:
        if stages == 0:
            return 0.0
        row = model[own_prev - 1, opp_prev - 1]
        best_val = -np.inf
        for a in range(1, q):
            total = 0.0
            for b in range(1, q):
                p = row[b - 1]
                if p == 0.0:
                    continue
                total += p * (reward(a, b, omega, q) + best(a, b, stages - 1))
            best_val = max(best_val, total)
        return best_val

    own, opp = state
    return best(own, opp, h)


class MdpAgent:
    """Lookahead player: plans ``horizon`` stages against its demand model.

    Exactly one of ``model`` (a fixed conditional table in the agent's own
    view, checked here) and ``learner`` must be given; :attr:`table` is that
    model or the learner's estimate, refreshed in place.  :attr:`rule` holds
    the first-stage demands ``[own_prev - 1, opp_prev - 1]`` of the last
    solve; :func:`solve_rules` sets it, and the game loop decides when: a
    learner's rule is re-solved against its refreshed estimate every round
    (receding horizon), a fixed model's once per game.  The game loop plays
    the rule at each state, feeds a learner and sets :attr:`rng` to its stream.
    """

    def __init__(
        self,
        omega: float,
        horizon: int,
        q: int,
        *,
        model: np.ndarray | None = None,
        learner=None,
        tie_break: str = "smallest",
    ):
        if (model is None) == (learner is None):
            raise ValueError("pass exactly one of model= (fixed) or learner=")
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {omega}")
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
        if learner is not None and learner.q != q:
            raise ValueError(f"learner was built for q={learner.q}, agent needs q={q}")
        self.omega = float(omega)
        self.horizon = horizon
        self.q = q
        self.learner = learner
        self.table = learner.estimate if learner is not None else _validate_model(model, q)
        self.tie_break = tie_break
        self.rng: np.random.Generator | None = None
        self.rule: np.ndarray | None = None

    @property
    def learning(self) -> bool:
        return self.learner is not None


def solve_key(agent: MdpAgent):
    """The batch item ``agent``'s rule is solved in: agents with equal keys share one.

    With smallest ties, agents holding the same table object and weight
    share an item, whichever seats they sit in; a learner's table is its
    own.  An agent with random ties gets an item of its own: the agent.
    """
    return agent if agent.tie_break == "random" else (id(agent.table), agent.omega)


def solve_rules(agents) -> None:
    """Solve the rule of every agent in ``agents`` against its current model.

    One batched solve per ``(horizon, q)`` covers them all, one item per
    :func:`solve_key`.  Random ties are drawn from each agent's own stream,
    so which agents share a batch, and in what order, cannot move a draw.
    """
    batches: dict[tuple[int, int], dict] = {}
    for agent in agents:
        if agent.tie_break == "random" and agent.rng is None:
            raise ValueError("random tie-breaking needs an rng")
        batches.setdefault((agent.horizon, agent.q), {}).setdefault(solve_key(agent), []).append(agent)
    for (h, q), items in batches.items():
        groups = list(items.values())
        _, actions = backward_induction_batch(
            [group[0].table for group in groups],
            [group[0].omega for group in groups],
            h,
            q,
            rngs=[group[0].rng if group[0].tie_break == "random" else None for group in groups],
        )
        for group, rule in zip(groups, actions):
            for agent in group:
                agent.rule = rule
