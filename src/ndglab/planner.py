"""Finite-horizon lookahead against a demand model.

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
the one-item case of :func:`backward_induction_batch`, which solves many
planners stacked by :func:`solver_inputs` and trusts their tables.  A
planner re-plans every round and acts only on its first-stage demand at the
state it is in, so the batch can return just that demand per item, with the
bits of the full rule.  A planner is a model table with the weight, horizon
and tie rule of its game's config; the game loop decides which planners
share one item.
"""

from __future__ import annotations

import numpy as np

from .core import TIE_BREAKS, reward, reward_matrix

__all__ = [
    "backward_induction",
    "backward_induction_batch",
    "solver_inputs",
    "brute_force_value",
]


# The tolerance of np.allclose(row_sum, 1.0, atol=1e-9) with its default
# rtol=1e-5, spelled out because allclose alone took a fifth of a solve.
_ROW_SUM_TOL = 1e-9 + 1e-5


def _validate_model(model: np.ndarray, q: int) -> np.ndarray:
    """``model`` as a C-contiguous float array of shape ``(q-1,)*3`` whose rows are distributions."""
    n = q - 1
    model = np.ascontiguousarray(model, dtype=float)
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

    The one-item case of :func:`backward_induction_batch`, keeping every stage.

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
    inputs = solver_inputs([_validate_model(model, q)], [omega], q)
    values = np.zeros((1, h + 1, (q - 1) ** 2)) if h >= 1 else None  # the batch refuses h < 1
    actions = backward_induction_batch(*inputs, h, rngs=[rng if tie_break == "random" else None], values=values)
    return values[0].reshape(h + 1, q - 1, q - 1), actions[0]


def solver_inputs(tables, omegas, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The inputs ``(by_demand, gains)`` of :func:`backward_induction_batch`, stacked.

    Planner ``i`` gives ``tables[i]`` as ``[b - 1, (own_prev - 1) * (q - 1) + opp_prev - 1]``
    and the reward matrix of ``omegas[i]``.
    """
    n = q - 1
    by_demand = np.stack([table.reshape(n * n, n).T for table in tables])
    gains = np.stack([reward_matrix(omega, q) for omega in omegas])
    return by_demand, gains


def backward_induction_batch(by_demand, gains, h: int, *, rngs=None, values=None, states=None) -> np.ndarray:
    """Solve B lookaheads at once, each with the bits of its own solve; return their actions.

    Every stage is one stacked ``(B, a, b) @ (B, b, state)`` product into a
    reused buffer, which runs the same matrix product per item as a single
    solve, so values, actions and tie draws equal B calls of
    :func:`backward_induction`.  The last stage keeps that full product even
    when only one state is read: a matrix-vector product over one column
    may round differently from the same column of the full product, and
    one flipped last bit can move an exact tie.

    Args:
        by_demand, gains: B models, trusted to be valid, and B reward
            matrices, stacked by :func:`solver_inputs`.
        h: number of stages, at least 1.
        rngs: None for smallest-demand ties throughout, or B entries: a
            generator draws that item's ties uniformly, column by column in
            state order; None keeps its smallest maximizing demand.
        values: None, or a zeroed ``(B, h + 1, (q - 1)**2)`` array that
            receives every stage's values; without it the loop holds only
            the stage it reads and the stage it writes, and leaves the first
            stage's maxima uncomputed unless an item draws its ties.
        states: None, or B flat states ``(own_prev - 1) * (q - 1) + opp_prev - 1``,
            one per item: the only state whose action that item returns.  An
            item that draws its ties still draws them over every column, so
            its stream moves exactly as in a full solve.

    Returns:
        ``actions`` of shape ``(B, q - 1, q - 1)``, indexed as in
        :func:`backward_induction`; with ``states``, shape ``(B,)``, each
        equal to the full solve's action at its state, bit for bit.
    """
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    count, n, _ = gains.shape
    if by_demand.shape != (count, n, n * n):
        raise ValueError(f"need one {(n, n * n)} model per reward matrix, got {by_demand.shape} for {gains.shape}")
    stages = np.zeros((2, count, n * n)) if values is None else values.swapaxes(0, 1)
    landing = np.empty((count, n, n))  # total gain of finishing the stage at (a, b)
    q_vals = np.empty((count, n, n * n))  # (B, action, state)
    draws = [(i, rng) for i, rng in enumerate(rngs or ()) if rng is not None]
    for k in range(1, h + 1):
        np.add(gains, stages[(k - 1) % len(stages)].reshape(count, n, n), out=landing)
        np.matmul(landing, by_demand, out=q_vals)
        if k < h or values is not None or draws:  # otherwise the first stage is read only through its argmax
            q_vals.max(axis=1, out=stages[k % len(stages)])

    best = stages[h % len(stages)]
    # first maximum = smallest maximizing demand
    actions = q_vals.argmax(axis=1) if states is None else q_vals[np.arange(count), :, states].argmax(axis=1)
    for i, rng in draws:
        tied = q_vals[i] == best[i]  # (action, state): every maximizer of each column
        for column in np.flatnonzero(tied.sum(axis=0) > 1):
            action = rng.choice(np.flatnonzero(tied[:, column]))
            if states is None:
                actions[i, column] = action
            elif column == states[i]:
                actions[i] = action
    return (actions + 1).reshape(count, n, n) if states is None else actions + 1


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
