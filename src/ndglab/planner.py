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

A solve holds each model as its distinct columns.  A learner is updated
only in the contexts it plays, so every other state keeps the flat prior
row ``1/(q - 1)``: :func:`solver_inputs` gives all states whose row is that
flat row one shared column and every other state a column of its own, in a
``(B, q - 1, C)`` stack, ``[item, b - 1, column]``, with a
``(B, (q - 1)**2)`` map from each state to its column.  States that share a
row share their values at every stage, so each stage gathers the values
through the map and multiplies over C columns only, exact state
aggregation (Puterman, *Markov Decision Processes*, 1994).  Each column
row is contiguous, so every stage's product reads a plain operand; a
transposed one can take BLAS nearly twice as long.

C is a multiple of 8, the widest column block of OpenBLAS's x86 ``dgemm``
kernels, and unused columns hold the flat row.  A column in a narrower
trailing block can round differently (under ``SkylakeX`` at
``q - 1 >= 16``, under ``Haswell`` at odd ``q - 1``); in whole blocks a
column has the same bits beside any others, so an item solves to the same
bits in any batch.  That holds for the single-threaded kernel, which
``ndglab`` loads numpy to run: OpenBLAS's threaded ``dgemm`` splits a wide
product's columns between threads, and under ``Haswell`` and ``Prescott``
a column's bits then change with the product's width.  Those bits equal
the one-column-per-state product's under ``SkylakeX`` for ``q - 1 <= 16``
and where ``(q - 1)**2`` is a multiple of 8, and under ``SandyBridge`` for
every ``q - 1`` up to 40.
"""

from __future__ import annotations

import weakref

import numpy as np

from .core import TIE_BREAKS, reward, reward_matrix

__all__ = [
    "backward_induction",
    "backward_induction_batch",
    "with_picks",
    "solver_inputs",
    "brute_force_value",
]


# Every column stack is a whole number of these blocks wide (see the module docstring).
_BLOCK = 8


def _blocks(columns: int) -> int:
    """``columns`` rounded up to whole blocks, at least one."""
    return max(_BLOCK, -(-columns // _BLOCK) * _BLOCK)


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
    actions, picks = backward_induction_batch(*inputs, h, rngs=[rng] if tie_break == "random" else None, values=values)
    return values[0].reshape(h + 1, q - 1, q - 1), with_picks(actions, picks)[0]


def solver_inputs(tables, omegas, q: int, spare: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inputs ``(columns, column_of, gains)`` of :func:`backward_induction_batch`, stacked.

    Planner ``i`` gives the ``i``-th of ``tables``, ``[own_prev - 1, opp_prev - 1, b - 1]``,
    as its distinct columns ``columns[i, b - 1, c]``: the states whose row is
    the flat row ``1/(q - 1)`` share column 0, and every other state gets a
    column of its own, numbered in state order.  ``column_of[i, state]`` is
    the column of flat state ``(own_prev - 1) * (q - 1) + opp_prev - 1``, and
    ``gains[i]`` the reward matrix of ``omegas[i]``.  The stack has room for
    the most columns any item needs plus ``spare``, at most ``(q - 1)**2``,
    rounded up to a multiple of 8; columns an item leaves unused hold the
    flat row.  Each distinct table object is read once, however many items
    hold it, and none is kept, so tables may come one at a time.
    """
    n = q - 1
    flat_row = 1.0 / n
    owns, own_rows = [], []
    # id -> (a weak reference, owns, own rows): a dead reference marks an id
    # reused by a new table, as a generator of fresh tables can give
    derived = {}
    for table in tables:
        ref, own, rows = derived.get(id(table), (None, None, None))
        if ref is None or ref() is not table:
            rows = table.reshape(n * n, n)
            own = (rows != flat_row).any(axis=1)  # the states with a column of their own
            rows = rows[own]
            derived[id(table)] = (weakref.ref(table), own, rows)
        owns.append(own)
        own_rows.append(rows)
    owns = np.reshape(owns, (-1, n * n))
    # flat states, if any, share column 0; the others follow in state order
    starts = (~owns).any(axis=1)
    column_of = np.where(owns, np.cumsum(owns, axis=1) - (~starts)[:, None], 0)
    width = _blocks(min(n * n, int(column_of.max(initial=0)) + 1 + spare))
    columns = np.full((len(owns), n, width), flat_row)
    for item, start, rows in zip(columns, starts.tolist(), own_rows):
        item[:, start : start + len(rows)] = rows.T
    gains = np.stack([reward_matrix(omega, q) for omega in omegas])
    return columns, column_of, gains


def backward_induction_batch(columns, column_of, gains, h: int, *, rngs=None, rows=None, values=None, states=None):
    """Solve B lookaheads at once, each with the bits of its own solve; return ``(actions, picks)``.

    Every stage gathers each item's values through ``column_of`` into the
    landing gains, then takes one stacked ``(B, a, b) @ (B, b, column)``
    product into a reused buffer and its max over actions into ``(B, C)``:
    the same matrix product per item as a single solve, in whole blocks of
    8 columns, so values, actions and tie draws equal B calls of
    :func:`backward_induction` (see the module docstring).  The last stage
    keeps that product over every column even when only one state is read:
    a matrix-vector product over one column may round differently, and one
    flipped last bit can move an exact tie.

    Args:
        columns, column_of, gains: B models, trusted to be valid, as a
            ``(B, q - 1, C)`` stack of columns, C a multiple of 8, whose last
            axis is contiguous, and a ``(B, (q - 1)**2)`` map from each state to
            its column, with B reward matrices, all stacked by
            :func:`solver_inputs`.
        h: number of stages, at least 1.
        rngs: None for smallest-demand ties, or one generator per planner:
            planner ``p`` plays item ``rows[p]`` (by default item ``p``) and
            draws uniformly among the maximizers of every tied state of it,
            in state order, from ``rngs[p]`` alone.
        values: None, or a zeroed ``(B, h + 1, (q - 1)**2)`` array that
            receives every stage's values, state by state; without it the
            loop holds only the stage it reads and the stage it writes, and
            leaves the first stage's maxima uncomputed unless a planner
            draws its ties.
        states: None, or B flat states ``(own_prev - 1) * (q - 1) + opp_prev - 1``,
            the only state whose action each item returns.  A planner still
            draws over every tied state, so its stream moves as in a full solve.

    Returns:
        ``actions`` of shape ``(B, q - 1, q - 1)``, indexed as in
        :func:`backward_induction`, or with ``states`` shape ``(B,)``, bit for
        bit the full solve's action there; and ``picks``, None without
        ``rngs``.  With them a tied entry reads ``~j`` instead, where planner
        ``p`` plays ``picks[p, j]`` (:func:`with_picks`): ``j`` numbers the
        item's tied states in state order, and is 0 at a tied read state.
    """
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    count, n, _ = gains.shape
    width = columns.shape[-1]
    if columns.shape != (count, n, width) or width % _BLOCK or column_of.shape != (count, n * n):
        raise ValueError(
            f"need one {(n, f'C % {_BLOCK} == 0')} column stack and one {n * n}-state map per reward matrix, "
            f"got {columns.shape} and {column_of.shape} for {gains.shape}"
        )
    column_at = column_of + np.arange(0, count * width, width)[:, None]  # each state's column in a flat (B, C) array
    stages = np.zeros((2, count, width))  # the values of the stage read and the stage written, by column
    landing = np.empty((count, n, n))  # total gain of finishing the stage at (a, b)
    # Action-major, so that each stage's max runs over whole (B, column) planes;
    # the product writes through its (B, action, column) view.
    by_action = np.empty((n, count, width))
    q_vals = by_action.transpose(1, 0, 2)
    for k in range(1, h + 1):  # every index is in range; "clip" takes into `out` unbuffered
        stages[(k - 1) % 2].take(column_at, out=landing.reshape(count, n * n), mode="clip")
        landing += gains
        np.matmul(landing, columns, out=q_vals)
        if k < h or values is not None or rngs is not None:  # otherwise the first stage is read only through its argmax
            by_action.max(axis=0, out=stages[k % 2])
        if values is not None:
            stages[k % 2].take(column_at, out=values[:, k], mode="clip")

    # first maximum = smallest maximizing demand
    if states is None:
        actions = by_action.argmax(axis=0).take(column_at, mode="clip")
    else:
        actions = by_action[:, np.arange(count), column_of[np.arange(count), states]].argmax(axis=0)
    actions += 1
    picks = None if rngs is None else _draw_ties(by_action == stages[h % 2], column_at, actions, rngs, rows, states)
    return (actions.reshape(count, n, n) if states is None else actions), picks


def _draw_ties(tied, column_at, actions, rngs, rows, states) -> np.ndarray:
    """Each planner's ``picks`` at its item's tied states, those states marked in ``actions``.

    ``tied`` marks every maximizer of each ``(action, item, column)``, and
    ``column_at[item, state]`` is the state's column in the flat
    ``(item, column)`` plane.  A planner draws once, with ``integers(0, sizes)``
    over the sizes of its item's tied states in state order: the bits, and
    the final stream state, of one ``choice`` among each state's maximizers
    in turn.
    """
    sizes = tied.sum(axis=0).take(column_at)
    item, state = np.nonzero(sizes > 1)  # every tied state, by item, then in state order
    sizes, bounds = sizes[item, state], np.searchsorted(item, np.arange(tied.shape[1] + 1))
    slot = np.arange(len(item)) - bounds[item]  # its place among its item's tied states
    if states is None:
        actions[item, state] = ~slot
    else:  # an item is read only at its state, whose pick is each planner's slot 0
        slot[:] = np.where(state == states[item], 0, -1)
        actions[item[slot == 0]] = ~0
    rows = np.arange(len(rngs)) if rows is None else np.asarray(rows)
    lo, hi = bounds[rows], bounds[rows + 1]  # each planner's item's tied states
    picks = np.zeros((len(rngs), slot.max(initial=0) + 1), dtype=np.int16)  # a demand is below q <= 513
    drawers = np.flatnonzero(hi > lo)
    if len(drawers):
        draws = np.concatenate([rngs[p].integers(0, sizes[lo[p] : hi[p]]) for p in drawers.tolist()])
        lengths = (hi - lo)[drawers]
        # each draw's tied state, and whether its planner reads it
        at = np.arange(len(draws)) + np.repeat(lo[drawers] - (np.cumsum(lengths) - lengths), lengths)
        read = slot[at] >= 0
        # grouped by tied state, ascending
        maximizers = np.nonzero(tied.reshape(len(tied), -1)[:, column_at[item, state]].T)[1]
        first = np.cumsum(sizes) - sizes  # each tied state's first maximizer there
        picks[np.repeat(drawers, lengths)[read], slot[at[read]]] = maximizers[first[at[read]] + draws[read]] + 1
    return picks


def with_picks(actions, picks) -> np.ndarray:
    """Planners' demands ``actions[p]``, read from their items' actions, with
    each tied entry ``~j`` replaced in place by the planner's pick ``picks[p, j]``."""
    if picks is not None:
        tied = np.nonzero(actions < 0)
        actions[tied] = picks[tied[0], ~actions[tied]]
    return actions


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
