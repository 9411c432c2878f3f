"""Models of the other player's next demand.

Three families, all conditional on the pair of previous-round demands:

* a rule-based model of human-like play: a Gaussian kernel discretized
  over the demand grid, centred on a simple adjustment of the modelled
  player's previous demand;
* the uninformed uniform model;
* a count-based conjugate learner whose per-context row means are the
  current point estimate of the opponent's demand distribution.

Distributions are plain numpy vectors of length ``q - 1`` where entry
``i`` is the probability of demand ``i + 1``.  Full conditional tables
have shape ``(q - 1, q - 1, q - 1)`` in their holder's own view, indexed
``[own_prev - 1, opp_prev - 1, demand - 1]``, so one table serves a holder
on either seat.  Only learner files keep the seat order ``(prev_a, prev_b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import Role, atomic_write, check_demand, check_int

__all__ = [
    "HeuristicModel",
    "heuristic_sample",
    "RuleRows",
    "heuristic_table",
    "uniform_table",
    "DirichletLearner",
    "save_learner",
    "load_learner",
]


@dataclass(frozen=True)
class HeuristicModel:
    """Discretized-Gaussian demand model with spread ``sigma``."""

    sigma: float
    q: int

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:  # also refuses NaN
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        check_int(self.q, "q", 2)


def _rule_rows(model: HeuristicModel, own_prev, opp_prev) -> np.ndarray:
    """Rule-based distributions of the modelled player's next demand.

    ``own_prev`` and ``opp_prev`` are the modelled player's and its
    opponent's previous demands, as scalars or broadcastable integer grids;
    the result adds a last axis over demands ``1..q-1``.

    The mean is the previous demand adjusted by a proportional share of the
    leftover, ``own + own / (own + opp) * (q - own - opp)``: a negative
    leftover (an incompatible round) pulls it down, and both seats' means of
    one state add up to exactly ``q``.  After an incompatible round in which
    its own demand was at most half of ``q``, the player holds its demand
    instead, since the failure was the opponent's overreach.  The row is the
    Gaussian kernel ``exp(-(d - mu)^2 / (2 sigma^2))`` on the demand grid,
    normalized; ``mu`` is not rounded.  Every element goes through the same
    float operations in the same order, so a grid and a scalar state give
    the same bits.
    """
    q = model.q
    own = np.asarray(own_prev)[..., None]
    opp = np.asarray(opp_prev)[..., None]
    holds = (2 * own <= q) & (own + opp > q)
    mu = np.where(holds, own, own + own / (own + opp) * (q - own - opp))
    # In place, so a full table needs no more memory than the table itself.
    log_w = np.arange(1, q) - mu
    np.square(log_w, out=log_w)
    np.negative(log_w, out=log_w)
    log_w /= 2.0 * model.sigma**2
    # The largest weight becomes 1: immune to underflow at tiny sigma.
    log_w -= log_w.max(axis=-1, keepdims=True)
    np.exp(log_w, out=log_w)
    log_w /= log_w.sum(axis=-1, keepdims=True)
    return log_w


def heuristic_sample(model: HeuristicModel, own_prev, opp_prev, u) -> np.ndarray:
    """Draw demands from the rule-based model by inverse CDF, one per uniform.

    ``own_prev`` and ``opp_prev`` are the modelled player's and its
    opponent's previous demands, checked to be whole numbers in ``1..q-1``,
    and ``u`` uniforms, checked to be real numbers in ``[0, 1)``, all
    broadcast together: :meth:`RuleRows.draw` on a memo of its own, sized
    for the broadcast count of draws.
    """
    q = model.q
    own, opp, u = np.asarray(own_prev), np.asarray(opp_prev), np.asarray(u)
    for name, value, bounds in (("own_prev", own, f"1..{q - 1}"), ("opp_prev", opp, f"1..{q - 1}"), ("u", u, "[0, 1)")):
        if value.dtype.kind not in "iuf":  # bools, strings and objects are not numbers here
            raise ValueError(f"{name} must be real numbers in {bounds}, got dtype {value.dtype}")
        inside = (value >= 0) & (value < 1) if name == "u" else (value >= 1) & (value <= q - 1) & (value % 1 == 0)
        outside = value[~inside]  # NaN too
        if outside.size:
            raise ValueError(f"{name} must lie in {bounds}, got {outside[0]}")
    own, opp, u = np.broadcast_arrays(own.astype(np.intp), opp.astype(np.intp), u)
    return RuleRows(model, u.size).draw(own, opp, u)


class RuleRows:
    """A rule-based model's running probability sums, one column per state drawn at.

    ``draws`` is how many uniforms its holder draws through the memo.  When
    the whole table, ``(q - 2) * (q - 1)**2`` floats, is no larger than
    that, every state's column is built up front, in state order, in one
    pass; otherwise each is built the first time its state is drawn at.
    Either way a memo holds at most ``min(draws, (q - 1)**2)`` columns.
    """

    def __init__(self, model: HeuristicModel, draws: int = 0):
        n = model.q - 1
        self.model = model
        self.slot = np.full(n * n, -1, dtype=np.intp)  # state (own - 1) * n + opp - 1 -> its column, -1 if unseen
        self.sums = np.empty((n - 1, 0))  # the last running sum is never read
        if max(n - 1, 1) * n * n <= draws:  # at q = 2, one column of no floats: built for one draw or more
            self._add(np.arange(n * n))

    def draw(self, own, opp, u) -> np.ndarray:
        """One demand per uniform ``u`` at states ``(own, opp)``, integer arrays trusted to lie in ``1..q-1``.

        The three arrays share one shape.  Each uniform picks the first
        demand whose running sum exceeds it, as ``searchsorted(...,
        side="right")`` clamped to ``q - 1`` does: one plus the count of its
        state's sums at or below it, counted over the leading axis of the
        gathered ``(q - 2, ...)`` sums, so that every step runs over whole
        rows of draws.  The sums are held that way round, a column per
        state, so the gather reads whole rows too.  The last sum is never
        read, so not kept.  A state's column is built when first seen, unless
        the memo built them all up front, with the bits of its column built
        alone either way, so any grouping of draws, and either way of
        building, gives the bits of one uniform per state in turn.
        """
        at = own * (self.model.q - 1) + opp - self.model.q
        slot = self.slot.take(at)
        if np.minimum.reduce(slot, axis=None, initial=0) < 0:  # any state unseen, over every axis
            self._add(at[slot < 0])
            slot = self.slot.take(at)
        return np.add.reduce(self.sums.take(slot, axis=1) <= u, axis=0, initial=1)

    def _add(self, at) -> None:
        """Give a column to each distinct state among ``at``, states that have none."""
        built = self.sums.shape[1]
        cols = np.arange(built, built + len(at))
        self.slot[at] = cols
        at = at[self.slot[at] == cols]  # of repeats, the one whose column number stuck
        self.slot[at] = cols[: len(at)]
        own, opp = np.divmod(at, self.model.q - 1)
        fresh = np.cumsum(_rule_rows(self.model, own + 1, opp + 1)[:, :-1], axis=-1)
        grown = np.empty((len(self.sums), built + len(fresh)))  # C order, which concatenate need not give
        grown[:, :built], grown[:, built:] = self.sums, fresh.T
        self.sums = grown


@lru_cache(maxsize=4)  # near the q bound one table is about 1 GiB
def heuristic_table(model: HeuristicModel) -> np.ndarray:
    """Full conditional table of a rule-based opponent's next demand, in its holder's view.

    ``table[own_prev - 1, opp_prev - 1]`` is the row after the holder
    demanded ``own_prev`` and the opponent ``opp_prev``, so a holder on
    either seat reads the same table.  Built once per model; every caller
    shares the returned array, which is therefore read-only.
    """
    own_prev, opp_prev = np.ogrid[1 : model.q, 1 : model.q]
    table = _rule_rows(model, opp_prev, own_prev)  # the opponent is the modelled player
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4, typed=True)  # typed: a float or bool q equal to an int is a miss, and refused
def uniform_table(q: int) -> np.ndarray:
    """Uniform conditional table: every context gets the uniform row.

    Built once per ``q`` and shared, so read-only, like :func:`heuristic_table`.
    """
    check_int(q, "q", 2)
    n = q - 1
    table = np.full((n, n, n), 1.0 / n)
    table.flags.writeable = False
    return table


class DirichletLearner:
    """Per-context positive counts over the opponent's next demand.

    ``counts[own_prev - 1, opp_prev - 1, d - 1]`` is the pseudo-count of
    demand ``d`` after the holder demanded ``own_prev`` and the opponent
    ``opp_prev``.  The counts are all a learner holds: :attr:`estimate`,
    the point estimate, is derived from them on each read.  An update adds
    one to a cell, so any order of the same observations lands on the same
    estimate.
    """

    def __init__(self, counts: np.ndarray, q: int):
        check_int(q, "q", 2)
        counts = np.array(counts, dtype=float, order="C")  # a copy: updates stay in the learner
        n = q - 1
        if counts.shape != (n, n, n):
            raise ValueError(
                f"counts must have shape {(n, n, n)} for q={q}, got {counts.shape}"
            )
        if not np.all(np.isfinite(counts) & (counts > 0)):
            raise ValueError("all counts must be finite and strictly positive")
        self.counts = counts
        self.q = q

    @property
    def estimate(self) -> np.ndarray:
        """Each row of the counts normalized, a fresh array on each read."""
        return self.counts / self.counts.sum(axis=-1, keepdims=True)

    @classmethod
    def uniform(cls, q: int) -> "DirichletLearner":
        check_int(q, "q", 2)
        return cls(np.ones((q - 1,) * 3), q)

    def update(self, own_prev: int, opp_prev: int, observed: int) -> None:
        """Record one demand observed in context ``(own_prev, opp_prev)``: one count added, checked."""
        check_demand(own_prev, self.q, "own_prev")
        check_demand(opp_prev, self.q, "opp_prev")
        check_demand(observed, self.q, "observed")
        self.counts[own_prev - 1, opp_prev - 1, observed - 1] += 1.0


def _seat_order(counts: np.ndarray, seat: Role) -> np.ndarray:
    """``counts`` from ``seat``'s own view to the file's ``(prev_a, prev_b)`` order, or back."""
    if not isinstance(seat, Role):
        raise ValueError(f"seat must be a Role, got {seat!r}")
    return counts.transpose(1, 0, 2) if seat is Role.B else counts


def save_learner(learner: DirichletLearner, path, seat: Role) -> None:
    """Write the counts of ``seat``'s learner as plain text.

    One ``prev_a prev_b v1 .. v_{q-1}`` row per context: the file keeps the
    seat order ``(prev_a, prev_b)``, so seat B's context axes are swapped.
    """
    counts = _seat_order(learner.counts, seat)
    with atomic_write(path) as fh:
        for prev_a in range(1, learner.q):
            for prev_b in range(1, learner.q):
                row = counts[prev_a - 1, prev_b - 1]
                cells = [str(prev_a), str(prev_b)] + [repr(float(v)) for v in row]
                fh.write(" ".join(cells) + "\n")


def load_learner(path, seat: Role) -> DirichletLearner:
    """Read a file of :func:`save_learner` as ``seat``'s learner; q is inferred from the row width."""
    rows = [
        (lineno, line.split())
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise ValueError(f"no learner rows found in {path}")
    q = len(rows[0][1]) - 2 + 1
    n = q - 1
    if n < 1 or len(rows) != n * n:
        raise ValueError(f"expected {n * n} rows of width {n + 2} in {path}")
    counts = np.empty((n, n, n))
    seen = set()  # n * n distinct in-range contexts in n * n rows: each appears once
    for lineno, cells in rows:
        if len(cells) != n + 2:
            raise ValueError(f"ragged learner row in {path}")
        try:
            prev_a, prev_b = int(cells[0]), int(cells[1])
            row = [float(v) for v in cells[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        check_demand(prev_a, q, "prev_a")
        check_demand(prev_b, q, "prev_b")
        if (prev_a, prev_b) in seen:
            raise ValueError(f"context ({prev_a}, {prev_b}) listed twice in {path}")
        seen.add((prev_a, prev_b))
        counts[prev_a - 1, prev_b - 1] = row
    return DirichletLearner(_seat_order(counts, seat), q)
