"""Benchmark scenarios: five agent pairings swept over reward weights.

A player is an :class:`AgentSpec`, named by one of the kinds the CLI uses;
:func:`build_agent` turns it into a seat, and every planner plans under the
weight, horizon and tie rule of its game's config:

- ``heuristic``: the rule-based sampler (sigma 1 unless given);
- ``mdp-heuristic``: a planner holding a fixed rule-structured model of its
  opponent (sigma 3 unless given);
- ``mdp-uniform``: a planner holding a fixed uniform model;
- ``mdp-learning``: a planner that learns from a uniform prior;
- ``mdp-pretrained``: the same learner after a ``WARMUP_ROUNDS``-round
  warm-up game against the other seat.

The five scenarios (``SCENARIOS``):

1. ``mdp-heuristic`` against ``heuristic``; the planner weight is swept.
2. ``mdp-learning`` against ``heuristic``.
3. ``mdp-uniform`` on both seats; both weights swept.
4. ``mdp-learning`` on both seats.
5. ``mdp-pretrained`` on both seats.

Each grid cell runs a configurable number of seeded replications; per-cell
results keep the raw per-replication metrics so summaries can be recomputed
any way a caller needs.  A sweep plays only the games its cells need: a
cell of a deterministic spec plays once, and reuses an equal or seat-swapped
cell already played.  The games of all cells then run in lockstep, in
consecutive chunks bounded by ``CHUNK_BYTES``, in the calling process.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import GameConfig, _check_weight, atomic_write, check_int, game_scores, refuse_overwrite
from .engine import _KeyedPlans, play_games
from .opponent import DirichletLearner, HeuristicModel, heuristic_table, uniform_table

__all__ = [
    "AgentSpec",
    "ExperimentSpec",
    "CellResult",
    "SweepSummary",
    "DEFAULT_OMEGA_GRID",
    "METRICS",
    "benchmark_spec",
    "build_agent",
    "run_test",
    "output_paths",
    "aggregate",
    "write_cells_csv",
    "summary_rows",
    "write_summary_csv",
]

DEFAULT_OMEGA_GRID = tuple(i / 10 for i in range(11))
METRICS = ("profit_a", "profit_b", "total", "success_rate_pct")

# Agent kind -> default spread of the rule-based model it holds (None: it holds none).
AGENT_KINDS = {
    "heuristic": 1.0,
    "mdp-heuristic": 3.0,
    "mdp-uniform": None,
    "mdp-learning": None,
    "mdp-pretrained": None,
}
WARMUP_ROUNDS = 30  # length of the warm-up game an mdp-pretrained player learns from
# Bytes of solve items one lockstep run of a sweep may hold, (q - 1)**3
# float64 each.  Items are counted per planner seat identity and weight,
# under either tie rule: an upper bound on the rows the run forms, since the
# run also merges distinct but bit-equal tables at one weight.  A learner
# counts once even where learners share a row: during a run it also holds
# its counts, and the run a stacked row for each learner.  A
# planner that draws its ties keeps only its picks at its row's tied
# columns, uncounted.  At q = 10 every default sweep fits in one run; at
# q = 60, two do.
CHUNK_BYTES = 4 * 2**20
SCENARIOS = {  # benchmark id -> (seat A kind, seat B kind)
    1: ("mdp-heuristic", "heuristic"),
    2: ("mdp-learning", "heuristic"),
    3: ("mdp-uniform", "mdp-uniform"),
    4: ("mdp-learning", "mdp-learning"),
    5: ("mdp-pretrained", "mdp-pretrained"),
}


@dataclass(frozen=True)
class AgentSpec:
    """One player: a kind from ``AGENT_KINDS`` and, for the two kinds that
    hold a rule-based model, its spread ``sigma`` (the kind's default when
    omitted).  Other kinds refuse a sigma."""

    kind: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ValueError(f"kind must be one of {tuple(AGENT_KINDS)}, got {self.kind!r}")
        default = AGENT_KINDS[self.kind]
        if default is None:
            if self.sigma is not None:
                raise ValueError(f"{self.kind} holds no rule-based model and takes no sigma, got {self.sigma}")
            return
        sigma = default if self.sigma is None else self.sigma
        if not 0 < sigma < math.inf:  # also refuses NaN
            raise ValueError(f"{self.kind} needs a finite positive sigma, got {sigma}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def learning(self) -> bool:
        return self.kind in ("mdp-learning", "mdp-pretrained")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep: two agent specs, the weight grid(s), and run settings,
    checked when built (``dataclasses.replace`` checks again).  ``base``
    holds every other game setting, the horizon and tie rule included."""

    test_id: int
    agent_a: AgentSpec
    agent_b: AgentSpec
    omega_grid_a: tuple[float, ...]
    omega_grid_b: tuple[float, ...] | None  # None: one-dimensional sweep over A only
    replications: int
    base: GameConfig

    def __post_init__(self) -> None:
        grids = [("omega_grid_a", self.omega_grid_a)]
        if self.omega_grid_b is not None:
            grids.append(("omega_grid_b", self.omega_grid_b))
        for name, grid in grids:
            if not grid:
                raise ValueError(f"{name} must not be empty")
            for w in grid:
                _check_weight(w, f"{name} values")
        check_int(self.replications, "replications", 1)
        if self.warms_up and not (self.agent_a.learning and self.agent_b.learning):
            raise ValueError("mdp-pretrained needs mdp-learning or mdp-pretrained on both seats")

    @property
    def warms_up(self) -> bool:
        return "mdp-pretrained" in (self.agent_a.kind, self.agent_b.kind)

    @property
    def deterministic(self) -> bool:
        """Whether every seed replays the same game: a rule-based seat always
        draws from its stream, a planner only under random ties."""
        return self.base.tie_break == "smallest" and "heuristic" not in (self.agent_a.kind, self.agent_b.kind)

    def cells(self) -> list[tuple[float, float]]:
        if self.omega_grid_b is None:
            return [(wa, self.base.omega_b) for wa in self.omega_grid_a]
        return [(wa, wb) for wa in self.omega_grid_a for wb in self.omega_grid_b]


def benchmark_spec(
    test_id: int,
    *,
    replications: int = 30,
    base: GameConfig | None = None,
    grid: tuple[float, ...] | None = None,
) -> ExperimentSpec:
    """Build one of the five built-in scenarios; ``grid`` overrides the sweep axis.

    Both weights are swept when seat B is a planner; against the rule-based
    opponent only seat A's is.
    """
    if test_id not in SCENARIOS:
        raise ValueError(f"unknown benchmark id {test_id}; expected 1..5")
    kind_a, kind_b = SCENARIOS[test_id]
    base = base if base is not None else GameConfig()
    g = tuple(grid) if grid is not None else DEFAULT_OMEGA_GRID
    grid_b = None if kind_b == "heuristic" else g
    return ExperimentSpec(test_id, AgentSpec(kind_a), AgentSpec(kind_b), g, grid_b, replications, base)


def build_agent(spec: AgentSpec, q: int):
    """One player's seat, fit for either side: a rule-based seat is its
    model, a fixed-model planner the shared table it plans against, and a
    learning planner its :class:`DirichletLearner`.  An mdp-pretrained
    player starts uniform; the warm-up game that trains it is run by the
    caller."""
    if spec.kind == "heuristic":
        return HeuristicModel(sigma=spec.sigma, q=q)
    if spec.learning:
        return DirichletLearner.uniform(q)
    if spec.kind == "mdp-heuristic":
        return heuristic_table(HeuristicModel(sigma=spec.sigma, q=q))
    return uniform_table(q)


@dataclass(frozen=True)
class CellResult:
    """Raw per-replication metrics of one grid cell."""

    omega_a: float
    omega_b: float
    profit_a: tuple[float, ...]
    profit_b: tuple[float, ...]
    total: tuple[float, ...]
    success_rate_pct: tuple[float, ...]

    def rep_values(self, metric: str) -> np.ndarray:
        return np.asarray(getattr(self, metric), dtype=float)

    def rep_mean(self, metric: str) -> float:
        return float(self.rep_values(metric).mean())


@dataclass(frozen=True)
class SweepSummary:
    """All cells of one sweep plus min/mean/max statistics over the grid."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    summary: dict

    @cached_property
    def table(self) -> np.ndarray:
        """The cells' metrics as one ``(cells, metrics, reps)`` array; :func:`run_test` sets the one it read them from."""
        return _table(self.cells)


def _table(cells) -> np.ndarray:
    """Cells of equal replication counts as one C-ordered ``(cells, metrics, reps)`` float array."""
    return np.array([[getattr(cell, metric) for metric in METRICS] for cell in cells], dtype=float)


def _plan(spec: ExperimentSpec, weights):
    """The games a sweep must play, and where each cell finds its results.

    Returns ``games``, one ``(cell_index, config, rep)`` per game to play,
    and per cell ``(first, swap)``: the cell's replications are the games
    from index ``first`` on, with the two profits swapped when ``swap`` is
    set.  When the spec is deterministic, every game of a cell replays the
    same game under any seed, so a cell plays one game, and a cell whose
    weights were already played reuses that game.  With equal specs on both
    seats, so does its seat-swapped cell ``(omega_b, omega_a)``: the game is
    the same with the seats' demands exchanged.
    """
    mirrored = spec.deterministic and spec.agent_a == spec.agent_b
    games, sources, played = [], [], {}
    for i, (wa, wb) in enumerate(weights):
        if (wa, wb) in played:
            sources.append((played[wa, wb], False))
        elif mirrored and (wb, wa) in played:
            sources.append((played[wb, wa], True))
        else:
            sources.append((len(games), False))
            if spec.deterministic:
                played[wa, wb] = len(games)
            config = replace(spec.base, omega_a=wa, omega_b=wb)
            games += [(i, config, rep) for rep in range(1 if spec.deterministic else spec.replications)]
    return games, sources


def _play_part(spec: ExperimentSpec, games) -> np.ndarray:
    """Play a sweep's games, as ``_plan`` lists them; return their metrics as
    one ``(games, 4)`` float array, columns in ``METRICS`` order.

    The games run in consecutive lockstep chunks, built one game at a time:
    a chunk is played as soon as the next game's solve items (counted as for
    ``CHUNK_BYTES``, ``(q - 1)**3`` float64 each) would take it past
    ``CHUNK_BYTES``.  A game over the bound on its own is a chunk by itself.
    A stateless seat, a rule-based model or a fixed table, is built once per
    sweep and sits in every game; with no learner the whole pair is one
    object for the sweep, and a cell's item keys are formed once, as its
    games share its config.  A learner is built fresh for each game, so its
    game brings new keys.  A chunk holds each game as ``(config, pair,
    (cell_index, rep))``; the key names the game's plan,
    ``RngPlan(seed, (cell_index, rep))``, which no game builds: its chunk's
    run derives the streams from a table of the keys (:func:`_play_chunk`).
    """
    q = spec.base.q
    item_bytes = (q - 1) ** 3 * 8
    agents = (spec.agent_a, spec.agent_b)
    pair = stateless = tuple(None if agent.learning else build_agent(agent, q) for agent in agents)
    learns = any(agent.learning for agent in agents)
    metrics, chunk, items, keyed = [], [], set(), None  # keyed: the config whose keys `keys` holds
    for cell_index, config, rep in games:
        if learns:
            pair = tuple(build_agent(agent, q) if seat is None else seat for agent, seat in zip(agents, stateless))
        if learns or config is not keyed:
            keyed, weights = config, (config.omega_a, config.omega_b)
            keys = {(id(seat), omega) for seat, omega in zip(pair, weights) if not isinstance(seat, HeuristicModel)}
        # a chunk over the bound holds one game, which the next game must not join
        if not keys <= items or len(items) * item_bytes > CHUNK_BYTES:
            grown = items | keys
            if chunk and len(grown) * item_bytes > CHUNK_BYTES:
                metrics.append(_play_chunk(spec, chunk))
                chunk, grown = [], keys
            items = grown
        # Stateless derivation keyed on (cell, replication): stable under any chunking.
        chunk.append((config, pair, (cell_index, rep)))
    metrics.append(_play_chunk(spec, chunk))
    return np.concatenate(metrics)


def _play_chunk(spec: ExperimentSpec, chunk) -> np.ndarray:
    """Play one chunk of a sweep's games, as ``(config, pair, key)``, in
    lockstep, and score them all in one pass, as a ``(games, 4)`` float array.

    The run gets the games' plans as one key table, the sweep's seed (which
    ``GameConfig`` has checked) and a ``(games, 2)`` array of the keys, and
    derives each seat's stream from its game's row.
    """
    configs, pairs, keys = zip(*chunk)
    plans = _KeyedPlans([int(spec.base.seed)], np.zeros(len(keys), dtype=np.intp), np.array(keys))
    demands = play_games(configs, pairs, plans, WARMUP_ROUNDS if spec.warms_up else 0)
    profits, success = game_scores(demands, spec.base.q)
    return np.column_stack((profits, profits.sum(axis=1), success))


def output_paths(spec: ExperimentSpec, out_dir) -> tuple[Path, Path]:
    """The cells and summary CSV files a sweep of ``spec`` writes under ``out_dir``."""
    stem = f"test{spec.test_id}"
    return Path(out_dir) / f"{stem}_cells.csv", Path(out_dir) / f"{stem}_summary.csv"


def run_test(spec: ExperimentSpec, out_dir=None, force: bool = False) -> SweepSummary:
    """Run a whole sweep; optionally write its cells and summary CSV files.

    Only the games the results need are played (see :func:`_plan`), across
    cells, in as few lockstep runs as ``CHUNK_BYTES`` allows; every cell gets
    the same results as when played on its own.  The games' metrics come
    back as one ``(games, 4)`` array, from which one index array gathers
    every cell's replications into a ``(cells, metrics, reps)`` table, the
    two profit columns swapped for a mirrored cell; the cells, the summary
    and the cells CSV are all read from that table.  Bad settings and existing
    output files (unless ``force``) are refused before any game runs;
    ``ExperimentSpec`` checks its settings when built.
    """
    if out_dir is not None:
        cells_path, summary_path = output_paths(spec, out_dir)
        refuse_overwrite((cells_path, summary_path), force)
    weights = spec.cells()
    games, sources = _plan(spec, weights)
    metrics = _play_part(spec, games)
    first, swap = (np.array(column) for column in zip(*sources))
    # each cell's replications as offsets from its first game; a deterministic cell repeats its one game
    reps = np.zeros(spec.replications, dtype=np.intp) if spec.deterministic else np.arange(spec.replications)
    table = metrics[first[:, None] + reps].transpose(0, 2, 1).copy()  # (cells, metrics, reps), reps contiguous
    table[swap, :2] = table[swap, 1::-1]
    kept = 1 if spec.deterministic else spec.replications  # a deterministic cell's tuples repeat one float
    rows, times = table[..., :kept].tolist(), spec.replications // kept
    cells = tuple(CellResult(wa, wb, *(tuple(r) * times for r in row)) for (wa, wb), row in zip(weights, rows))
    result = SweepSummary(spec=spec, cells=cells, summary=_summary(table.mean(axis=-1)))
    vars(result)["table"] = table  # the cached table, so that write_cells_csv reads it, not the tuples
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_cells_csv(result, cells_path)
        write_summary_csv(result, summary_path)
    return result


def aggregate(cells) -> dict:
    """Min/mean/max over cells of the per-cell replication means.

    Each statistic is taken per metric independently, so e.g. the minimum
    profits of the two players may come from different cells and need not
    add up to the minimum total.  The cells must hold equal numbers of
    replications, as a sweep's do.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to aggregate")
    return _summary(_table(cells).mean(axis=-1))


def _summary(means: np.ndarray) -> dict:
    """Min/mean/max over the cells of ``(cells, metrics)`` means, as :func:`aggregate` returns them.

    Every statistic here and in :func:`write_cells_csv` reduces a
    contiguous last axis, which gives the bits of a 1-D reduction per cell
    and metric; a strided or outer-axis sum need not.
    """
    by_metric = np.ascontiguousarray(means.T)
    stats = {"min": by_metric.min(axis=-1), "mean": by_metric.mean(axis=-1), "max": by_metric.max(axis=-1)}
    return {stat: dict(zip(METRICS, values.tolist())) for stat, values in stats.items()}


# === CSV serialization ===


def write_cells_csv(result: SweepSummary, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega_a", "omega_b", *(f"{m}_{stat}" for m in METRICS for stat in ("mean", "min", "max"))])
        table = result.table
        stats = np.stack((table.mean(axis=-1), table.min(axis=-1), table.max(axis=-1)), axis=-1)
        rows = stats.reshape(len(stats), -1).tolist()  # per metric its mean, min and max
        writer.writerows([c.omega_a, c.omega_b, *row] for c, row in zip(result.cells, rows))


def summary_rows(result: SweepSummary) -> list[list[str]]:
    """The summary table as text rows: a header, then min, mean and max to two decimals."""
    return [["statistic", *METRICS]] + [
        [stat] + [f"{result.summary[stat][m]:.2f}" for m in METRICS] for stat in ("min", "mean", "max")
    ]


def write_summary_csv(result: SweepSummary, path) -> None:
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerows(summary_rows(result))
