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
consecutive chunks bounded by ``CHUNK_BYTES``, split into ``NDG_THREADS``
parts that run in at most one worker process per CPU.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import GameConfig, atomic_write, check_int, refuse_overwrite
from .engine import RngPlan, run_games
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
# float64 each.  Items are counted per planner seat identity and weight, or
# per seat stream under random ties: an upper bound on the rows the run
# forms, since the run also merges distinct but bit-equal tables at one
# weight.  A learner counts once even where learners share a row: during a
# run it also holds its counts and estimate, and the run a stacked row for
# each learner.  At q = 10 every default sweep fits in one run; at q = 60,
# two do.
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
                if not 0.0 <= w <= 1.0:
                    raise ValueError(f"{name} values must lie in [0, 1], got {w}")
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


def _play_part(task) -> list[tuple[float, float, float, float]]:
    """Play one worker's share of a sweep's games; return each game's metrics.

    The games run in consecutive lockstep chunks, built one game at a time:
    a chunk is played as soon as the next game's solve items (counted as for
    ``CHUNK_BYTES``, ``(q - 1)**3`` float64 each) would take it past
    ``CHUNK_BYTES``.  A game over the bound on its own is a chunk by itself.
    """
    spec, games = task
    q = spec.base.q
    item_bytes = (q - 1) ** 3 * 8
    random_ties = spec.base.tie_break == "random"
    metrics, chunk, items = [], [], set()
    for cell_index, config, rep in games:
        pair = (build_agent(spec.agent_a, q), build_agent(spec.agent_b, q))
        # Stateless derivation keyed on (cell, replication): stable under any
        # chunking and execution order, so parallel and serial sweeps agree.
        plan = RngPlan(np.random.SeedSequence(entropy=spec.base.seed, spawn_key=(cell_index, rep)))
        keys = {  # a seat's stream is read only where it names the item
            getattr(plan, name) if random_ties else (id(seat), omega)
            for seat, omega, name in zip(pair, (config.omega_a, config.omega_b), ("agent_a", "agent_b"))
            if not isinstance(seat, HeuristicModel)
        }
        if chunk and len(items | keys) * item_bytes > CHUNK_BYTES:
            metrics += _play_chunk(spec, chunk)
            chunk, items = [], set()
        chunk.append((config, pair, plan))
        items |= keys
    return metrics + _play_chunk(spec, chunk)


def _play_chunk(spec: ExperimentSpec, chunk) -> list[tuple[float, float, float, float]]:
    """Play one chunk of a sweep's games, as ``(config, pair, plan)``, in lockstep."""
    logs = run_games(*zip(*chunk), WARMUP_ROUNDS if spec.warms_up else 0)
    metrics = []
    for log in logs:
        a, b = log.cum_profit_a, log.cum_profit_b
        metrics.append((float(a), float(b), float(a + b), log.success_rate_pct))
    return metrics


def output_paths(spec: ExperimentSpec, out_dir) -> tuple[Path, Path]:
    """The cells and summary CSV files a sweep of ``spec`` writes under ``out_dir``."""
    stem = f"test{spec.test_id}"
    return Path(out_dir) / f"{stem}_cells.csv", Path(out_dir) / f"{stem}_summary.csv"


def run_test(spec: ExperimentSpec, out_dir=None, force: bool = False) -> SweepSummary:
    """Run a whole sweep; optionally write its cells and summary CSV files.

    Only the games the results need are played (see :func:`_plan`), across
    cells, in as few lockstep runs as ``CHUNK_BYTES`` and ``NDG_THREADS``
    allow; every cell gets the same results as when played on its own.
    Bad settings and existing output files (unless ``force``) are refused
    before any game runs; ``ExperimentSpec`` checks its settings when built.
    """
    if out_dir is not None:
        cells_path, summary_path = output_paths(spec, out_dir)
        refuse_overwrite((cells_path, summary_path), force)
    threads = os.environ.get("NDG_THREADS", "1") or "1"
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"NDG_THREADS must be a positive integer, got {threads!r}")
    weights = spec.cells()
    games, sources = _plan(spec, weights)
    bounds = [len(games) * k // workers for k in range(workers + 1)]
    tasks = [(spec, games[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    # The split alone fixes the outputs; the pool only bounds how many parts run at once.
    processes = min(len(tasks), os.cpu_count() or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            metrics = [m for part in pool.map(_play_part, tasks) for m in part]
    else:
        metrics = [m for task in tasks for m in _play_part(task)]
    reps = spec.replications
    results = []
    for (wa, wb), (first, swap) in zip(weights, sources):
        played = metrics[first : first + 1] * reps if spec.deterministic else metrics[first : first + reps]
        profits_a, profits_b, totals, successes = zip(*played)
        if swap:
            profits_a, profits_b = profits_b, profits_a
        results.append(CellResult(wa, wb, profits_a, profits_b, totals, successes))
    cells = tuple(results)
    result = SweepSummary(spec=spec, cells=cells, summary=aggregate(cells))
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_cells_csv(result, cells_path)
        write_summary_csv(result, summary_path)
    return result


def aggregate(cells) -> dict:
    """Min/mean/max over cells of the per-cell replication means.

    Each statistic is taken per metric independently, so e.g. the minimum
    profits of the two players may come from different cells and need not
    add up to the minimum total.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to aggregate")
    means = {m: np.array([c.rep_mean(m) for c in cells]) for m in METRICS}
    return {
        "min": {m: float(v.min()) for m, v in means.items()},
        "mean": {m: float(v.mean()) for m, v in means.items()},
        "max": {m: float(v.max()) for m, v in means.items()},
    }


# === CSV serialization ===


def _cells_header() -> list[str]:
    header = ["omega_a", "omega_b"]
    for m in METRICS:
        header += [f"{m}_mean", f"{m}_min", f"{m}_max"]
    return header


def write_cells_csv(result: SweepSummary, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_cells_header())
        for c in result.cells:
            row = [c.omega_a, c.omega_b]
            for m in METRICS:
                v = c.rep_values(m)
                row += [c.rep_mean(m), float(v.min()), float(v.max())]
            writer.writerow(row)


def summary_rows(result: SweepSummary) -> list[list[str]]:
    """The summary table as text rows: a header, then min, mean and max to two decimals."""
    return [["statistic", *METRICS]] + [
        [stat] + [f"{result.summary[stat][m]:.2f}" for m in METRICS] for stat in ("min", "mean", "max")
    ]


def write_summary_csv(result: SweepSummary, path) -> None:
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerows(summary_rows(result))
