"""Span recording around ndglab's public functions, installed from outside.

Each wrapped call appends one span ``(name, start, end, parent)`` to an
in-memory list.  Functions are wrapped at the name their caller looks up:
``experiments`` imports ``run_game``, ``build_agent`` and ``heuristic_table``
into its own namespace, ``engine`` imports ``heuristic_sample``, ``planner``
imports ``reward_matrix``, and ``cli`` imports ``run_test``.  A target that
no longer exists is skipped, and its layer then reports zero calls.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
from time import perf_counter

# (module, attribute path, span name)
TARGETS = (
    ("ndglab.cli", "run_test", "experiments.run_test"),
    ("ndglab.experiments", "run_cell", "experiments.run_cell"),
    ("ndglab.experiments", "build_agent", "experiments.build_agent"),
    ("ndglab.experiments", "write_cells_csv", "experiments.write_cells_csv"),
    ("ndglab.experiments", "write_summary_csv", "experiments.write_summary_csv"),
    ("ndglab.experiments", "run_game", "engine.run_game"),
    ("ndglab.experiments", "heuristic_table", "opponent.heuristic_table"),
    ("ndglab.engine", "heuristic_sample", "opponent.heuristic_sample"),
    ("ndglab.opponent", "DirichletLearner.update", "opponent.update"),
    ("ndglab.opponent", "DirichletLearner.estimate_table", "opponent.estimate_table"),
    ("ndglab.planner", "MdpAgent.act", "planner.act"),
    ("ndglab.planner", "MdpAgent.current_rule", "planner.current_rule"),
    ("ndglab.planner", "backward_induction", "planner.backward_induction"),
    ("ndglab.planner", "reward_matrix", "core.reward_matrix"),
    ("ndglab.core", "RoundRecord.from_demands", "core.from_demands"),
)

OPPONENT_SPANS = (
    "opponent.heuristic_table",
    "opponent.heuristic_sample",
    "opponent.update",
    "opponent.estimate_table",
)
CSV_SPANS = ("experiments.write_cells_csv", "experiments.write_summary_csv")


def game_digest(log) -> str:
    """Digest of a game's demand sequence; equal games give equal digests."""
    demands = b"".join(b"%d,%d;" % (r.demand_a, r.demand_b) for r in log.records)
    return hashlib.sha256(demands).hexdigest()


class Recorder:
    """In-memory span list plus the patching that fills it."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.tags: dict[int, str] = {}  # span index -> game digest, for run_game spans
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack, tags = self.spans, self._stack, self.tags

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target that exists."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if owner_path else getattr(owner, attr)
            except (AttributeError, KeyError):
                continue
            tag = game_digest if name == "engine.run_game" else None
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, tag))
            else:
                patched = self.wrap(name, raw, tag)
            setattr(owner, attr, patched)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced sweep, named as in BENCHMARK.json."""
    spans = recorder.spans
    table = self_time_table(recorder)
    durations: dict[str, list[float]] = {}
    solves_in_rule = 0
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if name == "planner.backward_induction" and parent >= 0 and spans[parent][0] == "planner.current_rule":
            solves_in_rule += 1

    games = set()
    for i, digest in recorder.tags.items():
        cell = spans[i][3]
        while cell >= 0 and spans[cell][0] != "experiments.run_cell":
            cell = spans[cell][3]
        games.add((cell, digest))

    def n(name):
        return table.get(name, (0, 0.0))[0]

    def t(*names):
        return sum(table.get(name, (0, 0.0))[1] for name in names)

    def pct(name, p, scale):
        values = durations.get(name)
        return _percentile(values, p) * scale if values else 0.0

    rule_calls = n("planner.current_rule")
    out = {
        "planner.backward_induction.calls": n("planner.backward_induction"),
        "planner.backward_induction.self_s": t("planner.backward_induction"),
        "planner.backward_induction.us_p50": pct("planner.backward_induction", 50, 1e6),
        "planner.backward_induction.us_p90": pct("planner.backward_induction", 90, 1e6),
        "planner.current_rule.calls": rule_calls,
        "planner.current_rule.hit_frac": 1.0 - solves_in_rule / rule_calls if rule_calls else 0.0,
        "planner.act.self_s": t("planner.act"),
        "engine.run_game.calls": n("engine.run_game"),
        "engine.run_game.self_s": t("engine.run_game"),
        "engine.run_game.ms_p50": pct("engine.run_game", 50, 1e3),
        "engine.run_game.ms_p90": pct("engine.run_game", 90, 1e3),
        "experiments.distinct_game_frac": len(games) / len(recorder.tags) if recorder.tags else 0.0,
        "experiments.build_agent.calls": n("experiments.build_agent"),
        "experiments.build_agent.self_s": t("experiments.build_agent"),
        "experiments.run_cell.s_p50": pct("experiments.run_cell", 50, 1.0),
        "experiments.run_cell.s_p90": pct("experiments.run_cell", 90, 1.0),
        "experiments.csv_write.self_s": t(*CSV_SPANS),
        "opponent.self_s": t(*OPPONENT_SPANS),
        "core.from_demands.calls": n("core.from_demands"),
        "core.from_demands.self_s": t("core.from_demands"),
        "core.reward_matrix.calls": n("core.reward_matrix"),
        "core.reward_matrix.self_s": t("core.reward_matrix"),
        "cli.main.self_s": t("cli.main"),
        "cli.main.wall_s": sum(end - start for name, start, end, _ in spans if name == "cli.main"),
    }
    for name in OPPONENT_SPANS:
        out[f"{name}.calls"] = n(name)
    return out


def self_time_table(recorder: Recorder) -> dict[str, tuple[int, float]]:
    """``span name -> (calls, self seconds)`` for every span name seen."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        c, s = table.get(name, (0, 0.0))
        table[name] = (c + 1, s + end - start - child_time[i])
    return table
