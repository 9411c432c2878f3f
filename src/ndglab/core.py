"""Domain types and the pure arithmetic of the demand-splitting game.

Two players simultaneously claim integer shares of an amount ``q``.  Both
get paid iff the claims fit together (sum at most ``q``); otherwise the
round pays nothing.  A player's per-round reward blends its own profit
with a penalty on the gap between ``q`` and the joint claim, controlled
by a weight ``omega``: 0 means pure profit seeking, 1 means caring only
about splitting the full amount exactly.

The module also holds :func:`atomic_write`, which every output file of the
package is written through, and :func:`refuse_overwrite`, which every
command calls before its first write.
"""

from __future__ import annotations

import enum
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "TIE_BREAKS",
    "Role",
    "GameConfig",
    "GameLog",
    "round_columns",
    "game_scores",
    "check_demand",
    "check_int",
    "chi",
    "reward",
    "reward_matrix",
]


class Role(enum.Enum):
    """Seat of a player; ``A`` owns the first component of the joint state."""

    A = "A"
    B = "B"


def check_demand(value: int, q: int, name: str = "demand") -> None:
    """Refuse ``value`` for ``name`` unless it is an int, numpy's included, in ``1..q-1``.

    A bool is refused, and so is a float even when it is whole, as :func:`check_int` does.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 1 <= value <= q - 1:
        raise ValueError(f"{name} must lie in 1..{q - 1}, got {value!r}")


def check_int(value, name: str, least: int = 0) -> None:
    """Refuse ``value`` for ``name`` unless it is an int, numpy's included, of at least ``least``.

    A bool is refused, and so is a float even when it is whole.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        what = "a non-negative int" if least == 0 else f"an int of at least {least}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_weight(value: float, name: str = "omega") -> None:
    """Refuse ``value`` for ``name`` unless it is a real number, not a bool, in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


TIE_BREAKS = ("smallest", "random")

# Largest learner table GameConfig accepts: (q - 1)**3 float64 counts, so q <= 513.
MAX_TABLE_BYTES = 1 << 30


@dataclass(frozen=True)
class GameConfig:
    """Parameters of one repeated game.

    Attributes:
        q: total amount split each round, in integer money units.  Demands
            are integers in ``1..q-1``.
        rounds: number of rounds played, including the forced opening round.
        horizon: lookahead depth of every planner.
        initial_demand: both players open with this demand in round 1.
        omega_a: player A's reward weight in ``[0, 1]``.
        omega_b: player B's reward weight in ``[0, 1]``.
        seed: master seed for every random stream of the game.
        tie_break: how every planner resolves exactly tied demands, one of
            ``TIE_BREAKS``: the smallest, or a draw from the seat's stream.
    """

    q: int = 10
    rounds: int = 60
    horizon: int = 10
    initial_demand: int = 3
    omega_a: float = 0.5
    omega_b: float = 0.5
    seed: int = 0
    tie_break: str = "smallest"

    def __post_init__(self) -> None:
        for name, least in (("q", 2), ("rounds", 1), ("horizon", 1), ("initial_demand", 1), ("seed", 0)):
            check_int(getattr(self, name), name, least)
        table_bytes = (self.q - 1) ** 3 * 8
        if table_bytes > MAX_TABLE_BYTES:
            raise ValueError(
                f"q={self.q} would need {table_bytes / 2**30:.2f} GiB for one "
                f"learner table, over the {MAX_TABLE_BYTES / 2**30:g} GiB limit"
            )
        if self.initial_demand > self.q - 1:
            raise ValueError(
                f"initial_demand must lie in 1..{self.q - 1}, got {self.initial_demand}"
            )
        _check_weight(self.omega_a, "omega_a")
        _check_weight(self.omega_b, "omega_b")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {self.tie_break!r}")


def chi(a: int, b: int, q: int) -> int:
    """1 if the two demands fit into ``q`` together, else 0.  Symmetric."""
    check_demand(a, q, "a")
    check_demand(b, q, "b")
    return 1 if a + b <= q else 0


def reward(a: int, b: int, omega: float, q: int) -> float:
    """First player's round reward.

    The profit share ``a * (1 - omega)`` when the demands are compatible,
    minus ``omega`` times the absolute gap between ``q`` and the joint
    claim.  On the compatible branch this telescopes to ``a - omega * (q - b)``.
    """
    _check_weight(omega)
    return _payoff(a, b, chi(a, b, q), omega, q)


def _payoff(a, b, c, omega: float, q: int):
    """Unchecked reward of ``a`` against ``b`` given their compatibility ``c``.

    Works elementwise on numpy grids with the same float operations, in the
    same order, as on scalars, so both give the same bits.
    """
    return a * (1.0 - omega) * c - omega * abs(q - (a + b))


# A default sweep uses 11 weights and one q; at the q bound one matrix is 2 MiB.
@lru_cache(maxsize=16)
def reward_matrix(omega: float, q: int) -> np.ndarray:
    """Reward of every demand pair, indexed ``[a - 1, b - 1]``.

    Built once per ``(omega, q)``; every caller shares the returned array,
    which is therefore read-only.
    """
    _check_weight(omega)
    a = np.arange(1, q)[:, None]
    b = np.arange(1, q)[None, :]
    matrix = _payoff(a, b, a + b <= q, omega, q)
    matrix.flags.writeable = False
    return matrix


def round_columns(config: GameConfig, demands) -> dict[str, np.ndarray]:
    """Every round of a game's ``(rounds, 2)`` demands in ``1..q-1``, one array per column.

    ``compatible`` is 1 when the pair fits into ``q``; a seat's profit is its
    demand then and 0 otherwise; each reward has the bits of :func:`reward`
    under the seat's weight; ``unclaimed`` is the leftover of a compatible
    round and the whole of ``q`` otherwise.
    """
    q = config.q
    demands = np.asarray(demands)
    a, b = demands[:, 0], demands[:, 1]
    c = (a + b <= q).astype(np.int64)
    return {
        "round": np.arange(1, len(demands) + 1),
        "demand_a": a,
        "demand_b": b,
        "compatible": c,
        "profit_a": a * c,
        "profit_b": b * c,
        "reward_a": _payoff(a, b, c, config.omega_a, q),
        "reward_b": _payoff(b, a, c, config.omega_b, q),
        "unclaimed": np.where(c, q - a - b, q),
    }


def game_scores(demands, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Score games given as demands of shape ``(..., rounds, 2)``, each in ``1..q-1``.

    Returns each game's cumulative profits, shape ``(..., 2)``: the sum of a
    seat's demands over its compatible rounds, and each game's success rate,
    the percentage of compatible rounds.  Each seat's column is scored on
    its own, a reduction over rounds, not over a trailing axis of two.  A
    demand outside ``1..q-1`` is refused; no games score as empty arrays.
    Every game gets the bits it gets when scored alone.
    """
    if not (demands.min(initial=1) >= 1 and demands.max(initial=1) <= q - 1):
        raise ValueError(f"demands must lie in 1..{q - 1}")
    a, b = demands[..., 0], demands[..., 1]
    c = a + b <= q
    profits = np.stack(((a * c).sum(axis=-1), (b * c).sum(axis=-1)), axis=-1)
    return profits, 100.0 * c.sum(axis=-1) / demands.shape[-2]


@dataclass(frozen=True, eq=False)
class GameLog:
    """One game's demands plus its headline statistics.

    ``demands[t - 1]`` is the ``(demand_a, demand_b)`` pair of round ``t``.
    The statistics are scored from it by :func:`game_scores` when the log is
    built; :func:`round_columns` scores every round in full.
    """

    config: GameConfig
    demands: np.ndarray
    cum_profit_a: int = field(init=False)
    cum_profit_b: int = field(init=False)
    success_rate_pct: float = field(init=False)

    def __post_init__(self) -> None:
        config = self.config
        demands = np.asarray(self.demands)
        if demands.shape != (config.rounds, 2):
            raise ValueError(
                f"expected {config.rounds} rounds of two demands, got shape {demands.shape}"
            )
        profits, success = game_scores(demands, config.q)
        scored = (demands, *profits.tolist(), float(success))
        for name, value in zip(("demands", "cum_profit_a", "cum_profit_b", "success_rate_pct"), scored):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameLog):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.demands, other.demands)


def refuse_overwrite(paths, force: bool) -> None:
    """Raise ``FileExistsError`` for the first of ``paths`` that exists, unless ``force``."""
    for p in paths:
        if Path(p).exists() and not force:
            raise FileExistsError(f"refusing to overwrite {p} (pass --force)")


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Text file handle whose contents replace ``path`` only once fully written.

    Writes go to a hidden temporary file in the target's directory, which
    ``os.replace`` then moves onto ``path``.  If the block raises, the
    temporary file is removed and ``path`` is left as it was, so no reader
    ever sees a half-written file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
