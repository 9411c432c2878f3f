"""Domain types and the pure arithmetic of the demand-splitting game.

Two players simultaneously claim integer shares of an amount ``q``.  Both
get paid iff the claims fit together (sum at most ``q``); otherwise the
round pays nothing.  A player's per-round reward blends its own profit
with a penalty on the gap between ``q`` and the joint claim, controlled
by a weight ``omega``: 0 means pure profit seeking, 1 means caring only
about splitting the full amount exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Role",
    "JointState",
    "GameConfig",
    "RoundRecord",
    "GameLog",
    "check_demand",
    "chi",
    "profit",
    "reward",
    "reward_matrix",
    "seat_view",
]


class Role(enum.Enum):
    """Seat of a player; ``A`` owns the first component of the joint state."""

    A = "A"
    B = "B"

    @property
    def other(self) -> "Role":
        return Role.B if self is Role.A else Role.A


class JointState(NamedTuple):
    """Previous-round demand pair ``(prev_a, prev_b)``: the state players condition on."""

    prev_a: int
    prev_b: int


def seat_view(state: JointState, role: Role) -> tuple[int, int]:
    """Return ``(own_prev, opp_prev)`` as seen from ``role``'s seat."""
    if role is Role.A:
        return state.prev_a, state.prev_b
    return state.prev_b, state.prev_a


def check_demand(value: int, q: int, name: str = "demand") -> None:
    if not 1 <= value <= q - 1:
        raise ValueError(f"{name} must lie in 1..{q - 1}, got {value}")


@dataclass(frozen=True)
class GameConfig:
    """Parameters of one repeated game.

    Attributes:
        q: total amount split each round, in integer money units.  Demands
            are integers in ``1..q-1``.
        rounds: number of rounds played, including the forced opening round.
        horizon: lookahead depth used by planning agents.
        initial_demand: both players open with this demand in round 1.
        omega_a: player A's reward weight in ``[0, 1]``.
        omega_b: player B's reward weight in ``[0, 1]``.
        seed: master seed for every random stream of the game.
    """

    q: int = 10
    rounds: int = 60
    horizon: int = 10
    initial_demand: int = 3
    omega_a: float = 0.5
    omega_b: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not 1 <= self.initial_demand <= self.q - 1:
            raise ValueError(
                f"initial_demand must lie in 1..{self.q - 1}, got {self.initial_demand}"
            )
        for name in ("omega_a", "omega_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_demands(self) -> int:
        return self.q - 1


def chi(a: int, b: int, q: int) -> int:
    """1 if the two demands fit into ``q`` together, else 0.  Symmetric."""
    check_demand(a, q, "a")
    check_demand(b, q, "b")
    return 1 if a + b <= q else 0


def profit(a: int, b: int, q: int) -> int:
    """First player's round profit: its own demand when compatible, else 0."""
    return a * chi(a, b, q)


def reward(a: int, b: int, omega: float, q: int) -> float:
    """First player's round reward.

    The profit share ``a * (1 - omega)`` when the demands are compatible,
    minus ``omega`` times the absolute gap between ``q`` and the joint
    claim.  On the compatible branch this telescopes to ``a - omega * (q - b)``.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    return a * (1.0 - omega) * chi(a, b, q) - omega * abs(q - (a + b))


def reward_matrix(omega: float, q: int) -> np.ndarray:
    """Reward of every demand pair, indexed ``[a - 1, b - 1]``."""
    return np.array([[reward(a, b, omega, q) for b in range(1, q)] for a in range(1, q)])


@dataclass(frozen=True)
class RoundRecord:
    """Everything recorded about one played round."""

    t: int
    demand_a: int
    demand_b: int
    compatible: bool
    profit_a: int
    profit_b: int
    reward_a: float
    reward_b: float
    unclaimed: int  # leftover when compatible, the whole of q otherwise

    @classmethod
    def from_demands(
        cls, t: int, demand_a: int, demand_b: int, config: GameConfig
    ) -> "RoundRecord":
        c = chi(demand_a, demand_b, config.q)
        return cls(
            t=t,
            demand_a=demand_a,
            demand_b=demand_b,
            compatible=bool(c),
            profit_a=demand_a * c,
            profit_b=demand_b * c,
            reward_a=reward(demand_a, demand_b, config.omega_a, config.q),
            reward_b=reward(demand_b, demand_a, config.omega_b, config.q),
            unclaimed=config.q - demand_a - demand_b if c else config.q,
        )


@dataclass(frozen=True)
class GameLog:
    """Full trace of one game plus its headline statistics."""

    config: GameConfig
    records: tuple[RoundRecord, ...]
    cum_profit_a: int
    cum_profit_b: int
    success_rate_pct: float

    @classmethod
    def from_records(cls, config: GameConfig, records) -> "GameLog":
        records = tuple(records)
        if len(records) != config.rounds:
            raise ValueError(
                f"expected {config.rounds} round records, got {len(records)}"
            )
        compatible = sum(1 for r in records if r.compatible)
        return cls(
            config=config,
            records=records,
            cum_profit_a=sum(r.profit_a for r in records),
            cum_profit_b=sum(r.profit_b for r in records),
            success_rate_pct=100.0 * compatible / len(records),
        )
