"""Workload definitions: the ``ndglab test`` command each workload runs.

A workload's inputs come from the benchmark seed only.  The seed picks one
of ``BANK_SIZE`` input slots; each slot fixes a weight grid and a game seed,
and ``golden.json`` holds the recorded output digests of every slot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BANK_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: int
    lattice: int  # grid values are drawn from {0, 1/lattice, ..., 1}
    points: int  # grid values per axis
    replications: int

    def cells(self) -> int:
        # Scenarios 3-5 sweep both seats over the same grid, 1 and 2 only seat A.
        return self.points * self.points if self.scenario >= 3 else self.points

    def games(self) -> int:
        return self.cells() * self.replications

    def argv(self, seed: int) -> list[str]:
        """``ndglab`` arguments for benchmark seed ``seed`` (without ``--out``)."""
        slot = seed % BANK_SIZE
        rng = random.Random(1000 * self.scenario + slot)
        grid = sorted(rng.sample(range(self.lattice + 1), self.points))
        return [
            "test",
            "--id", str(self.scenario),
            "--grid", ",".join(repr(i / self.lattice) for i in grid),
            "--replications", str(self.replications),
            "--seed", str(rng.randrange(2**31)),
            "--tie-break", "smallest",
        ]


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("selfplay-learning", scenario=4, lattice=20, points=3, replications=3),
        Workload("learner-vs-rule", scenario=2, lattice=40, points=9, replications=4),
        Workload("planner-vs-rule", scenario=1, lattice=20, points=4, replications=50),
    )
}


def untimed_commands() -> list[tuple[str, list[str]]]:
    """``(output subdirectory, ndglab arguments)`` of the untimed golden check.

    All five scenarios under both tie-breaks on a coarse grid, then one
    warm-up training and one single game seeded from its learner file.  The
    ``random`` tie-break runs are far slower per game, so they use two grid
    points instead of three.
    """
    commands = []
    for tie_break, grid in (("smallest", "0,0.5,1"), ("random", "0,1")):
        for scenario in range(1, 6):
            argv = [
                "test", "--id", str(scenario), "--grid", grid, "--replications", "2",
                "--seed", "11", "--tie-break", tie_break,
            ]
            commands.append((f"test{scenario}-{tie_break}", argv))
    commands.append(("pretrain", ["pretrain", "--pretrain-rounds", "30", "--seed", "3", "--omega-a", "0.3"]))
    commands.append((
        "run",
        [
            "run", "--agent-a", "mdp-learning", "--agent-b", "heuristic", "--sigma-b", "1.0",
            "--seed", "7", "--omega-a", "0.7", "--prior-a", "{pretrain}/learner_a.txt",
        ],
    ))
    return commands
