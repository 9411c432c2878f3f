"""The sweeps whose traced peak memory must stay under ``BOUND_MIB``.

Each is ``(id, test_id, tie_break, q, grid)`` at 30 replications of 4
rounds.  ``test_experiments.py`` asserts the bound on each, and the tighter
bound of ``CASE_BOUND_MIB`` where a case has one; ``scripts/bench_pairs.py``
reports their peaks.
"""

BOUND_MIB = 36
# Tighter bounds.  "random-tie-planner" keeps the traced peak it had before
# its planners first shared one run row per belief, which sharing must keep
# it under.  The three learner cases sit between their peak when the solver
# holds each model as its distinct columns, about 5 at 4 rounds, and their
# peak when it held one column per state, (q - 1)**2 = 3,481 of them, so a
# stack of a column per state would exceed them.  "shared-fixed-model" sits
# between its peak of about 0.70 MiB, where each deterministic cell's
# replication tuples repeat one float per metric, and its peak of about 1.02
# MiB with a float per replication, 121 cells of 30 replications.
CASE_BOUND_MIB = {
    "learner": 13.5,
    "learner-vs-learner": 8.8,
    "random-tie-planner": 11.25,
    "shared-fixed-model": 0.85,
    "random-tie-learners": 12.2,
}
SWEEPS = (
    ("learner", 2, "smallest", 60, (0.5,)),
    ("random-tie-planner", 1, "random", 60, (0.5,)),
    # 66 played games of a shared uniform table: one item per weight, 11 of the 21 a chunk holds
    ("shared-fixed-model", 3, "smallest", 30, None),
    # two learners of one weight and one belief per game: one run row, one solve item a round
    ("learner-vs-learner", 4, "smallest", 60, (0.5,)),
    # 30 self-play games whose 60 learners share rows until their ties or what they observe part them
    ("random-tie-learners", 4, "random", 60, (0.5,)),
)
