"""The sweeps whose traced peak memory must stay under ``BOUND_MIB``.

Each is ``(id, test_id, tie_break, q, grid)`` at 30 replications of 4
rounds.  ``test_experiments.py`` asserts the bound on each, and the tighter
bound of ``CASE_BOUND_MIB`` where a case has one; ``scripts/bench_pairs.py``
reports their peaks.
"""

BOUND_MIB = 36
# Tighter bounds.  "random-tie-planner" keeps the traced peak it had before
# its planners first shared one run row per belief, which sharing must keep
# it under.  The three learner cases sit between their peak with learners
# that hold only their counts and their peak when each learner also held its
# estimate, a second (q - 1)**3 array, so a stored estimate would exceed them.
CASE_BOUND_MIB = {
    "learner": 17.5,
    "learner-vs-learner": 12.7,
    "random-tie-planner": 11.25,
    "random-tie-learners": 17.7,
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
