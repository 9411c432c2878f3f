"""The sweeps whose traced peak memory must stay under ``BOUND_MIB``.

Each is ``(id, test_id, tie_break, q, grid)`` at 30 replications of 4
rounds.  ``test_experiments.py`` asserts the bound on each, and the tighter
bound of ``CASE_BOUND_MIB`` where a case has one; ``scripts/bench_pairs.py``
reports their peaks.
"""

BOUND_MIB = 36
# The traced peak each case had before its planners first shared one run row
# per belief, under smallest ties and then under random ties, which sharing
# must keep them under.
CASE_BOUND_MIB = {"learner-vs-learner": 15.89, "random-tie-planner": 11.25, "random-tie-learners": 22.56}
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
