"""Repeated games: simultaneous moves, payoff accounting, learning updates.

Round 1 always plays the preset opening pair from the config.  Every later
round reads both seats' demands at the previous round's pair (neither sees
the other's current choice), records them, and feeds each learner the
opponent's demand in the state the round was played at.  Each seat reads
that state from its own side, as ``(own_prev, opp_prev)``, so no seat
knows its side.  A seat is what its player knows of the opponent: a fixed
model table or a :class:`DirichletLearner`, planned against under the
weight, horizon and tie rule of the game's config, or a
:class:`HeuristicModel`, which samples.  :func:`play_games` steps several
games together, round by round, over one round-major demand array, so
that their planners share batched solves and their learners one
update per round; :func:`run_games` logs each of its games,
and :func:`run_game` is the one-game case.

The loop alone decides when rules are solved, and which planners share a
solve (see :func:`_play`): every fixed planner's full rule once, before
round 2, and every learner before each later round, from stacked copies of
the learners written back when the run ends.  So seats reused for a second
game play it as fresh seats would.
"""

from __future__ import annotations

import csv
import zlib
from functools import cache, cached_property, lru_cache
from itertools import chain

import numpy as np

from .core import GameConfig, GameLog, atomic_write, check_int, round_columns
from .opponent import DirichletLearner, HeuristicModel, RuleRows
from .planner import _blocks, _validate_model, backward_induction_batch, solver_inputs, with_picks

__all__ = [
    "RngPlan",
    "run_game",
    "run_games",
    "play_games",
    "pretrain",
    "ROUND_FIELDS",
    "SUMMARY_FIELDS",
    "write_round_csv",
    "write_game_summary_csv",
]


class RngPlan:
    """Named deterministic random streams for one game, as a value.

    Same seed, same configuration: bit-identical game.  A plan is a seed, a
    non-negative int of any size, and a key of parts in ``0..2**32 - 1``,
    the ``entropy`` and ``spawn_key`` of a ``SeedSequence``; anything else,
    a ``SeedSequence`` too, is refused.  Each seat gets its own child
    stream, so changing one player's settings cannot shift the other
    player's draws; a further child seeds an optional warm-up game.  Child
    ``i`` draws the bits of ``default_rng(SeedSequence(entropy,
    spawn_key=key + (i,)))``.  A run derives its streams afresh from the
    seed and key alone, so a plan replays its game however often it is used;
    ``agent_a`` and ``agent_b`` are built for a caller when first read.  A
    stream's ``bit_generator.seed_seq`` holds only its derived seed row, so
    it cannot ``spawn``.
    """

    agent_a = cached_property(lambda self: self._stream(0))
    agent_b = cached_property(lambda self: self._stream(1))

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        check_int(seed, "seed")
        for part in key:
            if isinstance(part, bool) or not isinstance(part, (int, np.integer)) or not 0 <= part <= _MASK:
                raise ValueError(f"every key part must be a non-negative int below 2**32, got {part!r}")
        self.entropy, self.spawn_key = int(seed), tuple(map(int, key))

    def _stream(self, index: int) -> np.random.Generator:
        # Stateless spawn: the same (entropy, key, index) always names the same child.
        return _streams(([self.entropy], [0], [self.spawn_key + (index,)]))[0]

    def pretrain_plan(self) -> "RngPlan":
        """A fresh plan for the warm-up game, disjoint from this plan's streams: the key ``spawn_key + (2,)``."""
        plan = object.__new__(RngPlan)
        plan.entropy, plan.spawn_key = self.entropy, self.spawn_key + (2,)
        return plan


_NAMES = ("agent_a", "agent_b")


class _KeyedPlans:
    """A run's plans as one table: game ``g`` plays on ``RngPlan(entropies[
    heads[g]], keys[g])``, ``keys`` one ``(games, parts)`` int array of parts
    trusted to lie in ``0..2**32 - 1``.  A sweep's chunk builds it from its
    seed and ``(cell_index, rep)`` keys, :func:`play_games` from a list of plans."""

    __slots__ = ("entropies", "heads", "keys")

    def __init__(self, entropies: list, heads: np.ndarray, keys: np.ndarray):
        self.entropies, self.heads, self.keys = entropies, heads, keys

    @classmethod
    def of(cls, plans) -> "_KeyedPlans":
        """The table of a list of :class:`RngPlan`; plans whose keys differ in length are refused."""
        lengths = {len(plan.spawn_key) for plan in plans}
        if len(lengths) > 1:
            raise ValueError(f"the plans of one run must share one key length, got lengths {sorted(lengths)}")
        head_of = {}  # each distinct entropy, numbered in order of first use
        heads = [head_of.setdefault(plan.entropy, len(head_of)) for plan in plans]
        keys = np.array([plan.spawn_key for plan in plans], dtype=np.int64).reshape(len(plans), *lengths)
        return cls(list(head_of), np.array(heads, dtype=np.intp), keys)

    def __len__(self) -> int:
        return len(self.keys)

    def pretrain_plan(self) -> "_KeyedPlans":
        """The warm-up plans of all games, keyed ``key + (2,)`` as :meth:`RngPlan.pretrain_plan`."""
        return _KeyedPlans(self.entropies, self.heads, np.column_stack((self.keys, np.full(len(self.keys), 2))))

    def seat_streams(self, seats: np.ndarray) -> list:
        """The streams of the seats at ``seats`` of a run's row, seat ``i`` being
        ``_NAMES[i // games]`` of game ``i % games``, from one hash of their keys."""
        if not len(seats):
            return []
        game, index = seats % len(self.keys), seats // len(self.keys)
        return _streams((self.entropies, self.heads[game], np.column_stack((self.keys[game], index))))


# numpy's SeedSequence, with its default pool of four 32-bit words: the
# hash-constant chains, the mix multipliers and the shift.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = 0xCA01F9DD, 0x4973F715, 16


def _streams(children) -> list:
    """One generator per child of ``children``, ``(entropies, heads, keys)``:
    child ``c`` draws the bits of ``default_rng(SeedSequence(entropy,
    spawn_key=key))``, its entropy ``entropies[heads[c]]``, a non-negative
    int, and its key row ``c`` of the ``(children, parts)`` int array
    ``keys``, each part in ``0..2**32 - 1``: every child's key has one length.

    ``SeedSequence`` hashes the 32-bit words of its entropy, padded with
    zeros to its pool of four, then one word per key part.  Its hash
    constants depend only on a word's position, never on the data.  Each
    entropy's pool is numpy's own, ``SeedSequence(entropy).pool``, and its
    key's first part takes hash position 16, four more per entropy word past
    the pool, as read from ``entropy.bit_length()``; part ``p`` takes four
    positions on from there.  The key array is hashed as one ``(parts, 4,
    children)`` uint64 array and mixed into the pools one part at a time.
    The pools give each child's ``generate_state(4, np.uint64)`` row, and
    numpy's own ``PCG64`` seeds itself from that row and does every draw.
    """
    entropies, heads, keys = children
    heads = np.asarray(heads, dtype=np.intp)
    parts = np.asarray(keys, dtype=np.uint64).T  # (parts, children)
    starts = np.array([16 + 4 * max(0, -(-entropy.bit_length() // 32) - 4) for entropy in entropies])
    at = starts[heads] + 4 * np.arange(len(parts))[:, None]  # each part's first hash position
    at = at[:, None, :] + np.arange(4)[:, None]
    xor, mul = _hash_constants(int(at.max()) + 1)
    hashed = (parts[:, None, :] ^ xor[at]) * mul[at] & _MASK
    hashed ^= hashed >> _SHIFT
    pool = np.array([np.random.SeedSequence(entropy).pool for entropy in entropies], dtype=np.uint64)[heads].T
    for word in hashed:
        pool = (_MIX_L * pool - _MIX_R * word) & _MASK
        pool ^= pool >> _SHIFT
    xor, mul = _hash_constants(8, _INIT_B, _MULT_B)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ xor[:, None]) * mul[:, None] & _MASK
    state ^= state >> _SHIFT
    rows = (state[0::2] | state[1::2] << 32).T.copy()  # little-endian pairs of words, one row per child
    seed, generator, pcg64 = _row_seed(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(seed(row))) for row in rows]


@lru_cache(maxsize=16)
def _hash_constants(count: int, init: int = _INIT_A, mult: int = _MULT_A) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` hashes' xor and multiplier constants, as read-only uint64 arrays."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK)
    constants = np.array(constants, dtype=np.uint64)
    constants.flags.writeable = False
    return constants[:-1], constants[1:]


@cache
def _row_seed():
    """A minimal numpy seed whose ``generate_state`` is a row already derived.

    Built on first use, so that importing this module, or a run that draws
    nothing, never loads ``numpy.random``.  Only ``PCG64`` reads it, asking
    for its four uint64 words.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return RowSeed


def run_game(config: GameConfig, agent_a, agent_b, rng: RngPlan | None = None) -> GameLog:
    """Play one full game and return its log: the one-game case of :func:`run_games`.

    ``rng`` defaults to ``RngPlan(config.seed)``.
    """
    plan = rng if rng is not None else RngPlan(config.seed)
    return run_games([config], [(agent_a, agent_b)], [plan])[0]


def run_games(configs, pairs, plans, warmup_rounds: int = 0) -> list[GameLog]:
    """Play one game per config, ``(agent_a, agent_b)`` pair and plan, all in
    lockstep, and return each game's log: :func:`play_games`, logged."""
    configs = list(configs)
    demands = play_games(configs, pairs, plans, warmup_rounds)
    return [GameLog(config, game) for config, game in zip(configs, demands)]


def play_games(configs, pairs, plans, warmup_rounds: int = 0) -> np.ndarray:
    """Play one game per config, ``(agent_a, agent_b)`` pair and plan, all in
    lockstep; return their demands as one ``(games, rounds, 2)`` array.

    Every game steps through the same rounds and solves, so the configs must
    share ``q``, ``rounds``, ``initial_demand``, ``horizon`` and
    ``tie_break``; a sweep's configs differ only in their weights.  A seat
    holds a fixed model table, a :class:`DirichletLearner` or a
    :class:`HeuristicModel` for that ``q``, and a learner holds one seat of
    the batch.  ``plans`` is a list of :class:`RngPlan`, tabulated here
    once, whose keys must share one length, or a sweep chunk's
    :class:`_KeyedPlans`.  Plans are values: games on equal plans draw
    equal but separate streams.  Anything else is refused before the first
    round.  With ``warmup_rounds``, a non-negative int, each pair first
    plays a warm-up game of that length on its plan's
    :meth:`RngPlan.pretrain_plan` streams, again in lockstep, which trains
    the learners in place.
    """
    check_int(warmup_rounds, "warmup_rounds")
    configs = list(configs)
    pairs = list(pairs)
    if not isinstance(plans, _KeyedPlans):
        plans = _KeyedPlans.of(list(plans))
    if not len(configs) == len(pairs) == len(plans):
        raise ValueError(
            f"need one config and plan per game, got {len(configs)} configs "
            f"and {len(plans)} plans for {len(pairs)} games"
        )
    if not configs:
        return np.empty((0, 0, 2), dtype=np.int64)
    if len({(c.q, c.rounds, c.initial_demand, c.horizon, c.tie_break) for c in configs}) > 1:
        raise ValueError("games played in lockstep must share q, rounds, initial_demand, horizon and tie_break")
    if warmup_rounds:
        _play(configs, pairs, plans.pretrain_plan(), warmup_rounds)
    return _play(configs, pairs, plans, configs[0].rounds)


_FIXED, _LEARNER, _SAMPLER = range(3)  # the kinds of seat


def _seat_groups(q: int, pairs) -> tuple[list, list, np.ndarray]:
    """Group a run's seats by object and check each distinct seat once.

    Returns, for each distinct seat object in order of first use, what the
    run holds of it (a fixed seat's validated table, else the seat) and its
    kind, and each seat's distinct seat in round-row order: seat A of every
    game, then seat B.  A bad seat is refused where a scan in game order,
    then seat order, first meets it: a table, a seat of no known kind or one
    built for another ``q`` at its first use, a learner at its second.
    """
    seats = list(chain.from_iterable(pairs))
    if len(seats) != 2 * len(pairs):
        raise ValueError("every game needs a pair of seats")
    group, first = _first_use(map(id, seats))
    distinct = [seats[i] for i in first.tolist()]
    uses = np.bincount(group)
    reuse = min(  # a learner's first reuse and its first use, as scan positions 2 * g + seat
        (np.flatnonzero(group == k)[1::-1].tolist() for k, seat in enumerate(distinct)
         if uses[k] > 1 and isinstance(seat, DirichletLearner)),
        default=None,
    )
    held, kinds = [], []
    for seat, at in zip(distinct, first.tolist()):
        if reuse and at > reuse[0]:
            break
        name = _NAMES[at % 2]
        if isinstance(seat, np.ndarray):
            held.append(_validate_model(seat, q))
            kinds.append(_FIXED)
            continue
        if isinstance(seat, DirichletLearner):
            kinds.append(_LEARNER)
        elif isinstance(seat, HeuristicModel):
            kinds.append(_SAMPLER)
        else:
            raise ValueError(
                f"{name} must be a model table, a DirichletLearner or a HeuristicModel, got {type(seat).__name__}"
            )
        if seat.q != q:
            raise ValueError(f"{name} was built for q={seat.q}, the game has q={q}")
        held.append(seat)
    if reuse:
        at, first_at = reuse
        raise ValueError(
            f"{_NAMES[at % 2]} of game {at // 2} reuses the DirichletLearner of {_NAMES[first_at % 2]} of game {first_at // 2}"
        )
    return held, kinds, group.reshape(-1, 2).T.reshape(-1)


def _play(configs, pairs, plans, rounds: int) -> np.ndarray:
    """Step every game one round at a time; return demands as ``(games, rounds, 2)``.

    The run holds its demands round-major, one ``(rounds, 2 * games)``
    array: row ``t`` holds round ``t + 1``'s demand of seat A of every game,
    then of seat B, so a seat at index ``i`` of a row meets its opponent at
    ``(i + games) % (2 * games)``.  Each round reads the row before it and
    writes its own, every kind of seat at indices fixed for the run, taken
    as a slice where they are one contiguous run; the ``(games, rounds, 2)``
    result is a transposed view of it, not a copy, so a run holds its
    demands once.  Seats are grouped by object before the first round
    (:func:`_seat_groups`), so the run checks, classifies and sets up each
    distinct seat once, whatever the number of games.

    Planners use their game's weight and the shared horizon and tie rule.
    Each planner holds the index of a run row, which :func:`_planner_rows`
    assigns the same way for fixed planners and learners under either tie
    rule; fixed planners holding one table at one weight are keyed once.  A
    row is solved once for all its planners; under random ties each planner
    then draws the row's tied columns from its own stream and plays its own
    pick where its state ties.  Fixed rows are solved in one batch before
    round 2, one rule per row, and a round gathers each fixed planner's
    demand from its row's rule.  A round samples each rule-based model once,
    from uniforms drawn up front per seat with the bits of one draw per
    round, through one :class:`RuleRows` per model for the run: equal
    models share one, on any seats.  Each seat draws only from its own
    stream, read only if it draws, so seat order and interleaving cannot
    move a draw.  The streams of all seats that draw are derived afresh from
    the run's key table in one :func:`_streams` call before the first round
    (:meth:`_KeyedPlans.seat_streams`), each with the bits its plan's
    stream has when built alone.

    Learners are copied into stacked run arrays, one row per distinct
    belief: its counts, its estimate as the solver's column stack and state
    map (:func:`solver_inputs`), and each column's count of states.  The
    stack has room for ``min((q - 1)**2, C + rounds)`` columns, C the most
    any learner starts with, 1 at the flat prior, rounded up to whole
    blocks of 8; each round's solve reads only the blocks filled so far.
    Learners sharing a row share their state as long as they play and
    observe the same demands.  Every later round solves one batch item per
    row, at its state.  Before :func:`_observe` feeds each row once, a row
    splits where its learners played different demands, which only their
    draws can cause, then where they observed different ones; rows never
    merge, and once every learner is alone in its row no split is looked
    for.  Each learner gets its row's counts back when the run ends, and
    its estimate follows from them.
    """
    config = configs[0]
    h, q, games = config.horizon, config.q, len(pairs)
    held, kinds, group = _seat_groups(q, pairs)
    kind = np.array(kinds, dtype=np.intp)[group]
    omegas = np.array([c.omega_a for c in configs] + [c.omega_b for c in configs])
    by_round = np.empty((rounds, 2 * games), dtype=np.int64)
    by_round[0] = config.initial_demand
    draws = config.tie_break == "random"  # then every planner draws its ties from its own stream
    models = {}  # each distinct rule-based model by value, numbered: equal models share one RuleRows
    model_of = np.array([models.setdefault(s, len(models)) if k == _SAMPLER else -1 for s, k in zip(held, kinds)])
    model_of = model_of[group]
    drawing = np.flatnonzero(model_of >= 0)
    drawers = np.arange(2 * games) if draws else drawing  # every seat that draws, by its index in a row
    streams = dict(zip(drawers.tolist(), plans.seat_streams(drawers)))
    samplers = []
    for model, number in models.items():  # each model's seats and their uniforms, one round per row
        seats = np.flatnonzero(model_of == number)
        uniforms = np.empty((len(seats), rounds - 1))
        for row, i in zip(uniforms, seats.tolist()):
            streams[i].random(out=row)
        samplers.append((RuleRows(model), *_row_runs(seats, games), uniforms.T.copy()))
    fixed = np.flatnonzero(kind == _FIXED)
    # one key per distinct (table, weight), so _planner_rows reads each once
    key, first = _first_use(zip(group[fixed].tolist(), omegas[fixed].tolist()))
    key_row, key_lead = _planner_rows([(omegas[fixed[i]].item(), held[group[fixed[i]]]) for i in first.tolist()])
    fixed_row = key_row[key]
    fixed_rule = fixed_row * (q - 1) ** 2 - q  # plus own * (q - 1) + opp: the state's entry of its row's rule
    if fixed.size and rounds > 1:  # a fixed model's rule holds for the run
        leads = fixed[first[key_lead]]
        rngs = [streams[i] for i in fixed.tolist()] if draws else None
        tables = solver_inputs([held[k] for k in group[leads].tolist()], omegas[leads].tolist(), q)
        rules, picks = backward_induction_batch(*tables, h, rngs=rngs, rows=fixed_row)
        rules = rules.reshape(-1)
    fixed_at, fixed_opp = _row_runs(fixed, games)
    learning = np.flatnonzero(kind == _LEARNER)
    learner_at, learner_opp = learning, (learning + games) % (2 * games)
    learners = row_of = ()
    if learning.size:
        learners = [held[k] for k in group[learning].tolist()]
        weights = omegas[learning].tolist()
        learner_streams = [streams[i] for i in learning.tolist()] if draws else None
        row_of, lead = _planner_rows([(w, learner.counts) for learner, w in zip(learners, weights)])
        # The first `rows` rows are live, one per distinct belief, led by any of its learners;
        # the rest are room for rows to split into, set by each split before it is read.
        rows, room, n = len(lead), len(learners), q - 1
        # each row's estimate as its distinct columns, with room for one new column a round
        inputs = solver_inputs((learners[i].estimate for i in lead), [weights[i] for i in lead], q, spare=rounds)
        columns, column_of, gains = (np.empty((room, *array.shape[1:]), array.dtype) for array in inputs)
        for array, lead_rows in zip((columns, column_of, gains), inputs):
            array[:rows] = lead_rows
        counts = np.empty((room, n * n, n))
        for row, i in enumerate(lead.tolist()):
            counts[row] = learners[i].counts.reshape(n * n, n)
        members = np.zeros((room, columns.shape[-1]), dtype=np.intp)  # each column's count of states
        np.add.at(members, (np.arange(rows)[:, None], column_of[:rows]), 1)
        used = int(np.count_nonzero(members, axis=1).max())  # the columns any row has filled
        row_at, row_opp = learner_at[lead], learner_opp[lead]
    for t in range(rounds):
        before, now = by_round[max(t - 1, 0)], by_round[t]  # the opening round is played at the opening pair
        if learning.size:  # each row's flat state from its side
            states = before[row_at] * (q - 1) + before[row_opp] - q
        if t:
            if fixed.size:
                now[fixed_at] = with_picks(rules[fixed_rule + before[fixed_at] * (q - 1) + before[fixed_opp]], picks)
            if learning.size:  # a row acts only at the state it plays, so only that state's demand is read
                played, learner_picks = backward_induction_batch(
                    columns[:rows, :, : _blocks(used)],
                    column_of[:rows],
                    gains[:rows],
                    h,
                    rngs=learner_streams,
                    rows=row_of,
                    states=states,
                )
                now[learner_at] = with_picks(played[row_of], learner_picks)
            for memo, at, opp_at, drawn in samplers:
                now[at] = memo.draw(before[at], before[opp_at], drawn[t - 1])
        if learning.size:
            observed = now[learner_opp]
            # row-mates can play apart only where they draw their ties
            seen = now[learner_at] * q + observed if draws else observed
            if rows < len(learners) and (seen[lead[row_of]] != seen).any():
                row_of, lead, parents = _split_rows(row_of, seen)
                rows = len(parents)
                # one at a time, so one array's copy is held at most; in place, so the stack stays contiguous
                for array in (counts, columns, gains, column_of, members):
                    array[:rows] = array[parents]
                states = states[parents]
                row_at, row_opp = learner_at[lead], learner_opp[lead]
            used = _observe(counts, columns, column_of, members, states, observed[lead], used)
    for learner, row in zip(learners, row_of):
        learner.counts[...] = counts[row].reshape(learner.counts.shape)
    return by_round.reshape(rounds, 2, games).transpose(2, 0, 1)


def _observe(counts, columns, column_of, members, states, observed, used: int) -> int:
    """Feed live row ``r`` one ``observed[r]`` at flat state ``states[r]``; return the columns in use.

    Adds the count and writes the state's row, normalized from its counts
    with the bits of :attr:`DirichletLearner.estimate`, into its column.  A
    state that shares its column first takes the row's next free one; a
    state alone in its column is rewritten in place, so a row never fills
    more than ``(q - 1)**2`` columns.
    """
    live = np.arange(len(states))
    counts[live, states, observed - 1] += 1.0
    fresh = counts[live, states]
    column = column_of[live, states]
    shared = np.flatnonzero(members[live, column] > 1)
    if len(shared):
        members[shared, column[shared]] -= 1
        column[shared] = np.count_nonzero(members[shared], axis=1)  # a row fills its columns in order
        members[shared, column[shared]] = 1
        column_of[shared, states[shared]] = column[shared]
        used = max(used, int(column[shared].max()) + 1)
    columns[live, :, column] = fresh / fresh.sum(axis=-1, keepdims=True)
    return used


def _planner_rows(planners) -> tuple[np.ndarray, np.ndarray]:
    """Each planner's run row and each row's first planner, rows numbered in order of first use.

    A planner is given as ``(omega, table)``: a fixed planner's validated
    table, or a learner's counts, of which its estimate is a function.
    Planners share a row when they hold equal weights and bit-equal tables,
    as these solve the same rule, under either tie rule.  A planner holding
    the table object of one already seen at its weight takes that row
    unread; any other has its table hashed once, in place, and a hash match
    is confirmed in full, so a collision cannot merge two rows.
    """
    seen, hashed, row_of, lead = {}, {}, [], []  # (omega, id) and (omega, hash) -> rows
    for i, (omega, table) in enumerate(planners):
        row = seen.get((omega, id(table)))
        if row is None:
            same = hashed.setdefault((omega, zlib.crc32(table)), [])
            row = next((r for r in same if np.array_equal(planners[lead[r]][1], table)), len(lead))
            if row == len(lead):
                same.append(row)
                lead.append(i)
            seen[omega, id(table)] = row
        row_of.append(row)
    return np.array(row_of, dtype=np.intp), np.array(lead, dtype=np.intp)


def _split_rows(row_of, seen) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-key rows by ``(row, seen)``: each learner's new row, a learner
    leading each new row, and the old row each new row continues."""
    # a learner of each key leads it: any of them, since they share their belief
    _, lead, renumbered = np.unique(row_of * (seen.max() + 1) + seen, return_index=True, return_inverse=True)
    return renumbered, lead, row_of[lead]


def _first_use(keys) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct hashable ``keys`` in order of first use: each key's number, and each number's first index."""
    numbers = {}
    number = np.array([numbers.setdefault(key, len(numbers)) for key in keys], dtype=np.intp)
    # a number's first index is where the running maximum reaches it
    return number, np.flatnonzero(np.diff(np.maximum.accumulate(number), prepend=-1))


def _row_runs(at, games: int) -> tuple:
    """Seats at indices ``at`` of a round's row, and their opponents', each as a slice where contiguous."""
    return _run(at), _run((at + games) % (2 * games))


def _run(index):
    """``index`` as the slice it spans when it is one ascending contiguous run, else itself."""
    if len(index) and (index == np.arange(index[0], index[0] + len(index))).all():
        return slice(int(index[0]), int(index[0]) + len(index))
    return index


def pretrain(config: GameConfig, agent_a, agent_b, n_rounds: int, rng: RngPlan | None = None):
    """Warm-up game that trains two learners in place; returns ``(agent_a, agent_b)``.

    Plays ``n_rounds`` under the usual game semantics, with the weights,
    horizon and tie rule of ``config``, between the two
    :class:`DirichletLearner` seats, on a random stream disjoint from the
    main game's (``rng`` defaults to ``RngPlan(config.seed)``).
    ``n_rounds = 0`` leaves them untouched.
    """
    if not (isinstance(agent_a, DirichletLearner) and isinstance(agent_b, DirichletLearner)):
        raise ValueError("pretraining needs a DirichletLearner on both seats")
    check_int(n_rounds, "n_rounds")
    if n_rounds:
        plan = rng if rng is not None else RngPlan(config.seed)
        _play([config], [(agent_a, agent_b)], _KeyedPlans.of([plan.pretrain_plan()]), n_rounds)
    return agent_a, agent_b


# === CSV serialization ===

ROUND_FIELDS = (
    "round",
    "demand_a",
    "demand_b",
    "compatible",
    "profit_a",
    "profit_b",
    "reward_a",
    "reward_b",
    "unclaimed",
)

SUMMARY_FIELDS = (
    "omega_a",
    "omega_b",
    "seed",
    "cum_profit_a",
    "cum_profit_b",
    "total",
    "success_rate_pct",
)


def write_round_csv(log: GameLog, path) -> None:
    """One row per round, the columns of :func:`core.round_columns`."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUND_FIELDS)
        columns = round_columns(log.config, log.demands)
        writer.writerows(zip(*(columns[name].tolist() for name in ROUND_FIELDS)))


def write_game_summary_csv(log: GameLog, path) -> None:
    """One-row headline summary; numeric columns use fixed two-decimal formatting."""
    cfg = log.config
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        profits = (log.cum_profit_a, log.cum_profit_b, log.cum_profit_a + log.cum_profit_b, log.success_rate_pct)
        writer.writerow([f"{cfg.omega_a:.2f}", f"{cfg.omega_b:.2f}", cfg.seed, *(f"{v:.2f}" for v in profits)])
