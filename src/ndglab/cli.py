"""Command-line front end: single games, benchmark sweeps, warm-up training,
and built-in self-checks.

Exit codes: 0 on success, 1 when a validation check fails, 2 on any
configuration problem (bad flag, bad config file, refused overwrite).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import TIE_BREAKS, GameConfig, Role, refuse_overwrite, round_columns
from .engine import pretrain, run_game, write_game_summary_csv, write_round_csv
from .experiments import (
    WARMUP_ROUNDS,
    AgentSpec,
    benchmark_spec,
    build_agent,
    output_paths,
    run_test,
    summary_rows,
)
from .opponent import (
    DirichletLearner,
    HeuristicModel,
    heuristic_table,
    load_learner,
    save_learner,
    uniform_table,
)
from .planner import backward_induction, brute_force_value

__all__ = ["CliConfig", "load_config", "main"]

# argparse's gettext imports locale each time a parser is built: load it with
# this module, so that no command pays that import inside main.
__import__("locale")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

GAME_KEYS = tuple(f.name for f in fields(GameConfig))

AGENT_CHOICES = ("mdp-uniform", "mdp-heuristic", "mdp-learning", "heuristic")


class ConfigError(ValueError):
    pass


@dataclass
class CliConfig:
    """Effective settings after merging defaults, config file, and flags."""

    q: int = GameConfig.q
    rounds: int = GameConfig.rounds
    horizon: int = GameConfig.horizon
    initial_demand: int = GameConfig.initial_demand
    omega_a: float = GameConfig.omega_a
    omega_b: float = GameConfig.omega_b
    seed: int = GameConfig.seed
    tie_break: str = GameConfig.tie_break
    replications: int = 30
    out: str | None = None

    def game_config(self) -> GameConfig:
        return GameConfig(**{k: getattr(self, k) for k in GAME_KEYS})


_KEY_TYPES = {f.name: str if f.default is None else type(f.default) for f in fields(CliConfig)}


def _convert(key: str, value):
    """A config value as its key's type; null, booleans and lossy numbers are refused."""
    converted = _KEY_TYPES[key](value)
    if value is None or isinstance(value, bool) or (isinstance(value, float) and converted != value):
        raise ValueError(f"{key} cannot hold {value!r}")
    return converted


def load_config(path) -> CliConfig:
    """Parse a flat ``key = value`` file or a JSON object into a CliConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if text.lstrip().startswith("{"):
        import json  # only a JSON config needs it, so `import ndglab.cli` does not load it

        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"top level of {path} must be an object")
        items = raw.items()
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            items.append((key, value))
    config = CliConfig()
    for key, value in items:
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        try:
            setattr(config, key, _convert(key, value))
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"bad value for {key!r} in {path}: {value!r}") from exc
    return config


def _parse_grid(text: str) -> tuple[float, ...]:
    """Either a point count ("11" spans [0, 1] evenly) or a comma list ("0,0.5,1")."""
    text = text.strip()
    if "," not in text and text.isdigit():
        count = int(text)
        if count < 1:
            raise ConfigError(f"grid point count must be positive, got {count}")
        return tuple(i / max(count - 1, 1) for i in range(count))  # one point is 0.0
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"grid values must lie in [0, 1], got {v}")
    return values


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser, with arguments only for the subcommand ``argv`` names: its
    first token that is not an option, as the top level takes none but ``-h``."""
    parser = argparse.ArgumentParser(
        prog="ndglab", description="Repeated demand-splitting game laboratory."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, help_text in (
        ("run", "play one game and write its round log"),
        ("test", "run one built-in benchmark scenario"),
        ("sweep", "run a scenario's agent pairing over a custom grid"),
        ("pretrain", "warm-up game; writes both learner states"),
        ("validate", "run the built-in oracle checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != chosen:
            continue
        p.add_argument("--config", help="config file (key = value lines, or JSON)")
        p.add_argument("--q", type=int, help="amount split each round")
        p.add_argument("--rounds", type=int, help="rounds per game")
        p.add_argument("--horizon", type=int, help="planner lookahead depth")
        p.add_argument("--initial-demand", type=int, help="forced opening demand")
        p.add_argument("--omega-a", type=float, help="player A reward weight")
        p.add_argument("--omega-b", type=float, help="player B reward weight")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--tie-break", choices=TIE_BREAKS, help="planner tie handling")
        p.add_argument("--out", help="output directory")
        p.add_argument("--force", action="store_true", help="allow overwriting output files")
        if name == "run":
            p.add_argument("--agent-a", choices=AGENT_CHOICES, default="mdp-uniform")
            p.add_argument("--agent-b", choices=AGENT_CHOICES, default="mdp-uniform")
            p.add_argument("--sigma-a", type=float, help="spread for a heuristic agent/model on the A seat")
            p.add_argument("--sigma-b", type=float, help="spread for a heuristic agent/model on the B seat")
            p.add_argument("--prior-a", help="learner state file seeding an mdp-learning A agent")
            p.add_argument("--prior-b", help="learner state file seeding an mdp-learning B agent")
        elif name in ("test", "sweep"):
            p.add_argument("--id", type=int, required=True, help="scenario number, 1..5")
            p.add_argument("--replications", type=int, help="replications per grid cell")
            p.add_argument("--grid", required=name == "sweep", help="omega grid: point count or comma list")
        elif name == "pretrain":
            p.add_argument("--pretrain-rounds", type=int, default=WARMUP_ROUNDS)
    return parser


def _merge_config(args: argparse.Namespace) -> CliConfig:
    config = load_config(args.config) if getattr(args, "config", None) else CliConfig()
    for key in (*GAME_KEYS, "out", "replications"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    try:
        config.game_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.replications < 1:
        raise ConfigError(f"replications must be at least 1, got {config.replications}")
    return config


def _out_dir(config: CliConfig, default: str) -> Path:
    """The output directory; commands create it only right before their first write."""
    return Path(config.out) if config.out else Path(default)


def _cmd_run(args, config: CliConfig) -> int:
    game_config = config.game_config()
    out = _out_dir(config, "out/run")
    rounds_path = out / "game_rounds.csv"
    summary_path = out / "game_summary.csv"
    refuse_overwrite((rounds_path, summary_path), args.force)

    seats = (
        (Role.A, AgentSpec(args.agent_a, args.sigma_a), args.prior_a),
        (Role.B, AgentSpec(args.agent_b, args.sigma_b), args.prior_b),
    )
    for seat, spec, prior_path in seats:  # checked before any agent is built
        if prior_path and spec.kind != "mdp-learning":
            raise ConfigError(f"--prior-{seat.value.lower()} needs an mdp-learning agent")
    # the loaded learner is the seat's only prior
    agents = [load_learner(path, seat) if path else build_agent(spec, game_config.q) for seat, spec, path in seats]

    log = run_game(game_config, *agents)
    out.mkdir(parents=True, exist_ok=True)
    write_round_csv(log, rounds_path)
    write_game_summary_csv(log, summary_path)
    print(f"wrote {rounds_path} and {summary_path}")
    print(
        f"profits: A={log.cum_profit_a} B={log.cum_profit_b} "
        f"total={log.cum_profit_a + log.cum_profit_b} "
        f"success={log.success_rate_pct:.2f}%"
    )
    return EXIT_OK


def _cmd_test(args, config: CliConfig) -> int:
    grid = _parse_grid(args.grid) if getattr(args, "grid", None) else None
    spec = benchmark_spec(
        args.id,
        replications=config.replications,
        base=config.game_config(),
        grid=grid,
    )
    default_dir = f"out/test{args.id}" if args.command == "test" else "out/sweep"
    out = _out_dir(config, default_dir)
    result = run_test(spec, out_dir=out, force=args.force)
    print(f"scenario {spec.test_id}: {len(result.cells)} cells x {spec.replications} replication(s)")
    for row in summary_rows(result):
        print(",".join(row))
    cells_path, summary_path = output_paths(spec, out)
    print(f"wrote {cells_path} and {summary_path}")
    return EXIT_OK


def _cmd_pretrain(args, config: CliConfig) -> int:
    game_config = config.game_config()
    out = _out_dir(config, "out/pretrain")
    path_a = out / "learner_a.txt"
    path_b = out / "learner_b.txt"
    refuse_overwrite((path_a, path_b), args.force)
    learner_a, learner_b = (DirichletLearner.uniform(game_config.q) for _ in range(2))
    pretrain(game_config, learner_a, learner_b, args.pretrain_rounds)
    out.mkdir(parents=True, exist_ok=True)
    save_learner(learner_a, path_a, Role.A)
    save_learner(learner_b, path_b, Role.B)
    print(f"wrote {path_a} and {path_b} after {args.pretrain_rounds} warm-up rounds")
    return EXIT_OK


def _validate_checks() -> list[tuple[str, bool, str]]:
    checks = []
    rng = np.random.default_rng(20240901)

    # Lookahead solver against the plain exhaustive recursion on small instances.
    worst = 0.0
    for q in (3, 4):
        n = q - 1
        for h in (1, 2):
            for omega in (0.0, 0.5, 1.0):
                for _ in range(3):
                    model = rng.dirichlet(np.ones(n), size=(n, n))
                    values, _ = backward_induction(model, omega, h, q)
                    own = int(rng.integers(1, q))
                    opp = int(rng.integers(1, q))
                    expect = brute_force_value(model, omega, h, q, (own, opp))
                    worst = max(worst, abs(values[h, own - 1, opp - 1] - expect))
    checks.append(
        ("lookahead value matches exhaustive recursion", worst < 1e-9, f"max |diff| {worst:.2e}")
    )

    # Every model family yields normalized, non-negative rows everywhere.
    q = 10
    tables = [uniform_table(q)]
    for sigma in (0.5, 1.0, 3.0):
        tables.append(heuristic_table(HeuristicModel(sigma=sigma, q=q)))
    tables.append(DirichletLearner(rng.uniform(0.1, 5.0, size=(q - 1,) * 3), q).estimate)
    norm_err = max(float(np.abs(t.sum(axis=-1) - 1.0).max()) for t in tables)
    non_negative = all(float(t.min()) >= 0.0 for t in tables)
    checks.append(
        ("model rows normalized and non-negative", norm_err < 1e-12 and non_negative,
         f"max |sum - 1| {norm_err:.2e}")
    )

    # Payout bookkeeping conserves q on a random sample of rounds.
    ok = True
    for _ in range(1000):
        q = int(rng.integers(3, 13))
        config = GameConfig(
            q=q, initial_demand=1, omega_a=rng.uniform(), omega_b=rng.uniform()
        )
        a = int(rng.integers(1, q))
        b = int(rng.integers(1, q))
        rec = {name: column.item() for name, column in round_columns(config, [[a, b]]).items()}
        if rec["compatible"]:
            ok = ok and rec["profit_a"] + rec["profit_b"] + rec["unclaimed"] == q
            ok = ok and abs(rec["reward_a"] - (a - config.omega_a * (q - b))) < 1e-12
        else:
            ok = ok and (rec["profit_a"], rec["profit_b"], rec["unclaimed"]) == (0, 0, q)
            ok = ok and abs(rec["reward_a"] + config.omega_a * abs(q - a - b)) < 1e-12
    checks.append(("payout bookkeeping conserves the full amount", ok, "1000 random rounds"))
    return checks


def _cmd_validate(args, config: CliConfig) -> int:
    checks = _validate_checks()
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name} ({detail})")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VALIDATION


_COMMANDS = dict(run=_cmd_run, test=_cmd_test, sweep=_cmd_test, pretrain=_cmd_pretrain, validate=_cmd_validate)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](args, config)  # the parser accepts only these
    except (ValueError, FileExistsError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
