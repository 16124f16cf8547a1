"""Command-line entry point: train, evaluate, simulate.

Every command builds one checked configuration value (``TrainingConfig``,
``EvaluateConfig`` or ``SimulateConfig``) and runs from it. Before producing
any other output it writes a run manifest: the value's ``to_dict()``, which
the value's ``from_dict`` rebuilds, the package and Python versions, a
timestamp and the output paths, so a run can be replayed exactly. Defaults
reproduce the constant-epsilon training setup, so a bare ``caresim train``
is the reference experiment.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

from . import __version__
from .agent import SCHEDULES, QTable, TrainingConfig, TrainingLog, extract_policy, train
from .behavior import ASSIST_GUIDANCE, BackendError, PromptVariant, TemplateBackend
from .config import ConfigError, Document, integer, number, read_bytes, settings, write_json, write_text
from .env import DOCUMENTS, CaregivingEnv
from .evaluation import (
    EVALUATE_ROLLOUTS,
    SELECT_FINAL_ROLLOUTS,
    EvaluateConfig,
    evaluate_policy,
    export_learning_curve,
    export_report,
    random_actor,
    select_final_policy,
)
from .session import SimulateConfig, run_session
from .states import Policy


def _load_environment(args) -> dict[str, Document]:
    """The run's model, scenario and weights, each under the name of the field that holds it in a value."""
    return {name: cls.from_file(path) if (path := getattr(args, name)) else cls.default()
            for name, _, cls in DOCUMENTS}


def _add_environment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="scenario config JSON (default: shipped shopping scenario)")
    parser.add_argument("--model", help="transition model config JSON (default: shipped calibration)")
    parser.add_argument("--weights", help="reward weights config JSON (default: shipped weights)")
    parser.add_argument("--seed", type=integer, default=0)
    parser.add_argument("--out-dir", default="caresim_out", help="directory for run outputs")


def _from_args(cls, args, **required):
    """``cls(**required)`` plus the defaulted fields of ``cls`` that an option set.

    Only defaulted fields: ``args.model`` is the transition-model path, not a ``model`` field.
    """
    given = vars(args)
    return cls(**required, **{name: given[name] for name in settings(cls) if name in given})


def _reject_options(args, names, mode: str) -> None:
    """Fail on the options among ``names`` that were given, since ``mode`` does not use them."""
    given = ["--" + name.replace("_", "-") for name in names if getattr(args, name, None) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} cannot be used with {mode}")


# every option that names a file the command reads
_INPUT_OPTIONS = ("policy", "log", *(name for name, _, _ in DOCUMENTS))


def _file_id(path: str | Path) -> tuple[int, int] | None:
    """(device, inode) of the file at ``path``, through symlinks; None if nothing is there to stat."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return status.st_dev, status.st_ino


def _passes_through(path: str, manifest: Path) -> bool:
    """Whether a leading directory of ``path``, as written, is ``manifest`` by normalized absolute path.

    ``a/manifest.json/../x`` passes through ``a/manifest.json``. String operations only, nothing is
    stat'ed. Only a leading path that ends in a component with the manifest's name can normalize to
    it, so a path without that name is done at once, and only such a leading path is made absolute.
    """
    name = manifest.name
    if name not in path:
        return False
    target = os.path.abspath(manifest)
    head = os.path.dirname(path)
    while head and head != (parent := os.path.dirname(head)):
        if os.path.basename(head) == name and os.path.abspath(head) == target:
            return True
        head = parent
    return False


def _write_manifest(out_dir: Path, args, config: dict, outputs: dict[str, str]) -> None:
    """Write ``out_dir/manifest.json`` for ``args.command`` once every output path can take a file.

    ``config`` is the ``to_dict()`` of the value the command runs. An output
    path that is a directory (or ``out_dir`` or above it, by normalized
    absolute path), the manifest, or a file the command read (by device and
    inode, so a symlink or another spelling is caught) is an error, as is an
    output path or ``out_dir`` whose leading directories, as written, pass
    through the manifest (``o/manifest.json/x``). Then the directories that
    will hold the outputs are created, so no manifest is left by a run that
    could not write its outputs there, no run replaces its own input, and no
    run makes a directory of its manifest's path. The manifest text is
    ``json.dumps(manifest, indent=2)`` and a newline; ``render_json`` splices
    in each document's ``indented_json``.
    """
    manifest = out_dir / "manifest.json"
    read = {_file_id(path): f"--{option} file {path}"
            for option in _INPUT_OPTIONS if (path := getattr(args, option, None))}
    read.pop(None, None)
    for name, path in {"--out-dir": str(out_dir), **outputs}.items():
        if _passes_through(path, manifest):
            raise ConfigError(f"{name} path {path} passes through the run's manifest")
    out = os.path.join(os.path.abspath(out_dir), "")  # a trailing separator, so a prefix matches whole components
    for name, path in outputs.items():
        if Path(path).is_dir() or out.startswith(os.path.join(os.path.abspath(path), "")):
            raise ConfigError(f"{name} path {path} is a directory")
        # only a path named manifest.json or a symlink can resolve to it; resolving costs ~50 us
        if ((Path(path).name == manifest.name or Path(path).is_symlink())
                and Path(path).resolve() == manifest.resolve()):
            raise ConfigError(f"{name} path {path} is the run's manifest")
    for name, path in {**outputs, "manifest": str(manifest)}.items():
        file_id = _file_id(path)
        if file_id in read:
            raise ConfigError(f"{name} path {path} is the {read[file_id]}")
    for parent in dict.fromkeys([out_dir, *(Path(path).parent for path in outputs.values())]):
        parent.mkdir(parents=True, exist_ok=True)
    write_json(manifest, {
        "command": args.command,
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "outputs": outputs,
    })


def cmd_train(args) -> int:
    for name, cls in SCHEDULES.items():
        if name != args.schedule:
            _reject_options(args, settings(cls), f"--schedule {args.schedule}")
    config = _from_args(TrainingConfig, args, **_load_environment(args),
                        schedule=_from_args(SCHEDULES[args.schedule], args))

    out_dir = Path(args.out_dir)
    outputs = {name: str(out_dir / f"{name}.csv")
               for name in ("qtable", "policy", "training_log", "learning_curve")}
    _write_manifest(out_dir, args, config.to_dict(), outputs)

    q, log = train(config)
    policy = extract_policy(q)
    q.to_file(outputs["qtable"])
    policy.to_file(outputs["policy"])
    log.to_file(outputs["training_log"])
    export_learning_curve(outputs["learning_curve"], log, config.schedule.label)

    # exit 0 only if everything written round-trips
    QTable.from_file(outputs["qtable"])
    Policy.from_file(outputs["policy"])
    TrainingLog.from_file(outputs["training_log"])

    snapshot = log.epochs[-1].mean_return
    if snapshot is not None:
        print(f"last snapshot: mean return {snapshot:.3f}")
    print(f"greedy policy {policy.policy_id} written to {outputs['policy']}")
    print(f"artifacts written to {out_dir}; " + (
        f"evaluate --select-final --log {outputs['training_log']} gives the run's result" if log.final_policies
        else f"{outputs['training_log']} has no final-window policy records to select from"))
    return 0


def cmd_evaluate(args) -> int:
    modes = sum(map(bool, (args.policy, args.baseline, args.select_final)))
    if modes != 1 or bool(args.log) != args.select_final:
        raise ConfigError("give exactly one of --policy FILE, --baseline random "
                          "or --select-final --log FILE")
    rollouts = SELECT_FINAL_ROLLOUTS if args.select_final else EVALUATE_ROLLOUTS
    evaluate_config = partial(EvaluateConfig, **_load_environment(args), seed=args.seed,
                              rollouts=rollouts if args.rollouts is None else args.rollouts)
    out_dir = Path(args.out_dir)
    outputs = {"report": str(out_dir / "evaluation_report.json")}

    if args.select_final:
        # the digest is of the very bytes parsed: edited in place, the log no longer matches it
        data = read_bytes(args.log, "training log")
        log = TrainingLog.from_file(args.log, data)
        if not log.final_policies:
            raise ConfigError(f"training log {args.log} has no final-window policy records")
        config = evaluate_config(mode="select-final", log=args.log, log_sha256=hashlib.sha256(data).hexdigest())
        outputs["final_policy"] = str(out_dir / "final_policy.csv")
    elif args.baseline == "random":
        actor, config = random_actor, evaluate_config(mode="baseline-random")
    else:
        actor = Policy.from_file(args.policy)
        config = evaluate_config(mode="policy", policy=args.policy, policy_id=actor.policy_id)
    _write_manifest(out_dir, args, config.to_dict(), outputs)

    env = CaregivingEnv(config.model, config.scenario, config.weights)
    if args.select_final:
        best, reports = select_final_policy(log, env, rollouts=config.rollouts, base_seed=config.seed)
        for report in reports:
            print(report.summary())
        print(f"selected final policy: {best.policy_id}")
        best.to_file(outputs["final_policy"])
    else:
        reports = [evaluate_policy(actor, env, config.rollouts, config.seed)]
        print(reports[0].summary())
    export_report(outputs["report"], reports)
    return 0


def cmd_simulate(args) -> int:
    environment = _load_environment(args)
    policy = Policy.from_file(args.policy)
    http = None
    if args.backend == "http":
        if not args.base_url or not args.llm_model:
            raise ConfigError("--backend http requires --base-url and --llm-model")
        # the HTTP stack (http.client, ssl) loads only for this backend
        from .llm import HttpBackend, HttpBackendConfig

        http = _from_args(HttpBackendConfig, args, base_url=args.base_url, model=args.llm_model)
    else:
        _reject_options(args, ("base_url", "llm_model", "temperature", "timeout_ms", "max_retries"),
                        "--backend template")
    config = _from_args(SimulateConfig, args, **environment, policy=args.policy, policy_id=policy.policy_id,
                        variant=_from_args(PromptVariant, args), http=http)
    env = CaregivingEnv(config.model, config.scenario, config.weights)
    backend = HttpBackend(http) if http is not None else TemplateBackend()

    out_dir = Path(args.out_dir)
    transcript_path = Path(args.transcript) if args.transcript else out_dir / "transcript.txt"
    try:
        _write_manifest(out_dir, args, config.to_dict(), {"transcript": str(transcript_path)})
        result = run_session(policy, env, backend, seed=config.seed, noise=config.noise,
                             use_perceived=config.use_perceived, variant=config.variant)
    finally:
        if http is not None:
            backend.close()
    write_text(transcript_path, result.transcript)
    print(f"episode return {result.total_return:g} over {result.timesteps} timesteps")
    print(f"transcript written to {transcript_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it exits 1 like every other bad input."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``caresim`` parser, built on first use and shared by every later call in the process.

    ``parse_args`` leaves a parser as it found it, so ``main`` can reuse one;
    a caller must not add to it.
    """
    parser = _Parser(
        prog="caresim",
        description="Simulated dementia-caregiving interactions with a learning caregiver agent",
    )
    parser.add_argument("--version", action="version", version=f"caresim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the caregiver agent")
    _add_environment_flags(p_train)
    p_train.add_argument("--schedule", choices=SCHEDULES, default="constant")
    # a setting left out is absent from args, so its config field keeps the dataclass default
    add_setting = partial(p_train.add_argument, default=argparse.SUPPRESS)
    add_setting("--epsilon", type=number, help="constant exploration rate")
    add_setting("--eps-min", type=number)
    add_setting("--eps-max", type=number)
    add_setting("--decay-rate", type=number,
                help="decay rate (default: ln(1.25)/300, about 7.438e-4, which gives epsilon 0.8 "
                     "at epoch 300 from eps_max 1)")
    add_setting("--alpha", type=number)
    add_setting("--gamma", type=number)
    add_setting("--epochs", type=integer)
    add_setting("--episodes", type=integer, dest="episodes_per_epoch", metavar="EPISODES")
    add_setting("--snapshot-episode", type=integer)
    add_setting("--snapshot-rollouts", type=integer,
                help="rollouts per epoch snapshot evaluation (0 disables)")
    add_setting("--final-window", type=integer, dest="final_policy_window", metavar="FINAL_WINDOW")
    add_setting("--perception-noise", type=number,
                help="train on noisily observed states instead of true states")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a policy or baseline")
    _add_environment_flags(p_eval)
    p_eval.add_argument("--policy", help="policy file to evaluate")
    p_eval.add_argument("--baseline", choices=("random",), help="evaluate a baseline actor instead")
    p_eval.add_argument("--rollouts", type=integer, default=None,
                        help=f"rollout count (default {EVALUATE_ROLLOUTS}; "
                             f"{SELECT_FINAL_ROLLOUTS} for --select-final)")
    p_eval.add_argument("--select-final", action="store_true",
                        help="select the best late-training policy from a training log")
    p_eval.add_argument("--log", help="training log for --select-final")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="run one full interaction episode with transcript")
    _add_environment_flags(p_sim)
    p_sim.add_argument("--policy", required=True)
    p_sim.add_argument("--backend", choices=("template", "http"), default="template")
    p_sim.add_argument("--noise", type=number, default=0.0, help="perception bit-flip probability")
    p_sim.add_argument("--use-perceived", action="store_true",
                       help="route decisions through the perceived state")
    add_setting = partial(p_sim.add_argument, default=argparse.SUPPRESS)
    add_setting("--guidance", choices=ASSIST_GUIDANCE)
    add_setting("--include-state", action="store_true",
                help="include the true state in assistance prompts")
    p_sim.add_argument("--transcript", help="transcript path (default: OUT_DIR/transcript.txt)")
    p_sim.add_argument("--base-url", help="chat-completions endpoint base URL (http backend)")
    p_sim.add_argument("--llm-model", help="model name for the http backend")
    add_setting("--temperature", type=number)
    add_setting("--timeout-ms", type=integer)
    add_setting("--max-retries", type=integer)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
