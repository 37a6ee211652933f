"""Operator entry point: run benchmarks, evaluate logs, print error
breakdowns, and build training datasets.

The options read through ``_setting`` resolve with the precedence flag >
environment variable > config file > built-in default; the others are
flags only. Exit codes are stable: 0 success, 2 configuration error, 3
transport-level abort.
"""

from __future__ import annotations

import argparse
import collections
import copy
import io
import os
import sys
from importlib import resources
from pathlib import Path

from .augment import AugmentConfig, build_datasets, identity_rewriter
from .core import (
    ConfigError,
    HomebenchError,
    SchemaError,
    _refuse_unknown_keys,
    load_tasks,
    parse_trajectory_log,
    read_json,
    serialize_trajectory,
    write_json,
    write_output,
)
from .loop import run_benchmark
from .metrics import (
    build_report,
    error_breakdown,
    render_action_table,
    render_attribute_table,
    render_error_table,
    render_summary_table,
    score_runs,
)
from .planners import (
    ConsolePlanner,
    RemotePlanner,
    RemotePlannerConfig,
    RemoteRewriter,
    Transcribed,
    load_scripted_plan,
)
from .sim import load_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3

# the longest file name common file systems hold, in bytes
MAX_FILE_NAME_BYTES = 255

ENV_PREFIX = "HOMEBENCH_"

#: the keys of a config file: one per option that has one, and the remote profiles
CONFIG_KEYS = ("tasks", "scenes", "logs", "output", "planner", "runs_per_task", "budget",
               "retries", "seed", "jobs", "profiles")


def _bundled(subdir: str) -> Path:
    return Path(str(resources.files("homebench").joinpath(f"data/{subdir}")))


def _setting(flag_value, env_key: str, config: dict, config_key: str, default, cast=str):
    """The option's flag, else its environment variable (converted by
    ``cast``, ``str`` or ``int``), else its config value, which must already
    be of that type: a JSON string, or a JSON integer that is no boolean."""
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(ENV_PREFIX + env_key)
    if env_value is not None:
        try:
            return cast(env_value)
        except ValueError:
            raise ConfigError(f"bad value for {ENV_PREFIX + env_key}: {env_value!r}") from None
    if config_key in config:
        value = config[config_key]
        if type(value) is not cast:  # a bool is an int subclass, and no count
            raise ConfigError(f"bad value for config key {config_key!r}: {value!r}")
        return value
    return default


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = read_json(path.read_bytes(), "config file", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    _refuse_unknown_keys(doc, CONFIG_KEYS, "config file", ConfigError)
    return doc


def _require_dir(path, what: str) -> Path:
    path = Path(path)
    if not path.is_dir():
        raise ConfigError(f"{what} directory not found: {path}")
    return path


def _tasks_dir(args, config: dict) -> Path:
    return _require_dir(
        _setting(args.tasks, "TASKS", config, "tasks", _bundled("tasks")), "tasks")


def _scenes_dir(args, config: dict) -> Path:
    return _require_dir(
        _setting(args.scenes, "SCENES", config, "scenes", _bundled("scenes")), "scenes")


def _logs_dir(args, config: dict) -> Path:
    return _require_dir(
        _setting(args.logs, "LOGS", config, "logs", None) or _fail_opt("--logs"), "logs")


def _load_task_map(tasks_dir: Path) -> dict:
    overlay = None
    overlay_path = tasks_dir / "keypaths.json"
    if overlay_path.exists():
        overlay = read_json(overlay_path.read_bytes(), f"key path file {overlay_path}",
                            ConfigError)
        if not isinstance(overlay, dict):
            raise ConfigError(f"key path file {overlay_path} must hold a JSON object")
    paths = sorted(p for p in tasks_dir.glob("*.json") if p.name != "keypaths.json")
    if not paths:
        raise ConfigError(f"no task files in {tasks_dir}")
    try:
        tasks = load_tasks(paths, overlay)
    except SchemaError as exc:
        raise ConfigError(f"bad task file in {tasks_dir}: {exc}") from exc
    for task_id in overlay or ():
        if task_id not in tasks:
            raise ConfigError(f"key path file {overlay_path} names task {task_id!r}, "
                              f"which has no task file")
    return tasks


def _load_scenes(scenes_dir: Path, tasks: dict) -> dict:
    """Parse every scene file in a directory once into a template Scene,
    keyed by file stem, and require the scene of every task."""
    scenes = {}
    for path in sorted(scenes_dir.glob("*.json")):
        doc = read_json(path.read_bytes(), f"scene file {path}", ConfigError)
        try:
            scenes[path.stem] = load_scene(doc)
        except SchemaError as exc:
            raise ConfigError(f"scene {path.stem!r}: {exc}") from exc
    if not scenes:
        raise ConfigError(f"no scene files in {scenes_dir}")
    for task in tasks.values():
        if task.scene_ref not in scenes:
            raise ConfigError(f"task {task.id!r} needs scene {task.scene_ref!r}, "
                              f"not found in {scenes_dir}")
    return scenes


# each remote profile field, in the order checked: its type, and its default
# (None: required)
_PROFILE_FIELDS = (
    ("timeout", float, 30.0), ("max_retries", int, 2), ("temperature", float, 0.0),
    ("endpoint", str, None), ("model", str, "default"), ("template", str, "default"),
    ("api_key_env", str, "HOMEBENCH_API_KEY"),
)
# the JSON values each of those types takes
_JSON_VALUES = {float: (int, float), int: (int,), str: (str,)}


def _remote_config(profile: str, config: dict) -> RemotePlannerConfig:
    profiles = config.get("profiles", {})
    if not isinstance(profiles, dict):
        raise ConfigError("config key 'profiles' must hold a JSON object")
    if profile not in profiles:
        raise ConfigError(f"remote profile {profile!r} not found in config file")
    spec = profiles[profile]
    if not isinstance(spec, dict):
        raise ConfigError(f"remote profile {profile!r} must be a JSON object")
    values = {}
    for key, cast, default in _PROFILE_FIELDS:
        if default is None and key not in spec:
            raise ConfigError(f"remote profile {profile!r} is missing {key!r}")
        value = spec.get(key, default)
        if type(value) in _JSON_VALUES[cast]:  # a bool is no number
            try:
                values[key] = cast(value)
                continue
            except OverflowError:  # an integer too large for a float
                pass
        raise ConfigError(f"remote profile {profile!r}: bad value for {key!r}: {value!r}")
    return RemotePlannerConfig(**values)


def _planner_factory(spec: str, config: dict, tasks: dict):
    """Turn a planner spec (scripted:PATH | console | remote:PROFILE) into a
    per-episode planner factory. A scripted plan is read and parsed once per
    file, before any episode; each episode replays it from the start."""
    if spec == "console":
        return lambda task, run_index: ConsolePlanner()
    kind, _, arg = spec.partition(":")
    if kind == "scripted":
        base = Path(arg) if arg else _bundled("plans")
        if not base.exists():
            raise ConfigError(f"scripted plan path not found: {base}")
        paths = {task_id: base / f"{task_id}.json" if base.is_dir() else base
                 for task_id in tasks}
        plans = {}  # path -> a parsed plan that is never queried, only copied
        for task_id, path in paths.items():
            if not path.is_file():
                raise ConfigError(f"no scripted plan for task {task_id!r} in {base}")
            if path not in plans:
                try:
                    plans[path] = load_scripted_plan(path.read_bytes())
                except SchemaError as exc:
                    raise ConfigError(f"{exc} (scripted plan {path})") from exc
        return lambda task, run_index: copy.copy(plans[paths[task.id]])
    if kind == "remote":
        remote = _remote_config(arg, config)
        return lambda task, run_index: RemotePlanner(remote)
    raise ConfigError(f"unknown planner spec {spec!r}")


def _parse_logs(logs_dir: Path):
    """Parse every log file in a directory; malformed or unreadable ones (a
    directory named ``*.json``, a file without read permission) are reported
    and excluded rather than aborting the batch. An entry that is neither a
    file nor a directory (a FIFO, a device, a socket) is excluded without
    being opened, since opening it can block. report.json (evaluate's
    default output) is not a log. Returns the trajectories, the corrupt
    logs as (name, reason) and the names of the trajectories' logs. The logs
    share one memo of parsed steps, which lives as long as this call: each
    distinct step is parsed once."""
    trajectories = []
    corrupt = []
    names = []
    memo = {}
    # one directory, so the names are unique and sorting compares only them
    with os.scandir(logs_dir) as entries:
        found = sorted((entry.name, entry.path, entry.is_file() or entry.is_dir())
                       for entry in entries if entry.name.endswith(".json"))
    for name, path, openable in found:
        if name == "report.json":
            continue
        if not openable:
            corrupt.append((name, "not a regular file"))
            continue
        try:
            with open(path, "rb") as handle:
                trajectories.append(parse_trajectory_log(handle.read(), memo))
            names.append(name)
        except (HomebenchError, OSError) as exc:
            corrupt.append((name, str(exc)))
    return trajectories, corrupt, names


def _refuse_inside_logs(option: str, path: str, logs_dir: Path,
                        allowed: str | None = None) -> None:
    """Every command reads the ``*.json`` files in the logs directory as
    logs, skipping only ``report.json``. Refuse an output path inside it
    (other than ``logs_dir/allowed``), which later commands would read back
    as a corrupt log."""
    target = Path(path).resolve()
    logs = logs_dir.resolve()
    if target.is_relative_to(logs) and not (allowed and target == logs / allowed):
        raise ConfigError(f"{option} {path} is inside the logs directory {logs_dir}, "
                          "where later commands would read it as a log")


def _refuse_json_dir(option: str, path, json_dir, tasks_dir: Path,
                     scenes_dir: Path | None = None) -> None:
    """Commands read every ``*.json`` file directly in the tasks directory
    as a task, and ``run`` and ``augment`` every one in the scenes directory
    as a scene. Refuse the output ``path`` when ``json_dir``, where it puts
    a ``*.json`` file, is one of them."""
    json_dir = Path(json_dir).resolve()
    for what, directory in (("task", tasks_dir), ("scene", scenes_dir)):
        if directory is not None and json_dir == directory.resolve():
            raise ConfigError(f"{option} {path} would put a .json file in the {what}s "
                              f"directory {directory}, where later commands would "
                              f"read it as a {what}")


def _load_corpus(logs_dir: Path, tasks_dir: Path):
    """Load the task map and parse the logs, warning about the corrupt ones
    and, one line each, about the tasks of the map that no log runs and the
    logged tasks with fewer runs than the most runs of any. Two logs of one
    (task id, run index) pair are a ConfigError naming both. Returns (tasks,
    trajectories, corrupt, coverage) for the log-reading commands:
    ``coverage`` holds ``missing_tasks`` (sorted task ids) and
    ``fewer_runs`` (task id -> runs, in id order) where either is non-empty,
    so a full corpus has none."""
    tasks = _load_task_map(tasks_dir)
    trajectories, corrupt, names = _parse_logs(logs_dir)
    logged = {}  # (task id, run index) -> the name of its log
    for name, trajectory in zip(names, trajectories):
        pair = (trajectory.task_id, trajectory.run_index)
        if pair in logged:
            raise ConfigError(f"logs {logged[pair]} and {name} both hold run {pair[1]} "
                              f"of task {pair[0]!r}")
        logged[pair] = name
    if corrupt:
        print(f"warning: excluded {len(corrupt)} corrupt log(s):")
        for name, reason in corrupt:
            print(f"  {name}: {reason}")
    runs = collections.Counter(t.task_id for t in trajectories)
    coverage = {}
    missing = sorted(set(tasks).difference(runs))
    if missing:
        print(f"warning: {len(missing)} task(s) have no log and are not scored: "
              + ", ".join(missing))
        coverage["missing_tasks"] = missing
    most = max(runs.values(), default=0)
    fewer = {task_id: n for task_id, n in sorted(runs.items()) if n < most}
    if fewer:
        print(f"warning: {len(fewer)} task(s) have fewer runs than the others: "
              + ", ".join(f"{task_id} ({n})" for task_id, n in fewer.items()))
        coverage["fewer_runs"] = fewer
    return tasks, trajectories, corrupt, coverage


def _load_lexicon(path: Path) -> list:
    if not path.exists():
        raise ConfigError(f"lexicon file not found: {path}")
    lexicon = read_json(path.read_bytes(), f"lexicon file {path}", ConfigError)
    if (not isinstance(lexicon, list) or not lexicon
            or not all(isinstance(entry, str) for entry in lexicon)):
        raise ConfigError(f"lexicon file {path} must hold a non-empty JSON list of strings")
    return lexicon


# ---------------------------------------------------------------------------
# commands


def cmd_run(args, config: dict) -> int:
    tasks_dir = _tasks_dir(args, config)
    scenes_dir = _scenes_dir(args, config)
    out_dir = Path(_setting(args.out, "OUT", config, "output", "runs"))
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"--out {out_dir} exists and is not a directory")
    _refuse_json_dir("--out", out_dir, out_dir, tasks_dir, scenes_dir)
    if args.transcripts:
        _refuse_json_dir("--out", out_dir, out_dir / "transcripts", tasks_dir, scenes_dir)
    planner_spec = _setting(args.planner, "PLANNER", config, "planner", "scripted:")
    runs = _setting(args.runs, "RUNS", config, "runs_per_task", 3, int)
    budget = _setting(args.budget, "BUDGET", config, "budget", 20, int)
    retries = _setting(args.retries, "RETRIES", config, "retries", 3, int)
    if not 1 <= retries <= 3:
        raise ConfigError("--retries must be between 1 and 3 (attempts per step)")
    seed = _setting(args.seed, "SEED", config, "seed", None, int)
    jobs = _setting(args.jobs, "JOBS", config, "jobs", 1, int)
    for name, value in (("--runs", runs), ("--budget", budget), ("--jobs", jobs)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")

    tasks = _load_task_map(tasks_dir)
    for task_id in sorted(tasks):  # the longest log name, checked before any episode
        size = len(f"{task_id}__run{runs - 1}.json".encode("utf-8"))
        if size > MAX_FILE_NAME_BYTES:
            raise ConfigError(f"task {task_id!r} is too long for a log file name: "
                              f"'<id>__run{runs - 1}.json' is {size} UTF-8 bytes, "
                              f"over {MAX_FILE_NAME_BYTES}")
    scenes = _load_scenes(scenes_dir, tasks)
    factory = _planner_factory(planner_spec, config, tasks)

    task_list = [tasks[task_id] for task_id in sorted(tasks)]
    # only a remote planner waits on I/O: other planners hold the GIL, so
    # worker threads would only contend for it, and their episodes play one
    # at a time on this thread at any --jobs
    workers = jobs if planner_spec.partition(":")[0] == "remote" else 1

    transcripts = {}  # (task id, run index) -> its episode's transcript
    if args.transcripts:
        inner = factory

        def factory(task, run_index):
            planner = Transcribed(inner(task, run_index))
            transcripts[task.id, run_index] = planner.transcript
            return planner

    def progress(t):
        if t.cut_off is not None:
            detail = f"transport error: {t.cut_off}"
        else:
            detail = (f"{len(t.steps)} steps, "
                      f"terminated by {'end' if t.terminated_by_end else 'budget'}")
        print(f"  {t.task_id} run {t.run_index}: {detail}")

    trajectories = run_benchmark(
        task_list, factory, scenes,
        runs_per_task=runs, budget=budget, retries=retries,
        seed=seed, jobs=workers, progress=progress,
    )

    finished = [t for t in trajectories if t.finished]
    if finished:  # a run with no log to write leaves no directory behind
        (out_dir / "transcripts" if args.transcripts else out_dir).mkdir(
            parents=True, exist_ok=True)
    for t in finished:
        name = f"{t.task_id}__run{t.run_index}.json"
        write_output(out_dir / name, (serialize_trajectory(t),))
        if args.transcripts:
            write_json(out_dir / "transcripts" / name, transcripts[t.task_id, t.run_index])
    failed = len(trajectories) - len(finished)
    print((f"wrote {len(finished)} trajectory log(s) to {out_dir}" if finished
           else "wrote no trajectory logs")
          + (f"; {failed} episode(s) failed transport" if failed else ""))
    return EXIT_TRANSPORT if trajectories and not finished else EXIT_OK


def cmd_evaluate(args, config: dict) -> int:
    logs_dir, tasks_dir = _logs_dir(args, config), _tasks_dir(args, config)
    if args.out:
        _refuse_inside_logs("--out", args.out, logs_dir, allowed="report.json")
        if Path(args.out).name.endswith(".json"):
            _refuse_json_dir("--out", args.out, Path(args.out).parent, tasks_dir)
    tasks, trajectories, corrupt, coverage = _load_corpus(logs_dir, tasks_dir)
    if not trajectories:
        print("warning: no parseable logs found; report contains zeros")

    report = build_report(trajectories, tasks, plwsr_literal=args.plwsr_literal)
    print(render_summary_table(report))
    print()
    print("Per-attribute SR")
    print(render_attribute_table(report))
    print()
    print(f"({report['runs']} run(s) over {report['tasks']} task(s); "
          f"{len(corrupt)} log(s) excluded)")

    out_path = Path(args.out) if args.out else logs_dir / "report.json"
    if args.plwsr_literal:  # a default report keeps its bytes
        report["plwsr_literal"] = True
    report["excluded_logs"] = len(corrupt)
    if coverage:  # a full corpus keeps its bytes
        report["coverage"] = coverage
    write_json(out_path, report)
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_report_errors(args, config: dict) -> int:
    logs_dir, tasks_dir = _logs_dir(args, config), _tasks_dir(args, config)
    if args.plot_data:
        _refuse_inside_logs("--plot-data", args.plot_data, logs_dir)
        if Path(args.plot_data).name.endswith(".json"):
            _refuse_json_dir("--plot-data", args.plot_data, Path(args.plot_data).parent,
                             tasks_dir)
    tasks, trajectories, _, _ = _load_corpus(logs_dir, tasks_dir)

    error_stats, per_action = error_breakdown(score_runs(trajectories, tasks))
    print(render_error_table(error_stats["successful"],
                             "Successful trajectories error statistics"))
    print()
    print(render_error_table(error_stats["failed"],
                             "Failed trajectories error statistics"))
    print()
    print("Per-action execution statistics")
    print(render_action_table(per_action))

    if args.plot_data:
        write_json(args.plot_data, error_stats)
        print(f"plot data written to {args.plot_data}")
    return EXIT_OK


def cmd_augment(args, config: dict) -> int:
    if args.rewrites < 0:
        raise ConfigError(f"--rewrites must be at least 0, got {args.rewrites}")
    if args.train_split is not None and not 0 <= args.train_split <= 1:
        raise ConfigError(f"--train-split must be between 0 and 1, got {args.train_split}")
    logs_dir, tasks_dir = _logs_dir(args, config), _tasks_dir(args, config)
    scenes_dir = _scenes_dir(args, config)
    out_dir = Path(_setting(args.out, "OUT", config, "output", "datasets"))
    _refuse_inside_logs("--out", str(out_dir), logs_dir)
    _refuse_json_dir("--out", out_dir, out_dir, tasks_dir, scenes_dir)
    tasks, trajectories, _, _ = _load_corpus(logs_dir, tasks_dir)
    seed = _setting(args.seed, "SEED", config, "seed", 0, int)
    if not trajectories:
        raise ConfigError(f"no parseable logs in {logs_dir}")

    scenes = _load_scenes(scenes_dir, tasks)

    rewriter = identity_rewriter
    if args.rewriter and args.rewriter != "identity":
        kind, _, arg = args.rewriter.partition(":")
        if kind != "remote":
            raise ConfigError(f"unknown rewriter spec {args.rewriter!r}")
        rewriter = RemoteRewriter(_remote_config(arg, config))

    lexicon = _load_lexicon(Path(args.lexicon)) if args.lexicon else None

    manifest = build_datasets(trajectories, tasks, AugmentConfig(
        out_dir=out_dir,
        seed=seed,
        rewrites=args.rewrites,
        rewriter=rewriter,
        lexicon=lexicon,
        dedup=not args.no_dedup,
        scenes=scenes,
        train_split=args.train_split,
    ))

    print(f"sft samples: {manifest['sft']['total']} "
          f"(base {manifest['sft']['base']}, rewrites x{manifest['rewrites']}, "
          f"{manifest['rewrite_failures']} rewrite failure(s))")
    dpo = manifest["dpo"]
    print("dpo pairs: "
          + ", ".join(f"{k}={v}" for k, v in dpo["post_dedup"].items())
          + f" (pre-dedup total {dpo['pre_dedup']['total']})")
    print(f"end-as-chosen violations: {dpo['end_as_chosen_violations']}")
    print(f"datasets written to {out_dir}")
    return EXIT_OK


def _fail_opt(name: str):
    raise ConfigError(f"missing required option {name}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homebench",
        description="Household agent benchmark: run episodes, score logs, "
                    "and build training datasets.",
    )
    parser.add_argument("--config", help="JSON config file (flags > env > config)")
    parser.add_argument("--seed", type=int, help="global deterministic seed")
    parser.add_argument("--jobs", type=int,
                        help="parallel episodes for run with a remote: planner; "
                             "other planners play one episode at a time")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute tasks against a planner")
    p_run.add_argument("--tasks", help="task directory (default: bundled samples)")
    p_run.add_argument("--scenes", help="scene directory (default: bundled samples)")
    p_run.add_argument("--planner",
                       help="scripted:PATH | console | remote:PROFILE "
                            "(default: bundled scripted plans)")
    p_run.add_argument("--runs", type=int, help="runs per task (default 3)")
    p_run.add_argument("--budget", type=int, help="step budget per run (default 20)")
    p_run.add_argument("--retries", type=int, help="max executor attempts per step (default 3)")
    p_run.add_argument("--out", help="output directory for trajectory logs")
    p_run.add_argument("--transcripts", action="store_true",
                       help="also write instruction/response transcripts")

    p_eval = sub.add_parser("evaluate", help="score trajectory logs")
    p_eval.add_argument("--logs", help="directory of trajectory logs")
    p_eval.add_argument("--tasks", help="task directory (default: bundled samples)")
    p_eval.add_argument("--out", help="structured report path (default: LOGS/report.json)")
    p_eval.add_argument("--plwsr-literal", action="store_true",
                        help="use actual path length in the PLWSR numerator")

    p_err = sub.add_parser("report-errors", help="print error breakdown tables")
    p_err.add_argument("--logs", help="directory of trajectory logs")
    p_err.add_argument("--tasks", help="task directory (default: bundled samples)")
    p_err.add_argument("--plot-data", help="write plot-ready JSON here")

    p_aug = sub.add_parser("augment", help="build SFT/DPO datasets from logs")
    p_aug.add_argument("--logs", help="directory of trajectory logs")
    p_aug.add_argument("--tasks", help="task directory (default: bundled samples)")
    p_aug.add_argument("--scenes", help="scene directory for observation replay")
    p_aug.add_argument("--out", help="output directory for dataset files")
    p_aug.add_argument("--rewrites", type=int, default=0,
                       help="rewritten variants per sample (default 0)")
    p_aug.add_argument("--rewriter", default="identity",
                       help="identity | remote:PROFILE")
    p_aug.add_argument("--no-dedup", action="store_true",
                       help="keep duplicate preference pairs")
    p_aug.add_argument("--train-split", type=float,
                       help="task-id train fraction (e.g. 0.9) for split files")
    p_aug.add_argument("--lexicon", help="JSON list of corrupt action strings")
    return parser


COMMANDS = {
    "run": cmd_run,
    "evaluate": cmd_evaluate,
    "report-errors": cmd_report_errors,
    "augment": cmd_augment,
}


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # a path of undecodable bytes prints escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
        config = _load_config_file(config_path)
        return COMMANDS[args.command](args, config)
    except (HomebenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
