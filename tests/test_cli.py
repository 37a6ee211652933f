import argparse
import contextlib
import functools
import io
import json
import operator
import os
import shutil
import sys
import tempfile
import threading
from http.server import HTTPServer, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homebench import loop, metrics
from homebench.cli import EXIT_CONFIG, EXIT_OK, EXIT_TRANSPORT, _parse_logs, build_parser, main
from homebench.core import ErrorCode, parse_trajectory_log, serialize_trajectory

from chat_stub import PlanStub, serving
from conftest import examples, make_task, node, task_document, traj
from test_planners import StubHandler, completion


def write_logs(path: Path, trajectories):
    path.mkdir(parents=True, exist_ok=True)
    for t in trajectories:
        (path / f"{t.task_id}__run{t.run_index}.json").write_text(
            serialize_trajectory(t), encoding="utf-8")


def write_tasks(path: Path, tasks):
    path.mkdir(parents=True, exist_ok=True)
    for task in tasks:
        (path / f"{task.id}.json").write_text(json.dumps(task_document(task)), encoding="utf-8")


@pytest.fixture
def remote_config(tmp_path):
    """``remote_config(handler, server_class, **profile)`` serves ``handler``
    on a localhost chat server until the test ends, and returns the path of
    a config file whose profile ``stub`` points at it."""
    with contextlib.ExitStack() as servers:
        def start(handler, server_class=HTTPServer, **profile):
            endpoint = servers.enter_context(serving(handler, server_class))
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"profiles": {"stub": dict(endpoint=endpoint, **profile)}}),
                            encoding="utf-8")
            return str(path)
        yield start


# ---------------------------------------------------------------------------
# run


def test_run_bundled_cardinality(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["--seed", "3", "run", "--runs", "3", "--out", str(out)]) == EXIT_OK
    logs = list(out.glob("*__run*.json"))
    assert len(logs) == 36  # 12 bundled tasks x 3 runs


def test_run_progress_lines_in_order_for_any_jobs(tmp_path, capsys):
    out = tmp_path / "runs"
    stdout = {}
    for jobs in ("1", "4"):
        assert main(["--seed", "7", "--jobs", jobs, "run", "--runs", "3",
                     "--out", str(out)]) == EXIT_OK
        stdout[jobs] = capsys.readouterr().out
    assert stdout["4"] == stdout["1"]
    assert len(stdout["1"].splitlines()) == 36 + 1  # one line per episode, then the summary


def test_run_missing_scenes_dir(tmp_path):
    code = main(["run", "--scenes", str(tmp_path / "nowhere"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_run_bad_scene_named_before_any_episode(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for path in Path(str(resources.files("homebench").joinpath("data/scenes"))).glob("*.json"):
        (scenes / path.name).write_bytes(path.read_bytes())
    doc = json.loads((scenes / "kitchen_home.json").read_text(encoding="utf-8"))
    doc["entities"][0]["kind"] = "blob"
    (scenes / "kitchen_home.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "runs"
    code = main(["run", "--scenes", str(scenes), "--runs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert ("error: scene 'kitchen_home': entities[0].kind: unknown kind 'blob'"
            in captured.err.splitlines())
    assert "Traceback" not in captured.err
    assert " run 0:" not in captured.out  # no episode started
    assert not out.exists()  # refused runs leave no output directory behind


def _run_with_task_id(tmp_path, task_id, runs):
    """``run`` on two tasks, "short" and ``task_id``, with one bundled plan."""
    tasks = tmp_path / "tasks"
    write_tasks(tasks, [make_task(task_id="short"), make_task(task_id=task_id)])
    plan = resources.files("homebench").joinpath("data/plans/fruit_in_bowl.json")
    out = tmp_path / "runs"
    code = main(["run", "--tasks", str(tasks), "--planner", f"scripted:{plan}",
                 "--runs", str(runs), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("task_id, runs, size", [
    ("x" * 245, 1, 256),  # x..x__run0.json
    ("x" * 244, 11, 256),  # x..x__run10.json: the last run's number has two digits
    ("\u00e9" * 123, 1, 257),  # 123 characters, 246 bytes of UTF-8
], ids=["ascii", "two-digit-run", "utf-8-bytes"])
def test_run_refuses_a_task_id_too_long_for_a_log_name(tmp_path, capsys, task_id, runs, size):
    code, out = _run_with_task_id(tmp_path, task_id, runs)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert (f"error: task {task_id!r} is too long for a log file name: "
            f"'<id>__run{runs - 1}.json' is {size} UTF-8 bytes, over 255"
            in captured.err.splitlines())
    assert "Traceback" not in captured.err
    assert " run 0:" not in captured.out  # no episode started
    assert not out.exists()  # not even the logs of the task sorted first


def test_run_writes_a_log_name_of_255_bytes(tmp_path, capsys):
    code, out = _run_with_task_id(tmp_path, "x" * 244, 10)
    assert code == EXIT_OK
    assert (out / ("x" * 244 + "__run9.json")).is_file()
    assert len(list(out.glob("*__run*.json"))) == 20


def _set(path, value):
    """Edit a scene or task document: set the field at ``path`` (keys and indices)."""
    def edit(doc):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    return edit


def _both(*edits):
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


@pytest.mark.parametrize("command", ["run", "augment"])
@pytest.mark.parametrize("edit, message", [
    (_set(["failure_rates"], {"e1_manipulation": "abc"}),
     "failure_rates.e1_manipulation: expected a number in [0, 1], got 'abc'"),
    (_set(["failure_rates"], {"e1_manipulation": 7}),
     "failure_rates.e1_manipulation: expected a number in [0, 1], got 7"),
    (_set(["failure_rates"], {"e2_place": -1}),
     "failure_rates.e2_place: expected a number in [0, 1], got -1"),
    (_set(["failure_rates"], [1]), "failure_rates: expected a JSON object"),
    (_set(["seed"], "x"), "seed: expected an integer, got 'x'"),
    (_set(["outcome_schedule"], {"pick apple": 3}),
     "outcome_schedule['pick apple']: expected a list of outcomes"),
    (_set(["spots"], 5), "spots: expected a JSON list"),
    (_set(["spots", 0, "directions"], {"front": 3}),
     "spots[0].directions.front: expected a list of spots"),
    (_set(["bands"], ["a"]), "bands: expected a JSON object"),
    (_set(["entities", 0, "interactive"], "no"),
     "entities[0].interactive: expected a JSON boolean"),
    (_set(["spots", 0, "interactive"], "false"),
     "spots[0].interactive: expected a JSON boolean"),
    (_set(["entities", 0, "name"], {"x": 1}), "entities[0].name: expected a JSON string"),
    (_set(["entities", 0, "location"], 3), "entities[0].location: expected a JSON string"),
    (_set(["spots", 0, "directions", "front", 0], 1),
     "spots[0].directions.front[0]: expected a JSON string"),
    (_set(["agent_start"], None), "agent_start: expected a JSON string"),
    (_set(["outcome_schedule"], {"pick unicorn": ["ok"]}),
     "outcome_schedule: key 'pick unicorn': unknown entity 'unicorn'"),
    (_set(["outcome_schedule"], {"open apple": ["E1"]}),
     "outcome_schedule: key 'open apple': Open never acts on 'apple' (kind object)"),
    (_both(_set(["entities", 0, "interactive"], False),
           _set(["outcome_schedule"], {"open fridge": ["E1"]})),
     "outcome_schedule: key 'open fridge': Open never acts on 'fridge' (not interactive)"),
], ids=["rate-text", "rate-above-one", "rate-negative", "rates-list", "seed-text",
        "schedule-entry-number", "spots-number", "direction-number", "bands-list",
        "interactive-text", "spot-interactive-text", "name-object", "location-number",
        "direction-entry-number", "agent-start-null", "schedule-unknown-entity",
        "schedule-dead-kind", "schedule-not-interactive"])
def test_bad_scene_field_is_named(tmp_path, capsys, command, edit, message):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for path in Path(str(resources.files("homebench").joinpath("data/scenes"))).glob("*.json"):
        (scenes / path.name).write_bytes(path.read_bytes())
    doc = json.loads((scenes / "kitchen_home.json").read_text(encoding="utf-8"))
    edit(doc)
    (scenes / "kitchen_home.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--runs", "1"]
    else:
        argv = ["augment"] + _corpus(tmp_path)  # the corpus's task plays in kitchen_home
    code = main(argv + ["--scenes", str(scenes), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"error: scene 'kitchen_home': {message}" in err.splitlines()
    assert "Traceback" not in err
    assert not out.exists()


def _bundled_copy(tmp_path, subdir):
    copy = tmp_path / subdir
    copy.mkdir()
    for path in Path(str(resources.files("homebench").joinpath(f"data/{subdir}"))).glob("*"):
        (copy / path.name).write_bytes(path.read_bytes())
    return copy


@pytest.mark.parametrize("command", ["run", "augment"])
def test_unreferenced_bad_scene_is_named(tmp_path, capsys, command):
    # every scene file is validated, not only those a task plays in
    scenes = _bundled_copy(tmp_path, "scenes")
    (scenes / "spare.json").write_text(json.dumps({"id": "spare", "spots": 5}),
                                       encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--runs", "1"] if command == "run" else ["augment"] + _corpus(tmp_path)
    code = main(argv + ["--scenes", str(scenes), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "error: scene 'spare': spots: expected a JSON list" in captured.err.splitlines()
    assert "Traceback" not in captured.err
    assert " run 0:" not in captured.out
    assert not out.exists()


def test_augment_refuses_missing_scene_before_any_output(tmp_path, capsys):
    scenes = _bundled_copy(tmp_path, "scenes")
    (scenes / "kitchen_home.json").unlink()  # the corpus's task plays there
    out = tmp_path / "out"
    code = main(["augment"] + _corpus(tmp_path) + ["--scenes", str(scenes), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"error: task 't1' needs scene 'kitchen_home', not found in {scenes}" \
        in err.splitlines()
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["missing", "not-json"])
def test_run_refuses_bad_plan_before_any_episode(tmp_path, capsys, damage):
    plans = _bundled_copy(tmp_path, "plans")
    plan = plans / "towel_to_laundry.json"
    if damage == "missing":
        plan.unlink()
    else:
        plan.write_text("{not json", encoding="utf-8")
    out = tmp_path / "runs"
    code = main(["run", "--planner", f"scripted:{plans}", "--runs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error: ")
    assert "towel_to_laundry" in captured.err
    assert "Traceback" not in captured.err
    assert " run 0:" not in captured.out  # no episode started
    assert not out.exists()


@pytest.mark.parametrize("path, value, where", [
    (["id"], 3, "task.id"),
    (["instruction"], ["a", "b"], "task 't1'.instruction"),
    (["scene"], 5, "task 't1'.scene"),
    (["keypaths", 0, 0, "target"], 7, "task 't1'.keypaths[0][0].target"),
], ids=["id", "instruction", "scene", "keypath-target"])
def test_run_bad_task_field_type_is_named(tmp_path, capsys, path, value, where):
    # a JSON value of another type is refused, not coerced to its str()
    tasks = tmp_path / "tasks"
    tasks.mkdir()
    doc = task_document(make_task(task_id="t1"))
    _set(path, value)(doc)
    (tasks / "t1.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "runs"
    code = main(["run", "--tasks", str(tasks), "--runs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert (f"error: bad task file in {tasks}: {where}: expected a JSON string"
            in err.splitlines())
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, env, message", [
    (["--tasks", "{tmp}/empty"], {}, "no task files in {tmp}/empty"),
    (["--scenes", "{tmp}/empty"], {}, "no scene files in {tmp}/empty"),
    (["--tasks", "{tmp}/tasks"], {}, "bad task file in {tmp}/tasks: duplicate task id 't1'"),
    (["--planner", "scripted:{tmp}/nowhere"], {},
     "scripted plan path not found: {tmp}/nowhere"),
    ([], {"HOMEBENCH_RUNS": "three"}, "bad value for HOMEBENCH_RUNS: 'three'"),
], ids=["no-task-files", "no-scene-files", "duplicate-task-id", "missing-plan-path",
        "runs-env-text"])
def test_run_bad_input_is_named(tmp_path, capsys, monkeypatch, argv, env, message):
    (tmp_path / "empty").mkdir()
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    (tmp_path / "tasks" / "t2.json").write_text(
        json.dumps(task_document(make_task(task_id="t1"))), encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    code = main(["run"] + [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"
    assert captured.out == ""  # no episode started
    assert not out.exists()


def test_run_budget_flag_caps_steps(tmp_path):
    out = tmp_path / "runs"
    assert main(["run", "--runs", "1", "--budget", "5", "--out", str(out)]) == EXIT_OK
    for path in out.glob("*.json"):
        trajectory = parse_trajectory_log(path.read_bytes())
        assert len(trajectory.steps) <= 5


def test_run_unknown_planner_spec(tmp_path):
    assert main(["run", "--planner", "psychic", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["run", "--runs", "0"],
    ["run", "--runs", "-1"],
    ["run", "--budget", "0"],
    ["--jobs", "0", "run"],
    ["--jobs", "-3", "run"],
])
def test_run_refuses_counts_below_one(tmp_path, capsys, argv):
    out = tmp_path / "runs"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be at least 1" in err
    assert not out.exists()  # no log written


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_empty_logs_dir(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    assert main(["evaluate", "--logs", str(logs)]) == EXIT_OK
    output = capsys.readouterr().out
    assert "warning" in output
    report = json.loads((logs / "report.json").read_text())
    assert report["sr"] == 0.0
    assert report["runs"] == 0


def test_evaluate_tp_appendix_style_scenario(tmp_path, capsys):
    # one run whose best keypath ratio is exactly 1/2 -> TP column 50.00
    task = make_task(task_id="halfway", keypaths=(
        (node("Open", "drawer"), node("Pick", "can"), node("Place", "drawer")),
        (node("Open", "drawer"), node("Pick", "can"), node("Place", "drawer"),
         node("Close", "drawer")),
        (node("Open", "drawer"), node("Pick", "apple")),
        (node("Open", "drawer"), node("Place", "sofa"), node("Pick", "can"),
         node("Place", "drawer"), node("Close", "drawer")),
    ), expert_length=6)
    trajectory = traj([
        ("Open", "drawer", True),
        ("Pick", "can", False, ErrorCode.E1),
        ("Place", "sofa", True),
    ], task_id="halfway", budget=True)
    write_tasks(tmp_path / "tasks", [task])
    write_logs(tmp_path / "logs", [trajectory])
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    output = capsys.readouterr().out
    assert "50.00" in output
    report = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert report["tp"] == 50.0
    assert report["per_task"]["halfway"]["tp"] == 50.0


def test_evaluate_missing_task_is_config_error(tmp_path):
    write_tasks(tmp_path / "tasks", [make_task(task_id="known")])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="unknown")])
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_CONFIG


def test_evaluate_excludes_corrupt_logs(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    (tmp_path / "logs" / "broken.json").write_text("{not json", encoding="utf-8")
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    output = capsys.readouterr().out
    assert "excluded 1 corrupt" in output


def test_evaluate_excludes_log_with_non_string_field(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    doc = json.loads(serialize_trajectory(traj([("Pick", "apple", True)], task_id="t1")))
    doc["steps"][0]["target"] = 7  # would otherwise score as a valid "Pick 7"
    (tmp_path / "logs" / "typed.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    output = capsys.readouterr().out
    assert "excluded 1 corrupt log(s):" in output
    assert "  typed.json: steps[0].target: expected a JSON string" in output.splitlines()
    report = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert (report["runs"], report["excluded_logs"]) == (1, 1)


def test_evaluate_excludes_log_whose_termination_disagrees_with_its_steps(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    for name, budget, terminated_by in (("no_end.json", True, "end"),
                                        ("ends_in_end.json", False, "budget")):
        doc = json.loads(serialize_trajectory(
            traj([("Pick", "apple", True)], task_id="t1", run_index=1, budget=budget)))
        doc["terminated_by"] = terminated_by
        (tmp_path / "logs" / name).write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "warning: excluded 2 corrupt log(s):" in lines
    assert "  no_end.json: terminated_by_end requires a final End step" in lines
    assert "  ends_in_end.json: a trajectory containing End terminates by end" in lines
    report = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert (report["runs"], report["excluded_logs"]) == (1, 2)


def test_evaluate_separate_dirs_comparable(tmp_path, capsys):
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))
    write_tasks(tmp_path / "tasks", [task])
    good = traj([("Pick", "apple", True)], task_id="t1")
    bad = traj([("Pick", "banana", True)], task_id="t1", budget=True)
    write_logs(tmp_path / "winner", [good])
    write_logs(tmp_path / "loser", [bad])
    for directory in ("winner", "loser"):
        assert main(["evaluate", "--logs", str(tmp_path / directory),
                     "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    winner = json.loads((tmp_path / "winner" / "report.json").read_text())
    loser = json.loads((tmp_path / "loser" / "report.json").read_text())
    assert winner["sr"] == 100.0 and loser["sr"] == 0.0


# ---------------------------------------------------------------------------
# report-errors


def test_report_errors_single_d1(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs",
               [traj([("Pick", "apple", False, ErrorCode.D1)], task_id="t1", budget=True)])
    assert main(["report-errors", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    output = capsys.readouterr().out
    assert "Failed trajectories error statistics" in output
    assert "100.00" in output


def test_report_errors_no_failures_zero_tables(tmp_path, capsys):
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))
    write_tasks(tmp_path / "tasks", [task])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    assert main(["report-errors", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    assert "0.00" in capsys.readouterr().out


def test_report_errors_plot_data(tmp_path):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs",
               [traj([("Pick", "apple", False, ErrorCode.D1)], task_id="t1", budget=True)])
    plot = tmp_path / "plot.json"
    assert main(["report-errors", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"), "--plot-data", str(plot)]) == EXIT_OK
    doc = json.loads(plot.read_text())
    assert doc["failed"]["percent"]["D1"] == 100.0


def test_report_errors_plot_data_is_the_reports_error_stats(bundled_logs, tmp_path, capsys):
    report = tmp_path / "report.json"
    plot = tmp_path / "plot.json"
    assert main(["evaluate", "--logs", str(bundled_logs), "--out", str(report)]) == EXIT_OK
    assert main(["report-errors", "--logs", str(bundled_logs),
                 "--plot-data", str(plot)]) == EXIT_OK
    error_stats = json.loads(report.read_text(encoding="utf-8"))["error_stats"]
    assert error_stats["failed"]["failed_steps"] + error_stats["successful"]["failed_steps"] > 0
    assert plot.read_text(encoding="utf-8") == (
        json.dumps(error_stats, indent=2, ensure_ascii=False) + "\n")


def test_report_errors_computes_no_task_table_or_rates(bundled_logs, capsys, monkeypatch):
    argv = ["report-errors", "--logs", str(bundled_logs)]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("report-errors prints no per-task table, SER or SRR")

    monkeypatch.setattr(metrics, "_task_table", refuse)
    monkeypatch.setattr(metrics, "_ser_srr", refuse)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    with pytest.raises(AssertionError):  # the patches are live: evaluate needs both
        main(["evaluate", "--logs", str(bundled_logs), "--out", os.devnull])


def _copy_logs(source: Path, target: Path, keep) -> None:
    target.mkdir()
    for name in keep:
        shutil.copyfile(source / name, target / name)


def _bundled_log_names(logs: Path) -> list:
    return sorted(path.name for path in logs.glob("*__run*.json"))


def _missing_line(missing) -> str:
    return (f"warning: {len(missing)} task(s) have no log and are not scored: "
            + ", ".join(missing))


def test_log_readers_name_the_tasks_with_no_log(bundled_logs, tmp_path, capsys):
    # one log of twelve tasks: SR 100 over 1 task, and the 11 others named
    logs = tmp_path / "logs"
    _copy_logs(bundled_logs, logs, ["brush_out__run0.json"])
    missing = sorted(n.split("__run")[0] for n in _bundled_log_names(bundled_logs)
                     if n != "brush_out__run0.json")
    assert len(missing) == 11
    for argv in (["evaluate", "--logs", str(logs)],
                 ["report-errors", "--logs", str(logs)],
                 ["augment", "--logs", str(logs), "--out", str(tmp_path / "ds")]):
        assert main(argv) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("warning:")]
        assert lines == [_missing_line(missing)], argv  # the bench counts "warning: excluded "
    report = json.loads((logs / "report.json").read_text(encoding="utf-8"))
    assert (report["sr"], report["tasks"]) == (100.0, 1)
    assert report["coverage"] == {"missing_tasks": missing}
    assert list(report)[-2:] == ["excluded_logs", "coverage"]


def test_full_corpus_report_has_no_coverage_key(bundled_logs, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--logs", str(bundled_logs), "--out", str(out)]) == EXIT_OK
    assert "warning" not in capsys.readouterr().out
    assert "coverage" not in json.loads(out.read_text(encoding="utf-8"))


@settings(max_examples=examples(30), deadline=None)
@given(data=st.data())
def test_coverage_lists_exactly_the_tasks_left_with_no_log(bundled_logs, data):
    names = _bundled_log_names(bundled_logs)
    deleted = data.draw(st.sets(st.sampled_from(names)))
    kept = [name for name in names if name not in deleted]
    missing = sorted({n.split("__run")[0] for n in names}
                     - {n.split("__run")[0] for n in kept})
    with tempfile.TemporaryDirectory() as temp:
        logs = Path(temp) / "logs"
        _copy_logs(bundled_logs, logs, kept)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["evaluate", "--logs", str(logs)]) == EXIT_OK
        report = json.loads((logs / "report.json").read_text(encoding="utf-8"))
    assert report.get("coverage") == ({"missing_tasks": missing} if missing else None)
    assert (_missing_line(missing) in stdout.getvalue().splitlines()) == bool(missing)
    assert report["tasks"] + len(missing) == len(names)


def _scored_logs(tmp_path):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    return ["--logs", str(tmp_path / "logs"), "--tasks", str(tmp_path / "tasks")]


@pytest.mark.parametrize("command, option, name", [
    ("evaluate", "--out", "r2.json"),
    ("evaluate", "--out", "sub/report.json"),
    ("report-errors", "--plot-data", "plot.json"),
    ("report-errors", "--plot-data", "report.json"),
    ("augment", "--out", ""),
    ("augment", "--out", "datasets"),
])
def test_output_inside_logs_is_refused(tmp_path, capsys, command, option, name):
    """A file written into the logs directory would read back as a corrupt
    log, so the path is refused before anything is written."""
    corpus = _scored_logs(tmp_path)
    (tmp_path / "logs" / "sub").mkdir()
    before = sorted(p.relative_to(tmp_path) for p in (tmp_path / "logs").rglob("*"))
    target = tmp_path / "logs" / name
    assert main([command, *corpus, option, str(target)]) == EXIT_CONFIG
    assert f"error: {option} {target} is inside the logs directory" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path) for p in (tmp_path / "logs").rglob("*")) == before


def test_report_json_in_logs_stays_allowed(tmp_path, capsys):
    corpus = _scored_logs(tmp_path)
    logs = tmp_path / "logs"
    assert main(["evaluate", *corpus]) == EXIT_OK
    default = (logs / "report.json").read_bytes()
    assert main(["evaluate", *corpus, "--out", str(logs / "report.json")]) == EXIT_OK
    assert (logs / "report.json").read_bytes() == default
    # a report or plot file beside the logs directory is not inside it
    assert main(["evaluate", *corpus, "--out", str(tmp_path / "logs.json")]) == EXIT_OK
    assert main(["report-errors", *corpus, "--plot-data", str(tmp_path / "plot.json")]) == EXIT_OK
    assert main(["evaluate", *corpus]) == EXIT_OK
    assert "warning: excluded" not in capsys.readouterr().out
    assert json.loads((logs / "report.json").read_text())["excluded_logs"] == 0


# ---------------------------------------------------------------------------
# augment


def augment_fixture(tmp_path):
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))
    write_tasks(tmp_path / "tasks", [task])
    trajectories = [
        traj([("Pick", "apple", True), ("Go to", "sofa", True)], task_id="t1"),
        traj([("Pick", "apple", True), ("Go to", "sofa", True)], task_id="t1",
             run_index=1),
    ]
    write_logs(tmp_path / "logs", trajectories)
    return trajectories


def test_augment_rewrites_count(tmp_path, capsys):
    augment_fixture(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"),
                 "--out", str(out), "--rewrites", "3"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    successes = 6  # 2 trajectories x (2 steps + End)
    assert manifest["sft"]["base"] == successes
    assert manifest["sft"]["total"] == successes * 4


def test_augment_no_dedup_flag(tmp_path):
    augment_fixture(tmp_path)
    deduped = tmp_path / "dedup"
    raw = tmp_path / "raw"
    assert main(["--seed", "5", "augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"), "--out", str(deduped)]) == EXIT_OK
    assert main(["--seed", "5", "augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"), "--out", str(raw),
                 "--no-dedup"]) == EXIT_OK
    with_dedup = json.loads((deduped / "manifest.json").read_text())
    without = json.loads((raw / "manifest.json").read_text())
    # the two runs are identical trajectories apart from run_index, so the
    # prompts differ only via history... identical content collapses
    assert without["dpo"]["post_dedup"] == without["dpo"]["pre_dedup"]
    assert with_dedup["dpo"]["post_dedup"]["total"] <= without["dpo"]["post_dedup"]["total"]


@pytest.mark.parametrize("lexicon", ["[\"grab\",", "[1, 2]", "{\"x\": 1}"])
def test_augment_bad_lexicon_is_config_error(tmp_path, capsys, lexicon):
    augment_fixture(tmp_path)
    path = tmp_path / "lexicon.json"
    path.write_text(lexicon, encoding="utf-8")
    code = main(["augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"),
                 "--out", str(tmp_path / "ds"), "--lexicon", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert any(line.startswith("error: lexicon file") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--scenes", "nowhere"], "scenes directory not found"),
    (["--rewrites", "-1"], "--rewrites must be at least 0"),
    (["--train-split", "1.5"], "--train-split must be between 0 and 1"),
    (["--train-split", "-0.1"], "--train-split must be between 0 and 1"),
    (["--train-split", "nan"], "--train-split must be between 0 and 1"),
    (["--lexicon", "nowhere"], "lexicon file not found: "),
    (["--rewriter", "psychic"], "unknown rewriter spec 'psychic'"),
], ids=["missing-scenes", "negative-rewrites", "split-above-one", "negative-split",
        "nan-split", "missing-lexicon", "unknown-rewriter"])
def test_augment_refuses_bad_options(tmp_path, capsys, argv, message):
    augment_fixture(tmp_path)
    out = tmp_path / "ds"
    argv = [str(tmp_path / arg) if arg == "nowhere" else arg for arg in argv]
    code = main(["augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"), "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()  # refused before any output is written


def test_augment_replays_non_object_moves_as_no_ops(tmp_path, capsys):
    # picking the fridge and placing it in itself would close a containment
    # cycle that the Go to below walks; replay moves only objects
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))
    write_tasks(tmp_path / "tasks", [task])
    write_logs(tmp_path / "logs", [traj([
        ("Pick", "fridge", True), ("Place", "fridge", True), ("Go to", "apple", True),
    ], task_id="t1")])
    assert main(["augment", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"),
                 "--out", str(tmp_path / "ds")]) == EXIT_OK
    assert "error" not in capsys.readouterr().err


def test_augment_empty_logs_config_error(tmp_path):
    (tmp_path / "logs").mkdir()
    assert main(["augment", "--logs", str(tmp_path / "logs"),
                 "--out", str(tmp_path / "ds")]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# option precedence


def test_env_var_fallback_and_flag_precedence(tmp_path, monkeypatch):
    logs = tmp_path / "logs"
    logs.mkdir()
    monkeypatch.setenv("HOMEBENCH_LOGS", str(logs))
    assert main(["evaluate"]) == EXIT_OK  # logs dir from the environment
    other = tmp_path / "other"
    other.mkdir()
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(other, [traj([("Pick", "apple", True)], task_id="t1")])
    assert main(["evaluate", "--logs", str(other),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    report = json.loads((other / "report.json").read_text())
    assert report["runs"] == 1  # flag beat the env var


def test_config_file_supplies_defaults(tmp_path, monkeypatch):
    logs = tmp_path / "logs"
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    write_logs(logs, [traj([("Pick", "apple", True)], task_id="t1")])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "logs": str(logs), "tasks": str(tmp_path / "tasks"),
    }), encoding="utf-8")
    assert main(["--config", str(config), "evaluate"]) == EXIT_OK


def test_config_file_missing(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "evaluate"]) == EXIT_CONFIG


def test_config_file_bad_value_names_the_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runs_per_task": "x"}), encoding="utf-8")
    code = main(["--config", str(config), "run", "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "error: bad value for config key 'runs_per_task': 'x'" in err.splitlines()
    assert "Traceback" not in err


def test_config_file_infinite_count_names_the_key(tmp_path, capsys):
    # JSON as Python reads it allows Infinity, which no int() can hold
    config = tmp_path / "config.json"
    config.write_text('{"budget": Infinity}', encoding="utf-8")
    code = main(["--config", str(config), "run", "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: bad value for config key 'budget': inf\n"


@pytest.mark.parametrize("command, key, value", [
    ("run", "output", True), ("run", "runs_per_task", True), ("run", "budget", 2.9),
    ("run", "seed", False), ("run", "jobs", "2"), ("run", "retries", None),
    ("run", "planner", 5), ("run", "tasks", ["tasks"]), ("run", "scenes", 1),
    ("evaluate", "logs", 0), ("augment", "seed", False), ("augment", "output", True),
])
def test_config_value_of_wrong_json_type_is_named(tmp_path, capsys, monkeypatch,
                                                 command, key, value):
    # a path or planner key holds a JSON string, a count or seed a JSON
    # integer that is no boolean; nothing converts the others
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    (tmp_path / "logs").mkdir()
    argv = [] if command == "run" or key == "logs" else ["--logs", str(tmp_path / "logs")]
    if key != "output":
        argv += ["--out", str(work / "out")]
    code = main(["--config", str(config), command] + argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == f"error: bad value for config key {key!r}: {value!r}\n"
    assert not any(work.iterdir())  # no ./True, no out directory


def test_run_transcripts_flag(tmp_path):
    out = tmp_path / "runs"
    assert main(["run", "--runs", "1", "--out", str(out), "--transcripts"]) == EXIT_OK
    transcripts = list((out / "transcripts").glob("*.json"))
    assert len(transcripts) == 12
    entries = json.loads(transcripts[0].read_text())
    assert entries and {"instruction", "response"} <= set(entries[0])
    # transcripts do not pollute later log parsing
    assert main(["evaluate", "--logs", str(out)]) == EXIT_OK


def test_run_transcripts_match_replayed_prompts(tmp_path):
    from homebench.core import load_tasks
    from homebench.loop import replay_instructions
    from homebench.sim import load_scene

    out = tmp_path / "runs"
    assert main(["--seed", "9", "run", "--runs", "2", "--out", str(out),
                 "--transcripts"]) == EXIT_OK
    data = Path(str(resources.files("homebench").joinpath("data")))
    tasks = load_tasks(sorted((data / "tasks").glob("*.json")))
    logs = sorted(out.glob("*__run*.json"))
    assert len(logs) == 24
    for log in logs:
        trajectory = parse_trajectory_log(log.read_bytes())
        task = tasks[trajectory.task_id]
        scene = load_scene((data / "scenes" / f"{task.scene_ref}.json").read_bytes())
        transcript = json.loads((out / "transcripts" / log.name).read_text(encoding="utf-8"))
        assert [e["instruction"] for e in transcript] == \
            [i.text for i in replay_instructions(trajectory, task, scene)]


def test_keypaths_overlay_file(tmp_path, capsys):
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))
    write_tasks(tmp_path / "tasks", [task])
    # overlay replaces the inline keypaths with an unsatisfiable one
    (tmp_path / "tasks" / "keypaths.json").write_text(json.dumps({
        "t1": [[{"action": "Pick", "target": "pear"}]],
    }), encoding="utf-8")
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    report = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert report["sr"] == 0.0  # the overlay keypath does not match


def test_keypaths_overlay_entry_without_task_file_is_named(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="cup_to_shelf")])
    overlay = tmp_path / "tasks" / "keypaths.json"
    overlay.write_text(json.dumps({
        "cup_to_shelf": [[{"action": "Pick", "target": "cup"}]],
        "cup_to_shelff": [[{"action": "Pick", "target": "pear"}]],
    }), encoding="utf-8")
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="cup_to_shelf")])
    code = main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == (f"error: key path file {overlay} names task 'cup_to_shelff', "
                            "which has no task file\n")
    assert not (tmp_path / "logs" / "report.json").exists()


@pytest.mark.parametrize("task_id", ["../escaped", "nul\u0000id"], ids=["slash", "nul"])
def test_run_task_id_that_names_no_file_is_refused_before_any_episode(tmp_path, capsys,
                                                                      task_id):
    tasks = tmp_path / "tasks"
    write_tasks(tasks, [make_task(task_id="t1")])
    (tasks / "t2.json").write_text(json.dumps(task_document(make_task(task_id=task_id))),
                                   encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"outputs": []}), encoding="utf-8")
    out = tmp_path / "sub" / "out"
    code = main(["run", "--tasks", str(tasks), "--planner", f"scripted:{plan}",
                 "--runs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == (f"error: bad task file in {tasks}: task {task_id!r}.id: "
                            "a task id holds no '/' or NUL\n")
    assert captured.out == ""  # no episode played
    assert not (tmp_path / "sub").exists()


def test_keypaths_overlay_invalid_json(tmp_path, capsys):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    overlay = tmp_path / "tasks" / "keypaths.json"
    overlay.write_text("{not json", encoding="utf-8")
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    code = main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: key path file {overlay} is not valid JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("overlay", ["[1, 2]", "null"])
def test_keypaths_overlay_not_an_object(tmp_path, capsys, overlay):
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    path = tmp_path / "tasks" / "keypaths.json"
    path.write_text(overlay, encoding="utf-8")
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="t1")])
    code = main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"error: key path file {path} must hold a JSON object" in err.splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("profiles, message", [
    (["p"], "config key 'profiles' must hold a JSON object"),
    ({"p": "x"}, "remote profile 'p' must be a JSON object"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": "abc"}},
     "remote profile 'p': bad value for 'timeout': 'abc'"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "max_retries": [2]}},
     "remote profile 'p': bad value for 'max_retries': [2]"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": float("nan")}},
     "remote planner timeout must be positive"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "max_retries": float("inf")}},
     "remote profile 'p': bad value for 'max_retries': inf"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "template": 5}},
     "remote profile 'p': bad value for 'template': 5"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "api_key_env": 5}},
     "remote profile 'p': bad value for 'api_key_env': 5"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "max_retries": True}},
     "remote profile 'p': bad value for 'max_retries': True"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "max_retries": 1.5}},
     "remote profile 'p': bad value for 'max_retries': 1.5"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": False}},
     "remote profile 'p': bad value for 'timeout': False"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "temperature": "0"}},
     "remote profile 'p': bad value for 'temperature': '0'"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": 10 ** 400}},
     f"remote profile 'p': bad value for 'timeout': {10 ** 400}"),
    ({"p": {"endpoint": 5}}, "remote profile 'p': bad value for 'endpoint': 5"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "model": None}},
     "remote profile 'p': bad value for 'model': None"),
    ({"p": {"model": "m"}}, "remote profile 'p' is missing 'endpoint'"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "temperature": float("nan")}},
     "remote planner temperature must be finite"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "temperature": float("inf")}},
     "remote planner temperature must be finite"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "temperature": float("-inf")}},
     "remote planner temperature must be finite"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": float("inf")}},
     "remote planner timeout must be at most 9223372036 seconds"),
    ({"p": {"endpoint": "http://127.0.0.1:9/v1", "timeout": 1e12}},
     "remote planner timeout must be at most 9223372036 seconds"),
    ({"q": {"endpoint": "http://127.0.0.1:9/v1"}}, "remote profile 'p' not found in config file"),
], ids=["profiles-list", "profile-text", "timeout-text", "retries-list", "timeout-nan",
        "retries-infinity", "template-number", "key-env-number", "retries-bool",
        "retries-fraction", "timeout-bool", "temperature-text", "timeout-huge",
        "endpoint-number", "model-null", "endpoint-missing", "temperature-nan",
        "temperature-infinity", "temperature-minus-infinity", "timeout-infinity",
        "timeout-1e12", "profile-unknown"])
@pytest.mark.parametrize("command", ["run", "augment"])
def test_bad_remote_profile_is_named(tmp_path, capsys, profiles, message, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"profiles": profiles}), encoding="utf-8")
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--planner", "remote:p", "--runs", "1"]
    else:
        argv = ["augment", "--rewriter", "remote:p"] + _corpus(tmp_path)
    code = main(["--config", str(config)] + argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"error: {message}" in captured.err.splitlines()
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_console_planner_plays_at_any_jobs(tmp_path, capsys, monkeypatch):
    # a console planner plays on the calling thread, so --jobs 2 is as --jobs 1
    logs, progress = {}, {}
    for jobs in ("1", "2"):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))  # each episode Ends at once
        out = tmp_path / jobs
        assert main(["--seed", "7", "--jobs", jobs, "run", "--planner", "console",
                     "--runs", "2", "--out", str(out)]) == EXIT_OK
        # input() writes its "> " prompt to stdout
        progress[jobs] = [line.removeprefix("> ") for line in capsys.readouterr().out.splitlines()
                          if line.endswith(("terminated by end", "terminated by budget"))]
        logs[jobs] = {path.name: path.read_bytes() for path in out.glob("*.json")}
    expected = [f"  {task} run {run}: 1 steps, terminated by end"
                for task in BUNDLED_TASKS for run in range(2)]
    assert progress["1"] == progress["2"] == expected
    assert len(logs["2"]) == 2 * len(BUNDLED_TASKS)
    assert logs["1"] == logs["2"]


def test_run_with_remote_profile(tmp_path, remote_config):
    StubHandler.script = []
    StubHandler.requests_seen = []
    config = remote_config(StubHandler, model="stub", timeout=5)
    out = tmp_path / "runs"
    # the stub always answers an unparseable completion: every step is F1
    code = main(["--config", config, "run", "--planner", "remote:stub",
                 "--runs", "1", "--budget", "2", "--out", str(out)])
    assert code == EXIT_OK
    logs = list(out.glob("*__run*.json"))
    assert len(logs) == 12
    trajectory = parse_trajectory_log(logs[0].read_bytes())
    assert all(s.feedback.code is ErrorCode.F1 for s in trajectory.steps)


def test_run_transport_failure_writes_no_transcript(tmp_path, remote_config):
    # the first episode has its first query answered, then its second fails
    StubHandler.script = [(200, completion("not a plan")), (500, {})]
    StubHandler.requests_seen = []
    config = remote_config(StubHandler, timeout=5, max_retries=0)
    out = tmp_path / "runs"
    code = main(["--config", config, "run", "--planner", "remote:stub",
                 "--runs", "1", "--budget", "2", "--out", str(out), "--transcripts"])
    assert code == EXIT_OK
    logs = sorted(p.name for p in out.glob("*__run*.json"))
    transcripts = sorted(p.name for p in (out / "transcripts").glob("*.json"))
    assert len(logs) == 11 and "bedtime_prep__run0.json" not in logs
    assert transcripts == logs


def test_run_exits_3_when_every_episode_fails_transport(tmp_path, capsys, remote_config):
    StubHandler.script = [(500, {})] * 12
    StubHandler.requests_seen = []
    config = remote_config(StubHandler, timeout=5, max_retries=0)
    out = tmp_path / "runs"
    code = main(["--config", config, "run", "--planner", "remote:stub",
                 "--runs", "1", "--out", str(out), "--transcripts"])
    captured = capsys.readouterr()
    assert code == EXIT_TRANSPORT
    assert "Traceback" not in captured.err
    assert captured.out.splitlines() == [
        f"  {task} run 0: transport error: endpoint returned status 500 (after 1 attempts)"
        for task in BUNDLED_TASKS
    ] + ["wrote no trajectory logs; 12 episode(s) failed transport"]
    assert not out.exists()  # no log, no transcript, no directory
    assert len(StubHandler.requests_seen) == 12


def test_run_exits_3_and_leaves_an_existing_out_as_it_was(tmp_path, capsys, remote_config):
    StubHandler.script = [(500, {})] * 12
    config = remote_config(StubHandler, timeout=5, max_retries=0)
    out = tmp_path / "runs"
    (out / "transcripts").mkdir(parents=True)
    (out / "kept.json").write_text("{}", encoding="utf-8")
    before = sorted(out.rglob("*"))
    code = main(["--config", config, "run", "--planner", "remote:stub",
                 "--runs", "1", "--out", str(out), "--transcripts"])
    assert code == EXIT_TRANSPORT
    assert sorted(out.rglob("*")) == before
    assert (out / "kept.json").read_text(encoding="utf-8") == "{}"


def test_remote_logs_and_transcripts_match_at_jobs_1_and_4(tmp_path, capsys, remote_config):
    # the one path that wraps planners in Transcribed on worker threads
    config = remote_config(PlanStub, ThreadingHTTPServer)
    written, progress = {}, {}
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        assert main(["--config", config, "--seed", "7", "--jobs", jobs, "run",
                     "--planner", "remote:stub", "--runs", "2", "--transcripts",
                     "--out", str(out)]) == EXIT_OK
        written[jobs] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*.json")}
        progress[jobs] = capsys.readouterr().out.splitlines()[:-1]  # the summary names out
    assert len(written["1"]) == 2 * 2 * len(BUNDLED_TASKS)  # logs and transcripts
    assert written["4"] == written["1"]
    assert progress["4"] == progress["1"]
    # the stub played each task's plan through to its End
    assert all(parse_trajectory_log(data).terminated_by_end
               for path, data in written["1"].items() if path.parent.name != "transcripts")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reply_memo_changes_no_remote_log_or_transcript(tmp_path, monkeypatch, remote_config,
                                                         jobs):
    config = remote_config(PlanStub, ThreadingHTTPServer)
    written = {}
    for size in (loop.REPLY_MEMO_SIZE, 0):  # the memo, then a parse of every reply
        monkeypatch.setattr(loop, "REPLY_MEMO_SIZE", size)
        out = tmp_path / str(size)
        assert main(["--config", config, "--seed", "7", "--jobs", jobs, "run",
                     "--planner", "remote:stub", "--runs", "2", "--transcripts",
                     "--out", str(out)]) == EXIT_OK
        written[size] = {path.relative_to(out): path.read_bytes() for path in out.rglob("*.json")}
    assert len(written[0]) == 2 * 2 * len(BUNDLED_TASKS)  # logs and transcripts
    assert written[loop.REPLY_MEMO_SIZE] == written[0]


def test_parse_logs_builds_each_distinct_step_once(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["--seed", "7", "run", "--runs", "25", "--out", str(out)]) == EXIT_OK
    trajectories, corrupt = _parse_logs(out)
    assert (len(trajectories), corrupt) == (300, [])
    logged = [json.dumps({k: v for k, v in step.items() if k != "index"}, sort_keys=True)
              for path in sorted(out.glob("*.json"))
              for step in json.loads(path.read_bytes())["steps"]]
    records = [step for t in trajectories for step in t.steps]
    assert (len(records), len(set(logged))) == (len(logged), 83) == (2075, 83)
    assert len({id(step) for step in records}) == 83
    # a second call builds its own records
    again, _ = _parse_logs(out)
    assert again == trajectories
    assert not {id(step) for step in records} & {id(step) for t in again for step in t.steps}


def test_run_jobs_parallel_matches_sequential(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "5", "run", "--runs", "2", "--out", str(a),
                 "--transcripts"]) == EXIT_OK
    assert main(["--seed", "5", "--jobs", "4", "run", "--runs", "2",
                 "--out", str(b), "--transcripts"]) == EXIT_OK
    written = sorted(a.glob("*.json")) + sorted(a.glob("transcripts/*.json"))
    assert len(written) == 48
    for path in written:
        assert (b / path.relative_to(a)).read_bytes() == path.read_bytes()


def test_run_retries_validated(tmp_path):
    assert main(["run", "--retries", "4", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_run_single_plan_file_for_all_tasks(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "outputs": [{"analysis": "wander", "subtask": ["Go to", "nowhere"],
                      "model": "NoMaD"}],
    }), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--planner", f"scripted:{plan}", "--runs", "1",
                 "--out", str(out)]) == EXIT_OK
    logs = list(out.glob("*__run*.json"))
    assert len(logs) == 12
    trajectory = parse_trajectory_log(logs[0].read_bytes())
    # one F2 step (nowhere doesn't exist), then plan exhaustion emits End
    assert trajectory.steps[0].feedback.code is ErrorCode.F2
    assert trajectory.terminated_by_end


def test_evaluate_plwsr_literal_flag(tmp_path):
    task = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),),
                     expert_length=1)
    write_tasks(tmp_path / "tasks", [task])
    # success in 3 non-End steps against an expert length of 1
    write_logs(tmp_path / "logs", [traj([
        ("Go to", "sofa", True), ("Go to", "sofa", True), ("Pick", "apple", True),
    ], task_id="t1")])
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks")]) == EXIT_OK
    default = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert default["plwsr"] == round(100 / 3, 2)
    assert main(["evaluate", "--logs", str(tmp_path / "logs"),
                 "--tasks", str(tmp_path / "tasks"), "--plwsr-literal"]) == EXIT_OK
    literal = json.loads((tmp_path / "logs" / "report.json").read_text())
    assert literal["plwsr"] == 100.0


# ---------------------------------------------------------------------------
# undecodable input and unwritable output

NOT_UTF8 = b'{"id": "\x80"}'
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000  # valid JSON, nested past the decoder's limit


def _corpus(tmp_path):
    augment_fixture(tmp_path)
    return ["--logs", str(tmp_path / "logs"), "--tasks", str(tmp_path / "tasks")]


def _log_command(command, tmp_path):
    """argv for a log-reading command over the augment fixture."""
    argv = [command] + _corpus(tmp_path)
    return argv + (["--out", str(tmp_path / "out")] if command == "augment" else [])


def _bad_log(command):
    def build(tmp_path, content):
        argv = _log_command(command, tmp_path)
        (tmp_path / "logs" / "bad.json").write_bytes(content)
        return argv
    return build


def _bad_tasks_dir(name):
    def build(tmp_path, content):
        write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
        (tmp_path / "tasks" / name).write_bytes(content)
        return ["run", "--tasks", str(tmp_path / "tasks"), "--out", str(tmp_path / "out")]
    return build


def _bad_scene(tmp_path, content):
    (tmp_path / "scenes").mkdir()
    (tmp_path / "scenes" / "kitchen_home.json").write_bytes(content)
    return ["run", "--scenes", str(tmp_path / "scenes"), "--out", str(tmp_path / "out")]


def _bad_plan(tmp_path, content):
    (tmp_path / "plan.json").write_bytes(content)
    return ["run", "--planner", f"scripted:{tmp_path / 'plan.json'}", "--runs", "1",
            "--out", str(tmp_path / "out")]


def _bad_lexicon(tmp_path, content):
    (tmp_path / "lexicon.json").write_bytes(content)
    return (["augment"] + _corpus(tmp_path)
            + ["--lexicon", str(tmp_path / "lexicon.json"), "--out", str(tmp_path / "out")])


def _bad_config(tmp_path, content):
    (tmp_path / "config.json").write_bytes(content)
    return ["--config", str(tmp_path / "config.json"), "run", "--out", str(tmp_path / "out")]


_UNDECODABLE = {
    "evaluate-log": (_bad_log("evaluate"), EXIT_OK, "excluded 1 corrupt log(s)"),
    "report-errors-log": (_bad_log("report-errors"), EXIT_OK, "excluded 1 corrupt log(s)"),
    "augment-log": (_bad_log("augment"), EXIT_OK, "excluded 1 corrupt log(s)"),
    "task": (_bad_tasks_dir("t2.json"), EXIT_CONFIG, "error: bad task file in"),
    "keypaths": (_bad_tasks_dir("keypaths.json"), EXIT_CONFIG, "error: key path file"),
    "scene": (_bad_scene, EXIT_CONFIG, "error: scene file"),
    "plan": (_bad_plan, EXIT_CONFIG, "error: plan document is not valid JSON"),
    "lexicon": (_bad_lexicon, EXIT_CONFIG, "error: lexicon file"),
    "config": (_bad_config, EXIT_CONFIG, "error: config file is not valid JSON"),
}


@pytest.mark.parametrize("build, code, expected, content", [
    pytest.param(*case, content, id=name + suffix)
    for content, suffix in ((NOT_UTF8, ""), (TOO_DEEP, "-too-deep"))
    for name, case in _UNDECODABLE.items()
])
def test_non_utf8_input_is_named(tmp_path, capsys, build, code, expected, content):
    assert main(build(tmp_path, content)) == code
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err
    if code == EXIT_CONFIG:
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "report-errors", "augment"])
def test_log_of_unknown_task_is_named(tmp_path, capsys, command):
    argv = _log_command(command, tmp_path)
    write_logs(tmp_path / "logs", [traj([("Pick", "apple", True)], task_id="nope")])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: a log names task 'nope', which has no task file\n"


def test_run_too_deep_plan_entry_is_an_f1_step(tmp_path):
    # the plan itself decodes: its entry is a string holding a reply too deep to decode
    deep = TOO_DEEP.decode("ascii")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "outputs": ['{"analysis": ' + deep + ', "subtask": ["End"], "model": "M3"}'],
    }), encoding="utf-8")
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1")])
    out = tmp_path / "runs"
    assert main(["run", "--tasks", str(tmp_path / "tasks"), "--planner", f"scripted:{plan}",
                 "--runs", "1", "--out", str(out)]) == EXIT_OK
    trajectory = parse_trajectory_log((out / "t1__run0.json").read_bytes())
    assert [s.feedback.code for s in trajectory.steps] == [ErrorCode.F1, None]
    assert trajectory.terminated_by_end


BUNDLED = Path(str(resources.files("homebench").joinpath("data")))
BUNDLED_TASKS = sorted(path.stem for path in (BUNDLED / "tasks").glob("*.json"))

# the commands that read each kind of input
_READERS = {
    "task": ("run", "evaluate", "report-errors", "augment"),
    "scene": ("run", "augment"),
    "plan": ("run",),
    "log": ("evaluate", "report-errors", "augment"),
    "config": ("run", "evaluate", "report-errors", "augment"),
}

# st.text() draws no surrogate code point, so texts that hold one (alone or
# in a pair, which decodes to one character) are drawn on their own
_TEXT = st.text(max_size=3) | st.text(st.characters() | st.characters(categories=["Cs"]),
                                      min_size=1, max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | _TEXT
    | st.sampled_from(["Pick", "End", "E1", "ok", "object", "closed", "M3"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def bundled_logs(tmp_path_factory):
    """One seeded run of every bundled task: the valid logs the fuzz test damages."""
    out = tmp_path_factory.mktemp("bundled_logs")
    assert main(["--seed", "7", "run", "--runs", "1", "--out", str(out)]) == EXIT_OK
    return out


def _value_paths(doc, path=()):
    """The path to every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


# a fixed count that the ci profile does not raise: each example is a whole command
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_input_is_named_or_harmless(bundled_logs, data):
    """Replace or delete one value of a valid task, scene, plan, log or
    config: the command reading it succeeds or names the damage."""
    task_id = data.draw(st.sampled_from(BUNDLED_TASKS))
    kind, command = data.draw(st.sampled_from(
        [(kind, command) for kind, commands in _READERS.items() for command in commands]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        task = json.loads((BUNDLED / "tasks" / f"{task_id}.json").read_bytes())
        files = {
            "task": f"tasks/{task_id}.json",
            "scene": f"scenes/{task['scene']}.json",
            "plan": f"plans/{task_id}.json",
            "log": f"logs/{task_id}__run0.json",
            "config": "config.json",
        }
        docs = {
            "task": task,
            "scene": json.loads((BUNDLED / files["scene"]).read_bytes()),
            "plan": json.loads((BUNDLED / files["plan"]).read_bytes()),
            "log": json.loads((bundled_logs / f"{task_id}__run0.json").read_bytes()),
            "config": {"budget": 20, "retries": 3, "seed": 7,
                       "planner": f"scripted:{tmp / 'plans'}"},
        }
        *parents, last = data.draw(st.sampled_from(list(_value_paths(docs[kind]))))
        parent = functools.reduce(operator.getitem, parents, docs[kind])
        if data.draw(st.booleans(), label="delete"):
            del parent[last]
        else:
            parent[last] = data.draw(_VALUES)
        for name, doc in docs.items():
            (tmp / files[name]).parent.mkdir(exist_ok=True)
            (tmp / files[name]).write_text(json.dumps(doc), encoding="utf-8")

        argv = {
            "run": ["--scenes", str(tmp / "scenes"), "--runs", "1", "--out", str(tmp / "out")],
            "evaluate": ["--logs", str(tmp / "logs"), "--out", str(tmp / "report.json")],
            "report-errors": ["--logs", str(tmp / "logs")],
            "augment": ["--logs", str(tmp / "logs"), "--scenes", str(tmp / "scenes"),
                        "--out", str(tmp / "out")],
        }[command]
        code = main(["--config", str(tmp / "config.json"), "--jobs", "1", command,
                     "--tasks", str(tmp / "tasks")] + argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TRANSPORT)


def _parser_options(parser):
    """(flag, dest, kind) for each option of ``parser``: kind is "flag" for an
    option that takes no value, else "int", "float" or "text"."""
    for action in parser._actions:
        if action.option_strings and action.dest != "help":
            kind = "flag" if action.nargs == 0 else {int: "int", float: "float"}.get(
                action.type, "text")
            yield action.option_strings[-1], action.dest, kind


_TOP = build_parser()
_SUBCOMMANDS = next(action.choices for action in _TOP._actions
                    if isinstance(action, argparse._SubParsersAction))
# what argv can hold on POSIX: no NUL, and surrogates only as undecodable bytes
_ARGV_TEXT = st.text(st.characters(exclude_characters="\x00", exclude_categories=["Cs"])
                     | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF), max_size=6)


def _option_values(tmp: Path, dest: str, kind: str):
    """Values for one option: mostly well-formed, the rest named faults."""
    if kind == "int":  # small, so no draw starts many episodes or threads
        numbers = st.integers(-2, 3).map(str)
        return st.one_of(numbers, numbers, numbers, st.sampled_from(["x", "1.5", ""]))
    if kind == "float":
        return st.sampled_from(["-1", "0", "0.5", "0.9", "1", "2", "nan", "inf", "x", ""])
    task_file = str(tmp / "tasks" / "bedtime_prep.json")
    missing = str(tmp / "missing")
    paths = {
        "dir": [str(tmp / name) for name in ("tasks", "scenes", "plans", "logs")],
        "out": [str(tmp / "out"), str(tmp / "out" / "report.json"), str(tmp / "logs"),
                str(tmp / "logs" / "plot.json"), str(tmp / "tasks")],
        "planner": ([f"scripted:{path}" for path in (tmp / "plans", task_file, missing,
                                                     tmp / "tasks")]
                    + ["scripted:", "remote:nope", "remote:"]),
        "rewriter": ["identity", "remote:nope"],
        "file": [str(tmp / "lexicon.json"), str(tmp / "config.json"), str(tmp / "tasks")],
    }[{"tasks": "dir", "scenes": "dir", "logs": "dir", "out": "out", "plot_data": "out",
       "planner": "planner", "rewriter": "rewriter"}.get(dest, "file")]
    # console reads stdin: left out, like any remote profile that exists
    junk = _ARGV_TEXT.filter(lambda text: text != "console")
    good = st.sampled_from(paths)
    return st.one_of(good, good, st.sampled_from([missing, task_file, ""]), junk)


def _draw_options(data, parser, tmp: Path) -> list:
    words = []
    options = list(_parser_options(parser))
    for flag, dest, kind in data.draw(st.lists(st.sampled_from(options), max_size=4,
                                               unique=True)):
        words.append(flag)
        if kind != "flag":
            words.append(data.draw(_option_values(tmp, dest, kind), label=flag))
    return words


@pytest.fixture(scope="module")
def argv_inputs(bundled_logs, tmp_path_factory):
    """Copies of the bundled inputs, a seeded run's logs, a lexicon and a config."""
    root = tmp_path_factory.mktemp("argv_inputs")
    for name in ("tasks", "scenes", "plans"):
        shutil.copytree(BUNDLED / name, root / name)
    shutil.copytree(bundled_logs, root / "logs")
    (root / "lexicon.json").write_text('["Jump", "Dance"]', encoding="utf-8")
    (root / "config.json").write_text('{"budget": 3, "runs_per_task": 1}', encoding="utf-8")
    return root


# a fixed count that the ci profile does not raise: each example is a whole command
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_named_code(argv_inputs, data):
    """A subcommand with options drawn from the parser's own: the command
    ends in exit 0, 2 or 3, and never in a traceback."""
    command = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(argv_inputs, tmp, dirs_exist_ok=True)
        argv = (_draw_options(data, _TOP, tmp) + [command]
                + _draw_options(data, _SUBCOMMANDS[command], tmp))
        # run and augment write to the working directory by default
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, like a terminal's
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refused the argv
                    code = exc.code
                stdout.flush()
                stderr.flush()
        finally:
            os.chdir(cwd)
        err = stderr.buffer.getvalue().decode("utf-8")
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TRANSPORT), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "augment"])
def test_undecodable_out_path_prints_escaped(tmp_path, monkeypatch, command):
    # argv holds a byte that is not UTF-8 as a surrogate; a UTF-8 terminal refuses it
    monkeypatch.chdir(tmp_path)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = {"run": ["run", "--runs", "1", "--out", "\udcff"],
            "augment": ["augment", *_corpus(tmp_path), "--out", "\udcff"]}[command]
    assert main(argv) == EXIT_OK
    stdout.flush()
    assert stdout.buffer.getvalue().decode("utf-8").rstrip().endswith(" to \\udcff")
    assert len(os.listdir(tmp_path / "\udcff")) >= 2


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_bytes())
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")  # escapes every surrogate


def _plan_analysis(text):
    def build(tmp_path):
        plans = _bundled_copy(tmp_path, "plans")
        _edit_json(plans / "bedtime_prep.json",
                   lambda doc: doc["outputs"][0].update(analysis="Heading over." + text))
        return ["run", "--planner", f"scripted:{plans}", "--runs", "1",
                "--out", str(tmp_path / "out")]
    return build


def _task_instruction(text):
    def build(tmp_path):
        tasks = _bundled_copy(tmp_path, "tasks")
        _edit_json(tasks / "bedtime_prep.json",
                   lambda doc: doc.update(instruction=doc["instruction"] + text))
        return ["run", "--tasks", str(tasks), "--runs", "1", "--transcripts",
                "--out", str(tmp_path / "out")]
    return build


def _scene_name(text):
    def build(tmp_path):
        scenes = _bundled_copy(tmp_path, "scenes")
        _edit_json(scenes / "office.json",
                   lambda doc: doc["entities"][0].update(name=doc["entities"][0]["name"] + text))
        return ["run", "--scenes", str(scenes), "--runs", "1", "--out", str(tmp_path / "out")]
    return build


@pytest.mark.parametrize("build, expected", [
    (_plan_analysis("\ud800"), "error: plan document is not valid JSON: "
                               "lone UTF-16 surrogate '\\ud800' (scripted plan "),
    (_task_instruction("\udfff"), "task document is not valid JSON: "
                                  "lone UTF-16 surrogate '\\udfff'"),
    (_scene_name("\udc00"), "office.json is not valid JSON: lone UTF-16 surrogate '\\udc00'"),
], ids=["plan-analysis", "task-instruction", "scene-name"])
def test_run_lone_surrogate_is_named(tmp_path, capsys, build, expected):
    # each would decode, then fail to encode when a log, transcript or prompt is written
    code = main(build(tmp_path))
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error: ") and expected in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("build, shown_in", [
    (_plan_analysis, "bedtime_prep__run0.json"),
    (_task_instruction, "transcripts/bedtime_prep__run0.json"),
    (_scene_name, None),
], ids=["plan-analysis", "task-instruction", "scene-name"])
def test_run_keeps_a_valid_surrogate_pair(tmp_path, capsys, build, shown_in):
    # json.dumps escapes U+1F600 as the pair \ud83d\ude00, which decodes to it
    assert main(build("\U0001F600")(tmp_path)) == EXIT_OK
    assert len(list((tmp_path / "out").glob("*.json"))) == 12
    if shown_in:
        assert "\U0001F600" in (tmp_path / "out" / shown_in).read_text(encoding="utf-8")


def test_augment_log_with_lone_surrogate_is_excluded_and_named(tmp_path, capsys):
    argv = _log_command("augment", tmp_path)
    _edit_json(tmp_path / "logs" / "t1__run1.json",
               lambda doc: doc["steps"][0].update(analysis="Picking it up.\ud800"))
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert ("  t1__run1.json: trajectory log is not valid JSON: lone UTF-16 surrogate '\\ud800'"
            in captured.out.splitlines())
    assert "excluded 1 corrupt log(s)" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert (tmp_path / "out" / "sft.jsonl").read_text(encoding="utf-8")  # the other log


@pytest.mark.parametrize("command", ["evaluate", "report-errors", "augment"])
def test_unreadable_log_entry_is_excluded_and_named(tmp_path, capsys, command):
    argv = _log_command(command, tmp_path)
    (tmp_path / "logs" / "sub.json").mkdir()
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "excluded 1 corrupt log(s):" in captured.out
    assert any(line.startswith("  sub.json: [Errno ") for line in captured.out.splitlines())
    assert "Traceback" not in captured.out + captured.err


def test_parse_logs_reads_every_json_entry_in_name_order(tmp_path):
    # a hidden *.json file is a log too; other names, and report.json, are not
    logs = tmp_path / "logs"
    logs.mkdir()
    names = ["b.json", ".hidden.json", "a.json", "B.json"]  # written out of name order
    for run_index, name in enumerate(names):
        trajectory = traj([("Pick", "apple", True)], task_id="t1", run_index=run_index)
        (logs / name).write_text(serialize_trajectory(trajectory), encoding="utf-8")
    for name in ("c.JSON", "d.json.bak", "e.jsonl", "report.json"):
        (logs / name).write_text(serialize_trajectory(traj([])), encoding="utf-8")
    (logs / "sub.json").mkdir()
    trajectories, corrupt = _parse_logs(logs)
    assert [names[t.run_index] for t in trajectories] == [
        ".hidden.json", "B.json", "a.json", "b.json"]
    assert [name for name, _ in corrupt] == ["sub.json"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="needs a user that file permissions apply to")
def test_log_without_read_permission_is_excluded_and_named(tmp_path, capsys):
    argv = _log_command("evaluate", tmp_path)
    locked = tmp_path / "logs" / "t1__run1.json"
    locked.chmod(0)
    try:
        assert main(argv) == EXIT_OK
    finally:
        locked.chmod(0o644)
    captured = capsys.readouterr()
    assert "  t1__run1.json: [Errno 13] Permission denied: " in captured.out
    report = json.loads((tmp_path / "logs" / "report.json").read_text(encoding="utf-8"))
    assert report["excluded_logs"] == 1


def _assert_f1_replies_logged(out: Path, logged: str) -> None:
    """Every episode was written, and its one reply parses back as an F1
    step whose analysis, like the transcript's response, is ``logged``."""
    logs = sorted(out.glob("*__run0.json"))
    assert len(logs) == 12
    for path in logs:
        step = parse_trajectory_log(path.read_bytes()).steps[0]
        assert step.feedback.code is ErrorCode.F1 and step.output.analysis == logged
        transcript = json.loads((out / "transcripts" / path.name).read_bytes())
        assert transcript[0]["response"] == logged


def test_run_reply_with_lone_surrogate_escape_is_f1(tmp_path, capsys):
    # a string entry is a reply: its object decodes to a lone surrogate
    reply = '{"analysis": "x\\ud800", "subtask": ["End"], "model": "M3"}'
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"outputs": [reply]}), encoding="utf-8")
    code = main(["run", "--planner", f"scripted:{plan}", "--runs", "1", "--transcripts",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_OK and "Traceback" not in captured.err
    _assert_f1_replies_logged(tmp_path / "out", reply)  # ASCII already: logged as sent


@pytest.mark.parametrize("content", [
    '{"analysis": "half an emoji \ud83d", "subtask": ["End"], "model": "M3"}',
    "no object, half an emoji \ud83d",
], ids=["in-object", "in-prose"])
def test_run_remote_reply_with_lone_surrogate_is_f1(tmp_path, capsys, remote_config, content):
    StubHandler.script = [(200, completion(content))] * 12  # json.dumps escapes it
    StubHandler.requests_seen = []
    config = remote_config(StubHandler, timeout=5, max_retries=0)
    code = main(["--config", config, "run", "--planner", "remote:stub",
                 "--runs", "1", "--budget", "1", "--transcripts",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_OK and "Traceback" not in captured.err
    assert len(StubHandler.requests_seen) == 12
    _assert_f1_replies_logged(tmp_path / "out", content.replace("\ud83d", "\\ud83d"))


def _count_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_run_scripted_jobs_start_no_thread(tmp_path, monkeypatch):
    # a scripted planner holds the GIL: its episodes play on the calling thread
    started = _count_thread_starts(monkeypatch)
    for jobs in ("1", "2"):
        assert main(["--seed", "7", "--jobs", jobs, "run", "--runs", "1", "--transcripts",
                     "--out", str(tmp_path / jobs)]) == EXIT_OK
    assert started == []
    written = {jobs: {path.relative_to(tmp_path / jobs): path.read_bytes()
                      for path in (tmp_path / jobs).rglob("*.json")} for jobs in ("1", "2")}
    assert len(written["1"]) == 24  # 12 logs and 12 transcripts
    assert written["2"] == written["1"]


def test_run_remote_jobs_play_episodes_at_once(tmp_path, monkeypatch, remote_config):
    class BarrierHandler(StubHandler):
        # each reply waits for a second request: one episode at a time breaks the barrier
        barrier = threading.Barrier(2, timeout=10)

        def do_POST(self):
            type(self).barrier.wait()
            super().do_POST()

    StubHandler.script = []
    StubHandler.requests_seen = []
    write_tasks(tmp_path / "tasks", [make_task(task_id="t1"), make_task(task_id="t2")])
    config = remote_config(BarrierHandler, ThreadingHTTPServer, timeout=20, max_retries=0)
    started = _count_thread_starts(monkeypatch)
    code = main(["--config", config, "--jobs", "2", "run",
                 "--tasks", str(tmp_path / "tasks"), "--planner", "remote:stub",
                 "--runs", "1", "--budget", "1", "--out", str(tmp_path / "runs")])
    assert code == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "runs").glob("*.json")) == [
        "t1__run0.json", "t2__run0.json"]
    assert len(StubHandler.requests_seen) == 2 and not BarrierHandler.barrier.broken
    assert sum(name.startswith("ThreadPoolExecutor") for name in started) == 2


@pytest.mark.parametrize("argv, written", [
    (["evaluate", "--out", "{tmp}/missing/report.json"], "missing/report.json"),
    (["report-errors", "--plot-data", "{tmp}/missing/p.json"], "missing/p.json"),
    (["augment", "--out", "{tmp}/file"], "file"),
], ids=["evaluate-out", "report-errors-plot-data", "augment-out"])
def test_unwritable_output_is_named(tmp_path, capsys, argv, written):
    augment_fixture(tmp_path)
    (tmp_path / "file").write_text("keep", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = main(argv[:1] + ["--logs", str(tmp_path / "logs"),
                            "--tasks", str(tmp_path / "tasks")] + argv[1:])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and written in err
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "keep"


def test_run_refuses_file_as_out_before_any_episode(tmp_path, capsys):
    out = tmp_path / "runs"
    out.write_text("keep", encoding="utf-8")
    code = main(["run", "--runs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"error: --out {out} exists and is not a directory" in captured.err.splitlines()
    assert "Traceback" not in captured.err
    assert " run 0:" not in captured.out  # no episode started
    assert out.read_text(encoding="utf-8") == "keep"
    assert sorted(tmp_path.iterdir()) == [out]
