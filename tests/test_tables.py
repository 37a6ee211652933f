"""The printed tables of ``evaluate`` and ``report-errors``, pinned byte for
byte on three corpora:

- ``bundled``: the seed-7 logs of every bundled task, three runs each;
- ``taxonomy``: the 126-of-416 error-statistics run beside failed runs that
  hold every error code, so both partitions and every column are non-zero;
- ``degenerate``: one run that never ends and never fails, so both SER and
  SRR have a zero denominator.

Each command's stdout is kept under ``tests/tables/`` as
``<corpus>.<command>.txt``, with the logs directory written as ``LOGS``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from homebench.cli import EXIT_OK, main
from homebench.core import ErrorCode, TaskAttribute, serialize_trajectory

from conftest import make_task, node, task_document, traj

TABLES = Path(__file__).resolve().parent / "tables"
COMMANDS = ("evaluate", "report-errors")


def _write_corpus(root: Path, tasks, trajectories) -> list:
    logs, tasks_dir = root / "logs", root / "tasks"
    logs.mkdir(parents=True)
    tasks_dir.mkdir()
    for task in tasks:
        (tasks_dir / f"{task.id}.json").write_text(json.dumps(task_document(task)),
                                                   encoding="utf-8")
    for t in trajectories:
        (logs / f"{t.task_id}__run{t.run_index}.json").write_text(serialize_trajectory(t),
                                                                   encoding="utf-8")
    return ["--logs", str(logs), "--tasks", str(tasks_dir)]


def _taxonomy(root: Path) -> list:
    specs = []
    for code, n in [(ErrorCode.L1, 5), (ErrorCode.L2, 1), (ErrorCode.L3, 1),
                    (ErrorCode.D1, 56), (ErrorCode.F2, 22), (ErrorCode.E1, 20),
                    (ErrorCode.E2, 19)]:
        specs += [("Pick", "sofa", False, code)] * n
    specs += [("dance", "", False, ErrorCode.F1)] * 2
    specs += [("Go to", "sofa", True)] * (416 - 126 - 1)
    every_code = [
        ("Go to", "sofa", False, ErrorCode.E1), ("Pick", "cup", False, ErrorCode.D1),
        ("Place", "shelf", False, ErrorCode.L2), ("Open", "fridge", False, ErrorCode.D2),
        ("Close", "drawer", False, ErrorCode.L4), ("dance", "", False, ErrorCode.F1),
        ("Pick", "cup", True), ("Place", "unicorn", False, ErrorCode.F2),
        ("Place", "shelf", False, ErrorCode.E2), ("Pick", "cup", False, ErrorCode.L1),
        ("Open", "fridge", True), ("Place", "fridge", False, ErrorCode.L3),
    ]
    shelf_walk = [("Go to", "desk", True), ("Pick", "cup", False, ErrorCode.E1),
                  ("Pick", "cup", True), ("Go to", "shelf", True), ("Place", "shelf", True)]
    tasks = [
        make_task(task_id="stats", keypaths=((node("Go to", "sofa"),),), expert_length=3),
        make_task(task_id="shelf", expert_length=3,
                  keypaths=((node("Pick", "cup"), node("Go to", "shelf"), node("Place", "shelf")),),
                  attributes=(TaskAttribute.LOGICAL, TaskAttribute.LONG_HORIZON)),
    ]
    trajectories = [
        traj(specs, task_id="stats", run_index=0),
        traj(every_code, task_id="stats", run_index=1, budget=True),
        traj(shelf_walk, task_id="shelf", run_index=0),
        traj(every_code[:7], task_id="shelf", run_index=1),
    ]
    return _write_corpus(root, tasks, trajectories)


def _degenerate(root: Path) -> list:
    return _write_corpus(root, [make_task(task_id="idle")],
                         [traj([("Go to", "sofa", True)], task_id="idle", budget=True)])


def _bundled(root: Path) -> list:
    logs = root / "logs"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--seed", "7", "run", "--runs", "3", "--out", str(logs)]) == EXIT_OK
    return ["--logs", str(logs)]


CORPORA = {"bundled": _bundled, "taxonomy": _taxonomy, "degenerate": _degenerate}


def printed_tables(corpus: str, root: Path) -> dict:
    """Each command's stdout on ``corpus``, built under ``root``, by command."""
    options = CORPORA[corpus](root)
    logs = options[options.index("--logs") + 1]
    printed = {}
    for command in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, *options]) == EXIT_OK
        printed[command] = stdout.getvalue().replace(logs, "LOGS")
    return printed


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_printed_tables_are_the_pinned_texts(corpus, tmp_path):
    for command, text in printed_tables(corpus, tmp_path).items():
        pinned = (TABLES / f"{corpus}.{command}.txt").read_text(encoding="utf-8")
        assert text == pinned, f"{corpus} {command}"
