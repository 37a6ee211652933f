"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them). Tolerances are pinned
here, not configurable."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from homebench.augment import AugmentConfig, build_datasets
from homebench.cli import EXIT_OK, main
from homebench.core import (
    ActionType,
    ErrorCode,
    ModelChoice,
    Subtask,
    parse_task_file,
    serialize_trajectory,
)
from homebench.loop import parse_planner_output, run_benchmark, run_episode
from homebench.metrics import (
    build_report,
    compute_tp,
    count_replans,
    episode_result,
)
from homebench.planners import load_scripted_plan
from homebench.sim import execute, load_scene

from conftest import (
    SCENES,
    make_task,
    node,
    prefix_subsequence_oracle,
    random_keypaths,
    random_trajectory,
    task_document,
    traj,
)
from test_sim import scene_doc

BUNDLE = Path(__file__).resolve().parents[1] / "src" / "homebench" / "data"


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_tp_worked_example():
    started = time.monotonic()
    trajectory = traj([
        ("Open", "drawer", True),
        ("Pick", "short_can", False, ErrorCode.E1),
        ("Place", "sofa", True),
    ], budget=True)
    keypaths = (
        (node("Open", "drawer"), node("Pick", "short_can"), node("Place", "drawer")),
        (node("Open", "drawer"), node("Pick", "short_can"), node("Place", "drawer"),
         node("Close", "drawer")),
        (node("Open", "drawer"), node("Pick", "apple")),
        (node("Open", "drawer"), node("Place", "sofa"), node("Pick", "short_can"),
         node("Place", "drawer"), node("Close", "drawer")),
    )
    from homebench.metrics import match_keypath

    ratios = [Fraction(match_keypath(trajectory, k), len(k)) for k in keypaths]
    assert ratios == [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(2, 5)]
    tp = compute_tp(trajectory, keypaths)
    assert isinstance(tp, Fraction)
    assert tp == Fraction(1, 2)  # exact rational, zero tolerance
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(1, f"TP over ratios (1/3, 1/4, 1/2, 2/5) = 1/2 exactly in {elapsed:.3f}s")


def test_criterion_2_metric_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(190)
    for _ in range(1000):
        trajectory = random_trajectory(rng, max_steps=12)
        keypaths = random_keypaths(rng, max_paths=4, max_nodes=5)
        successes = [
            (s.output.action_type, s.output.target)
            for s in trajectory.steps
            if s.feedback.ok and s.output.action_type is not ActionType.END
        ]
        expected_tp = max(
            Fraction(prefix_subsequence_oracle(successes, k), len(k))
            for k in keypaths
        )
        assert compute_tp(trajectory, keypaths) == expected_tp

        statuses = [s.feedback.ok for s in trajectory.steps]
        expected_replans = sum(
            1 for i in range(2, len(statuses) + 1) if not statuses[i - 2]
        )
        assert count_replans(trajectory) == expected_replans
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    ok(2, f"1000 randomized TP/replan cases match brute-force oracles in {elapsed:.1f}s")


def test_criterion_3_error_taxonomy_suite():
    def scene(**kw):
        return load_scene(scene_doc(**kw))

    sub = lambda a, t: Subtask(a, t, ModelChoice.M3)
    empty = None
    held = "apple"
    fixtures = [
        # (label, scene, subtask, held, code, message)
        ("L1", scene(), sub(ActionType.PICK, "apple"), "banana",
         ErrorCode.L1, "the hand is full"),
        ("L2", scene(), sub(ActionType.PLACE, "counter"), empty,
         ErrorCode.L2, "the hand is empty"),
        ("L3", scene(), sub(ActionType.PLACE, "fridge"), held,
         ErrorCode.L3, "the container is closed, you should open it first"),
        ("L4", scene(), sub(ActionType.OPEN, "apple"), empty,
         ErrorCode.L4, "please choose another object"),
        ("D1", scene(), sub(ActionType.OPEN, "drawer"), empty,
         ErrorCode.D1, "the target is far away"),
        ("D2", scene(bands={"apple": "too_close"}), sub(ActionType.PICK, "apple"),
         empty, ErrorCode.D2, "the target is too close"),
        ("F2", scene(), sub(ActionType.PICK, "unicorn"), empty,
         ErrorCode.F2, "please choose another object"),
        ("E1", scene(outcome_schedule={"pick apple": ["E1"]}),
         sub(ActionType.PICK, "apple"), empty,
         ErrorCode.E1, "the subtask is too difficult to perform"),
        ("E2", scene(outcome_schedule={"place counter": ["E2"]}),
         sub(ActionType.PLACE, "counter"), held,
         ErrorCode.E2, "the object is missing"),
        # precedence: unknown target masks the full hand
        ("F2 over L1", scene(), sub(ActionType.PICK, "unicorn"), held,
         ErrorCode.F2, "please choose another object"),
        # precedence: logical check masks distance
        ("L1 over D1", scene(), sub(ActionType.CLOSE, "drawer"), held,
         ErrorCode.L1, "the hand is full"),
        # precedence: closed container masks too-close
        ("L3 over D2", scene(bands={"fridge": "too_close"}),
         sub(ActionType.PLACE, "fridge"), held,
         ErrorCode.L3, "the container is closed, you should open it first"),
    ]
    assert len(fixtures) == 12
    for label, sc, subtask, hand, code, message in fixtures:
        outcome = execute(sc, subtask, hand)
        assert outcome.code is code, label
        assert outcome.message == message, label  # byte-exact, zero tolerance
    ok(3, "12 taxonomy fixtures return the expected codes and canonical messages")


def test_criterion_4_protocol_end_to_end():
    task = parse_task_file((BUNDLE / "tasks" / "office_reset.json").read_bytes())
    assert len(task.keypaths[0]) == 6
    scene_raw = (BUNDLE / "scenes" / "office.json").read_text(encoding="utf-8")
    plan_raw = (BUNDLE / "plans" / "office_reset.json").read_text(encoding="utf-8")

    def run_once():
        scene = load_scene(scene_raw).clone(seed=1234)
        planner = load_scripted_plan(plan_raw)
        return run_episode(scene, planner, task)

    runs = [run_once() for _ in range(3)]
    serialized = {serialize_trajectory(t) for t in runs}
    assert len(serialized) == 1  # deterministic replay across 3 invocations

    trajectory = runs[0]
    assert trajectory.terminated_by_end
    failures = [s for s in trajectory.steps if not s.feedback.ok]
    assert len(failures) == 1 and failures[0].feedback.code is ErrorCode.D1

    result = episode_result(trajectory, task)
    assert result.tp == 1  # TP = 100%
    report = build_report([trajectory], {task.id: task})
    assert (report["ser"], report["flags"]["ser_denominator_zero"]) == (100, False)
    assert (report["srr"], report["flags"]["srr_denominator_zero"]) == (100, False)
    ok(4, "6-node scripted episode with one injected D1: TP/SER/SRR all 100, "
          "terminated by End, byte-identical across replays")


def test_criterion_5_budget_and_averaging(tmp_path, capsys):
    tasks = [make_task(task_id=f"budget{i}", scene="s") for i in range(2)]
    docs = {"s": load_scene(scene_doc())}

    class Refuser:
        def next(self, instruction):
            return "No structured output from me."

    trajectories = run_benchmark(tasks, lambda t, r: Refuser(), docs, runs_per_task=3)
    assert len(trajectories) == 6  # 3 runs per task
    for trajectory in trajectories:
        assert len(trajectory.steps) == 20  # exactly the budget
        assert trajectory.terminated_by_budget

    logs = tmp_path / "logs"
    logs.mkdir()
    for trajectory in trajectories:
        (logs / f"{trajectory.task_id}__run{trajectory.run_index}.json").write_text(
            serialize_trajectory(trajectory), encoding="utf-8")
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    for task in tasks:
        (tasks_dir / f"{task.id}.json").write_text(json.dumps(task_document(task)),
                                                   encoding="utf-8")
    assert main(["evaluate", "--logs", str(logs), "--tasks", str(tasks_dir)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((logs / "report.json").read_text())
    assert report["sr"] == 0.0
    assert report["ser"] == 0.0
    assert report["flags"]["ser_denominator_zero"] is True
    ok(5, "refusal planner: 20 F1 steps x 3 runs per task; SR=0 and SER=0 "
          "with the zero-denominator flag")


def test_criterion_6_dataset_formulas(tmp_path):
    # 93 trajectories x 10 successful steps (9 moves + End) = 930
    tasks = {"bulk": make_task(task_id="bulk")}
    corpus = []
    for i in range(93):
        specs = [("Go to", f"spot_{i}_{j}", True) for j in range(9)]
        corpus.append(traj(specs, task_id="bulk", run_index=i))
    successful = sum(1 for t in corpus for s in t.steps if s.feedback.ok)
    assert successful == 930

    manifest = build_datasets(corpus, tasks, AugmentConfig(
        out_dir=tmp_path / "bulk", scenes=SCENES, seed=42, rewrites=3,
    ))
    assert manifest["sft"]["base"] == 930
    assert manifest["sft"]["total"] == 3720

    # End-as-rejected rule, corpus-wide scan over emitted pairs
    rng = random.Random(1612)
    mixed_tasks = {f"m{i}": make_task(task_id=f"m{i}") for i in range(10)}
    mixed = [random_trajectory(rng, task_id=f"m{i % 10}", run_index=i)
             for i in range(200)]
    manifest_a = build_datasets(mixed, mixed_tasks, AugmentConfig(
        out_dir=tmp_path / "a", scenes=SCENES, seed=9, dedup=False,
    ))
    assert manifest_a["dpo"]["end_as_chosen_violations"] == 0
    with (tmp_path / "a" / "dpo.jsonl").open() as handle:
        for line in handle:
            chosen = parse_planner_output(json.loads(line)["chosen"])
            assert not getattr(chosen, "is_end", False)

    # per-source counts against independent enumeration
    expected = {"sift": 0, "order_change": 0, "action_change": 0, "model_change": 0}
    for t in mixed:
        flags = [(s.feedback.ok, s.output.is_end, s.output.model) for s in t.steps]
        n = len(flags)
        expected["sift"] += sum(
            1 for i in range(n - 1)
            if not flags[i][0] and flags[i + 1][0] and not flags[i + 1][1])
        expected["order_change"] += sum(
            1 for i in range(n - 1) if flags[i][0] and flags[i + 1][0])
        expected["action_change"] += sum(
            1 for ok_, end_, _ in flags if ok_ and not end_)
        expected["model_change"] += sum(
            1 for ok_, end_, model in flags if ok_ and not end_ and model != "M3")
    for source, count in expected.items():
        assert manifest_a["dpo"]["pre_dedup"][source] == count, source

    # byte-identical dataset files across repeated seeded runs
    manifest_b = build_datasets(mixed, mixed_tasks, AugmentConfig(
        out_dir=tmp_path / "b", scenes=SCENES, seed=9, dedup=False,
    ))
    assert manifest_a == manifest_b
    for name in ("sft.jsonl", "dpo.jsonl", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok(6, "930 successful steps x (3+1) = 3720 SFT samples; End never chosen; "
          "per-source counts match enumeration on 200 random trajectories; "
          "seeded reruns byte-identical")


def test_criterion_7_aggregation_format_oracle(tmp_path, capsys):
    counts = [
        (ErrorCode.L1, 5), (ErrorCode.L2, 1), (ErrorCode.L3, 1), (ErrorCode.L4, 0),
        (ErrorCode.D1, 56), (ErrorCode.D2, 0), (ErrorCode.F2, 22),
        (ErrorCode.E1, 20), (ErrorCode.E2, 19),
    ]
    specs = []
    for code, n in counts:
        specs += [("Pick", "sofa", False, code)] * n
    specs += [("dance", "", False, ErrorCode.F1)] * 2  # F1 keeps raw strings
    assert sum(1 for s in specs) == 126
    filler = 416 - 126 - 1  # one End step completes the 416
    specs += [("Go to", "sofa", True)] * filler
    trajectory = traj(specs, task_id="stats")

    task = make_task(task_id="stats", keypaths=((node("Go to", "sofa"),),))
    report = build_report([trajectory], {"stats": task})
    stats = report["error_stats"]["successful"]
    assert stats["failed_steps"] == 126 and stats["total_steps"] == 416
    # exact counts, and each share of the 126 failed steps within ±0.01
    expectations = {"L": (7, 5.56), "D": (56, 44.44), "F": (24, 19.05), "E": (39, 30.95)}
    for category, (count, percent) in expectations.items():
        assert stats["category_counts"][category] == count, category
        assert abs(stats["category_percent"][category] - percent) <= 0.01, category

    # same numbers through the command surface
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "stats__run0.json").write_text(serialize_trajectory(trajectory),
                                           encoding="utf-8")
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    (tasks_dir / "stats.json").write_text(json.dumps(task_document(task)), encoding="utf-8")
    assert main(["report-errors", "--logs", str(logs),
                 "--tasks", str(tasks_dir)]) == EXIT_OK
    output = capsys.readouterr().out
    for text in ("5.56", "44.44", "19.05", "30.95", "30.29"):
        assert text in output
    ok(7, "replayed error-statistics row: L=5.56 D=44.44 F=19.05 E=30.95 "
          "(126 failed steps of 416) within ±0.01")


def test_criterion_8_pipeline_closure(tmp_path, capsys):
    started = time.monotonic()
    runs = tmp_path / "runs"
    datasets = tmp_path / "datasets"
    assert main(["--seed", "11", "run", "--out", str(runs)]) == EXIT_OK
    assert main(["evaluate", "--logs", str(runs)]) == EXIT_OK
    assert main(["report-errors", "--logs", str(runs)]) == EXIT_OK
    assert main(["--seed", "11", "augment", "--logs", str(runs),
                 "--out", str(datasets), "--rewrites", "1"]) == EXIT_OK
    capsys.readouterr()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert len(list(runs.glob("*__run*.json"))) == 36
    assert (runs / "report.json").exists()
    assert (datasets / "manifest.json").exists()
    ok(8, f"run -> evaluate -> report-errors -> augment over the bundled tasks "
          f"finished with exit 0 in {elapsed:.1f}s")
