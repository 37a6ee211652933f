import dataclasses
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homebench.core import (
    ActionType,
    EmptyKeypathSet,
    ErrorCode,
    HomebenchError,
    MissingTask,
    TaskAttribute,
    Trajectory,
)
from homebench.metrics import (
    EpisodeResult,
    _action_stats,
    _error_stats,
    _ser_srr,
    build_report,
    compute_tp,
    count_replans,
    episode_result,
    match_keypath,
    round2,
)

from conftest import (
    examples,
    make_task,
    node,
    prefix_subsequence_oracle,
    random_keypaths,
    random_trajectory,
    report_per_run,
    step,
    traj,
)


def successful_pairs(trajectory):
    return [
        (s.output.action_type, s.output.target)
        for s in trajectory.steps
        if s.feedback.ok and s.output.action_type is not ActionType.END
    ]


# ---------------------------------------------------------------------------
# keypath matching


def test_match_skips_failures_and_interleaved_steps():
    trajectory = traj([
        ("Go to", "drawer", True),
        ("Open", "drawer", True),
        ("Pick", "short_can", False, ErrorCode.E1),
        ("Pick", "short_can", True),
        ("Place", "drawer", True),
    ])
    keypath = (node("Open", "drawer"), node("Place", "drawer"))
    matched = match_keypath(trajectory, keypath)
    assert matched == 2
    assert matched == prefix_subsequence_oracle(successful_pairs(trajectory), keypath)


def test_match_empty_trajectory():
    trajectory = traj([], budget=True)
    keypath = (node("Pick", "apple"),)
    assert match_keypath(trajectory, keypath) == 0


def test_match_reversed_order_matches_only_first_node():
    keypath = (node("Open", "drawer"), node("Pick", "apple"))
    trajectory = traj([("Pick", "apple", True), ("Open", "drawer", True)])
    matched = match_keypath(trajectory, keypath)
    assert matched == 1
    assert matched == prefix_subsequence_oracle(successful_pairs(trajectory), keypath)


def test_match_failed_steps_never_advance():
    keypath = (node("Pick", "apple"),)
    trajectory = traj([("Pick", "apple", False, ErrorCode.D1)], budget=True)
    assert match_keypath(trajectory, keypath) == 0


def test_match_equals_prefix_oracle(rng):
    for _ in range(200):
        trajectory = random_trajectory(rng)
        for keypath in random_keypaths(rng):
            assert match_keypath(trajectory, keypath) == prefix_subsequence_oracle(
                successful_pairs(trajectory), keypath)


# ---------------------------------------------------------------------------
# task progress


def test_tp_picks_best_ratio():
    # ratios 1/3, 1/4, 1/2, 2/5 across four keypaths -> exactly 1/2
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
    ratios = [Fraction(match_keypath(trajectory, k), len(k)) for k in keypaths]
    assert ratios == [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(2, 5)]
    assert compute_tp(trajectory, keypaths) == Fraction(1, 2)


def test_tp_complete_match_is_one():
    trajectory = traj([("Pick", "apple", True), ("Place", "bowl", True)])
    keypaths = ((node("Pick", "apple"), node("Place", "bowl")),)
    assert compute_tp(trajectory, keypaths) == 1


def test_tp_no_successful_steps_is_zero():
    trajectory = traj([("Pick", "apple", False, ErrorCode.E1)], budget=True)
    keypaths = ((node("Pick", "apple"),),)
    assert compute_tp(trajectory, keypaths) == 0


def test_tp_empty_keypath_set():
    with pytest.raises(EmptyKeypathSet):
        compute_tp(traj([]), ())


def test_tp_monotone_under_appended_success(rng):
    for _ in range(200):
        keypaths = random_keypaths(rng)
        trajectory = random_trajectory(rng)
        base_specs = [
            (s.output.action_type, s.output.target, s.feedback.ok,
             s.feedback.code or ErrorCode.E1)
            for s in trajectory.steps
            if s.output.action_type is not ActionType.END
        ]
        before = compute_tp(traj(base_specs, budget=True), keypaths)
        extra = base_specs + [(ActionType.PICK, "apple", True, None)]
        after = compute_tp(traj(extra, budget=True), keypaths)
        assert after >= before


def test_tp_matches_bruteforce_oracle(rng):
    for _ in range(300):
        trajectory = random_trajectory(rng)
        keypaths = random_keypaths(rng)
        expected = max(
            Fraction(prefix_subsequence_oracle(successful_pairs(trajectory), k), len(k))
            for k in keypaths
        )
        assert compute_tp(trajectory, keypaths) == expected


# ---------------------------------------------------------------------------
# replans


def test_replan_count_worked_sequence():
    # statuses S F S F F S -> steps 3, 5, 6 follow failures
    trajectory = traj([
        ("Pick", "a", True),
        ("Pick", "a", False, ErrorCode.E1),
        ("Pick", "a", True),
        ("Pick", "a", False, ErrorCode.E1),
        ("Pick", "a", False, ErrorCode.E1),
        ("Pick", "a", True),
    ], budget=True)
    assert count_replans(trajectory) == 3


def test_replan_none_on_all_success():
    assert count_replans(traj([("Pick", "a", True)] * 4)) == 0


def test_replan_trailing_failure_not_counted():
    trajectory = traj([("Pick", "a", False, ErrorCode.E1)], budget=True)
    assert count_replans(trajectory) == 0


def test_replan_matches_enumeration(rng):
    for _ in range(300):
        trajectory = random_trajectory(rng)
        statuses = [s.feedback.ok for s in trajectory.steps]
        expected = sum(
            1 for i in range(2, len(statuses) + 1) if not statuses[i - 2]
        )
        assert count_replans(trajectory) == expected


# ---------------------------------------------------------------------------
# SER / SRR


def result(task_id="t1", tp=1, ended=True, replans=0, length=3):
    tp = Fraction(tp)
    return EpisodeResult(task_id, tp, tp == 1, ended, replans, length)


def test_ser_worked_example():
    results = [
        result(tp=1, ended=True),
        result(tp=1, ended=True),
        result(tp=Fraction(1, 2), ended=True),
        result(tp=Fraction(1, 2), ended=False),
    ]
    (value, flag), _ = _ser_srr((r, 1) for r in results)
    assert not flag
    assert round2(value) == 66.67


def test_ser_all_successful_and_ended():
    (value, flag), _ = _ser_srr([(result(), 1)] * 2)
    assert (value, flag) == (100, False)


def test_ser_zero_denominator_flag():
    (value, flag), _ = _ser_srr([(result(tp=0, ended=False), 1)])
    assert (value, flag) == (0, True)


def test_srr_worked_example():
    results = [
        result(tp=1, replans=2),
        result(tp=Fraction(1, 2), replans=3),
    ]
    _, (value, flag) = _ser_srr((r, 1) for r in results)
    assert (value, flag) == (40, False)


def test_srr_zero_denominator_flag():
    _, (value, flag) = _ser_srr([(result(replans=0), 1)])
    assert (value, flag) == (0, True)


def test_srr_all_replans_in_successes():
    _, (value, flag) = _ser_srr([(result(replans=4), 1), (result(replans=1), 1)])
    assert (value, flag) == (100, False)


def test_ser_srr_permutation_invariant(rng):
    results = [
        result(task_id=f"t{i % 3}", tp=rng.choice([0, 1]),
               ended=rng.random() < 0.5, replans=rng.randrange(4))
        for i in range(20)
    ]
    shuffled = results[:]
    rng.shuffle(shuffled)
    assert _ser_srr((r, 1) for r in results) == _ser_srr((r, 1) for r in shuffled)


# ---------------------------------------------------------------------------
# SR / PLWSR


def walk(length, ok=True, task_id="t1"):
    """A self-ended run of ``length`` non-End steps whose last one is the
    Pick of ``make_task``'s one keypath node, done when ``ok``."""
    return traj([("Go to", "sofa", True)] * (length - 1) + [("Pick", "apple", ok)],
                task_id=task_id)


EXPERT_5 = {"t1": make_task(expert_length=5)}


def test_plwsr_weight_longer_than_expert():
    report = build_report([walk(10)], EXPERT_5)
    assert report["sr"] == 100
    assert report["plwsr"] == 50  # 5 / max(5, 10)


def test_plwsr_weight_equal_lengths():
    assert build_report([walk(5)], EXPERT_5)["plwsr"] == 100


def test_plwsr_failure_weighs_zero():
    report = build_report([walk(5, ok=False)], EXPERT_5)
    assert (report["sr"], report["plwsr"]) == (0, 0)


def test_plwsr_literal_reading_saturates():
    assert build_report([walk(10)], EXPERT_5, plwsr_literal=True)["plwsr"] == 100  # 10 / max(5, 10)


def test_plwsr_shorter_than_expert_full_weight():
    assert build_report([walk(3)], EXPERT_5)["plwsr"] == 100  # 5 / max(5, 3) = 1


def test_sr_macro_averages_tasks_not_runs():
    tasks = {t: make_task(task_id=t, expert_length=3) for t in "ab"}
    runs = [walk(3, task_id="a"), walk(3, ok=False, task_id="a"),
            walk(3, task_id="b"), walk(3, task_id="b")]
    assert build_report(runs, tasks)["sr"] == 75  # mean(50, 100), also 3/4 of runs
    unbalanced = runs + [walk(3, task_id="b")]
    assert build_report(unbalanced, tasks)["sr"] == 75  # task b still contributes 100


def test_build_report_refuses_a_task_filed_under_another_id():
    # the task under key "t1" is "t2", so no task file is t1's
    with pytest.raises(MissingTask, match="'t1'"):
        build_report([traj([("Pick", "apple", True)])], {"t1": make_task(task_id="t2")})


# ---------------------------------------------------------------------------
# error statistics


def test_error_breakdown_percentages():
    specs = []
    for code, count in [
        (ErrorCode.L1, 5), (ErrorCode.L2, 1), (ErrorCode.L3, 1),
        (ErrorCode.D1, 56), (ErrorCode.F2, 22),
        (ErrorCode.E1, 20), (ErrorCode.E2, 19),
    ]:
        specs += [("Pick", "apple", False, code)] * count
    specs += [("dance", "x", False, ErrorCode.F1)] * 2
    specs += [("Go to", "sofa", True)] * (416 - 126 - 1)  # leave room for End
    trajectory = traj(specs)
    stats = _error_stats([((trajectory, True), 1)])["successful"]
    assert stats["failed_steps"] == 126
    assert stats["total_steps"] == 416
    assert stats["category_counts"] == {"L": 7, "D": 56, "F": 24, "E": 39}
    assert stats["category_percent"] == {"L": 5.56, "D": 44.44, "F": 19.05, "E": 30.95}
    assert stats["failed_step_share"] == 30.29


def test_error_breakdown_zero_failed_steps():
    trajectory = traj([("Pick", "a", True)])
    stats = _error_stats([((trajectory, False), 1)])["failed"]
    assert (stats["failed_steps"], stats["total_steps"]) == (0, 2)
    for code in ErrorCode:
        assert stats["counts"][code.value] == 0
        assert stats["percent"][code.value] == 0  # 0 of 0 failed steps reads as 0


def test_error_breakdown_single_failure_is_hundred():
    trajectory = traj([("Pick", "a", False, ErrorCode.D1)], budget=True)
    stats = _error_stats([((trajectory, False), 1)])["failed"]
    assert stats["counts"]["D1"] == stats["category_counts"]["D"] == stats["failed_steps"] == 1
    assert stats["percent"]["D1"] == stats["category_percent"]["D"] == 100


# ---------------------------------------------------------------------------
# per-action statistics


def test_action_error_share_ratio():
    trajectory = traj([
        ("Pick", "a", False, ErrorCode.E1),
        ("Go to", "b", False, ErrorCode.E1),
        ("Pick", "a", True),
    ], budget=True)
    stats = _action_stats([(trajectory, 1)])
    assert stats["Pick"]["e_error_share"] == stats["Go to"]["e_error_share"] == 50.0


def test_action_stats_omit_unattempted():
    stats = _action_stats([(traj([("Pick", "a", True)]), 1)])
    assert list(stats) == ["Pick"]  # no Open, no End


def test_action_stats_sr_all_success():
    stats = _action_stats([(traj([("Open", "drawer", True)] * 3), 1)])
    assert stats["Open"] == {"attempts": 3, "successes": 3, "sr": 100, "e_error_share": 0}


def test_action_stats_attempts_count_steps_not_retries():
    trajectory = traj([("Pick", "a", True)], budget=True)
    # one step with retries_used=2 is still one attempt
    from conftest import step as make_step
    from homebench.core import Trajectory
    s = make_step("Pick", "a", ok=True, retries=2)
    trajectory = Trajectory("t1", (s,))
    stats = _action_stats([(trajectory, 1)])
    assert stats["Pick"]["attempts"] == 1


# ---------------------------------------------------------------------------
# episode results


def test_episode_result_success_iff_tp_one():
    task = make_task(keypaths=((node("Pick", "apple"),),))
    full = traj([("Pick", "apple", True)])
    partial = traj([("Pick", "banana", True)])
    assert episode_result(full, task).success
    assert not episode_result(partial, task).success


def test_episode_result_length_excludes_end():
    task = make_task()
    trajectory = traj([("Pick", "apple", True), ("Place", "bowl", True)])
    assert len(trajectory.steps) == 3
    assert episode_result(trajectory, task).length == 2


def test_episode_result_percentages_in_range(rng):
    task = make_task(keypaths=random_keypaths(rng), expert_length=10)
    report = build_report(
        [random_trajectory(rng, task_id=task.id, run_index=i) for i in range(30)],
        {task.id: task})
    for value in (report["ser"], report["srr"], report["sr"], report["plwsr"]):
        assert 0 <= value <= 100


def test_ser_capped_when_success_lacks_end():
    # all keypath nodes matched but the budget ran out before End: that run
    # is in neither the numerator nor the denominator
    results = [
        result(tp=1, ended=False),               # complete but never ended
        result(tp=1, ended=True),   # the only self-terminated run
    ]
    (value, flag), _ = _ser_srr((r, 1) for r in results)
    assert (value, flag) == (100, False)
    assert 0 <= value <= 100


def test_round2_half_up():
    assert round2(Fraction(1, 800) * 100) == 0.13  # 0.125 rounds up, not to even
    assert round2(Fraction(1, 3) * 100) == 33.33
    assert round2(Fraction("41.665")) == 41.67


def round2_by_decimal(value: Fraction) -> float:
    """Reference rounding: the quotient in the default 28-digit decimal
    context, quantized half-up. That precision is exact enough for the
    values drawn below, whose distance from a half is far above 1e-18."""
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return float(dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@settings(max_examples=examples(500), deadline=None)
@given(st.one_of(
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
    # exactly on a half of a hundredth, and a hair to either side of one
    st.builds(lambda k: Fraction(2 * k + 1, 200), st.integers(-10**6, 10**6)),
    st.builds(lambda k, d, sign: Fraction(2 * k + 1, 200) + sign * Fraction(1, d),
              st.integers(-10**6, 10**6), st.integers(10**3, 10**9), st.sampled_from([1, -1])),
))
def test_round2_matches_decimal_half_up(value):
    assert repr(round2(value)) == repr(round2_by_decimal(value))  # -0.0 too


def test_action_stats_exclude_f1_non_attempts():
    # a format-rejected emission with a parseable action never reached the
    # executor and must not drag that skill's SR down
    trajectory = traj([
        ("Pick", "apple", False, ErrorCode.F1),  # e.g. bad model choice
        ("Pick", "apple", True),
    ], budget=True)
    stats = _action_stats([(trajectory, 1)])
    assert (stats["Pick"]["attempts"], stats["Pick"]["successes"], stats["Pick"]["sr"]) == (1, 1, 100)


def test_error_partition_uses_each_trajectorys_own_result():
    # same (task_id, run_index) appearing twice with different outcomes must
    # not cross-contaminate the success/failure partitions
    from homebench.metrics import build_report
    from conftest import make_task, node

    task = make_task(task_id="dup", keypaths=((node("Pick", "apple"),),))
    winner = traj([("Pick", "apple", True),
                   ("Open", "drawer", False, ErrorCode.D1)], task_id="dup")
    loser = traj([("Pick", "banana", True),
                  ("Open", "drawer", False, ErrorCode.L1)], task_id="dup",
                 budget=True)
    report = build_report([winner, loser], {"dup": task})
    assert report["error_stats"]["successful"]["counts"]["D1"] == 1
    assert report["error_stats"]["successful"]["counts"]["L1"] == 0
    assert report["error_stats"]["failed"]["counts"]["L1"] == 1


# ---------------------------------------------------------------------------
# report aggregates


def report_oracle(trajectories, tasks, literal):
    """The report's task-averaged aggregates, recomputed from each run's
    EpisodeResult with nothing shared with build_report."""
    by_task = {}
    for trajectory in trajectories:
        result = episode_result(trajectory, tasks[trajectory.task_id])
        by_task.setdefault(trajectory.task_id, []).append(result)

    def mean(values):
        values = list(values)
        return sum(values, Fraction(0)) / len(values)

    sr, plw, tp = {}, {}, {}
    for task_id, runs in by_task.items():
        expert = tasks[task_id].expert_length
        sr[task_id] = mean(Fraction(int(r.success)) for r in runs)
        plw[task_id] = mean(
            Fraction(r.length if literal else expert, max(expert, r.length))
            if r.success else Fraction(0)
            for r in runs
        )
        tp[task_id] = mean(r.tp for r in runs)
    per_attribute = {}
    for attr in TaskAttribute:
        carried = [sr[t] for t in by_task if attr in tasks[t].attributes]
        per_attribute[attr.value] = round2(100 * mean(carried)) if carried else None
    return {
        "sr": round2(100 * mean(sr.values())),
        "plwsr": round2(100 * mean(plw.values())),
        "tp": round2(100 * mean(tp.values())),
        "per_task": {
            t: {"runs": len(by_task[t]), "sr": round2(100 * sr[t]), "tp": round2(100 * tp[t])}
            for t in sorted(by_task)
        },
        "per_attribute_sr": per_attribute,
    }


@pytest.mark.parametrize("literal", [False, True])
def test_report_aggregates_match_oracle(rng, literal):
    attributes = list(TaskAttribute)
    successes = 0
    for _ in range(60):
        # one attribute at least is carried by no scored task; the unscored
        # task may carry it, which must not give it a value
        carried = rng.sample(attributes, rng.randrange(1, len(attributes)))
        unused = [a for a in attributes if a not in carried]
        tasks = {}
        trajectories = []
        for i in range(rng.randrange(1, 6)):
            keypaths = random_keypaths(rng, max_paths=2, max_nodes=2)
            longest = max(len(k) for k in keypaths)
            task = make_task(
                task_id=f"task{i}", keypaths=keypaths,
                expert_length=longest + rng.randrange(0, 4),
                attributes=rng.sample(carried, rng.randrange(1, len(carried) + 1)),
            )
            tasks[task.id] = task
            for run in range(rng.randrange(1, 5)):
                trajectories.append(
                    random_trajectory(rng, max_steps=8, task_id=task.id, run_index=run))
        tasks["unscored"] = make_task(task_id="unscored", attributes=unused)
        rng.shuffle(trajectories)

        doc = build_report(trajectories, tasks, plwsr_literal=literal)
        expected = report_oracle(trajectories, tasks, literal)
        assert {key: doc[key] for key in expected} == expected
        assert list(doc["per_task"]) == list(expected["per_task"])
        assert list(doc["per_attribute_sr"]) == [a.value for a in attributes]
        for attr in unused:
            assert doc["per_attribute_sr"][attr.value] is None
        successes += sum(1 for v in doc["per_task"].values() if v["sr"] > 0)
    assert successes > 0


# ---------------------------------------------------------------------------
# build_report scores each group of repeated_runs once; the per-run
# report is the oracle

_ACTIONS = ["Go to", "Pick", "Place", "Open"]
_TARGETS = ["apple", "drawer"]


@st.composite
def _step_records(draw):
    kind = draw(st.sampled_from(["success", "E", "L, D or F2", "f1", "f1 junk", "f1 end"]))
    if kind == "f1 junk":
        return step("Jump", "apple", ok=False, code=ErrorCode.F1)
    if kind == "f1 end":  # an End rejected for its form does not end the run
        return step(ActionType.END, "", ok=False, code=ErrorCode.F1)
    action = draw(st.sampled_from(_ACTIONS))
    target = draw(st.sampled_from(_TARGETS))
    if kind == "success":
        return step(action, target)
    codes = {"f1": [ErrorCode.F1], "E": [ErrorCode.E1, ErrorCode.E2],
             "L, D or F2": [c for c in ErrorCode if c.value[0] in "LD" or c is ErrorCode.F2]}[kind]
    return step(action, target, ok=False, code=draw(st.sampled_from(codes)),
                retries=draw(st.integers(0, 2)))


@st.composite
def _step_tuples(draw, keypaths):
    """Random steps, or a walk of one of ``keypaths`` with random steps
    before its nodes; then an End or none."""
    if draw(st.booleans()):
        steps = draw(st.lists(_step_records(), max_size=5))
    else:
        steps = []
        for n in draw(st.sampled_from(keypaths)):
            steps += draw(st.lists(_step_records(), max_size=2))
            steps.append(step(n.action, n.target))
    if draw(st.booleans()):
        steps.append(step(ActionType.END, ""))
    return tuple(steps)


def _equal_copy(steps):
    """Records equal to ``steps`` that share no object with them."""
    return tuple(dataclasses.replace(s, output=dataclasses.replace(s.output),
                                     feedback=dataclasses.replace(s.feedback))
                 for s in steps)


@st.composite
def _corpora(draw):
    """Tasks and runs whose steps come from a small pool, so runs repeat
    inside a task and across tasks, next to each other and apart."""
    attributes = list(TaskAttribute)
    tasks = {}
    for i in range(draw(st.integers(1, 3))):
        keypaths = draw(st.lists(
            st.lists(st.tuples(st.sampled_from(_ACTIONS), st.sampled_from(_TARGETS)),
                     min_size=1, max_size=3), min_size=1, max_size=3))
        longest = max(len(k) for k in keypaths)
        tasks[f"t{i}"] = make_task(
            task_id=f"t{i}",
            keypaths=[[node(a, t) for a, t in k] for k in keypaths],
            expert_length=longest + draw(st.integers(0, 3)),
            attributes=draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=2)))
    keypaths = [k for task in tasks.values() for k in task.keypaths]
    pool = draw(st.lists(_step_tuples(keypaths), min_size=1, max_size=3))
    task_ids = sorted(tasks)
    fault = draw(st.sampled_from([None, "missing task", "task filed under another id"]))
    if fault == "missing task":
        task_ids.append("ghost")  # a run may name a task with no task file
    elif fault == "task filed under another id":
        # the task under key "t0" is another task's, so t0 has none
        tasks["t0"] = dataclasses.replace(tasks["t0"], id="t0 elsewhere")
    runs = draw(st.lists(st.tuples(st.sampled_from(task_ids), st.sampled_from(pool),
                                   st.booleans()), min_size=1, max_size=12))
    trajectories = [Trajectory(task_id, _equal_copy(steps) if copy else steps, run_index=i)
                    for i, (task_id, steps, copy) in enumerate(runs)]
    if draw(st.booleans()):
        trajectories = draw(st.permutations(trajectories))
    return tasks, trajectories


def _report_or_fault(build, trajectories, tasks, literal):
    try:
        return build(trajectories, tasks, plwsr_literal=literal)
    except HomebenchError as exc:
        return type(exc), str(exc)


@settings(max_examples=examples(300), deadline=None)
@given(corpus=_corpora(), literal=st.booleans())
def test_grouped_report_equals_the_per_run_report(corpus, literal):
    tasks, trajectories = corpus
    expected = _report_or_fault(report_per_run, trajectories, tasks, literal)
    unfiled = [t.task_id for t in trajectories
               if t.task_id not in tasks or tasks[t.task_id].id != t.task_id]
    if unfiled:  # a missing task and a task filed under another id fail alike
        assert expected == (MissingTask, str(MissingTask(unfiled[0])))
    assert _report_or_fault(build_report, trajectories, tasks, literal) == expected
