import dataclasses
import hashlib
import itertools
import json
import random
import tempfile
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homebench.augment as augment
from homebench.augment import (
    AugmentConfig,
    PairSource,
    _is_end_text,
    _pair,
    _variant_text,
    build_datasets,
    dpo_action_change,
    dpo_model_change,
    dpo_order_change,
    dpo_sift,
    expand_with_rewrites,
    identity_rewriter,
    load_default_lexicon,
    sft_convert,
    split_task_ids,
)
from homebench.core import (
    SUCCESS,
    ActionType,
    EmptyLexicon,
    ErrorCode,
    MissingScene,
    MissingTask,
    ModelChoice,
    PlannerOutput,
    RewriterTransportError,
    StepRecord,
    Subtask,
    Trajectory,
    escape_surrogates,
    failure,
    parse_action,
    parse_model,
    parse_trajectory_log,
    serialize_output,
    serialize_trajectory,
)
from homebench.loop import (
    DEFAULT_TEMPLATE,
    EpisodeState,
    apply_feedback,
    parse_planner_output,
    render_template,
    replay_instructions,
    run_episode,
    stable_seed,
)
from homebench.metrics import repeated_runs, score_runs
from homebench.planners import ScriptedPlanner, Transcribed
from homebench.sim import load_scene

from conftest import (
    SCENES,
    examples,
    make_task,
    node,
    random_trajectory,
    render_history,
    replay,
    text_by_dumps,
    traj,
)
from test_loop import plan_entry
from test_sim import scene_doc


TASK = make_task(task_id="t1", keypaths=((node("Pick", "apple"),),))


# ---------------------------------------------------------------------------
# SFT conversion


def test_sft_skips_failed_steps():
    trajectory = traj([
        ("Pick", "apple", True),
        ("Place", "drawer", False, ErrorCode.L3),
        ("Open", "drawer", True),
        ("Place", "drawer", True),
    ], budget=True)  # 4 steps, 1 failure
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    assert len(samples) == 3
    assert all(json.loads(s.response)["subtask"][0] != "Place" or True for s in samples)


def test_sft_all_failed_is_empty():
    trajectory = traj([("Pick", "apple", False, ErrorCode.E1)] * 3, budget=True)
    assert sft_convert(trajectory, replay(trajectory, TASK)) == []


def test_sft_prompts_embed_growing_history():
    trajectory = traj([("Go to", f"spot_{i}", True) for i in range(9)])  # + End = 10
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    assert len(samples) == 10
    for k, sample in enumerate(samples):
        history = sample.instruction.history
        entries = [] if history == "none" else history.splitlines()
        assert len(entries) == k


def test_sft_prompt_matches_live_rendering():
    # all-success episode: the reconstructed prompts must be byte-identical
    # to what the planner actually saw
    task = make_task(task_id="demo")
    planner = ScriptedPlanner([
        plan_entry("Open", "fridge", "Octo"),
        plan_entry("Pick", "banana"),
        plan_entry("End", ""),
    ])
    planner = Transcribed(planner)
    trajectory = run_episode(load_scene(scene_doc()), planner, task)
    prompts = replay_instructions(trajectory, task, load_scene(scene_doc()))
    samples = sft_convert(trajectory, prompts)
    assert [s.prompt for s in samples] == [e["instruction"] for e in planner.transcript]
    assert [s.response for s in samples] == [e["response"] for e in planner.transcript]


def test_sft_history_scrubbed_but_feedback_kept():
    trajectory = traj([
        ("Pick", "apple", True),
        ("Place", "drawer", False, ErrorCode.L3),
        ("Open", "drawer", True),
    ], budget=True)
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    prompt_for_step3 = samples[1].instruction
    assert "Place" not in prompt_for_step3.history  # failed step scrubbed
    assert "1. Pick apple -> success" in prompt_for_step3.history
    assert prompt_for_step3.feedback.startswith("failure (L3)")


# targets with non-ASCII text and the U+001F that ``stable_seed`` joins on
history_targets = st.text(st.sampled_from("ab _\x1fé☕\u2028"), min_size=1, max_size=6)


@st.composite
def history_steps(draw):
    """One step of any kind: an F1 step holding a raw reply, a failed step
    of a valid subtask, or a successful one."""
    kind = draw(st.sampled_from(["f1", "failure", "success"]))
    if kind == "f1":
        return StepRecord(PlannerOutput(draw(st.text(max_size=8)), "", "", ""),
                          failure(ErrorCode.F1))
    action = draw(st.sampled_from([a for a in ActionType if a is not ActionType.END]))
    output = PlannerOutput("why", action.label, draw(history_targets),
                           draw(st.sampled_from([m.label for m in ModelChoice])))
    if kind == "success":
        return StepRecord(output, SUCCESS)
    code = draw(st.sampled_from([c for c in ErrorCode if c is not ErrorCode.F1]))
    return StepRecord(output, failure(code))


@settings(max_examples=examples(200), deadline=None)
@given(steps=st.lists(history_steps(), max_size=12), end=st.booleans())
def test_histories_extended_per_step_equal_the_rendered_ones(steps, end):
    if end:
        steps.append(StepRecord(PlannerOutput("done", "End", "", "M3"), SUCCESS))
    state = EpisodeState("tidy", SCENES["kitchen_home"].clone())
    assert state.history == render_history([])
    for n, step in enumerate(steps, 1):
        apply_feedback(state, step)
        assert state.history == render_history(steps[:n])
    trajectory = Trajectory("t1", steps)
    prompts = replay(trajectory, TASK)
    assert [p.history for p in prompts] == [render_history(steps[:n]) for n in range(len(steps))]
    kept = [step for step in steps if step.feedback.ok]
    assert [s.instruction.history for s in sft_convert(trajectory, prompts)] == [
        render_history(kept[:n]) for n in range(len(kept))]


# ---------------------------------------------------------------------------
# rewrites


def test_expand_zero_is_identity():
    trajectory = traj([("Pick", "apple", True)])
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    expanded, failures = expand_with_rewrites(samples, identity_rewriter, 0)
    assert expanded == samples
    assert failures == 0


def test_expand_identity_triplicates_with_fixed_fields():
    trajectory = traj([("Pick", "apple", True), ("Open", "drawer", True)])
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    expanded, _ = expand_with_rewrites(samples, identity_rewriter, 2)
    assert len(expanded) == len(samples) * 3
    assert expanded[: len(samples)] == samples  # originals first
    for sample in expanded:
        body = json.loads(sample.response)
        assert body["subtask"] in (["Pick", "apple"], ["Open", "drawer"], ["End"])


def test_expand_rewrites_only_text_fields():
    trajectory = traj([("Pick", "apple", True)])
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    expanded, _ = expand_with_rewrites(samples, lambda s: s.upper(), 1)
    original, rewritten = expanded[0], expanded[len(samples)]
    o_body, r_body = json.loads(original.response), json.loads(rewritten.response)
    assert r_body["analysis"] == o_body["analysis"].upper()
    assert r_body["subtask"] == o_body["subtask"]
    assert r_body["model"] == o_body["model"]
    assert rewritten.instruction.task == original.instruction.task.upper()
    assert rewritten.instruction.history == original.instruction.history


def test_expand_count_formula():
    trajectory = traj([("Go to", f"s{i}", True) for i in range(5)], budget=True)
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    expanded, failures = expand_with_rewrites(samples, identity_rewriter, 3)
    assert len(expanded) == len(samples) * 4
    assert failures == 0


def test_expand_survives_rewriter_failures():
    calls = {"n": 0}

    def flaky(text):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RewriterTransportError("down")
        return text

    trajectory = traj([("Pick", "apple", True), ("Open", "drawer", True)])
    samples = sft_convert(trajectory, replay(trajectory, TASK))
    expanded, failures = expand_with_rewrites(samples, flaky, 1)
    assert failures > 0
    assert len(expanded) == len(samples) * 2 - failures


def expand_by_replace(samples, rewriter, n):
    """Reference expansion: every variant rebuilds its instruction and output
    with ``dataclasses.replace`` and renders both texts from scratch.
    Returns ([(prompt, response)], failures)."""
    expanded = [(s.prompt, s.response) for s in samples]
    failures = 0
    for _ in range(n):
        for sample in samples:
            try:
                new_task = rewriter(sample.instruction.task)
                new_analysis = rewriter(sample.output.analysis)
            except RewriterTransportError:
                failures += 1
                continue
            instruction = dataclasses.replace(sample.instruction, task=new_task)
            output = dataclasses.replace(sample.output, analysis=new_analysis)
            expanded.append((render_template(DEFAULT_TEMPLATE, instruction),
                             serialize_output(output)))
    return expanded, failures


def rewrite_one_side(change_task):
    """Changes every task (or every analysis) and returns the other text
    unchanged: the expansion asks for a sample's task, then its analysis."""
    calls = itertools.count()

    def rewrite(text):
        asked_for_task = next(calls) % 2 == 0
        return text.upper() + " ~" if asked_for_task == change_task else text
    return rewrite


REWRITERS = {
    "unchanged": lambda: identity_rewriter,
    "equal_copy": lambda: lambda text: (text + ".")[:-1],
    "task_only": lambda: rewrite_one_side(True),
    "analysis_only": lambda: rewrite_one_side(False),
    "both": lambda: lambda text: text[::-1] + " (reworded)",
}


def failing_every(k, rewriter):
    calls = itertools.count(1)

    def rewrite(text):
        if next(calls) % k == 0:
            raise RewriterTransportError("down")
        return rewriter(text)
    return rewrite


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(REWRITERS)),
       n=st.integers(0, 3), task_text=st.text(max_size=16),
       fail_every=st.sampled_from([None, 3, 5]))
def test_expand_matches_replace_oracle(seed, kind, n, task_text, fail_every):
    trajectory = random_trajectory(random.Random(seed))
    task = make_task(task_id="t1", instruction=task_text)
    samples = sft_convert(trajectory, replay(trajectory, task))

    def fresh_rewriter():
        rewriter = REWRITERS[kind]()
        return failing_every(fail_every, rewriter) if fail_every else rewriter

    expanded, failures = expand_with_rewrites(samples, fresh_rewriter(), n)
    expected, expected_failures = expand_by_replace(samples, fresh_rewriter(), n)
    assert failures == expected_failures
    assert [(v.prompt, v.response) for v in expanded] == expected
    assert expanded[: len(samples)] == samples
    for variant in expanded:
        assert variant.prompt == render_template(DEFAULT_TEMPLATE, variant.instruction)
        assert variant.response == serialize_output(variant.output)
    if kind in ("unchanged", "equal_copy"):
        originals = {id(s) for s in samples}
        assert all(id(v) in originals for v in expanded)


def test_cached_texts_follow_replace_and_leave_eq_hash_alone():
    trajectory = traj([("Pick", "apple", True), ("Open", "drawer", True)])
    instruction = replay(trajectory, TASK)[1]
    output = trajectory.steps[1].output
    for value, render, changes in (
        (instruction, lambda i: render_template(DEFAULT_TEMPLATE, i),
         [{"task": "a new task"}, {"history": "none"}, {"observations": "front: a cat"}]),
        (output, serialize_output,
         [{"analysis": "a new analysis"}, {"action": "Close"}, {"model": "M2"}]),
    ):
        unread = dataclasses.replace(value)
        hash_before = hash(value)
        assert value.text == render(value)
        # a read caches the text outside the fields: == and hash ignore it
        assert value == unread and hash(value) == hash(unread) == hash_before
        for change in changes:
            moved = dataclasses.replace(value, **change)
            assert moved.text == render(moved) != value.text
            assert moved != value
        assert value.text == render(value)


# ---------------------------------------------------------------------------
# DPO generators


def test_sift_basic_rule():
    trajectory = traj([
        ("Pick", "apple", True),
        ("Pick", "banana", False, ErrorCode.D1),
        ("Go to", "table", True),
    ], budget=True)
    pairs = dpo_sift(trajectory, replay(trajectory, TASK))
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.source is PairSource.SIFT
    assert json.loads(pair.rejected)["subtask"] == ["Pick", "banana"]
    assert json.loads(pair.chosen)["subtask"] == ["Go to", "table"]
    # the prompt is the instruction for the failed step: its history holds
    # only step 1
    assert "1. Pick apple -> success" in pair.prompt
    assert "banana" not in pair.prompt.split("Observations:")[0].split("History:")[1].split("Feedback:")[0]


def test_sift_consecutive_failures():
    trajectory = traj([
        ("Pick", "a", False, ErrorCode.E1),
        ("Pick", "b", False, ErrorCode.E1),
        ("Pick", "c", True),
    ], budget=True)
    pairs = dpo_sift(trajectory, replay(trajectory, TASK))
    assert len(pairs) == 1
    assert json.loads(pairs[0].rejected)["subtask"] == ["Pick", "b"]


def test_sift_all_success_empty():
    trajectory = traj([("Pick", "a", True)] * 3)
    assert dpo_sift(trajectory, replay(trajectory, TASK)) == []


def test_sift_skips_end_as_chosen():
    trajectory = traj([("Pick", "a", False, ErrorCode.E1)])  # failure then End
    assert trajectory.steps[-1].output.is_end
    assert dpo_sift(trajectory, replay(trajectory, TASK)) == []


def test_sift_enumeration_over_short_status_strings():
    # brute-force the rule over every success/failure string up to length 4
    for length in range(0, 5):
        for statuses in itertools.product([True, False], repeat=length):
            specs = [
                ("Go to", f"spot_{i}", ok, ErrorCode.E1)
                for i, ok in enumerate(statuses)
            ]
            trajectory = traj(specs, budget=True)
            expected = sum(
                1 for i in range(length - 1)
                if not statuses[i] and statuses[i + 1]
            )
            prompts = replay(trajectory, TASK)
            assert len(dpo_sift(trajectory, prompts)) == expected


def test_order_change_adjacent_successes():
    trajectory = traj([
        ("Pick", "a", True), ("Place", "drawer", True), ("Go to", "sofa", True),
    ], budget=True)
    pairs = dpo_order_change(trajectory, replay(trajectory, TASK))
    assert len(pairs) == 2
    assert json.loads(pairs[0].chosen)["subtask"] == ["Pick", "a"]
    assert json.loads(pairs[0].rejected)["subtask"] == ["Place", "drawer"]


def test_order_change_end_lands_rejected():
    trajectory = traj([("Pick", "a", True)])  # Pick then End
    pairs = dpo_order_change(trajectory, replay(trajectory, TASK))
    assert len(pairs) == 1
    assert json.loads(pairs[0].rejected)["subtask"] == ["End"]
    assert json.loads(pairs[0].chosen)["subtask"] == ["Pick", "a"]


def test_order_change_alternating_none():
    trajectory = traj([
        ("Pick", "a", True), ("Pick", "b", False, ErrorCode.E1),
        ("Pick", "c", True), ("Pick", "d", False, ErrorCode.E1),
    ], budget=True)
    assert dpo_order_change(trajectory, replay(trajectory, TASK)) == []


def test_action_change_seeded_golden():
    trajectory = traj([("Pick", "apple", True)], budget=True)
    pairs = dpo_action_change(trajectory, replay(trajectory, TASK),
                              load_default_lexicon(),
                              random.Random(7))
    assert len(pairs) == 1
    rejected = json.loads(pairs[0].rejected)
    chosen = json.loads(pairs[0].chosen)
    assert rejected["subtask"][0] == "seal"  # pinned draw for seed 7
    assert rejected["subtask"][1] == chosen["subtask"][1]
    assert rejected["analysis"] == chosen["analysis"]
    assert rejected["model"] == chosen["model"]


def test_action_change_skips_end():
    trajectory = traj([("Pick", "apple", True)])  # + End
    pairs = dpo_action_change(trajectory, replay(trajectory, TASK),
                              ["grab"], random.Random(0))
    assert len(pairs) == 1  # only the Pick step


def test_action_change_one_pair_per_success():
    trajectory = traj([("Go to", f"s{i}", True) for i in range(6)], budget=True)
    pairs = dpo_action_change(trajectory, replay(trajectory, TASK),
                              ["grab", "take"], random.Random(0))
    assert len(pairs) == 6


def test_action_change_empty_lexicon():
    with pytest.raises(EmptyLexicon):
        trajectory = traj([("Pick", "a", True)])
        dpo_action_change(trajectory, replay(trajectory, TASK), [],
                          random.Random(0))


def test_model_change_same_category_swaps():
    trajectory = traj([
        ("Go to", "sofa", True), ("Pick", "apple", True),
    ], budget=True)
    pairs = dpo_model_change(trajectory, replay(trajectory, TASK))
    assert len(pairs) == 2
    first, second = (json.loads(p.rejected) for p in pairs)
    assert first["model"] == "PixNav"   # NoMaD -> PixNav
    assert second["model"] == "Octo"    # RT-1-X -> Octo


def test_model_change_skips_sole_category_member():
    from conftest import step
    from homebench.core import Trajectory

    steps = (step(ActionType.PICK, "apple", ok=True, model="M3"),)
    trajectory = Trajectory("t1", steps)
    assert dpo_model_change(trajectory, replay(trajectory, TASK)) == []


def end_by_reparse(output: PlannerOutput) -> bool:
    """Reference End check on the text: parse the serialized output back."""
    return parse_planner_output(serialize_output(output)).action_type is ActionType.END


@st.composite
def styled_label(draw, label):
    """An action label in random case, with random separators and padding."""
    words = [
        "".join(c.upper() if draw(st.booleans()) else c.lower() for c in word)
        for word in label.split()
    ]
    sep = draw(st.sampled_from([" ", "  ", "_", "-", "\t"]))
    pad = st.sampled_from(["", " ", "  ", "\n"])
    return draw(pad) + sep.join(words) + draw(pad)


actions = st.one_of(
    st.sampled_from([a.label for a in ActionType]).flatmap(styled_label),
    st.sampled_from(load_default_lexicon()),
    st.just(""),
    st.text(max_size=12),
)
planner_outputs = st.builds(
    PlannerOutput,
    analysis=st.text(max_size=20),
    action=actions,
    target=st.one_of(st.just(""), st.sampled_from(["apple", "kitchen table"]),
                     st.text(max_size=12)),
    model=st.one_of(st.sampled_from([m.label for m in ModelChoice]), st.text(max_size=8)),
)


@given(planner_outputs)
@example(PlannerOutput("done", "End", "", "M3"))
@example(PlannerOutput("done", " eND ", "apple", "M3"))  # End with a target
def test_end_on_structured_output_equals_text_reparse(output):
    expected = end_by_reparse(output)
    assert (output.action_type is ActionType.END) == expected
    assert _is_end_text(serialize_output(output)) == expected
    # _pair refuses exactly the End-chosen pairs (the rejected side differs)
    rejected = dataclasses.replace(output, analysis=output.analysis + "!")
    prompts = replay(traj([("Pick", "apple", True)], budget=True), TASK)
    pair = _pair(prompts, 0, output, rejected.text, PairSource.SIFT, "t1")
    assert (pair is None) == expected


def derive_by_reparse(output: PlannerOutput):
    """Reference derivation: parse the strings again on every call."""
    action = parse_action(output.action) if output.action else None
    model = parse_model(output.model) if output.model else None
    if action is None or model is None or (output.target == "") != (action is ActionType.END):
        return action, None
    return action, Subtask(action, output.target, model)


@given(planner_outputs, st.sampled_from(load_default_lexicon()))
@example(PlannerOutput("a", "pIck", "apple", "rt1x"), "GOTO")
def test_derived_subtask_equals_reparse(output, entry):
    corrupted = dataclasses.replace(output, action=entry)
    for derived in (output, corrupted):
        action, subtask = derive_by_reparse(derived)
        assert derived.action_type is action
        assert derived.subtask == subtask
        assert derived.is_end == (action is ActionType.END and derived.target == "")
    # construction keeps the strings verbatim, canonical or not
    assert (corrupted.action, corrupted.model) == (entry, output.model)


# JSON-significant and awkward characters: quotes, backslashes, control
# characters (U+007F and U+2028 included) and non-ASCII text
awkward_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\t\x1f\x7f\u2028é☕'),
                                 st.characters()), max_size=12)
# an analysis as a log holds it: any lone surrogate written as its escape
escaped_analysis = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)),
                           max_size=12).map(escape_surrogates)
variant_outputs = st.builds(
    PlannerOutput,
    analysis=st.one_of(awkward_text, escaped_analysis),
    action=st.one_of(actions, awkward_text),
    target=st.one_of(st.just(""), st.sampled_from(["apple", "kitchen table"]), awkward_text),
    model=st.one_of(st.sampled_from([m.label for m in ModelChoice]), awkward_text),
)


@settings(max_examples=examples(300))
@given(output=variant_outputs,
       entry=st.one_of(st.sampled_from(load_default_lexicon()), actions, awkward_text),
       model=st.one_of(st.sampled_from([m.label for m in ModelChoice]), awkward_text))
@example(PlannerOutput("a\\udc80", "Pick", "", "RT-1-X"), "end", "Octo")  # turns into an End
@example(PlannerOutput("done", "End", "", "M3"), "grab", "M3")  # an End that no longer is
def test_variant_texts_equal_the_replaced_outputs_serialized(output, entry, model):
    assert output.text == text_by_dumps(output)
    for variant, text in (
        (dataclasses.replace(output, action=entry), _variant_text(output, action=entry)),
        (dataclasses.replace(output, model=model), _variant_text(output, model=model)),
    ):
        assert text == serialize_output(variant) == text_by_dumps(variant)


def test_rejected_differs_only_in_mandated_field(rng):
    lexicon = load_default_lexicon()
    for _ in range(60):
        trajectory = random_trajectory(rng)
        prompts = replay(trajectory, TASK)
        for pair in dpo_action_change(trajectory, prompts, lexicon, rng):
            chosen, rejected = json.loads(pair.chosen), json.loads(pair.rejected)
            assert chosen["subtask"][0] != rejected["subtask"][0]
            assert chosen["subtask"][1:] == rejected["subtask"][1:]
            assert chosen["analysis"] == rejected["analysis"]
            assert chosen["model"] == rejected["model"]
        for pair in dpo_model_change(trajectory, prompts):
            chosen, rejected = json.loads(pair.chosen), json.loads(pair.rejected)
            assert chosen["model"] != rejected["model"]
            assert chosen["subtask"] == rejected["subtask"]
            assert chosen["analysis"] == rejected["analysis"]


# ---------------------------------------------------------------------------
# full pipeline


def corpus(rng, n=20):
    tasks = {}
    trajectories = []
    for i in range(n):
        task_id = f"task{i % 7}"
        if task_id not in tasks:
            tasks[task_id] = make_task(task_id=task_id)
        trajectories.append(
            random_trajectory(rng, task_id=task_id, run_index=i // 7)
        )
    return trajectories, tasks


def test_build_datasets_counts_and_determinism(tmp_path, rng):
    trajectories, tasks = corpus(rng)

    def build(out):
        return build_datasets(trajectories, tasks, AugmentConfig(
            out_dir=tmp_path / out, scenes=SCENES, seed=11, rewrites=2,
        ))

    manifest_a = build("a")
    manifest_b = build("b")
    assert manifest_a == manifest_b
    for name in ("sft.jsonl", "dpo.jsonl", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    successful = sum(
        1 for t in trajectories for s in t.steps if s.feedback.ok
    )
    assert manifest_a["sft"]["base"] == successful
    assert manifest_a["sft"]["total"] == successful * 3


def test_build_datasets_per_source_formulas_against_enumeration(tmp_path):
    rng = random.Random(404)
    trajectories = [random_trajectory(rng, task_id=f"t{i % 9}", run_index=i)
                    for i in range(200)]
    tasks = {f"t{i}": make_task(task_id=f"t{i}") for i in range(9)}
    manifest = build_datasets(trajectories, tasks, AugmentConfig(
        out_dir=tmp_path / "ds", scenes=SCENES, seed=5, dedup=False,
    ))

    exp = {"sift": 0, "order_change": 0, "action_change": 0, "model_change": 0}
    for t in trajectories:
        ok = [s.feedback.ok for s in t.steps]
        is_end = [s.output.is_end for s in t.steps]
        models = [s.output.model for s in t.steps]
        n = len(ok)
        exp["sift"] += sum(
            1 for i in range(n - 1)
            if not ok[i] and ok[i + 1] and not is_end[i + 1]
        )
        exp["order_change"] += sum(
            1 for i in range(n - 1) if ok[i] and ok[i + 1]
        )
        exp["action_change"] += sum(
            1 for i in range(n) if ok[i] and not is_end[i]
        )
        exp["model_change"] += sum(
            1 for i in range(n) if ok[i] and not is_end[i] and models[i] != "M3"
        )

    for source, expected in exp.items():
        assert manifest["dpo"]["pre_dedup"][source] == expected, source


def test_build_datasets_refuses_a_missing_scene_before_any_replay(tmp_path, rng, monkeypatch):
    trajectories, tasks = corpus(rng)
    # the last task in task order plays in a scene the config lacks
    tasks["task6"] = make_task(task_id="task6", scene="bedroom")
    replays = []
    monkeypatch.setattr(augment, "replay_instructions",
                        lambda *args: replays.append(args) or [])
    for scenes, task_id, scene in ((SCENES, "task6", "bedroom"), ({}, "task0", "kitchen_home")):
        with pytest.raises(MissingScene) as info:
            build_datasets(trajectories, tasks, AugmentConfig(
                out_dir=tmp_path / "ds", scenes=scenes, seed=1))
        assert str(info.value) == (f"task {task_id!r} needs scene {scene!r}, "
                                   "which is not among the scenes given")
    assert replays == []
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("fault", ["missing task", "task filed under another id"])
def test_build_datasets_refuses_a_log_with_no_task_of_its_id_before_any_replay(
        tmp_path, rng, monkeypatch, fault):
    trajectories, tasks = corpus(rng)
    # the last task in task order has no task file of its own
    if fault == "missing task":
        del tasks["task6"]
    else:  # its key holds another task, with its own instruction and scene
        tasks["task6"] = make_task(task_id="task6 elsewhere", instruction="do another thing")
    replays = []
    monkeypatch.setattr(augment, "replay_instructions",
                        lambda *args: replays.append(args) or [])
    with pytest.raises(MissingTask, match="'task6'"):
        build_datasets(trajectories, tasks, AugmentConfig(
            out_dir=tmp_path / "ds", scenes=SCENES, seed=1))
    assert replays == []
    assert not (tmp_path / "ds").exists()


def test_build_datasets_end_never_chosen(tmp_path, rng):
    trajectories, tasks = corpus(rng, n=40)
    manifest = build_datasets(trajectories, tasks, AugmentConfig(
        out_dir=tmp_path / "ds", scenes=SCENES, seed=2,
    ))
    assert manifest["dpo"]["end_as_chosen_violations"] == 0
    from homebench.loop import parse_planner_output

    with (tmp_path / "ds" / "dpo.jsonl").open() as handle:
        for line in handle:
            record = json.loads(line)
            chosen = parse_planner_output(record["chosen"])
            assert not (hasattr(chosen, "is_end") and chosen.is_end)


def test_build_datasets_dedup_stable_under_double_ingestion(tmp_path, rng):
    trajectories, tasks = corpus(rng)
    once = build_datasets(trajectories, tasks, AugmentConfig(
        out_dir=tmp_path / "once", scenes=SCENES, seed=3,
    ))
    twice = build_datasets(list(trajectories) + list(trajectories), tasks,
                           AugmentConfig(out_dir=tmp_path / "twice", scenes=SCENES, seed=3))
    assert once["dpo"]["post_dedup"] == twice["dpo"]["post_dedup"]
    assert twice["dpo"]["pre_dedup"]["total"] == 2 * once["dpo"]["pre_dedup"]["total"]


def test_build_datasets_train_split(tmp_path, rng):
    trajectories, tasks = corpus(rng)
    # each task's instruction names it, so a line's prompt tells its task
    tasks = {tid: dataclasses.replace(task, instruction=f"do the thing for <{tid}>")
             for tid, task in tasks.items()}
    manifest = build_datasets(trajectories, tasks, AugmentConfig(
        out_dir=tmp_path / "ds", scenes=SCENES, seed=9, train_split=0.7, rewrites=2,
    ))
    split = manifest["split"]
    assert set(split["train_tasks"]) | set(split["val_tasks"]) == set(tasks)
    assert not set(split["train_tasks"]) & set(split["val_tasks"])
    assert split["train_tasks"] and split["val_tasks"]
    assert manifest["sft"]["total"] == 3 * manifest["sft"]["base"]

    def task_of(line):
        prompt = json.loads(line)["prompt"]
        (tid,) = [tid for tid in tasks if f"<{tid}>" in prompt]
        return tid

    def read(filename):
        return (tmp_path / "ds" / filename).read_text(encoding="utf-8").splitlines(keepends=True)

    for name in ("sft", "dpo"):
        all_lines = read(f"{name}.jsonl")
        assert all_lines
        assert len(read(f"{name}_train.jsonl")) + len(read(f"{name}_val.jsonl")) == len(all_lines)
        for half, ids in (("train", split["train_tasks"]), ("val", split["val_tasks"])):
            assert read(f"{name}_{half}.jsonl") == [
                line for line in all_lines if task_of(line) in ids]


def test_split_task_ids_deterministic():
    ids = [f"t{i}" for i in range(10)]
    assert split_task_ids(ids, 0.9, 1) == split_task_ids(ids, 0.9, 1)
    train, val = split_task_ids(ids, 0.9, 1)
    assert len(train) == 9 and len(val) == 1


# ---------------------------------------------------------------------------
# repeated runs share their derived work


def model_change_by_scan(trajectory, prompts):
    """Reference dispatch pairs: the swap is found by scanning ModelChoice
    for the first other model of the step's category."""
    pairs = []
    for i, step in enumerate(trajectory.steps):
        if not step.feedback.ok or step.output.action_type is ActionType.END:
            continue
        model = step.output.subtask.model
        alternatives = [
            m for m in ModelChoice if m.category is model.category and m is not model
        ]
        if not alternatives:
            continue
        swapped = dataclasses.replace(step.output, model=alternatives[0].label)
        pair = _pair(
            prompts, i, step.output, text_by_dumps(swapped),
            PairSource.MODEL_CHANGE, trajectory.task_id,
        )
        if pair is not None:
            pairs.append(pair)
    return pairs


def action_change_by_replace(trajectory, prompts, lexicon, rng):
    """Reference format pairs: each corrupted output is built with
    ``dataclasses.replace`` and written with ``json.dumps``; the candidates
    are listed anew for every step."""
    pairs = []
    for i, step in enumerate(trajectory.steps):
        if not step.feedback.ok:
            continue
        candidates = [entry for entry in lexicon if entry != step.output.action]
        if not candidates:
            continue
        corrupted = dataclasses.replace(step.output, action=rng.choice(candidates))
        pair = _pair(
            prompts, i, step.output, text_by_dumps(corrupted),
            PairSource.ACTION_CHANGE, trajectory.task_id,
        )
        if pair is not None:
            pairs.append(pair)
    return pairs


def build_every_run(trajectories, tasks, config):
    """Reference builder: replays and derives every trajectory on its own,
    builds and writes each action and model variant with ``dataclasses.replace``
    and ``json.dumps``, dedups on a sha256 of the U+001F-joined texts, parses the chosen text
    of every kept pair for the End audit and writes each line with
    ``json.dumps``. Writes the same files as ``build_datasets``."""
    out_dir = Path(config.out_dir)
    rewriter = config.rewriter if config.rewriter is not None else identity_rewriter
    lexicon = config.lexicon if config.lexicon is not None else load_default_lexicon()
    if not lexicon:
        raise EmptyLexicon("action corruption needs a non-empty lexicon")

    ordered = sorted(trajectories, key=lambda t: (t.task_id, t.run_index))
    samples = []
    pairs = []
    for trajectory in ordered:
        task = tasks.get(trajectory.task_id)
        if task is None:
            raise MissingTask(trajectory.task_id)
        prompts = replay_instructions(trajectory, task, config.scenes[task.scene_ref].clone())
        samples.extend(sft_convert(trajectory, prompts))
        pairs.extend(dpo_sift(trajectory, prompts))
        pairs.extend(dpo_order_change(trajectory, prompts))
        draw_rng = random.Random(
            stable_seed(config.seed, trajectory.task_id, trajectory.run_index)
        )
        pairs.extend(action_change_by_replace(trajectory, prompts, lexicon, draw_rng))
        pairs.extend(model_change_by_scan(trajectory, prompts))

    base_count = len(samples)
    samples, rewrite_failures = expand_with_rewrites(samples, rewriter, config.rewrites)

    def per_source(items):
        counts = {source.value: 0 for source in PairSource}
        for pair in items:
            counts[pair.source.value] += 1
        counts["total"] = len(items)
        return counts

    pre_dedup = per_source(pairs)
    if config.dedup:
        seen = set()
        deduped = []
        for pair in pairs:
            blob = "\x1f".join((pair.prompt, pair.chosen, pair.rejected))
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            if key not in seen:
                seen.add(key)
                deduped.append(pair)
        pairs = deduped
    post_dedup = per_source(pairs)

    violations = sum(1 for pair in pairs if _is_end_text(pair.chosen))

    lexicon_hash = hashlib.sha256(
        json.dumps(list(lexicon), ensure_ascii=False).encode("utf-8")
    ).hexdigest()

    out_dir.mkdir(parents=True, exist_ok=True)
    split = None
    if config.train_split is not None:
        train_ids, val_ids = split_task_ids(
            (t.task_id for t in ordered), config.train_split, config.seed
        )
        split = {
            "train_fraction": config.train_split,
            "train_tasks": train_ids,
            "val_tasks": val_ids,
        }
        train_set = set(train_ids)
    records = (
        ("sft", samples, lambda s: {"prompt": s.prompt, "response": s.response}),
        ("dpo", pairs, lambda p: {"prompt": p.prompt, "chosen": p.chosen,
                                  "rejected": p.rejected, "source": p.source.value}),
    )
    for name, items, record in records:
        lines = [json.dumps(record(item), ensure_ascii=False) + "\n" for item in items]
        write_lines(out_dir / f"{name}.jsonl", lines)
        if split is not None:
            write_lines(out_dir / f"{name}_train.jsonl",
                        (line for x, line in zip(items, lines) if x.task_id in train_set))
            write_lines(out_dir / f"{name}_val.jsonl",
                        (line for x, line in zip(items, lines) if x.task_id not in train_set))

    manifest = {
        "seed": config.seed,
        "rewrites": config.rewrites,
        "rewrite_failures": rewrite_failures,
        "lexicon_sha256": lexicon_hash,
        "trajectories": len(ordered),
        "sft": {"base": base_count, "total": len(samples)},
        "dpo": {
            "pre_dedup": pre_dedup,
            "post_dedup": post_dedup,
            "end_as_chosen_violations": violations,
        },
        "split": split,
    }
    (out_dir / "manifest.json").write_bytes(
        (json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))
    return manifest


def write_lines(path, lines):
    path.write_bytes("".join(lines).encode("utf-8"))


def assert_same_files(trajectories, tasks, rewriter=None, **options):
    """Build with ``build_datasets`` and with the reference builder, each
    given a fresh rewriter from the ``rewriter`` factory, and require equal
    manifests and byte-identical files. Returns the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        expected = build_every_run(trajectories, tasks, AugmentConfig(
            out_dir=out / "every_run", scenes=SCENES, rewriter=rewriter and rewriter(),
            **options))
        manifest = build_datasets(trajectories, tasks, AugmentConfig(
            out_dir=out / "shared", scenes=SCENES, rewriter=rewriter and rewriter(), **options))
        assert manifest == expected
        names = sorted(path.name for path in (out / "every_run").iterdir())
        assert sorted(path.name for path in (out / "shared").iterdir()) == names
        for name in names:
            shared, every_run = (out / "shared" / name), (out / "every_run" / name)
            assert shared.read_bytes() == every_run.read_bytes(), name
    return manifest


@st.composite
def repeating_corpora(draw):
    """Runs copied from a small pool of base trajectories, so equal runs of a
    task come in streaks, interleave with unequal ones, and can equal the
    last run of the task before. A copy shares its base's steps or holds
    equal ones parsed back from its log; one may be ingested twice under
    its run index, or left unfinished. Returned in shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bases = [random_trajectory(rng, max_steps=6, run_index=b)
             for b in range(draw(st.integers(1, 3)))]
    tasks = {}
    trajectories = []
    for t in range(draw(st.integers(1, 3))):
        task_id = f"t{t}"
        # non-ASCII, quoted and control text in every prompt, so the written
        # lines show how the encoder escapes them
        tasks[task_id] = make_task(task_id=task_id,
                                   instruction=f'tidy up the "café" for {task_id}\t\u2028☕')
        for run_index in range(draw(st.integers(1, 6))):
            base = bases[draw(st.integers(0, len(bases) - 1))]
            run = dataclasses.replace(base, task_id=task_id, run_index=run_index)
            if draw(st.booleans()):
                run = parse_trajectory_log(serialize_trajectory(run))
            if run.terminated_by_budget and draw(st.integers(0, 4)) == 0:
                run = dataclasses.replace(run, cut_off="endpoint down")
            trajectories.append(run)
            if draw(st.integers(0, 4)) == 0:
                trajectories.append(run)
    return draw(st.permutations(trajectories)), tasks


@settings(max_examples=examples(100), deadline=None)
@given(corpus=repeating_corpora(), seed=st.integers(0, 2**16), rewrites=st.integers(0, 2),
       reword=st.booleans(), dedup=st.booleans(), train_split=st.sampled_from([None, 0.5]))
def test_shared_repeats_write_the_files_of_every_run_derived(
        corpus, seed, rewrites, reword, dedup, train_split):
    trajectories, tasks = corpus
    assert_same_files(
        trajectories, tasks, rewriter=(lambda: lambda text: text[::-1]) if reword else None,
        seed=seed, rewrites=rewrites, dedup=dedup, train_split=train_split,
    )


@settings(max_examples=examples(100), deadline=None)
@given(corpus=repeating_corpora(), data=st.data())
def test_repeated_runs_are_the_same_lists_in_any_order(corpus, data):
    trajectories, _ = corpus
    groups = repeated_runs(trajectories)
    assert repeated_runs(data.draw(st.permutations(trajectories))) == groups
    assert [(t.task_id, t.run_index) for group in groups for t in group] == sorted(
        (t.task_id, t.run_index) for t in trajectories)
    for group in groups:
        assert all((t.task_id, t.steps) == (group[0].task_id, group[0].steps) for t in group)
    for before, after in zip(groups, groups[1:]):  # no list could have taken the next one's runs
        assert (before[0].task_id, before[0].steps) != (after[0].task_id, after[0].steps)


@pytest.fixture(scope="module")
def bundled_corpus(tmp_path_factory):
    """The logs of 25 seeded runs of every bundled task."""
    from homebench.cli import EXIT_OK, main

    logs = tmp_path_factory.mktemp("bundled_corpus")
    assert main(["--seed", "7", "run", "--runs", "25", "--out", str(logs)]) == EXIT_OK
    return logs


def test_bundled_repeats_replay_once_per_task(bundled_corpus, tmp_path, monkeypatch):
    from homebench.cli import EXIT_OK, main

    replayed = []

    def counting_replay(trajectory, *args):
        replayed.append(trajectory.task_id)
        return replay_instructions(trajectory, *args)

    monkeypatch.setattr(augment, "replay_instructions", counting_replay)
    assert main(["--seed", "7", "augment", "--logs", str(bundled_corpus),
                 "--out", str(tmp_path / "ds")]) == EXIT_OK
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["trajectories"] == 300
    assert len(replayed) == len(set(replayed)) == 12


def test_bundled_runs_score_as_one_group_per_task_in_any_order(bundled_corpus):
    from homebench.cli import _bundled, _load_task_map, _parse_logs

    tasks = _load_task_map(_bundled("tasks"))
    trajectories, corrupt, _ = _parse_logs(bundled_corpus)  # in log-name order
    assert (len(trajectories), corrupt) == (300, [])
    shuffled = random.Random(7).sample(trajectories, len(trajectories))
    for runs in (trajectories, shuffled):
        groups = score_runs(runs, tasks)
        assert [(first.task_id, n) for first, _, n in groups] == [(t, 25) for t in sorted(tasks)]


def test_bundled_datasets_escape_each_distinct_text_once(bundled_corpus, tmp_path, monkeypatch):
    from homebench.cli import EXIT_OK, main

    escaped = []

    def counting_escape(text):
        escaped.append(text)
        return encode_basestring(text)

    monkeypatch.setattr(augment, "encode_basestring", counting_escape)
    out = tmp_path / "ds"
    assert main(["--seed", "7", "augment", "--logs", str(bundled_corpus), "--rewrites", "3",
                 "--out", str(out)]) == EXIT_OK
    texts = set()
    lines = 0
    for name in ("sft.jsonl", "dpo.jsonl"):
        for line in (out / name).read_text(encoding="utf-8").splitlines():
            texts.update(json.loads(line).values())
            lines += 1
    assert lines > 3 * len(texts)  # prompts repeat across lines and files
    assert len(escaped) == len(set(escaped))
    assert set(escaped) == texts


def test_remote_style_rewriter_still_asked_for_every_sample(tmp_path):
    # a remote rewriter answers each call on its own and may fail any of
    # them, so a shared sample is still rewritten once per run and pass
    calls = []

    def reword(text):
        calls.append(text)
        return text + " (reworded)"

    repeated = traj([("Pick", "apple", True), ("Place", "drawer", False, ErrorCode.L3),
                     ("Open", "drawer", True)])
    trajectories = [dataclasses.replace(repeated, run_index=i) for i in range(4)]
    trajectories.append(traj([("Open", "drawer", True)], run_index=4))
    manifest = build_datasets(trajectories, {"t1": TASK}, AugmentConfig(
        out_dir=tmp_path / "ds", scenes=SCENES, seed=2, rewrites=2, rewriter=reword))
    assert manifest["sft"]["base"] == 4 * 3 + 2
    assert len(calls) == 2 * manifest["sft"]["base"] * 2
    assert manifest["sft"]["total"] == 3 * manifest["sft"]["base"]

    failing = assert_same_files(trajectories, {"t1": TASK}, seed=2, rewrites=2,
                                rewriter=lambda: failing_every(5, reword))
    assert failing["rewrite_failures"] > 0
    assert failing["sft"]["total"] == 3 * failing["sft"]["base"] - failing["rewrite_failures"]


def test_dedup_keeps_pairs_whose_prompt_holds_the_unit_separator():
    # the U+001F-joined key was exact: chosen and rejected are JSON text,
    # which escapes U+001F, so only a prompt can hold it
    assert "\x1f" not in serialize_output(PlannerOutput("a\x1fb", "Pick", "apple\x1f", "RT-1-X"))
    tasks = {task_id: make_task(task_id=task_id, instruction=text)
             for task_id, text in (("t1", "tidy\x1f"), ("t2", "tidy"), ("t3", "\x1ftidy"))}
    trajectories = [
        traj([("Pick", "apple", True), ("Open", "drawer\x1f", True)], task_id=task_id,
             run_index=run_index)
        for task_id in tasks for run_index in range(3)
    ]
    manifest = assert_same_files(trajectories, tasks, seed=4, dedup=True)
    pre, post = manifest["dpo"]["pre_dedup"], manifest["dpo"]["post_dedup"]
    assert post["sift"] + post["order_change"] + post["model_change"] == (
        (pre["sift"] + pre["order_change"] + pre["model_change"]) // 3)
