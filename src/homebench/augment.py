"""Build supervised conversation datasets and preference-pair datasets from
trajectory logs.

Conversation samples come from successful steps only (failed steps are junk
for supervised tuning, and they are also dropped from the replayed history
inside each prompt). Preference pairs come from four generators: re-plan
sifting, order changes, action corruptions, and same-category model swaps.
End outputs only ever appear on the rejected side.

Each group of ``metrics.repeated_runs`` is replayed and derived once; only
the action corruptions are drawn afresh for every run. The written files
are byte-identical to deriving every run on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    ActionType,
    EmptyLexicon,
    IdentityEnum,
    InvariantError,
    ModelChoice,
    PlannerOutput,
    RewriterTransportError,
    Trajectory,
    logged_task,
    output_text,
    parse_action,
    read_json,
    write_json,
    write_output,
)
from .loop import (
    EMPTY_HISTORY,
    Instruction,
    extend_history,
    parse_planner_output,
    replay_instructions,
    require_scene,
    stable_seed,
)
from .metrics import repeated_runs


def _is_end_text(text: str) -> bool:
    return parse_planner_output(text).action_type is ActionType.END


@dataclass(frozen=True)
class ConversationSample:
    """One supervised example: the rendered prompt for a step and the
    serialized output that answered it. The structured parts ride along so
    rewrites can regenerate text fields without touching action/target/model."""

    prompt: str
    response: str
    instruction: Instruction
    output: PlannerOutput
    task_id: str = ""


class PairSource(IdentityEnum):
    SIFT = "sift"
    ORDER_CHANGE = "order_change"
    ACTION_CHANGE = "action_change"
    MODEL_CHANGE = "model_change"


@dataclass(frozen=True)
class PreferencePair:
    prompt: str
    chosen: str
    rejected: str
    source: PairSource
    task_id: str = ""

    def __post_init__(self):
        if self.chosen == self.rejected:
            raise InvariantError("preference pair requires chosen != rejected")


def _make_sample(instruction: Instruction, output: PlannerOutput, task_id: str) -> ConversationSample:
    return ConversationSample(
        prompt=instruction.text,
        response=output.text,
        instruction=instruction,
        output=output,
        task_id=task_id,
    )


# ---------------------------------------------------------------------------
# supervised samples


def sft_convert(trajectory: Trajectory, prompts: Sequence[Instruction]) -> list:
    """One sample per successful step. ``prompts`` are the trajectory's
    replayed instructions (``replay_instructions``); each sample keeps its
    step's prompt but with a history of the successful steps alone, extended
    one line per kept step as ``loop.apply_feedback`` extends a prompt's.
    The feedback line still reports the failure that preceded the step.
    While no step has failed the scrubbed history is the step's own, and the
    sample shares its prompt's instruction."""
    samples = []
    history = EMPTY_HISTORY  # of the successful steps so far
    kept = 0
    for step, prompt in zip(trajectory.steps, prompts):
        if step.feedback.ok:
            instruction = (prompt if history == prompt.history
                           else dataclasses.replace(prompt, history=history))
            samples.append(_make_sample(instruction, step.output, trajectory.task_id))
            kept += 1
            history = extend_history(history, kept, step)
    return samples


def _rewritten(sample: ConversationSample, task: str, analysis: str) -> ConversationSample:
    """``sample`` with the given task and analysis. A part the rewriter
    returned unchanged is shared with the original, so its text is neither
    re-derived nor rendered again; with both unchanged the variant is the
    original sample itself."""
    instruction = sample.instruction
    if task != instruction.task:
        instruction = dataclasses.replace(instruction, task=task)
    output = sample.output
    if analysis != output.analysis:
        output = dataclasses.replace(output, analysis=analysis)
    if instruction is sample.instruction and output is sample.output:
        return sample
    return _make_sample(instruction, output, sample.task_id)


def expand_with_rewrites(samples: Sequence, rewriter: Callable, n: int):
    """Add ``n`` rewritten variants per sample: the task description in the
    prompt and the analysis in the response are regenerated; action, target,
    and model are never altered. Originals come first, untouched.

    Returns (expanded samples, rewrite_failure_count); a failing rewriter
    skips that variant and the expansion continues.
    """
    expanded = list(samples)
    failures = 0
    for _ in range(n):
        for sample in samples:
            try:
                new_task = rewriter(sample.instruction.task)
                new_analysis = rewriter(sample.output.analysis)
            except RewriterTransportError:
                failures += 1
                continue
            expanded.append(_rewritten(sample, new_task, new_analysis))
    return expanded, failures


def identity_rewriter(text: str) -> str:
    return text


# ---------------------------------------------------------------------------
# preference pairs


def _pair(prompts, i, chosen_output, rejected, source, task_id):
    """Build a pair anchored at step i that prefers ``chosen_output`` over
    the ``rejected`` text, or None when it would violate the chosen !=
    rejected rule or put End on the chosen side (e.g. a re-plan whose
    successor is End, or two byte-identical adjacent outputs). This is the
    one place every generator's End rule is decided."""
    if chosen_output.action_type is ActionType.END:
        return None
    chosen = chosen_output.text
    if chosen == rejected:
        return None
    return PreferencePair(prompts[i].text, chosen, rejected, source, task_id)


def dpo_sift(trajectory: Trajectory, prompts: Sequence[Instruction]) -> list:
    """Re-plan pairs: wherever step i failed and step i+1 succeeded, the
    step-i prompt prefers the re-planned output over the failed one."""
    steps = trajectory.steps
    pairs = []
    for i in range(len(steps) - 1):
        if not steps[i].feedback.ok and steps[i + 1].feedback.ok:
            pair = _pair(
                prompts, i, steps[i + 1].output, steps[i].output.text,
                PairSource.SIFT, trajectory.task_id,
            )
            if pair is not None:
                pairs.append(pair)
    return pairs


def dpo_order_change(trajectory: Trajectory, prompts: Sequence[Instruction]) -> list:
    """Ordering pairs: for adjacent successful steps, the step-i prompt
    prefers the step-i output over the (premature) step-i+1 output. A
    trailing End lands on the rejected side, which is exactly the intended
    pressure against ending early."""
    steps = trajectory.steps
    pairs = []
    for i in range(len(steps) - 1):
        if steps[i].feedback.ok and steps[i + 1].feedback.ok:
            pair = _pair(
                prompts, i, steps[i].output, steps[i + 1].output.text,
                PairSource.ORDER_CHANGE, trajectory.task_id,
            )
            if pair is not None:
                pairs.append(pair)
    return pairs


def load_default_lexicon() -> list:
    path = resources.files("homebench").joinpath("data/action_lexicon.json")
    return read_json(path.read_bytes(), "default lexicon")


def _variant_text(output: PlannerOutput, action: Optional[str] = None,
                  model: Optional[str] = None) -> str:
    """The text of ``output`` with its action or model replaced by the one
    given: ``dataclasses.replace(output, ...).text``, laid out from the
    fields without building that output. Only a new action can change
    whether the output is an End, whose subtask holds no target."""
    if action is None:
        action, is_end = output.action, output.is_end
    else:
        is_end = output.target == "" and parse_action(action) is ActionType.END
    return output_text(output.analysis, action, None if is_end else output.target,
                       output.model if model is None else model)


def dpo_action_change(
    trajectory: Trajectory,
    prompts: Sequence[Instruction],
    lexicon: Sequence[str],
    rng: random.Random,
    candidates: Optional[dict] = None,
) -> list:
    """Format pairs: each successful non-End output is preferred over a copy
    whose action is replaced by a non-standard name drawn from the lexicon.
    Only the action field differs between the two sides.

    An End step draws its entry too, so the draws of the steps after it do
    not depend on whether it makes a pair. ``candidates`` maps an action
    string to the lexicon entries other than it; a caller that corrupts
    many trajectories with one lexicon may hand in one dict for all of them,
    and each distinct action's list is then built once.
    """
    if not lexicon:
        raise EmptyLexicon("action corruption needs a non-empty lexicon")
    if candidates is None:
        candidates = {}
    steps = trajectory.steps
    pairs = []
    for i, step in enumerate(steps):
        if not step.feedback.ok:
            continue
        action = step.output.action
        entries = candidates.get(action)
        if entries is None:
            entries = candidates[action] = [entry for entry in lexicon if entry != action]
        if not entries:
            continue
        pair = _pair(
            prompts, i, step.output, _variant_text(step.output, action=rng.choice(entries)),
            PairSource.ACTION_CHANGE, trajectory.task_id,
        )
        if pair is not None:
            pairs.append(pair)
    return pairs


# each model's swap: the first other model of its category, or None for the
# only model of a category (M3)
_MODEL_SWAPS = {
    model: next((other for other in ModelChoice
                 if other.category is model.category and other is not model), None)
    for model in ModelChoice
}


def dpo_model_change(trajectory: Trajectory, prompts: Sequence[Instruction]) -> list:
    """Dispatch pairs: each successful non-End output is preferred over a
    copy whose model is swapped for the other model of the same category.
    Steps using the only model of a category (M3) are skipped."""
    steps = trajectory.steps
    pairs = []
    for i, step in enumerate(steps):
        if not step.feedback.ok:
            continue
        swap = _MODEL_SWAPS[step.output.subtask.model]
        if swap is None:
            continue
        pair = _pair(
            prompts, i, step.output, _variant_text(step.output, model=swap.label),
            PairSource.MODEL_CHANGE, trajectory.task_id,
        )
        if pair is not None:
            pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# dataset assembly


def split_task_ids(task_ids: Iterable[str], train_fraction: float, seed: int):
    """Deterministic task-id split (e.g. 0.9 for a 90/10 train/val split).
    Returns (train_ids, val_ids) as sorted lists."""
    ids = sorted(set(task_ids))
    rng = random.Random(seed)
    rng.shuffle(ids)
    cut = round(len(ids) * train_fraction)
    return sorted(ids[:cut]), sorted(ids[cut:])


@dataclass
class AugmentConfig:
    out_dir: Path
    scenes: dict  # scene_ref -> template Scene
    seed: int = 0
    rewrites: int = 0
    rewriter: Optional[Callable] = None
    lexicon: Optional[list] = None
    dedup: bool = True
    train_split: Optional[float] = None


class _Escaped(dict):
    """Text -> its JSON string literal, as ``json.dumps(text, ensure_ascii=False)``
    writes it. Each distinct text is escaped once, on first lookup."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = encode_basestring(text)
        return literal


# the JSON line of a sample and of a pair, as json.dumps(record, ensure_ascii=False)
# writes the record with these keys in this order, then a newline
def _sft_line(sample: ConversationSample, escaped: _Escaped) -> str:
    return f'{{"prompt": {escaped[sample.prompt]}, "response": {escaped[sample.response]}}}\n'


def _dpo_line(pair: PreferencePair, escaped: _Escaped) -> str:
    return (f'{{"prompt": {escaped[pair.prompt]}, "chosen": {escaped[pair.chosen]}, '
            f'"rejected": {escaped[pair.rejected]}, "source": {escaped[pair.source.value]}}}\n')


def _jsonl_lines(items: Sequence, line: Callable, escaped: _Escaped) -> list:
    """One JSON line per item. An item listed more than once (an unchanged
    rewrite variant is its original sample) is laid out once."""
    encoded = {}
    lines = []
    for item in items:
        text = encoded.get(id(item))
        if text is None:
            text = encoded[id(item)] = line(item, escaped)
        lines.append(text)
    return lines


def build_datasets(trajectories: Sequence[Trajectory], tasks: dict, config: AugmentConfig) -> dict:
    """Run the full pipeline over a trajectory corpus and write sft.jsonl,
    dpo.jsonl, and manifest.json into ``config.out_dir``.

    Deterministic given the corpus and seed: re-running produces
    byte-identical files. Preference pairs are deduplicated by their
    (prompt, chosen, rejected) texts unless ``dedup`` is off; the manifest
    records counts before and after. Each trajectory replays on a clone of
    its task's template scene in ``config.scenes``; a trajectory whose task
    or scene is missing, or whose task is filed under another id, is
    refused (MissingTask, MissingScene) before any replay. Each group of
    ``repeated_runs`` is replayed once, and its runs, in run order, share
    its samples and pairs; only their action corruptions are drawn, each
    from its own run's seed.
    """
    out_dir = Path(config.out_dir)
    rewriter = config.rewriter if config.rewriter is not None else identity_rewriter
    lexicon = config.lexicon if config.lexicon is not None else load_default_lexicon()
    if not lexicon:
        raise EmptyLexicon("action corruption needs a non-empty lexicon")

    groups = repeated_runs(trajectories)
    for group in groups:  # every task and its scene are found before any replay
        require_scene(logged_task(group[0], tasks), config.scenes)
    samples = []
    pairs = []
    candidates = {}  # action -> its corruptions, for every trajectory's draws
    for group in groups:
        first = group[0]
        task = tasks[first.task_id]
        prompts = replay_instructions(first, task, config.scenes[task.scene_ref].clone())
        run_samples = sft_convert(first, prompts)
        run_pairs = dpo_sift(first, prompts) + dpo_order_change(first, prompts)
        model_pairs = dpo_model_change(first, prompts)
        for trajectory in group:
            samples.extend(run_samples)
            pairs.extend(run_pairs)
            # corruption draws are seeded per trajectory identity, so ingesting
            # the same log twice yields the same pairs (and dedup removes them)
            draw_rng = random.Random(stable_seed(config.seed, trajectory.task_id,
                                                 trajectory.run_index))
            pairs.extend(dpo_action_change(first, prompts, lexicon, draw_rng, candidates))
            pairs.extend(model_pairs)

    base_count = len(samples)
    samples, rewrite_failures = expand_with_rewrites(samples, rewriter, config.rewrites)

    def per_source(items):
        counts = Counter(pair.source for pair in items)
        return {**{source.value: counts[source] for source in PairSource},
                "total": len(items)}

    pre_dedup = per_source(pairs)
    if config.dedup:
        seen = set()
        deduped = []
        for pair in pairs:
            key = (pair.prompt, pair.chosen, pair.rejected)
            if key not in seen:
                seen.add(key)
                deduped.append(pair)
        pairs = deduped
    post_dedup = per_source(pairs)

    # _pair already keeps End off the chosen side; audit the written text
    # anyway, parsing each distinct chosen text once, and report the
    # (expected zero) violation count
    chosen = Counter(pair.chosen for pair in pairs)
    violations = sum(count for text, count in chosen.items() if _is_end_text(text))

    lexicon_hash = hashlib.sha256(
        json.dumps(list(lexicon), ensure_ascii=False).encode("utf-8")
    ).hexdigest()

    # created only now, so a corpus refused above leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    split, halves = None, ()  # halves: (file name part, its task ids)
    if config.train_split is not None:
        train_ids, val_ids = split_task_ids((t.task_id for t in trajectories),
                                            config.train_split, config.seed)
        split = {
            "train_fraction": config.train_split,
            "train_tasks": train_ids,
            "val_tasks": val_ids,
        }
        halves = (("train", set(train_ids)), ("val", set(val_ids)))
    escaped = _Escaped()  # a prompt is escaped once for both files
    for name, items, line in (("sft", samples, _sft_line), ("dpo", pairs, _dpo_line)):
        lines = _jsonl_lines(items, line, escaped)
        write_output(out_dir / f"{name}.jsonl", lines)
        for half, ids in halves:
            write_output(out_dir / f"{name}_{half}.jsonl",
                         (line for x, line in zip(items, lines) if x.task_id in ids))

    manifest = {
        "seed": config.seed,
        "rewrites": config.rewrites,
        "rewrite_failures": rewrite_failures,
        "lexicon_sha256": lexicon_hash,
        "trajectories": len(trajectories),
        "sft": {"base": base_count, "total": len(samples)},
        "dpo": {
            "pre_dedup": pre_dedup,
            "post_dedup": post_dedup,
            "end_as_chosen_violations": violations,
        },
        "split": split,
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest
