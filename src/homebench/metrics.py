"""Evaluation metrics over finished trajectories: task progress, success
rates, termination and re-planning quality, and error-breakdown statistics.

All functions are pure. A report is the document ``evaluate`` writes to
report.json: ``build_report`` returns it, and ``error_breakdown`` returns its
``error_stats`` and ``per_action`` parts. Tallies are exact integers and
rates exact rationals until each value's one half-up rounding to two
decimals (``round2``) as it enters the document; the plain-text tables
print the document's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    ActionType,
    EmptyKeypathSet,
    ErrorCategory,
    ErrorCode,
    KeypathNode,
    StepRecord,
    Task,
    TaskAttribute,
    Trajectory,
    logged_task,
)


def round2(value: Fraction) -> float:
    """Two-decimal half-up rounding of an exact rational (41.665 -> 41.67),
    a half rounding away from zero. Exact integer arithmetic: the
    hundredths are floor((200|n| + d) / 2d) for a value n/d."""
    n, d = value.numerator, value.denominator
    hundredths = (200 * abs(n) + d) // (2 * d)
    return hundredths / 100 if n >= 0 else -(hundredths / 100)


def _pct(numerator: int, denominator: int) -> Fraction:
    return Fraction(100 * numerator, denominator) if denominator else Fraction(0)


# ---------------------------------------------------------------------------
# keypath matching


def match_keypath(trajectory: Trajectory, keypath: Sequence[KeypathNode]) -> int:
    """Number of keypath nodes matched: scan the trajectory once, left to
    right, advancing past the next unmatched node whenever a *successful*
    step equals it. Failed steps and non-matching steps are skipped (an End
    step never matches, since keypath nodes never contain End); the match
    never retreats.

    Because the node order is fixed, this greedy earliest match yields the
    length of the longest prefix of the keypath that occurs as a
    subsequence of the successful steps.
    """
    matched = 0
    for step in trajectory.steps:
        if matched == len(keypath):
            break
        node = keypath[matched]
        subtask = step.output.subtask
        if step.feedback.ok and (subtask.action, subtask.target) == (node.action, node.target):
            matched += 1
    return matched


def compute_tp(trajectory: Trajectory, keypaths: Sequence) -> Fraction:
    """Task progress: the best matched-prefix ratio over the task's keypaths,
    as an exact rational in [0, 1]."""
    if not keypaths:
        raise EmptyKeypathSet("task progress needs at least one keypath")
    best, best_length = 0, 1  # the best ratio as matched nodes over length
    for keypath in keypaths:
        matched = match_keypath(trajectory, keypath)
        if matched * best_length > best * len(keypath):
            best, best_length = matched, len(keypath)
    return Fraction(best, best_length)


def count_replans(trajectory: Trajectory) -> int:
    """Number of steps taken immediately after a failed step. The replan is
    counted regardless of its own outcome, so consecutive failures each give
    rise to one replan (except a trailing failure with no successor)."""
    steps = trajectory.steps
    return sum(
        1 for i in range(1, len(steps)) if not steps[i - 1].feedback.ok
    )


# ---------------------------------------------------------------------------
# per-episode results


@dataclass(frozen=True)
class EpisodeResult:
    """Scalar summary of one finished run of one task.

    ``success`` holds exactly when task progress is 100%; ``ended`` when the
    planner terminated the run itself; ``length`` counts non-End steps.
    """

    task_id: str
    tp: Fraction
    success: bool
    ended: bool
    replans: int
    length: int


def episode_result(trajectory: Trajectory, task: Task) -> EpisodeResult:
    tp = compute_tp(trajectory, task.keypaths)
    ended = trajectory.terminated_by_end
    return EpisodeResult(
        task_id=trajectory.task_id,
        tp=tp,
        success=tp == 1,
        ended=ended,
        replans=count_replans(trajectory),
        length=len(trajectory.steps) - ended,
    )


def _ser_srr(groups):
    """SER and SRR, each as (rate, denominator is zero), over (result, runs)
    groups, each result standing for ``runs`` runs. A zero denominator
    yields (0, True) rather than an error so batch reports survive
    degenerate planners.

    Success end rate: successful runs over runs the agent itself ended, as
    a percentage. A run that completes every keypath node but burns its
    remaining budget without ever emitting End counts in neither side: the
    agent did not terminate it, and counting it as a success would push the
    rate past 100%.

    Success re-plan rate: replans inside successful runs over all replans,
    as a percentage.
    """
    ended = ended_ok = replans = replans_ok = 0
    for r, runs in groups:
        if r.ended:
            ended += runs
            ended_ok += runs if r.success else 0
        replans += r.replans * runs
        replans_ok += r.replans * runs if r.success else 0
    return (_pct(ended_ok, ended), not ended), (_pct(replans_ok, replans), not replans)


def _sum(terms) -> tuple:
    """The exact sum of (numerator, denominator) integer terms, as one such
    pair over the least common multiple of their denominators."""
    terms = list(terms)
    common = math.lcm(*(d for _, d in terms))
    return sum(n * (common // d) for n, d in terms), common


def _task_table(groups: Iterable[tuple], tasks: dict, literal: bool = False) -> dict:
    """Collect the (result, runs) groups by task once and average each
    task's runs, in task-id order; a group's result counts ``runs`` times.
    Maps task id -> (runs, SR, PLWSR, TP), each rate an integer pair (n, d).

    Per successful run the PLWSR weight is expert / max(expert, actual), so a
    path longer than the expert's is penalized proportionally; failures
    weigh zero. ``literal=True`` switches the numerator to the actual
    length (which saturates at 1 for any path at least expert length).
    """
    by_task: dict = {}
    for r, runs in groups:
        by_task.setdefault(r.task_id, []).append((r, runs))
    table = {}
    for task_id, task_groups in sorted(by_task.items()):
        expert = tasks[task_id].expert_length
        n = sum(runs for _, runs in task_groups)
        table[task_id] = (
            n,
            _sum((runs, n) for r, runs in task_groups if r.success),
            _sum((runs * (r.length if literal else expert), max(expert, r.length) * n)
                 for r, runs in task_groups if r.success),
            _sum((runs * r.tp.numerator, r.tp.denominator * n) for r, runs in task_groups),
        )
    return table


def _task_mean(scores, column: int) -> Fraction:
    """One rate (1 SR, 2 PLWSR, 3 TP) of ``_task_table`` rows as a percentage
    averaged over the tasks, each weighing the same; 0 over no task."""
    total, common = _sum(score[column] for score in scores)
    return _pct(total, common * len(scores))


# ---------------------------------------------------------------------------
# error statistics


@dataclass
class PartitionStats:
    """Error counts within one partition (successful or failed runs)."""

    counts: dict = field(default_factory=dict)
    failed_steps: int = 0
    total_steps: int = 0

    def add(self, step: StepRecord, runs: int):
        """Tally ``step`` once for each of ``runs`` runs that hold it."""
        self.total_steps += runs
        if not step.feedback.ok:
            self.failed_steps += runs
            code = step.feedback.code
            self.counts[code] = self.counts.get(code, 0) + runs

    def to_dict(self) -> dict:
        """The partition's document: each code's and each category's count,
        and each as a percentage of the partition's failed steps;
        ``failed_step_share`` is failed steps over all steps."""
        failed = self.failed_steps
        counts = {code.value: self.counts.get(code, 0) for code in ErrorCode}
        categories = {
            category.value: sum(n for code, n in self.counts.items() if code.category is category)
            for category in ErrorCategory
        }
        return {
            "failed_steps": failed,
            "total_steps": self.total_steps,
            "failed_step_share": round2(_pct(failed, self.total_steps)),
            "counts": counts,
            "percent": {key: round2(_pct(n, failed)) for key, n in counts.items()},
            "category_counts": categories,
            "category_percent": {key: round2(_pct(n, failed)) for key, n in categories.items()},
        }


def _error_stats(groups) -> dict:
    """Partition runs by success and tally their steps, over ((trajectory,
    success), runs) groups. Returns the two partitions' documents,
    {"successful": ..., "failed": ...}."""
    stats = {"successful": PartitionStats(), "failed": PartitionStats()}
    for (trajectory, success), runs in groups:
        bucket = stats["successful" if success else "failed"]
        for step in trajectory.steps:
            bucket.add(step, runs)
    return {key: partition.to_dict() for key, partition in stats.items()}


@dataclass
class ActionStats:
    attempts: int = 0
    successes: int = 0
    e_errors: int = 0


def _action_stats(groups) -> dict:
    """The per-skill document over (trajectory, runs) groups: by skill
    label, in ActionType order, its attempts, successes, SR and
    ``e_error_share``, its share of all E-category errors. One step is one
    attempt (its internal retries are not attempts of their own). End steps
    and F1 steps are excluded: an emission rejected for format never
    reached the executor, so it is not an attempt of any skill.
    Never-attempted actions are omitted.
    """
    stats: dict = {}
    for trajectory, runs in groups:
        for step in trajectory.steps:
            action = step.output.action_type
            if action is None or action is ActionType.END:
                continue
            if step.feedback.code is ErrorCode.F1:
                continue
            entry = stats.get(action) or stats.setdefault(action, ActionStats())
            entry.attempts += runs
            if step.feedback.ok:
                entry.successes += runs
            elif step.feedback.code.category is ErrorCategory.EXECUTION:
                entry.e_errors += runs
    total_e = sum(entry.e_errors for entry in stats.values())
    return {
        action.label: {
            "attempts": entry.attempts,
            "successes": entry.successes,
            "sr": round2(_pct(entry.successes, entry.attempts)),
            "e_error_share": round2(_pct(entry.e_errors, total_e)),
        }
        for action in ActionType if (entry := stats.get(action))
    }


# ---------------------------------------------------------------------------
# benchmark report


def repeated_runs(trajectories: Iterable[Trajectory]) -> list:
    """The runs in (task id, run index) order, as lists of repeats: a run
    joins the list before it when it has that list's task id and equal
    steps. ``evaluate``, ``report-errors`` and ``augment`` all take their
    groups from here, so they agree on them whatever order the logs come in.
    """
    groups = []
    for run in sorted(trajectories, key=lambda t: (t.task_id, t.run_index)):
        if groups and groups[-1][0].task_id == run.task_id and groups[-1][0].steps == run.steps:
            groups[-1].append(run)
        else:
            groups.append([run])
    return groups


def score_runs(trajectories: Sequence[Trajectory], tasks: dict) -> list:
    """Score each ``repeated_runs`` group once, as a list of (first run, its
    EpisodeResult, runs in the group): every tally over the groups counts a
    result once per run, which gives the exact fractions of a run-by-run
    scoring. The first run in the order given whose task id has no task in
    ``tasks``, or whose task there carries another id, raises MissingTask.
    """
    for trajectory in trajectories:
        logged_task(trajectory, tasks)
    return [(group[0], episode_result(group[0], tasks[group[0].task_id]), len(group))
            for group in repeated_runs(trajectories)]


def error_breakdown(groups: Sequence[tuple]) -> tuple:
    """The error partitions by run success and the per-action statistics of
    the ``score_runs`` groups, as the report's (error_stats, per_action)
    documents."""
    return (_error_stats(((t, r.success), runs) for t, r, runs in groups),
            _action_stats((t, runs) for t, _, runs in groups))


def build_report(
    trajectories: Sequence[Trajectory],
    tasks: dict,
    plwsr_literal: bool = False,
) -> dict:
    """The report of a batch of finished trajectories: the document
    ``evaluate`` writes to report.json, before it adds what it excluded.

    Run-level values average within each task first, then across tasks;
    SER and SRR are global ratios over all runs by definition. Each group
    of ``repeated_runs`` is scored once (see ``score_runs``), so no byte of
    the report differs from a run-by-run scoring.
    """
    groups = score_runs(trajectories, tasks)
    results = [(result, runs) for _, result, runs in groups]
    table = _task_table(results, tasks, plwsr_literal)
    (ser, ser_flag), (srr, srr_flag) = _ser_srr(results)
    per_attribute = {}
    for attr in TaskAttribute:
        carriers = [score for tid, score in table.items() if attr in tasks[tid].attributes]
        per_attribute[attr.value] = round2(_task_mean(carriers, 1)) if carriers else None
    error_stats, per_action = error_breakdown(groups)
    return {
        "tasks": len(table),
        "runs": len(trajectories),
        "sr": round2(_task_mean(table.values(), 1)),
        "plwsr": round2(_task_mean(table.values(), 2)),
        "tp": round2(_task_mean(table.values(), 3)),
        "srr": round2(srr),
        "ser": round2(ser),
        "flags": {"ser_denominator_zero": ser_flag, "srr_denominator_zero": srr_flag},
        "per_attribute_sr": per_attribute,
        "per_task": {task_id: {"runs": runs, "sr": round2(_pct(*sr)), "tp": round2(_pct(*tp))}
                     for task_id, (runs, sr, _, tp) in table.items()},
        "error_stats": error_stats,
        "per_action": per_action,
    }


# ---------------------------------------------------------------------------
# plain-text tables, printed from the report's documents


def _table(headers: list, rows: list) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = ["  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_summary_table(report: dict) -> str:
    flags = [f"{name} denominator zero" for name in ("SER", "SRR")
             if report["flags"][f"{name.lower()}_denominator_zero"]]
    table = _table(["SR", "PLWSR", "TP", "SRR", "SER"],
                   [[f"{report[key]:.2f}" for key in ("sr", "plwsr", "tp", "srr", "ser")]])
    if flags:
        table += "\n(" + "; ".join(flags) + ")"
    return table


def render_attribute_table(report: dict) -> str:
    headers = []
    row = []
    for attr in TaskAttribute:
        headers.append(attr.value.replace("_", "-").title())  # short_horizon -> Short-Horizon
        value = report["per_attribute_sr"][attr.value]
        row.append(f"{value:.2f}" if value is not None else "-")
    return _table(headers, [row])


def render_error_table(stats: dict, title: str) -> str:
    """One partition of the report's ``error_stats``."""
    headers = [""]
    count_row = ["count"]
    pct_row = ["pct"]
    for category in ErrorCategory:
        for code in ErrorCode:
            if code.category is category:
                headers.append(code.value)
                count_row.append(stats["counts"][code.value])
                pct_row.append(f"{stats['percent'][code.value]:.2f}")
        headers.append(category.value)
        count_row.append(stats["category_counts"][category.value])
        pct_row.append(f"{stats['category_percent'][category.value]:.2f}")
    headers.append("All")
    count_row.append(f"{stats['failed_steps']}/{stats['total_steps']}")
    pct_row.append(f"{stats['failed_step_share']:.2f}")
    return f"{title}\n" + _table(headers, [count_row, pct_row])


def render_action_table(per_action: dict) -> str:
    """The report's ``per_action`` document."""
    rows = [[label, entry["attempts"], entry["successes"],
             f"{entry['sr']:.2f}", f"{entry['e_error_share']:.2f}"]
            for label, entry in per_action.items()]
    return _table(["Action", "Attempts", "Successes", "SR", "P"], rows)
