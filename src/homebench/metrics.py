"""Evaluation metrics over finished trajectories: task progress, success
rates, termination and re-planning quality, and error-breakdown statistics.

All functions are pure; percentages are kept as exact rationals until
display time, where they are rendered to two decimals with half-up
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    ActionType,
    EmptyKeypathSet,
    ErrorCategory,
    ErrorCode,
    KeypathNode,
    MissingTask,
    StepRecord,
    Task,
    TaskAttribute,
    Trajectory,
)


def round2(value) -> float:
    """Two-decimal half-up rounding for display (41.665 -> 41.67), a half
    rounding away from zero; a float is read as the decimal its repr
    shows. Exact integer arithmetic: the hundredths are
    floor((200|n| + d) / 2d) for a value n/d."""
    if not isinstance(value, Fraction):
        value = Fraction(repr(float(value)))
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


@dataclass(frozen=True)
class _TaskScore:
    """One task's runs averaged: SR, PLWSR and TP as exact fractions in
    [0, 1]."""

    runs: int
    sr: Fraction
    plwsr: Fraction
    tp: Fraction


def _task_table(groups: Iterable[tuple], tasks: dict, literal: bool = False) -> dict:
    """Collect the (result, runs) groups by task once and average each
    task's runs, in task-id order; a group's result counts ``runs`` times.

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
        weights = (
            Fraction(runs * (r.length if literal else expert), max(expert, r.length))
            for r, runs in task_groups if r.success
        )
        table[task_id] = _TaskScore(
            runs=n,
            sr=Fraction(sum(runs for r, runs in task_groups if r.success), n),
            plwsr=sum(weights, Fraction(0)) / n,
            tp=sum((r.tp * runs for r, runs in task_groups), Fraction(0)) / n,
        )
    return table


def _task_means(table: dict):
    """SR, PLWSR and TP as percentages over a per-task table, each task
    weighing the same whatever its run count; zeros for an empty table."""
    if not table:
        return Fraction(0), Fraction(0), Fraction(0)

    def mean(values):
        return Fraction(100) * sum(values, Fraction(0)) / len(table)

    scores = table.values()
    return (mean(s.sr for s in scores), mean(s.plwsr for s in scores),
            mean(s.tp for s in scores))


# ---------------------------------------------------------------------------
# error statistics


@dataclass
class PartitionStats:
    """Error counts within one partition (successful or failed runs), with
    every count also expressed as a percentage of the partition's failed
    steps. ``failed_step_share`` is failed steps over all steps."""

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

    def count(self, code: ErrorCode) -> int:
        return self.counts.get(code, 0)

    def category_count(self, category: ErrorCategory) -> int:
        return sum(n for code, n in self.counts.items() if code.category is category)

    def percent(self, code: ErrorCode) -> Fraction:
        return _pct(self.count(code), self.failed_steps)

    def category_percent(self, category: ErrorCategory) -> Fraction:
        return _pct(self.category_count(category), self.failed_steps)

    @property
    def failed_step_share(self) -> Fraction:
        return _pct(self.failed_steps, self.total_steps)

    def to_dict(self) -> dict:
        return {
            "failed_steps": self.failed_steps,
            "total_steps": self.total_steps,
            "failed_step_share": round2(self.failed_step_share),
            "counts": {code.value: self.count(code) for code in ErrorCode},
            "percent": {code.value: round2(self.percent(code)) for code in ErrorCode},
            "category_counts": {
                cat.value: self.category_count(cat) for cat in ErrorCategory
            },
            "category_percent": {
                cat.value: round2(self.category_percent(cat)) for cat in ErrorCategory
            },
        }


def _error_stats(groups) -> dict:
    """Partition runs by success and tally their steps, over ((trajectory,
    success), runs) groups. Returns {"successful": PartitionStats, "failed":
    PartitionStats}."""
    stats = {"successful": PartitionStats(), "failed": PartitionStats()}
    for (trajectory, success), runs in groups:
        bucket = stats["successful" if success else "failed"]
        for step in trajectory.steps:
            bucket.add(step, runs)
    return stats


@dataclass
class ActionStats:
    attempts: int = 0
    successes: int = 0
    e_errors: int = 0

    @property
    def sr(self) -> Fraction:
        return _pct(self.successes, self.attempts)


def _action_stats(groups) -> dict:
    """Per-skill attempt/success/E-error counts over (trajectory, runs)
    groups; ``action_error_share`` gives each skill's share of all
    E-category errors. One step is one attempt (its internal retries are
    not attempts of their own). End steps and F1 steps are excluded: an
    emission rejected for format never reached the executor, so it is not
    an attempt of any skill. Never-attempted actions are omitted.
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
    return stats


def action_error_share(stats: dict, action: ActionType) -> Fraction:
    total_e = sum(entry.e_errors for entry in stats.values())
    if action not in stats:
        return Fraction(0)
    return _pct(stats[action].e_errors, total_e)


# ---------------------------------------------------------------------------
# benchmark report


@dataclass
class BenchmarkReport:
    """Everything the evaluate command prints and writes: headline metrics,
    per-attribute success rates, error breakdowns, and per-skill rates."""

    sr: Fraction
    plwsr: Fraction
    tp_mean: Fraction
    ser: Fraction
    srr: Fraction
    ser_denominator_zero: bool
    srr_denominator_zero: bool
    per_attribute_sr: dict
    per_task: dict
    error_stats: dict
    action_stats: dict
    n_tasks: int
    n_runs: int

    def to_dict(self) -> dict:
        per_action = {}
        for action in [a for a in ActionType if a in self.action_stats]:
            entry = self.action_stats[action]
            per_action[action.label] = {
                "attempts": entry.attempts,
                "successes": entry.successes,
                "sr": round2(entry.sr),
                "e_error_share": round2(action_error_share(self.action_stats, action)),
            }
        return {
            "tasks": self.n_tasks,
            "runs": self.n_runs,
            "sr": round2(self.sr),
            "plwsr": round2(self.plwsr),
            "tp": round2(self.tp_mean),
            "srr": round2(self.srr),
            "ser": round2(self.ser),
            "flags": {
                "ser_denominator_zero": self.ser_denominator_zero,
                "srr_denominator_zero": self.srr_denominator_zero,
            },
            "per_attribute_sr": {
                attr.value: (round2(v) if v is not None else None)
                for attr, v in self.per_attribute_sr.items()
            },
            "per_task": self.per_task,
            "error_stats": {k: v.to_dict() for k, v in self.error_stats.items()},
            "per_action": per_action,
        }


def score_runs(trajectories: Sequence[Trajectory], tasks: dict) -> list:
    """Score a batch of finished runs, in the order given, as a list of
    (first run, its EpisodeResult, runs in the group) groups.

    A run whose task and steps equal the previous run's joins that run's
    group: the group's first run is scored once, and every tally over the
    groups counts its result once per run in the group, which gives the
    exact fractions a run-by-run scoring gives. A run whose task id has no
    task in ``tasks``, or whose task there carries another id, raises
    MissingTask.
    """
    groups = []
    for trajectory in trajectories:
        if groups:
            first, result, runs = groups[-1]
            if first.task_id == trajectory.task_id and first.steps == trajectory.steps:
                groups[-1] = first, result, runs + 1
                continue
        task = tasks.get(trajectory.task_id)
        if task is None or task.id != trajectory.task_id:
            raise MissingTask(trajectory.task_id)
        groups.append((trajectory, episode_result(trajectory, task), 1))
    return groups


def error_breakdown(groups: Sequence[tuple]) -> tuple:
    """The error partitions by run success and the per-action counts of the
    ``score_runs`` groups, as (error_stats, action_stats)."""
    return (_error_stats(((t, r.success), runs) for t, r, runs in groups),
            _action_stats((t, runs) for t, _, runs in groups))


def build_report(
    trajectories: Sequence[Trajectory],
    tasks: dict,
    plwsr_literal: bool = False,
) -> BenchmarkReport:
    """Compute the full report for a batch of finished trajectories.

    Run-level values average within each task first, then across tasks;
    SER and SRR are global ratios over all runs by definition. Each group
    of equal adjacent runs is scored once (see ``score_runs``), so no byte
    of the report differs from a run-by-run scoring.
    """
    groups = score_runs(trajectories, tasks)
    results = [(result, runs) for _, result, runs in groups]
    table = _task_table(results, tasks, plwsr_literal)
    sr, plwsr, tp_mean = _task_means(table)
    (ser, ser_flag), (srr, srr_flag) = _ser_srr(results)
    per_task = {
        task_id: {"runs": score.runs, "sr": round2(100 * score.sr), "tp": round2(100 * score.tp)}
        for task_id, score in table.items()
    }
    per_attribute: dict = {}
    for attr in TaskAttribute:
        carriers = {tid: score for tid, score in table.items() if attr in tasks[tid].attributes}
        per_attribute[attr] = _task_means(carriers)[0] if carriers else None
    error_stats, action_stats = error_breakdown(groups)

    return BenchmarkReport(
        sr=sr,
        plwsr=plwsr,
        tp_mean=tp_mean,
        ser=ser,
        srr=srr,
        ser_denominator_zero=ser_flag,
        srr_denominator_zero=srr_flag,
        per_attribute_sr=per_attribute,
        per_task=per_task,
        error_stats=error_stats,
        action_stats=action_stats,
        n_tasks=len(table),
        n_runs=len(trajectories),
    )


# ---------------------------------------------------------------------------
# plain-text tables


def _fmt(value) -> str:
    return f"{round2(value):.2f}"


def _table(headers: list, rows: list) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = ["  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_summary_table(report: BenchmarkReport) -> str:
    flags = []
    if report.ser_denominator_zero:
        flags.append("SER denominator zero")
    if report.srr_denominator_zero:
        flags.append("SRR denominator zero")
    table = _table(
        ["SR", "PLWSR", "TP", "SRR", "SER"],
        [[_fmt(report.sr), _fmt(report.plwsr), _fmt(report.tp_mean),
          _fmt(report.srr), _fmt(report.ser)]],
    )
    if flags:
        table += "\n(" + "; ".join(flags) + ")"
    return table


def render_attribute_table(report: BenchmarkReport) -> str:
    headers = []
    row = []
    for attr in TaskAttribute:
        headers.append(attr.value.replace("_", "-").title())  # short_horizon -> Short-Horizon
        value = report.per_attribute_sr.get(attr)
        row.append(_fmt(value) if value is not None else "-")
    return _table(headers, [row])


def render_error_table(stats: PartitionStats, title: str) -> str:
    headers = [""]
    count_row = ["count"]
    pct_row = ["pct"]
    for category in ErrorCategory:
        for code in ErrorCode:
            if code.category is category:
                headers.append(code.value)
                count_row.append(stats.count(code))
                pct_row.append(_fmt(stats.percent(code)))
        headers.append(category.value)
        count_row.append(stats.category_count(category))
        pct_row.append(_fmt(stats.category_percent(category)))
    headers.append("All")
    count_row.append(f"{stats.failed_steps}/{stats.total_steps}")
    pct_row.append(_fmt(stats.failed_step_share))
    return f"{title}\n" + _table(headers, [count_row, pct_row])


def render_action_table(action_stats: dict) -> str:
    headers = ["Action", "Attempts", "Successes", "SR", "P"]
    rows = []
    for action in [a for a in ActionType if a in action_stats]:
        entry = action_stats[action]
        rows.append([
            action.label, entry.attempts, entry.successes,
            _fmt(entry.sr), _fmt(action_error_share(action_stats, action)),
        ])
    return _table(headers, rows)
