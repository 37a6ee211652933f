"""Executor noise against its closed forms.

A scripted plan with no branches succeeds exactly when every step does. With
``r`` attempts per step, a Go to succeeds with probability ``1 - p_nav^r``, a
Pick with ``1 - p_man^r`` and a Place with ``(1 - p_man^r)(1 - q)``, where
``p_nav`` and ``p_man`` are the E1 rates and ``q`` the E2 rate. Each count
below is checked against an exact binomial band at a fixed seed, so the tests
are deterministic.
"""

import copy
import json
import math
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from homebench.core import ErrorCode, parse_task_file
from homebench.loop import run_benchmark
from homebench.metrics import build_report, episode_result, round2, score_runs
from homebench.planners import load_scripted_plan
from homebench.sim import load_scene

DATA = resources.files("homebench").joinpath("data")

#: the false-alarm rate of each band
ALPHA = 1e-6


def binomial_band(n: int, p: float, alpha: float = ALPHA) -> tuple:
    """The narrowest [lo, hi] with P(X < lo) <= alpha / 2 and P(X > hi) <=
    alpha / 2 for X ~ Binomial(n, p), 0 < p < 1, summed term by term."""
    pmf = [math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))
           for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_binomial_band_holds_the_mean_and_its_tails_are_small():
    lo, hi = binomial_band(2000, 0.5)
    assert lo < 1000 < hi and lo + hi == 2000  # symmetric at p = 1/2
    assert binomial_band(2000, 0.5, alpha=0.5)[0] > lo  # a looser band is narrower
    # the normal approximation: about 4.9 standard deviations (22.4) each side
    assert 880 <= lo <= 895


P_NAV, P_MAN, Q, R, N = 0.3, 0.4, 0.2, 3, 2000


def play_cup_to_shelf(seed):
    """``N`` runs of cup_to_shelf at ``seed``, with E1 rates ``P_NAV`` and
    ``P_MAN``, E2 rate ``Q`` and ``R`` attempts per step, and its task.

    cup_to_shelf plays Pick cup, Go to shelf, Place shelf, End; a failed Pick
    leaves the hand empty (L2 at the Place), a failed Go to leaves the shelf
    too far (D1), so only a run whose three steps all succeed succeeds."""
    task = parse_task_file(DATA.joinpath("tasks/cup_to_shelf.json").read_bytes())
    doc = json.loads(DATA.joinpath("scenes/office_annex.json").read_bytes())
    doc["failure_rates"] = {"e1_navigation": P_NAV, "e1_manipulation": P_MAN, "e2_place": Q}
    plan = load_scripted_plan(DATA.joinpath("plans/cup_to_shelf.json").read_bytes())
    trajectories = run_benchmark([task], lambda task, run_index: copy.copy(plan),
                                 {task.scene_ref: load_scene(doc)},
                                 runs_per_task=N, retries=R, seed=seed)
    assert [[s.output.action for s in t.steps] for t in trajectories] == (
        [["Pick", "Go to", "Place", "End"]] * N)
    return trajectories, task


@pytest.fixture(scope="module")
def cup_to_shelf():
    return play_cup_to_shelf(14)


def assert_in_band(what: str, count: int, n: int, p: float) -> None:
    lo, hi = binomial_band(n, p)
    assert lo <= count <= hi, f"{what}: {count} of {n}, outside [{lo}, {hi}] for p = {p:.4f}"


def test_cup_to_shelf_success_rate_matches_its_closed_form(cup_to_shelf):
    trajectories, task = cup_to_shelf
    tasks = {task.id: task}
    successes = sum(runs for _, result, runs in score_runs(trajectories, tasks) if result.success)
    assert build_report(trajectories, tasks)["sr"] == round2(Fraction(100 * successes, N))
    # a first attempt that failed E1 is retried, or ends the step as E1
    first_e1 = [sum(1 for t in trajectories
                    if t.steps[i].retries_used or t.steps[i].feedback.code is ErrorCode.E1)
                for i in (0, 1)]
    closed_form = (1 - P_MAN ** R) * (1 - P_NAV ** R) * (1 - P_MAN ** R) * (1 - Q)
    assert round(closed_form, 3) == 0.682
    assert_in_band("successful runs", successes, N, closed_form)
    assert_in_band("Pick first attempts failing E1", first_e1[0], N, P_MAN)
    assert_in_band("Go to first attempts failing E1", first_e1[1], N, P_NAV)


def test_cup_to_shelf_second_attempts_fail_at_the_rate_squared(cup_to_shelf):
    # a step's third attempt is drawn only when its first two failed E1
    trajectories, _ = cup_to_shelf
    for i, what, p in ((0, "Pick", P_MAN), (1, "Go to", P_NAV)):
        count = sum(1 for t in trajectories if t.steps[i].retries_used == 2)
        assert_in_band(f"{what} second attempts failing E1", count, N, p ** 2)


def test_cup_to_shelf_place_e2_count_matches_its_closed_form(cup_to_shelf):
    # a Place reaches its draw when the Pick and the Go to both succeeded;
    # then one of its attempts passes E1 with probability 1 - p_man^r, and
    # only that attempt draws E2, once
    trajectories, _ = cup_to_shelf
    reached = [t for t in trajectories if t.steps[0].feedback.ok and t.steps[1].feedback.ok]
    e2 = sum(1 for t in reached if t.steps[2].feedback.code is ErrorCode.E2)
    assert not any(t.steps[2].feedback.code is ErrorCode.E2 for t in trajectories
                   if t not in reached)
    assert_in_band("reached Places failing E2", e2, len(reached), (1 - P_MAN ** R) * Q)


@pytest.mark.parametrize("seed", [None, 14])
def test_adjacent_runs_draw_independently(seed):
    # a chi-square test of independence (1 degree of freedom) on the 2x2
    # table of each run's success against the next run's; runs that reuse
    # one seed are copies, and every pair lands in one cell
    trajectories, task = play_cup_to_shelf(seed)
    outcomes = [episode_result(t, task).success for t in trajectories]
    pairs = Counter(zip(outcomes, outcomes[1:]))
    a, b, c, d = (pairs[True, True], pairs[True, False], pairs[False, True], pairs[False, False])
    margins = (a + b, c + d, a + c, b + d)
    assert min(margins) > 0, f"adjacent runs are alike: {dict(pairs)}"
    statistic = (N - 1) * (a * d - b * c) ** 2 / math.prod(margins)
    p_value = math.erfc(math.sqrt(statistic / 2))  # P(chi-square, 1 df, > statistic)
    assert p_value > ALPHA, f"{dict(pairs)}: chi-square {statistic:.1f}, p = {p_value:.2g}"
