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
from importlib import resources

from homebench.core import ErrorCode, parse_task_file
from homebench.loop import run_benchmark
from homebench.metrics import build_report
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


def test_cup_to_shelf_success_rate_matches_its_closed_form():
    # cup_to_shelf plays Pick cup, Go to shelf, Place shelf, End; a failed
    # Pick leaves the hand empty (L2 at the Place), a failed Go to leaves the
    # shelf too far (D1), so only a run whose three steps all succeed succeeds
    p_nav, p_man, q, r, n = 0.3, 0.4, 0.2, 3, 2000
    task = parse_task_file(DATA.joinpath("tasks/cup_to_shelf.json").read_bytes())
    doc = json.loads(DATA.joinpath("scenes/office_annex.json").read_bytes())
    doc["failure_rates"] = {"e1_navigation": p_nav, "e1_manipulation": p_man, "e2_place": q}
    plan = load_scripted_plan(DATA.joinpath("plans/cup_to_shelf.json").read_bytes())
    trajectories = run_benchmark([task], lambda task, run_index: copy.copy(plan),
                                 {task.scene_ref: load_scene(doc)},
                                 runs_per_task=n, retries=r, seed=14)
    assert [[s.output.action for s in t.steps] for t in trajectories] == (
        [["Pick", "Go to", "Place", "End"]] * n)

    successes = build_report(trajectories, {task.id: task}).sr * n / 100
    # a first attempt that failed E1 is retried, or ends the step as E1
    first_e1 = [sum(1 for t in trajectories
                    if t.steps[i].retries_used or t.steps[i].feedback.code is ErrorCode.E1)
                for i in (0, 1)]
    closed_form = (1 - p_man ** r) * (1 - p_nav ** r) * (1 - p_man ** r) * (1 - q)
    assert round(closed_form, 3) == 0.682
    for what, count, p in (("successful runs", successes, closed_form),
                           ("Pick first attempts failing E1", first_e1[0], p_man),
                           ("Go to first attempts failing E1", first_e1[1], p_nav)):
        lo, hi = binomial_band(n, p)
        assert lo <= count <= hi, f"{what}: {count} of {n}, outside [{lo}, {hi}] for p = {p:.4f}"
