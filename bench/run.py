"""Pipeline benchmark: drive ``homebench.cli.main`` in process through
``run``, ``evaluate``, ``report-errors`` and ``augment`` on a seeded
workload, time each stage from outside, check the outputs, and print every
metric by name with its unit.

    python3 bench/run.py --workload bundled --seed 7 --seconds 30 --trace 0

One closed-loop client: one process, stages run one after another, each
round is one pass of all four stages. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` spends half the time on untraced rounds and half on
traced rounds and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the exit code is 0
only when every output check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 7
# a stage shorter than this is repeated within a round and its mean taken
MIN_STAGE_S = 0.5
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Shared machines change speed by up to 1.7x for seconds at a time. Every
# measured time is therefore scaled by CALIBRATION_REF_S over the time a
# Calibration took right next to it, which reports it at the speed where a
# Calibration takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.03

END_TO_END = {
    "setup_s": "s",
    "run_steps_per_s": "1/s",
    "evaluate_logs_per_s": "1/s",
    "report_errors_logs_per_s": "1/s",
    "augment_steps_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

STAGES = ("run", "evaluate", "report-errors", "augment")


def median(values):
    return statistics.median(values) if values else 0.0


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Probe:
    __slots__ = ("name", "location")

    def __init__(self, name, location):
        self.name = name
        self.location = location


_SEPARATORS = re.compile(r"[\s\-_]+")


class Calibration:
    """A fixed piece of pure-Python work of the kinds the pipeline does:
    JSON and string handling, lookups over a table too large for the CPU
    caches, object churn and a regex. Calling it returns its seconds."""

    def __init__(self):
        self.table = {f"item_{i}": (f"item_{i}", f"box_{i % 97}") for i in range(20000)}
        self.keys = list(self.table)

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = 0
            for i in range(2500):
                doc = {"a": i, "b": str(i) * 3, "c": [i, i + 1, i + 2]}
                text = json.dumps(doc)
                acc += len(json.loads(text)["b"])
                acc += len(f"{i}-{text}".lower().replace("a", "b"))
                acc += sum(sorted(doc["c"], reverse=True))
            for _ in range(2):
                for key in self.keys:
                    if self.table[key][1] == "box_5":
                        acc += 1
                probes = [_Probe(f"{i} a-b", "x") for i in range(6000)]
                acc += sum(len(_SEPARATORS.sub("_", p.name)) for p in probes)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the calibrations around it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Pipeline:
    """One workload's four stages over fixed input and output directories,
    with the output checks and the operation tally for ``failed_op_ratio``."""

    def __init__(self, cli, workload, work: Path, seed: int, min_stage_s: float):
        self.cli = cli
        self.calibrate = Calibration()
        self.min_stage_s = min_stage_s
        self.workload = workload
        self.seed = seed
        self.logs = work / "logs"
        self.datasets = work / "datasets"
        self.plot = work / "plot.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None  # digests of the first checked round

    # -- stages ---------------------------------------------------------------

    def argv(self, stage: str, jobs: int) -> list:
        w = self.workload
        common = ["--tasks", str(w.tasks_dir)]
        if stage == "run":
            return ["--seed", str(self.seed), "--jobs", str(jobs), *w.run_args(),
                    "--out", str(self.logs)]
        if stage == "evaluate":
            return ["evaluate", "--logs", str(self.logs), *common]
        if stage == "report-errors":
            return ["report-errors", "--logs", str(self.logs), *common,
                    "--plot-data", str(self.plot)]
        return ["--seed", str(self.seed), "augment", "--logs", str(self.logs), *common,
                "--scenes", str(w.scenes_dir), "--out", str(self.datasets),
                "--rewrites", str(w.rewrites)]

    def call(self, argv: list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return code, elapsed, buf.getvalue()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def round(self, jobs: int, repeat: bool = True, after_call=None) -> dict:
        """One pass of all four stages. Returns the mean seconds per call of
        each stage, scaled to the reference speed and as measured, and the
        output digests. With ``repeat``, a stage shorter than
        ``min_stage_s`` is called again until it has run that long."""
        self.truncate_outputs()
        times, raw = {}, {}
        before = self.calibrate()
        calibrations = [before]
        for stage in STAGES:
            total = 0.0
            calls = 0
            while True:
                code, elapsed, out = self.call(self.argv(stage, jobs))
                total += elapsed
                calls += 1
                if after_call is not None:
                    after_call(stage)
                self.check(code == 0, f"{stage} exited {code}: {out.strip()[-300:]}")
                self.tally(stage, out)
                if not repeat or total >= self.min_stage_s or code != 0:
                    break
            after = self.calibrate()
            calibrations.append(after)
            raw[stage] = total / calls
            times[stage] = scaled(raw[stage], before, after)
            before = after
        return {"times": times, "raw_times": raw, "calibrations": calibrations,
                "digests": self.verify()}

    def truncate_outputs(self) -> None:
        """Empty every output file of the last round but keep it. The stages
        then rewrite existing files: creating hundreds of fresh inodes costs
        anywhere from 10 to 150 ms on a virtual disk, which would swamp the
        run stage. A file a stage fails to rewrite stays empty and fails the
        digest check."""
        for path in [*self.logs.glob("*"), *self.datasets.glob("*"), self.plot]:
            if path.is_file():
                path.write_bytes(b"")

    def tally(self, stage: str, out: str) -> None:
        """Count a stage call's operations and the ones that failed:
        transport-failed episodes, excluded logs and rewrite failures."""
        w = self.workload
        if stage == "run":
            self.attempted += w.episodes
            self.failed += w.episodes - len(self.log_paths())
        elif stage in ("evaluate", "report-errors"):
            self.attempted += w.episodes
            for line in out.splitlines():
                if line.startswith("warning: excluded "):
                    self.failed += int(line.split()[2])
        else:
            manifest = self.read_json(self.datasets / "manifest.json") or {}
            self.attempted += manifest.get("sft", {}).get("base", 0) * w.rewrites
            self.failed += manifest.get("rewrite_failures", 0)

    # -- checks ---------------------------------------------------------------

    def log_paths(self) -> list:
        return sorted(self.logs.glob("*__run*.json"))

    @staticmethod
    def read_json(path: Path):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def digests(self) -> dict:
        out = {"logs": sha256_files(self.log_paths())}
        for name, path in (("report.json", self.logs / "report.json"),
                           ("plot.json", self.plot),
                           ("sft.jsonl", self.datasets / "sft.jsonl"),
                           ("dpo.jsonl", self.datasets / "dpo.jsonl"),
                           ("manifest.json", self.datasets / "manifest.json")):
            out[name] = sha256_files([path]) if path.exists() else "missing"
        return out

    def verify(self) -> dict:
        w = self.workload
        episodes = w.episodes
        self.check(len(self.log_paths()) == episodes,
                   f"{len(self.log_paths())} logs written, expected {episodes}")
        report = self.read_json(self.logs / "report.json") or {}
        self.check(report.get("runs") == episodes,
                   f"report.json runs {report.get('runs')} != {episodes} episodes")
        manifest = self.read_json(self.datasets / "manifest.json") or {}
        dpo = manifest.get("dpo", {})
        self.check(dpo.get("end_as_chosen_violations") == 0,
                   f"end_as_chosen_violations {dpo.get('end_as_chosen_violations')}")
        sft = manifest.get("sft", {})
        self.check(sft.get("total") is not None
                   and sft.get("total") == (1 + w.rewrites) * sft.get("base", -1),
                   f"sft total {sft.get('total')} != (1 + {w.rewrites}) x {sft.get('base')}")
        self.check(self.plot.exists(), "plot data not written")
        if w.expected_steps is not None:
            steps = sum(len(self.read_json(p)["steps"]) for p in self.log_paths())
            self.check(steps == w.expected_steps,
                       f"{steps} steps logged, generator expects {w.expected_steps}")
        digests = self.digests()
        if self.reference is None:
            self.reference = digests
        else:
            for name, value in digests.items():
                self.check(value == self.reference[name],
                           f"{name} differs from the first round's output")
        return digests


def workload_counts(pipeline: Pipeline) -> dict:
    """Behaviour counts of the logs and datasets the last round left, fixed
    for a given workload and seed."""
    from homebench.core import ActionType, ErrorCode, parse_trajectory_log
    from homebench.metrics import count_replans

    trajectories = [parse_trajectory_log(p.read_bytes()) for p in pipeline.log_paths()]
    steps = [s for t in trajectories for s in t.steps]
    manifest = pipeline.read_json(pipeline.datasets / "manifest.json") or {}
    codes: dict = {}
    for s in steps:
        if s.feedback.code is not None:
            codes[s.feedback.code.value] = codes.get(s.feedback.code.value, 0) + 1
    return {
        "logs": len(trajectories),
        "steps": len(steps),
        "failed_steps": sum(1 for s in steps if not s.feedback.ok),
        # steps whose output reached the executor: parsed, valid, not End
        "executed_steps": sum(1 for s in steps
                              if s.feedback.code is not ErrorCode.F1
                              and s.output.action_type is not ActionType.END),
        "retries_used": sum(s.retries_used for s in steps),
        "replans": sum(count_replans(t) for t in trajectories),
        "terminated_by_budget": sum(1 for t in trajectories if t.terminated_by_budget),
        "error_codes": dict(sorted(codes.items())),
        "sft": manifest.get("sft"),
        "dpo_pre_dedup": manifest.get("dpo", {}).get("pre_dedup"),
        "dpo_post_dedup": manifest.get("dpo", {}).get("post_dedup"),
    }


def measure_setup(workload, pipeline: Pipeline, probes: int) -> tuple:
    """Seconds from ``import homebench`` to ``run_benchmark`` entry in fresh
    interpreters, as measured and scaled to the reference speed; one
    unmeasured probe first so bytecode caches are warm."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
            *pipeline.argv("run", workload.jobs)]
    raw, times = [], []
    before = pipeline.calibrate()
    for i in range(probes + 1):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, env=os.environ.copy())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        after = pipeline.calibrate()
        if i:
            raw.append(float(proc.stdout.strip().splitlines()[-1]))
            times.append(scaled(raw[-1], before, after))
        before = after
    return raw, times


# ---------------------------------------------------------------------------
# traced run


def install_tracer(tracer, cpu_samples: list) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    from homebench import augment, cli, core, loop, metrics, planners, sim
    from homebench.core import ErrorCode

    for name in ("cmd_run", "cmd_evaluate", "cmd_report_errors", "cmd_augment"):
        tracer.trace(cli, name, f"cli.{name}")
    for name in ("load_tasks", "parse_trajectory_log", "serialize_trajectory",
                 "serialize_output"):
        tracer.trace(core, name, f"core.{name}")
    tracer.count_calls(core, "normalize_name", "core.normalize_name")
    tracer.trace(sim, "load_scene", "sim.load_scene")
    tracer.trace(sim, "observe", "sim.observe")

    def count_e1(t, outcome):
        if outcome.code is ErrorCode.E1:
            t.count("sim.execute.e1_attempts")

    tracer.trace(sim, "execute", "sim.execute", on_result=count_e1)
    for name in ("run_episode", "assemble_instruction", "run_benchmark",
                 "parse_planner_output", "replay_instructions"):
        tracer.trace(loop, name, f"loop.{name}")
    tracer.trace(planners, "load_scripted_plan", "planners.load_scripted_plan")
    tracer.trace(planners.ScriptedPlanner, "next", "planners.ScriptedPlanner.next")
    tracer.trace(metrics, "build_report", "metrics.build_report")
    for name in ("render_summary_table", "render_attribute_table",
                 "render_error_table", "render_action_table"):
        tracer.trace(metrics, name, "metrics.render")
    for name in ("build_datasets", "sft_convert", "expand_with_rewrites"):
        tracer.trace(augment, name, f"augment.{name}")
    for name in ("dpo_sift", "dpo_order_change", "dpo_action_change", "dpo_model_change"):
        tracer.trace(augment, name, "augment.dpo")

    def cpu_meter(fn):
        def wrapper(*args, **kwargs):
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu_samples.append((cpu_seconds() - cpu0, time.perf_counter() - wall0))
        return wrapper

    tracer.patch(loop, "run_benchmark", cpu_meter)
    tracer.install()


class TracedRound:
    """Drained trace summaries of one traced round, keyed by stage."""

    def __init__(self, by_stage: dict):
        self.by_stage = by_stage

    def _field(self, name: str, key: str, stages) -> float:
        total = 0
        for stage in stages or self.by_stage:
            entry = self.by_stage[stage]["spans"].get(name)
            if entry is not None:
                total += entry[key]
        return total

    def calls(self, name: str, stages=None) -> int:
        counted = sum(self.by_stage[s]["counts"].get(name + ".calls", 0)
                      for s in stages or self.by_stage)
        return counted + self._field(name, "calls", stages)

    def self_s(self, name: str, stages=None) -> float:
        return self._field(name, "self_s", stages)

    def total_s(self, name: str, stages=None) -> float:
        return self._field(name, "total_s", stages)

    def count(self, name: str) -> int:
        return sum(s["counts"].get(name, 0) for s in self.by_stage.values())

    def gc(self, key: str):
        return sum(s[key] for s in self.by_stage.values())


def layer_metrics(traced: list, durations: list, cpu_samples: list, counts: dict,
                  workload, pipeline: Pipeline, overhead: float) -> dict:
    """Per-layer metrics, each the median over traced rounds of its value for
    one pass of the pipeline."""
    episodes = workload.episodes
    steps = counts["steps"]

    def per_round(fn):
        return median([fn(r) for r in traced])

    out = {}
    for name in ("cmd_run", "cmd_evaluate", "cmd_report_errors", "cmd_augment"):
        out[f"cli.{name}.self_s"] = (per_round(lambda r: r.self_s(f"cli.{name}")), "s")
    out["core.load_tasks.s"] = (per_round(lambda r: r.total_s("core.load_tasks")), "s")
    for name in ("parse_trajectory_log", "serialize_trajectory", "serialize_output"):
        out[f"core.{name}.calls"] = (per_round(lambda r: r.calls(f"core.{name}")), "count")
        out[f"core.{name}.self_s"] = (per_round(lambda r: r.self_s(f"core.{name}")), "s")
    out["core.normalize_name.calls"] = (per_round(lambda r: r.calls("core.normalize_name")),
                                        "count")
    out["sim.load_scene.calls"] = (per_round(lambda r: r.calls("sim.load_scene")), "count")
    out["sim.load_scene.self_s"] = (per_round(lambda r: r.self_s("sim.load_scene")), "s")
    out["sim.load_scene.per_episode"] = (
        per_round(lambda r: r.calls("sim.load_scene")) / episodes, "ratio")
    out["sim.observe.calls"] = (per_round(lambda r: r.calls("sim.observe")), "count")
    out["sim.observe.self_s"] = (per_round(lambda r: r.self_s("sim.observe")), "s")
    ordered = sorted(durations)
    out["sim.observe.us_p50"] = (statistics.median(ordered) * 1e6 if ordered else 0.0, "us")
    out["sim.observe.us_p99"] = (ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] * 1e6
                                 if ordered else 0.0, "us")
    useful = episodes + counts["executed_steps"]
    out["sim.observe.useful_ratio"] = (
        useful / max(1, per_round(lambda r: r.calls("sim.observe", ["run"]))), "ratio")
    out["sim.execute.calls"] = (per_round(lambda r: r.calls("sim.execute")), "count")
    out["sim.execute.self_s"] = (per_round(lambda r: r.self_s("sim.execute")), "s")
    out["sim.execute.e1_attempts"] = (per_round(lambda r: r.count("sim.execute.e1_attempts")),
                                      "count")
    for name in ("run_episode", "assemble_instruction"):
        out[f"loop.{name}.calls"] = (per_round(lambda r: r.calls(f"loop.{name}")), "count")
        out[f"loop.{name}.self_s"] = (per_round(lambda r: r.self_s(f"loop.{name}")), "s")
    out["loop.run_benchmark.cpu_per_wall"] = (
        median([cpu / wall for cpu, wall in cpu_samples if wall > 0]), "ratio")
    for name in ("parse_planner_output", "replay_instructions"):
        out[f"loop.{name}.calls"] = (per_round(lambda r: r.calls(f"loop.{name}")), "count")
        out[f"loop.{name}.self_s"] = (per_round(lambda r: r.self_s(f"loop.{name}")), "s")
    out["loop.parse_planner_output.per_augmented_step"] = (
        per_round(lambda r: r.calls("loop.parse_planner_output", ["augment"])) / max(1, steps),
        "ratio")
    out["loop.replay_instructions.per_trajectory"] = (
        per_round(lambda r: r.calls("loop.replay_instructions", ["augment"])) / episodes,
        "ratio")
    out["planners.load_scripted_plan.per_episode"] = (
        per_round(lambda r: r.calls("planners.load_scripted_plan", ["run"])) / episodes,
        "ratio")
    out["planners.ScriptedPlanner.next.calls"] = (
        per_round(lambda r: r.calls("planners.ScriptedPlanner.next")), "count")
    out["planners.ScriptedPlanner.next.self_s"] = (
        per_round(lambda r: r.self_s("planners.ScriptedPlanner.next")), "s")
    out["metrics.build_report.calls"] = (per_round(lambda r: r.calls("metrics.build_report")),
                                         "count")
    out["metrics.build_report.self_s"] = (per_round(lambda r: r.self_s("metrics.build_report")),
                                          "s")
    out["metrics.render.self_s"] = (per_round(lambda r: r.self_s("metrics.render")), "s")
    for name in ("build_datasets", "sft_convert", "dpo", "expand_with_rewrites"):
        out[f"augment.{name}.self_s"] = (per_round(lambda r: r.self_s(f"augment.{name}")), "s")
    pre = (counts["dpo_pre_dedup"] or {}).get("total", 0)
    post = (counts["dpo_post_dedup"] or {}).get("total", 0)
    out["augment.dedup_ratio"] = (post / pre if pre else 1.0, "ratio")
    out["augment.output_bytes"] = (
        sum(p.stat().st_size for p in (pipeline.datasets / "sft.jsonl",
                                       pipeline.datasets / "dpo.jsonl",
                                       pipeline.datasets / "manifest.json") if p.exists()),
        "bytes")
    out["python.gc.collections"] = (per_round(lambda r: r.gc("gc_collections")), "count")
    out["python.gc.pause_s"] = (per_round(lambda r: r.gc("gc_pause_s")), "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def traced_rounds(pipeline: Pipeline, workload, deadline: float):
    """Rounds with every layer wrapped. Each stage runs once per round so a
    round's counts are those of one pipeline pass."""
    from tracer import Tracer

    tracer = Tracer()
    cpu_samples: list = []
    rounds, durations, pass_times, profile = [], [], [], {}
    install_tracer(tracer, cpu_samples)
    try:
        while not rounds or time.perf_counter() < deadline:
            by_stage = {}
            result = pipeline.round(workload.jobs, repeat=False,
                                    after_call=lambda s: by_stage.__setitem__(s, tracer.drain()))
            pass_times.append(sum(result["times"].values()))
            rounds.append(TracedRound(by_stage))
            for summary in by_stage.values():
                observe = summary["spans"].get("sim.observe")
                if observe:
                    durations.extend(observe["durations"])
                for name, entry in summary["spans"].items():
                    agg = profile.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                    for key in agg:
                        agg[key] += entry[key]
    finally:
        tracer.uninstall()
    return rounds, durations, cpu_samples, pass_times, profile


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time, after input generation and set-up probes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor in (0, 1]; below 1 only for smoke tests")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    return args


def run_workload(args, work: Path) -> dict:
    import workloads
    from homebench import cli

    workload = workloads.make(args.workload, work / "inputs", args.seed, args.scale)
    pipeline = Pipeline(cli, workload, work, args.seed, MIN_STAGE_S * args.scale)
    full_size = args.scale == 1
    setup_raw, setup = measure_setup(workload, pipeline, SETUP_PROBES if full_size else 1)

    # warm-up round at the other --jobs value: its outputs must match the
    # timed rounds' byte for byte
    other_jobs = 1 if workload.jobs == 2 else 2
    warm = pipeline.round(other_jobs)
    pipeline.reference = None

    start = time.perf_counter()
    measure_s = args.seconds / 2 if args.trace else args.seconds
    untraced = []
    while not untraced or time.perf_counter() < start + measure_s:
        untraced.append(pipeline.round(workload.jobs))
        gc.collect()
    rss = peak_rss_mb()
    digests = untraced[0]["digests"]
    for name, value in warm["digests"].items():
        pipeline.check(value == digests[name],
                       f"{name} differs between --jobs {other_jobs} and --jobs {workload.jobs}")
    if args.seed == DEFAULT_SEED and full_size:
        recorded = Pipeline.read_json(HERE / "digests.json") or {}
        expected = recorded.get(args.workload, {})
        for name, value in digests.items():
            pipeline.check(expected.get(name) == value,
                           f"{name} digest does not match bench/digests.json")
    counts = workload_counts(pipeline)

    def stage_rate(work_items, stage):
        return median([work_items / r["times"][stage] for r in untraced])

    pipeline_s = median([sum(r["times"].values()) for r in untraced])
    metrics = {
        "setup_s": median(setup),
        "run_steps_per_s": stage_rate(counts["steps"], "run"),
        "evaluate_logs_per_s": stage_rate(counts["logs"], "evaluate"),
        "report_errors_logs_per_s": stage_rate(counts["logs"], "report-errors"),
        "augment_steps_per_s": stage_rate(counts["steps"], "augment"),
        "pipeline_s": pipeline_s,
        "peak_rss_mb": rss,
    }
    result = {
        "metrics": {name: (value, END_TO_END[name]) for name, value in metrics.items()},
        "rounds": [r["times"] for r in untraced],
        "raw_rounds": [r["raw_times"] for r in untraced],
        "calibrations": [r["calibrations"] for r in untraced],
        "setup_samples": setup,
        "raw_setup_samples": setup_raw,
        "digests": digests,
        "counts": {**workload.counts(), **counts},
    }
    if args.trace:
        rounds, durations, cpu, pass_times, profile = traced_rounds(
            pipeline, workload, time.perf_counter() + args.seconds / 2)
        overhead = median(pass_times) / pipeline_s - 1 if pipeline_s else 0.0
        result["layers"] = layer_metrics(rounds, durations, cpu, counts, workload,
                                         pipeline, overhead)
        result["traced_rounds"] = len(rounds)
        result["trace_profile"] = profile
    result["attempted"] = pipeline.attempted
    result["failed"] = pipeline.failed
    result["problems"] = pipeline.problems
    return result


def main(argv=None) -> int:
    if not (SRC / "homebench" / "__init__.py").is_file():
        print(f"error: no homebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import homebench
    if Path(homebench.__file__).resolve().parent != (SRC / "homebench").resolve():
        print(f"error: imported homebench from {homebench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    for key in [k for k in os.environ if k.startswith("HOMEBENCH_")]:
        del os.environ[key]

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = result["failed"] == 0 and not result["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "git_sha": git_sha(ROOT),
        "correct": correct,
        **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=list) + "\n", encoding="utf-8")

    shown = result["layers"] if args.trace else result["metrics"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} python {platform.python_version()} sha {record['git_sha']}")
    print("counts " + json.dumps(record["counts"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"metric failed_op_ratio {ratio!r} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        for name, (value, unit) in shown.items():
            print(f"layer {name} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
