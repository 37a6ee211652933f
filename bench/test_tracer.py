"""Unit tests for the benchmark's span tracer, on synthetic modules and on
the real homebench layers it wraps in a traced run."""

import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer, summarize, union_length  # noqa: E402

CORE_SRC = '''
now = [0.0]

def clock():
    return now[0]

def leaf():
    now[0] += 1

def inner():
    now[0] += 2
    leaf()
    now[0] += 3

def outer():
    now[0] += 1
    inner()
    inner()
    now[0] += 4

class Widget:
    def poke(self):
        leaf()
        return "poked"
'''

USER_SRC = '''
from fakepkg.core import outer, leaf
COMMANDS = {"outer": outer}

def run_command(name):
    return COMMANDS[name]()
'''


@pytest.fixture
def fakepkg():
    """A two-module package: ``core`` defines the functions, ``user``
    imports them by name and keeps one in a command table."""
    modules = {}
    for name, source in (("fakepkg", ""), ("fakepkg.core", CORE_SRC),
                         ("fakepkg.user", USER_SRC)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(source, module.__dict__)
        modules[name] = module
    yield modules["fakepkg.core"], modules["fakepkg.user"]
    for name in modules:
        del sys.modules[name]


def traced(core):
    tracer = Tracer(packages=("fakepkg",), clock=core.clock)
    for name in ("leaf", "inner", "outer"):
        tracer.trace(core, name, name)
    tracer.install()
    return tracer


def test_self_time_is_duration_minus_children(fakepkg):
    core, user = fakepkg
    tracer = traced(core)
    try:
        user.run_command("outer")
    finally:
        tracer.uninstall()
    spans = tracer.drain()["spans"]
    assert {k: spans[k]["calls"] for k in spans} == {"outer": 1, "inner": 2, "leaf": 2}
    assert spans["leaf"]["total_s"] == 2 and spans["leaf"]["self_s"] == 2
    assert spans["inner"]["total_s"] == 12 and spans["inner"]["self_s"] == 10
    assert spans["outer"]["total_s"] == 17 and spans["outer"]["self_s"] == 5


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(-1, 2)], 0, 1) == 1
    assert union_length([], 0, 5) == 0


def test_overlapping_children_count_once():
    parent = ["p", 0.0, 10.0, None]
    spans = [["c", 1.0, 5.0, parent], ["c", 3.0, 7.0, parent], parent]
    summary = summarize(spans)
    assert summary["p"]["self_s"] == 4.0
    assert summary["c"]["calls"] == 2 and summary["c"]["total_s"] == 8.0


def test_rebinds_importers_and_command_tables(fakepkg):
    core, user = fakepkg
    original = core.outer
    tracer = traced(core)
    try:
        assert user.outer is core.outer is user.COMMANDS["outer"]
        assert user.outer is not original
    finally:
        tracer.uninstall()


def test_uninstall_restores_originals_and_records_nothing(fakepkg):
    core, user = fakepkg
    before = {name: getattr(core, name) for name in ("leaf", "inner", "outer")}
    poke = core.Widget.poke
    tracer = traced(core)
    tracer.trace(core.Widget, "poke", "Widget.poke")
    tracer.count_calls(core, "clock", "clock")
    assert core.Widget().poke() == "poked"
    tracer.uninstall()
    for name, fn in before.items():
        assert getattr(core, name) is fn
    assert user.outer is before["outer"] and user.leaf is before["leaf"]
    assert user.COMMANDS["outer"] is before["outer"]
    assert core.Widget.poke is poke
    tracer.drain()
    user.run_command("outer")
    drained = tracer.drain()
    assert drained["spans"] == {} and drained["counts"] == {}


def test_counts_and_result_hooks(fakepkg):
    core, _ = fakepkg
    tracer = Tracer(packages=("fakepkg",), clock=core.clock)
    tracer.count_calls(core, "leaf", "leaf")
    tracer.trace(core.Widget, "poke", "poke",
                 on_result=lambda t, result: t.count("poke." + result))
    tracer.install()
    try:
        core.inner()
        core.Widget().poke()
    finally:
        tracer.uninstall()
    drained = tracer.drain()
    assert drained["counts"] == {"leaf.calls": 2, "poke.poked": 1}
    assert drained["spans"]["poke"]["calls"] == 1


def test_worker_thread_spans_are_children_of_the_open_span(fakepkg):
    core, _ = fakepkg
    tracer = Tracer(packages=("fakepkg",))
    tracer.trace(core, "leaf", "leaf")

    def spawn():
        worker = threading.Thread(target=core.leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    core.spawn = spawn
    tracer.trace(core, "spawn", "spawn")
    tracer.install()
    try:
        core.spawn()
    finally:
        tracer.uninstall()
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["leaf"][3] is by_name["spawn"]
    assert by_name["spawn"][3] is None


def test_real_layers_restored_after_traced_run():
    """Installing and removing every wrapper of the traced run leaves each
    homebench module exactly as it was, command table included."""
    import run
    from homebench import cli

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "homebench":
                continue
            for key, value in vars(module).items():
                state[(name, key)] = value
                if type(value) is dict:
                    for k, v in value.items():
                        state[(name, key, k)] = v
        from homebench.planners import ScriptedPlanner
        state["ScriptedPlanner.next"] = ScriptedPlanner.next
        return state

    before = snapshot()
    tracer = Tracer()
    run.install_tracer(tracer, [])
    assert cli.COMMANDS["run"] is not before[("homebench.cli", "COMMANDS", "run")]
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
