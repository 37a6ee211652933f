import json
import subprocess
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from homebench.core import ErrorCode, PlannerTransportError
from homebench.loop import Instruction, run_episode
from homebench.planners import (
    ConsolePlanner,
    RemotePlanner,
    RemotePlannerConfig,
    RemoteRewriter,
    ScriptedPlanner,
    load_scripted_plan,
    load_template,
)
from homebench import planners
from homebench.core import RewriterTransportError
from homebench.sim import load_scene

from chat_stub import serving
from conftest import make_task
from test_loop import plan_entry
from test_sim import scene_doc


def instruction(feedback="none", feedback_code=None):
    return Instruction(
        system="SYSTEM", task="tidy", inventory="empty", history="none",
        feedback=feedback, observations="front: nothing notable",
        feedback_code=feedback_code,
    )


# ---------------------------------------------------------------------------
# scripted planner


def test_scripted_plays_entries_in_order():
    planner = ScriptedPlanner(["one", "two", "three"])
    got = [planner.next(instruction()) for _ in range(3)]
    assert got == ["one", "two", "three"]


def test_scripted_exhaustion_yields_end():
    planner = ScriptedPlanner(["only"])
    planner.next(instruction())
    for _ in range(3):
        text = planner.next(instruction())
        assert json.loads(text)["subtask"] == ["End"]


def test_scripted_branch_fires_on_feedback_code_without_consuming():
    planner = ScriptedPlanner(["a", "b"], branches={"D1": "sidestep"})
    assert planner.next(instruction()) == "a"
    assert planner.next(instruction("failure (D1): the target is far away",
                                    feedback_code=ErrorCode.D1)) == "sidestep"
    assert planner.next(instruction()) == "b"


def test_scripted_branch_replan_through_episode():
    # pick before moving close: D1, branch navigates, retry succeeds
    task = make_task(task_id="demo")
    planner = load_scripted_plan(json.dumps({
        "outputs": [
            json.loads(plan_entry("Pick", "drawer-knob", "RT-1-X")),
            # the branch answers the D1 query without consuming this slot,
            # so the plan carries the re-attempt explicitly
            json.loads(plan_entry("Pick", "drawer-knob", "RT-1-X")),
            json.loads(plan_entry("Place", "drawer", "RT-1-X")),
            json.loads(plan_entry("End", "")),
        ],
        "branches": {
            "D1": json.loads(plan_entry("Go to", "table", "NoMaD")),
        },
    }))
    doc = scene_doc()
    doc["entities"].append(
        {"name": "drawer-knob", "kind": "object", "location": "table"})
    trajectory = run_episode(load_scene(doc), planner, task)
    sequence = [
        (s.output.action, s.feedback.ok, s.feedback.code) for s in trajectory.steps
    ]
    assert sequence == [
        ("Pick", False, ErrorCode.D1),
        ("Go to", True, None),
        ("Pick", True, None),
        ("Place", True, None),
        ("End", True, None),
    ]


def test_scripted_deterministic():
    entries = ["x", "y"]
    a = ScriptedPlanner(entries)
    b = ScriptedPlanner(entries)
    feed = [instruction(), instruction("failure (E1): the subtask is too difficult to perform")]
    assert [a.next(i) for i in feed] == [b.next(i) for i in feed]


# ---------------------------------------------------------------------------
# console planner


def test_console_passthrough():
    lines = iter(['{"analysis":"a","subtask":["Pick","apple"],"model":"M3"}'])
    printed = []
    planner = ConsolePlanner(input_fn=lambda prompt: next(lines),
                             print_fn=printed.append)
    text = planner.next(instruction())
    assert json.loads(text)["subtask"] == ["Pick", "apple"]
    assert printed  # the instruction was shown


def test_console_end_shorthand():
    planner = ConsolePlanner(input_fn=lambda prompt: "end", print_fn=lambda s: None)
    assert json.loads(planner.next(instruction()))["subtask"] == ["End"]


def test_console_eof_ends():
    def raise_eof(prompt):
        raise EOFError

    planner = ConsolePlanner(input_fn=raise_eof, print_fn=lambda s: None)
    assert json.loads(planner.next(instruction()))["subtask"] == ["End"]


# ---------------------------------------------------------------------------
# remote planner


def test_cli_import_leaves_requests_unloaded():
    """Scripted runs and the identity rewriter never load the HTTP client;
    only the remote planner and rewriter import it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import homebench.cli; "
            "print('requests' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



class StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, payload[, headers]) consumed per request
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        status, payload, *headers = (
            self.script.pop(0) if self.script else (200, completion("fallback"))
        )
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def completion(text):
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture
def stub_server():
    StubHandler.script = []
    StubHandler.requests_seen = []
    with serving(StubHandler, HTTPServer) as endpoint:
        yield endpoint


def config(endpoint, **overrides):
    defaults = dict(endpoint=endpoint, model="stub-model", timeout=5.0,
                    max_retries=2, backoff=0.0)
    defaults.update(overrides)
    return RemotePlannerConfig(**defaults)


def test_remote_passthrough(stub_server):
    StubHandler.script = [(200, completion("THE COMPLETION"))]
    planner = RemotePlanner(config(stub_server))
    assert planner.next(instruction()) == "THE COMPLETION"
    sent = StubHandler.requests_seen[0]
    assert sent["model"] == "stub-model"
    assert sent["messages"][0] == {"role": "system", "content": "SYSTEM"}
    assert "Task: tidy" in sent["messages"][1]["content"]
    assert "SYSTEM" not in sent["messages"][1]["content"]


def test_remote_retries_then_succeeds(stub_server):
    StubHandler.script = [(500, {}), (500, {}), (200, completion("ok now"))]
    planner = RemotePlanner(config(stub_server, max_retries=2))
    assert planner.next(instruction()) == "ok now"
    assert len(StubHandler.requests_seen) == 3  # exactly n+1 requests


def test_remote_retry_budget_exhausted(stub_server):
    StubHandler.script = [(500, {})] * 3
    planner = RemotePlanner(config(stub_server, max_retries=1))
    with pytest.raises(PlannerTransportError, match="500"):
        planner.next(instruction())
    assert len(StubHandler.requests_seen) == 2


@pytest.mark.parametrize("status, requests_made", [
    (401, 1), (400, 1), (404, 1), (408, 3), (429, 3),
])
def test_remote_4xx_fails_without_retry(stub_server, status, requests_made):
    # a 4xx cannot succeed on a retry, except a timeout (408) or a rate limit (429)
    StubHandler.script = [(status, {})] * 3
    planner = RemotePlanner(config(stub_server, max_retries=2))
    with pytest.raises(PlannerTransportError, match=str(status)):
        planner.next(instruction())
    assert len(StubHandler.requests_seen) == requests_made


@pytest.mark.parametrize("status, retry_after, slept", [
    (429, "3", 3.0),
    (503, " 2 ", 2.0),
    (500, "120", 5.0),  # capped by the timeout
    (429, "0", 0.0),
    (429, None, 0.25),  # absent: the backoff
    (503, "soon", 0.25),
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # the HTTP-date form is not read
    (429, "-1", 0.25),
    (429, "1.5", 0.25),
    (408, "3", 0.25),  # only 429 and 5xx responses are asked
])
def test_remote_honours_retry_after(stub_server, monkeypatch, status, retry_after, slept):
    sleeps = []
    monkeypatch.setattr(planners.time, "sleep", sleeps.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    StubHandler.script = [(status, {}, headers), (200, completion("ok"))]
    planner = RemotePlanner(config(stub_server, timeout=5.0, backoff=0.25))
    assert planner.next(instruction()) == "ok"
    assert sleeps == [slept]


def test_remote_retry_after_applies_to_the_next_attempt_only(stub_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(planners.time, "sleep", sleeps.append)
    StubHandler.script = [(429, {}, {"Retry-After": "4"}), (500, {}), (200, completion("ok"))]
    planner = RemotePlanner(config(stub_server, max_retries=2, backoff=0.25))
    assert planner.next(instruction()) == "ok"
    assert sleeps == [4.0, 0.5]


def test_remote_timeout_no_retries():
    # unroutable address per RFC 5737
    planner = RemotePlanner(config("http://192.0.2.1:9/v1/chat", max_retries=0,
                                   timeout=0.2))
    with pytest.raises(PlannerTransportError):
        planner.next(instruction())


def test_remote_malformed_envelope(stub_server):
    StubHandler.script = [(200, {"unexpected": True})] * 2
    planner = RemotePlanner(config(stub_server, max_retries=1))
    with pytest.raises(PlannerTransportError, match="envelope"):
        planner.next(instruction())


def test_remote_too_deep_body_is_retried_then_a_transport_error(stub_server):
    StubHandler.script = [(200, b"[" * 100_000 + b"]" * 100_000)] * 2
    planner = RemotePlanner(config(stub_server, max_retries=1))
    with pytest.raises(PlannerTransportError, match="envelope"):
        planner.next(instruction())
    assert len(StubHandler.requests_seen) == 2


def test_remote_rendering_pure(stub_server):
    planner = RemotePlanner(config(stub_server))
    a = planner.user_message(instruction())
    b = planner.user_message(instruction())
    assert a == b


def test_remote_config_validation():
    from homebench.core import ConfigError
    with pytest.raises(ConfigError):
        RemotePlannerConfig(endpoint="x", model="y", timeout=0)
    with pytest.raises(ConfigError):
        RemotePlannerConfig(endpoint="x", model="y", max_retries=-1)
    # the longest timeout a socket takes is allowed, a longer one is not
    import socket
    import threading
    RemotePlannerConfig(endpoint="x", model="y", timeout=threading.TIMEOUT_MAX)
    with socket.socket() as sock:
        sock.settimeout(threading.TIMEOUT_MAX)
    with pytest.raises(ConfigError):
        RemotePlannerConfig(endpoint="x", model="y", timeout=threading.TIMEOUT_MAX * 2)


def test_rewriter_wraps_transport_error():
    rewriter = RemoteRewriter(config("http://192.0.2.1:9/v1/chat", max_retries=0,
                                     timeout=0.2))
    with pytest.raises(RewriterTransportError):
        rewriter("some text")


def test_rewriter_roundtrip(stub_server):
    StubHandler.script = [(200, completion("REPHRASED"))]
    rewriter = RemoteRewriter(config(stub_server))
    assert rewriter("original text") == "REPHRASED"
    assert "original text" in StubHandler.requests_seen[0]["messages"][0]["content"]


class ReplySession:
    """A session whose every POST answers 200 with ``content``."""

    def __init__(self, content):
        self.content = content

    def post(self, endpoint, **kwargs):
        response = type("Response", (), {"status_code": 200, "headers": {}})()
        response.json = lambda: completion(self.content)
        return response


def test_rewriter_reply_with_lone_surrogate_is_a_transport_error():
    # half of an emoji, as a decoded HTTP reply can carry; no dataset file
    # could encode it, so the rewrite is skipped like a failed one
    rewriter = RemoteRewriter(config("http://unused.invalid/v1/chat"),
                              session=ReplySession("Tidy the room \ud83d"))
    with pytest.raises(RewriterTransportError, match=r"lone UTF-16 surrogate '\\ud83d'"):
        rewriter("Tidy the room")
    whole = RemoteRewriter(config("http://unused.invalid/v1/chat"),
                           session=ReplySession("Tidy the room \U0001F600"))
    assert whole("Tidy the room") == "Tidy the room \U0001F600"


# ---------------------------------------------------------------------------
# templates


def test_load_template_packaged_and_unknown():
    from homebench.core import ConfigError
    text = load_template("default")
    assert "{task}" in text
    with pytest.raises(ConfigError):
        load_template("no-such-template")


def test_template_rendering_deterministic():
    from homebench.loop import render_template
    template = load_template("default")
    a = render_template(template, instruction())
    b = render_template(template, instruction())
    assert a == b


def test_load_template_from_path(tmp_path):
    custom = tmp_path / "minimal.txt"
    custom.write_text("Do this: {task}\nSeen: {observations}\n", encoding="utf-8")
    text = load_template(str(custom))
    from homebench.loop import render_template
    rendered = render_template(text, instruction())
    assert rendered == "Do this: tidy\nSeen: front: nothing notable\n"
