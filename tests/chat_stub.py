"""A localhost chat-completions server that plays the bundled plans, with no
network and no model.

Each reply depends on the request alone: the bundled plan entry of the
prompt's task at the prompt's history length, and End once the plan runs
out. So a ``remote:`` run against it gives the same logs at any ``--jobs``.

Run as a script, it writes its port to PORT_FILE once it listens, and
serves until it is killed:

    python tests/chat_stub.py PORT_FILE

The tests import ``PlanStub`` and ``serving`` from here.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources


@functools.cache
def _bundled_plans() -> dict:
    """Each bundled task's instruction -> its bundled plan's reply texts."""
    data = resources.files("homebench").joinpath("data")
    plans = {}
    for path in data.joinpath("tasks").iterdir():
        task = json.loads(path.read_text(encoding="utf-8"))
        plan = json.loads(data.joinpath("plans").joinpath(path.name).read_text(encoding="utf-8"))
        plans[task["instruction"]] = [o if isinstance(o, str) else json.dumps(o)
                                      for o in plan["outputs"]]
    return plans


END = json.dumps({"analysis": "The plan is done.", "subtask": ["End"], "model": "M3"})
PROMPT = re.compile(r"^Task: (.*?)\nInventory: .*?\nHistory:\n(.*?)\nFeedback: ", re.S | re.M)


class PlanStub(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        task, history = PROMPT.search(body["messages"][-1]["content"]).groups()
        step = 0 if history == "none" else len(history.splitlines())
        outputs = _bundled_plans()[task]
        reply = outputs[step] if step < len(outputs) else END
        payload = json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler, server_class=ThreadingHTTPServer):
    """Serve ``handler`` on a free localhost port on a background thread,
    and yield the chat-completions endpoint URL; stop on exit."""
    server = server_class(("127.0.0.1", 0), handler)
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()


def main(port_file: str) -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), PlanStub)
    with open(port_file + ".tmp", "w", encoding="utf-8") as port:
        port.write(str(server.server_port))
    os.replace(port_file + ".tmp", port_file)  # a reader never sees half a port
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1])
