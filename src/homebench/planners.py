"""Interchangeable planners behind the episode loop's ``next(instruction)``
interface: a deterministic scripted planner for tests and bundled demos, an
interactive console planner, and a client for chat-completions-compatible
HTTP endpoints; and ``Transcribed``, which records any planner's queries.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .core import (
    ConfigError,
    ErrorCode,
    PlannerTransportError,
    RewriterTransportError,
    SchemaError,
    _surrogate,
    escape_surrogates,
    make_end_output,
    read_json,
    serialize_output,
)
from .loop import Instruction, render_template


def load_template(spec: str) -> str:
    """Resolve a prompt template: a filesystem path wins, otherwise the
    packaged template of that name."""
    path = Path(spec)
    if path.suffix == ".txt" and path.exists():
        return path.read_text(encoding="utf-8")
    try:
        return resources.files("homebench").joinpath(f"templates/{spec}.txt").read_text(
            encoding="utf-8"
        )
    except FileNotFoundError:
        raise ConfigError(f"unknown prompt template {spec!r}") from None


def _without_system_placeholder(template: str) -> str:
    """Drop the {system} line (and one following blank line) so the remainder
    can serve as the user message when the system text travels separately."""
    lines = template.splitlines()
    out = []
    skip_blank = False
    for line in lines:
        if line.strip() == "{system}":
            skip_blank = True
            continue
        if skip_blank:
            skip_blank = False
            if line.strip() == "":
                continue
        out.append(line)
    return "\n".join(out) + ("\n" if template.endswith("\n") else "")


# ---------------------------------------------------------------------------
# scripted planner


def _entry_text(entry) -> str:
    if isinstance(entry, str):
        return entry
    return json.dumps(entry, ensure_ascii=False)


#: what an exhausted plan replies
_PLAN_DONE = serialize_output(make_end_output("Nothing left in the plan."))


class ScriptedPlanner:
    """Replays a fixed list of raw output texts, one per query.

    When the instruction's feedback code has a matching branch, the branch
    text is returned instead and the cursor stays put, so the pre-planned
    subtask is re-emitted on the next query (this is what makes
    deterministic failure->replan tests possible).
    An exhausted plan yields End outputs forever. A ``copy.copy`` of a
    planner shares its parsed plan and keeps its own cursor.
    """

    def __init__(self, outputs, branches: Optional[dict] = None):
        self.outputs = [_entry_text(o) for o in outputs]
        self.branches = {ErrorCode(code): _entry_text(entry)
                         for code, entry in (branches or {}).items()}
        self.cursor = 0

    def next(self, instruction: Instruction) -> str:
        code = instruction.feedback_code
        if code is not None and code in self.branches:
            return self.branches[code]
        if self.cursor >= len(self.outputs):
            return _PLAN_DONE
        text = self.outputs[self.cursor]
        self.cursor += 1
        return text


def load_scripted_plan(data) -> ScriptedPlanner:
    """Build a scripted planner from a plan document (bytes or str):
    {"outputs": [...], "branches": {"D1": {...}}}. Entries may be raw
    strings or JSON objects (serialized verbatim at load)."""
    doc = read_json(data, "plan document")
    if not isinstance(doc, dict) or "outputs" not in doc:
        raise SchemaError("plan document must be an object with an outputs list")
    if not isinstance(doc["outputs"], list):
        raise SchemaError("plan outputs must be a list")
    branches = doc.get("branches") or {}
    if not isinstance(branches, dict):
        raise SchemaError("plan branches must be an object keyed by error code")
    try:
        return ScriptedPlanner(doc["outputs"], branches)
    except ValueError as exc:
        raise SchemaError(f"plan branches: {exc}") from exc


# ---------------------------------------------------------------------------
# console planner


class ConsolePlanner:
    """Manual mode: print each instruction, read one line of input back.

    The shorthand "end" expands to a canonical End output; end of input is
    treated the same way.
    """

    def __init__(self, input_fn=input, print_fn=print):
        self._input = input_fn
        self._print = print_fn

    def next(self, instruction: Instruction) -> str:
        self._print(instruction.text)
        try:
            line = self._input("> ")
        except EOFError:
            return serialize_output(make_end_output("Input closed."))
        if line.strip().lower() == "end":
            return serialize_output(make_end_output("Operator ended the task."))
        return line


# ---------------------------------------------------------------------------
# transcripts


class Transcribed:
    """Wraps a planner and records each answered query on ``transcript``
    as ``{"instruction": <prompt text>, "response": <reply>}``, the reply
    escaped as an F1 step logs it. The reply goes back unchanged; a query
    that raises is not recorded."""

    def __init__(self, planner):
        self.planner = planner
        self.transcript = []

    def next(self, instruction: Instruction) -> str:
        raw = self.planner.next(instruction)
        self.transcript.append({"instruction": instruction.text,
                                "response": escape_surrogates(raw)})
        return raw


# ---------------------------------------------------------------------------
# remote planner


@dataclass(frozen=True)
class RemotePlannerConfig:
    """Connection settings for a chat-completions-compatible endpoint. The
    API key comes from the environment and is never logged."""

    endpoint: str
    model: str
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0
    template: str = "default"
    api_key_env: str = "HOMEBENCH_API_KEY"
    backoff: float = 0.25

    def __post_init__(self):
        if not self.timeout > 0:  # NaN too
            raise ConfigError("remote planner timeout must be positive")
        if self.timeout > threading.TIMEOUT_MAX:  # a socket refuses a longer one
            raise ConfigError(f"remote planner timeout must be at most "
                              f"{int(threading.TIMEOUT_MAX)} seconds")
        if not math.isfinite(self.temperature):  # a JSON request body cannot hold it
            raise ConfigError("remote planner temperature must be finite")
        if self.max_retries < 0:
            raise ConfigError("remote planner max_retries must be >= 0")


# 4xx statuses that a later attempt can still turn into a success
_RETRYABLE_4XX = (408, 429)


def _retry_after(response, cap: float) -> Optional[float]:
    """A 429 or 5xx response's ``Retry-After`` delta-seconds, at most ``cap``;
    None for any other response or value (an HTTP date included)."""
    if response.status_code != 429 and response.status_code // 100 != 5:
        return None
    value = response.headers.get("Retry-After", "").strip()
    return min(int(value), cap) if value.isascii() and value.isdigit() else None


def _post_chat(config: RemotePlannerConfig, messages, session) -> str:
    """POST one chat request, retrying with exponential backoff on transport
    failures (connection errors, timeouts, 5xx and other non-2xx statuses,
    malformed response envelopes). A 429 or 5xx response's ``Retry-After``
    seconds, capped by ``config.timeout``, replace the backoff before the
    next attempt. A 4xx status other than 408 and 429 cannot succeed on a
    retry, so it fails at once. Returns the assistant text verbatim."""
    import requests  # only remote planners and rewriters load it

    body = {
        "model": config.model,
        "messages": messages,
        "temperature": config.temperature,
    }
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    last_error = "no attempts made"
    wait = None  # the last response's Retry-After, if it gave one
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.backoff * (2 ** (attempt - 1)) if wait is None else wait)
            wait = None
        try:
            response = session.post(
                config.endpoint, json=body, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
            continue
        if response.status_code // 100 != 2:
            last_error = f"endpoint returned status {response.status_code}"
            if response.status_code // 100 == 4 and response.status_code not in _RETRYABLE_4XX:
                raise PlannerTransportError(f"{last_error} (after {attempt + 1} attempts)")
            wait = _retry_after(response, config.timeout)
            continue
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            last_error = "malformed response envelope"
            continue
        if not isinstance(content, str):
            last_error = "response content is not text"
            continue
        return content
    raise PlannerTransportError(
        f"{last_error} (after {config.max_retries + 1} attempts)"
    )


class RemotePlanner:
    """Send each instruction to a chat endpoint: the system text as the
    system message, everything else rendered through the configured template
    as the user message. The response content comes back verbatim; whether
    it parses is the episode loop's business, not a transport error."""

    def __init__(self, config: RemotePlannerConfig, session=None):
        import requests

        self.config = config
        self.session = session or requests.Session()
        self._user_template = _without_system_placeholder(load_template(config.template))

    def user_message(self, instruction: Instruction) -> str:
        return render_template(self._user_template, instruction)

    def next(self, instruction: Instruction) -> str:
        messages = [
            {"role": "system", "content": instruction.system},
            {"role": "user", "content": self.user_message(instruction)},
        ]
        return _post_chat(self.config, messages, self.session)


REWRITE_PROMPT = (
    "Rewrite the following text with different wording but the same meaning. "
    "Reply with the rewritten text only.\n\n{text}"
)


class RemoteRewriter:
    """Text->text paraphraser over the same chat transport, for dataset
    expansion. Transport failures, and a reply holding a lone UTF-16
    surrogate (which no dataset file can encode), surface as
    RewriterTransportError so the caller can skip the affected rewrite and
    continue."""

    def __init__(self, config: RemotePlannerConfig, session=None):
        import requests

        self.config = config
        self.session = session or requests.Session()

    def __call__(self, text: str) -> str:
        messages = [{"role": "user", "content": REWRITE_PROMPT.format(text=text)}]
        try:
            reply = _post_chat(self.config, messages, self.session)
        except PlannerTransportError as exc:
            raise RewriterTransportError(str(exc)) from exc
        lone = _surrogate(reply)
        if lone is not None:
            raise RewriterTransportError(
                f"rewriter reply holds a lone UTF-16 surrogate {ascii(lone)}")
        return reply
