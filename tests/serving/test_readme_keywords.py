"""Docs drift: every keyword README's Python examples pass to a serving
constructor must be one that constructor accepts.

Each ```` ```python ```` block of README.md is parsed with :mod:`ast`. A
call to ``AlignmentServer``, ``AlignmentCluster``, ``AlignmentHTTPServer``
or ``serve_http`` may use only the keywords in the target's signature;
the keywords ``serve_http`` and ``AlignmentCluster`` forward to the
servers they build (their ``**server_kwargs``) are checked against
``AlignmentServer``. A deleted or renamed option fails here instead of
leaving an example that raises ``TypeError``.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    serve_http,
)

README = Path(__file__).resolve().parents[2] / "README.md"

#: call name -> (target, whether its ``**kwargs`` build AlignmentServers)
TARGETS = {
    "AlignmentServer": (AlignmentServer, False),
    "AlignmentCluster": (AlignmentCluster, True),
    "AlignmentHTTPServer": (AlignmentHTTPServer, False),
    "serve_http": (serve_http, True),
}


def named_parameters(target):
    """The keywords ``target`` accepts by name (``**kwargs`` excluded)."""
    return {
        name
        for name, parameter in inspect.signature(target).parameters.items()
        if parameter.kind
        in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    }


def unknown_keywords(name, keywords):
    """The keywords of a call to ``name`` that nothing along it accepts."""
    target, forwards = TARGETS[name]
    accepted = named_parameters(target)
    if forwards:
        accepted |= named_parameters(AlignmentServer)
    return sorted(set(keywords) - accepted)


def serving_calls(source):
    """``(name, line, keywords)`` of each serving constructor call."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in TARGETS:
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            calls.append((name, node.lineno, keywords))
    return calls


def readme_calls():
    """Every serving constructor call in README's Python blocks."""
    text = README.read_text()
    out = []
    for match in re.finditer(r"```python\n(.*?)```", text, re.S):
        block_line = text.count("\n", 0, match.start()) + 2
        for name, line, keywords in serving_calls(match.group(1)):
            out.append((name, block_line + line - 1, keywords))
    return out


CALLS = readme_calls()


@pytest.mark.parametrize(
    "name, line, keywords",
    CALLS,
    ids=[f"README.md:{line}:{name}" for name, line, _ in CALLS],
)
def test_readme_call_uses_only_accepted_keywords(name, line, keywords):
    assert unknown_keywords(name, keywords) == [], (
        f"README.md line {line}: {name} takes no such keyword"
    )


def test_readme_examples_cover_the_serving_constructors():
    assert {name for name, _, _ in CALLS} >= {
        "AlignmentServer",
        "AlignmentCluster",
        "serve_http",
    }


@pytest.mark.parametrize(
    "source, unknown",
    [
        ("serve_http(port=1, adaptive_flush=True)", ["adaptive_flush"]),
        ("AlignmentCluster(replicas=2, max_attempts=1)", ["max_attempts"]),
        ("AlignmentServer(engine='pure', gap_factor=4)", ["gap_factor"]),
        ("AlignmentCluster(replicas=2, batch_size=8)", []),
        ("serve_http(server=None, batch_size=8, qos=None)", ["qos"]),
    ],
)
def test_checker_flags_a_keyword_no_signature_takes(source, unknown):
    ((name, _, keywords),) = serving_calls(source)
    assert unknown_keywords(name, keywords) == unknown
