"""Fuzzing the command line: whatever the flags and the file contents,
``main`` exits 0, 1 or 2 and never with a traceback. On exit 1 stderr
is empty (a rejected path, circuits that are not equal) or exactly one
``error: ...`` line.

Runs in process under a small ``PATHCIRC_BUDGET``, so that every
accepted build stays small.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathcirc.cli import main

BUDGET = "gates=4000,graphs=40,synth-width=6,eval-width=12"

GRAPH = {"vertices": ["a", "b"], "edges": [["e", "a", "b"], ["f", "b", "a"]]}


def compiled(argv: list[str]) -> dict:
    """The document a CLI build of GRAPH writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "graph.json"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(GRAPH, fh)
        argv = [path if a == "GRAPH" else a for a in argv] + ["--out", out]
        assert main(argv) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


KP = compiled(["compile", "--graph", "GRAPH", "--length", "1"])
ZKP = compiled(["compile-universal", "--max-vertices", "1", "--max-edges", "1",
                "--length", "1"])
DOCUMENTS = [GRAPH, KP, ZKP, compiled(["compile", "--graph", "GRAPH", "--length", "0"])]

NASTY = st.sampled_from([
    -1, 0, 1, 2, 3, 7, 2.5, 1.0, 1e400, True, False, None, "1", "", "01", [], {}, [0], [1, 2],
    10 ** 30, 2 ** 64, "\ud800",
])


def json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def nested(depth: int, closed: bool = True) -> str:
    return "[" * depth + ("]" * depth if closed else "")


NEST = "<nested>"


@st.composite
def mutated(draw) -> str:
    """A valid graph or circuit document with a few values replaced,
    deleted or swapped for a deeply nested list."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    depths = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            continue
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "nest"]))
        if action == "delete":
            del node[last]
        elif action == "replace":
            node[last] = draw(NASTY)
        else:
            node[last] = NEST
            depths.append(draw(st.integers(1, 3000)))
    text = json.dumps(doc)
    for depth in depths:
        text = text.replace(json.dumps(NEST), nested(depth), 1)
    return text


JUNK = st.one_of(
    st.binary(max_size=64),
    st.builds(nested, st.integers(1, 300_000), st.booleans()).map(str.encode),
    mutated().map(str.encode),
)


def mostly(valid, junk):
    """`valid` three times in four, else `junk`."""
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else valid)


GRAPH_FILE = mostly(st.just(json.dumps(GRAPH).encode()), JUNK)
CIRCUIT_FILE = mostly(st.sampled_from(DOCUMENTS[1:]).map(lambda d: json.dumps(d).encode()),
                      JUNK)
NUMBER = mostly(st.integers(0, 3).map(str), st.one_of(
    st.integers(-3, -1).map(str),
    st.sampled_from(["-1000000000000", "1000000000000", "two", "", "1.5", "0x10", "1e3"]),
))


@st.composite
def argvs(draw) -> list[str]:
    """Argv over the seven subcommands; files are named GRAPH, A and B."""
    cmd = draw(st.sampled_from(["compile", "compile-universal", "snarkize", "eval",
                                "verify-path", "encode-graph", "equiv", "nonsense"]))
    argv = [cmd]

    def flag(name, values, optional=True):
        if not optional or draw(st.integers(0, 19)) > 0:
            argv.extend([name, draw(values)])

    if cmd in ("compile", "verify-path", "encode-graph"):
        flag("--graph", st.just("GRAPH"))
    if cmd in ("compile", "compile-universal"):
        flag("--length", NUMBER)
    if cmd in ("compile-universal", "encode-graph"):
        flag("--max-vertices", NUMBER)
        flag("--max-edges", NUMBER)
    if cmd in ("snarkize", "eval"):
        flag("--circuit", st.sampled_from(["A", "B"]))
    if cmd == "snarkize":
        flag("--kind", mostly(st.sampled_from(["kp", "zkp"]), st.just("snark")))
    if cmd == "eval":
        flag("--input", mostly(st.text(alphabet="01", min_size=4, max_size=8),
                               st.text(alphabet="01x", max_size=12)))
    if cmd == "verify-path":
        flag("--start", st.sampled_from(["a", "b", "zz", ""]))
        tokens = st.sampled_from(["e", "f", "id:a", "id:b", "id:zz", "g", ""])
        flag("--path", st.lists(tokens, max_size=4).map(",".join))
        if draw(st.booleans()):
            flag("--end", st.sampled_from(["a", "b", "zz"]))
    if cmd == "equiv":
        flag("--a", st.just("A"))
        flag("--b", st.sampled_from(["A", "B"]))
    if cmd in ("compile", "compile-universal", "snarkize") and draw(st.booleans()):
        flag("--format", mostly(st.sampled_from(["json", "bristol"]), st.just("xml")),
             optional=False)
    if draw(st.integers(0, 4)) == 0:
        flag("--out", st.sampled_from(["OUT", "MISSING/out.json"]), optional=False)
    return argv


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argvs(), graph=GRAPH_FILE, a=CIRCUIT_FILE, b=CIRCUIT_FILE)
def test_main_never_prints_a_traceback(argv, graph, a, b):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"OUT": os.path.join(tmp, "out")}
        for name, content in (("GRAPH", graph), ("A", a), ("B", b)):
            files[name] = os.path.join(tmp, name)
            with open(files[name], "wb") as fh:
                fh.write(content)
        files["MISSING/out.json"] = os.path.join(tmp, "missing", "out.json")
        argv = [files.get(arg, arg) for arg in argv]
        err = io.StringIO()
        # a UTF-8 stream, like a real stdout: a StringIO accepts text none can print
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with mock.patch.dict(os.environ, {"PATHCIRC_BUDGET": BUDGET}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err == "" or (err.count("\n") == 1 and err.startswith("error: ")), err
