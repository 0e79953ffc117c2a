"""The CLI's exit-code contract under mutated documents.

Every command ends in exit 0, exit 1 with one JSON report on stdout, or
exit 2 with a usage message; no other exception escapes. SCM, PO and space
documents are mutated at random JSON paths and written with json.dumps, so
the reader also meets what the package's writer refuses (ints beyond 64
bits, lone surrogates). A numpy warning escapes as an exception here,
since the suite turns RuntimeWarning into an error.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalspaces.cli import main
from causalspaces.compilers import PoSpec, compile_scm
from causalspaces.documents import po_to_document, scm_to_document, space_to_document
from causalspaces.harness import xor_scm


def _chain(n: int) -> dict:
    """Binary chain: X0 a coin, each later variable copies its parent or flips."""
    return {
        "variables": [{"name": f"X{j}", "outcomes": ["0", "1"]} for j in range(n)],
        "noises": [{"outcomes": ["0", "1"], "weights": [0.25, 0.75]}] * n,
        "parents": [[]] + [[j - 1] for j in range(1, n)],
        "tables": [[[0, 1]]] + [[[0, 1], [1, 0]]] * (n - 1),
    }


def _as_json(doc) -> dict:
    return json.loads(json.dumps(doc, default=lambda a: a.tolist()))


SCMS = [_as_json(scm_to_document(xor_scm())), _chain(3)]
SPACES = [_as_json(space_to_document(compile_scm(xor_scm())))]
# two treatments, two outcomes, no covariate: (Z, Y under 0, Y under 1)
POS = [_as_json(po_to_document(PoSpec(("0", "1"), ("0", "1"), [0.1, 0.15, 0.05, 0.2] * 2)))]
DOCUMENTS = {"scm": SCMS, "po": POS, "space": SPACES}


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


def _overflow(node):
    """node with every number inside it set to 1e308."""
    if isinstance(node, dict):
        return {k: _overflow(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_overflow(v) for v in node]
    return 1e308 if isinstance(node, (int, float)) and not isinstance(node, bool) else node


def _mutate(node, op: str):
    if op == "overflow":
        return _overflow(node)
    if op in ("empty", "truncate", "extra"):
        items = list(node.items()) if isinstance(node, dict) else node
        cut = {"empty": [], "truncate": items[: len(items) // 2], "extra": items + items[-1:]}
        return type(node)(cut[op])
    if op == "negate":
        return -node if isinstance(node, (int, float)) and not isinstance(node, bool) else -0.5
    return {
        "str": "0",
        "null": None,
        "bool": True,
        "object": {},
        "int": 1,
        "float": 0.5,
        "huge": 10**30,
        "max": 1e308,
        "tiny": 5e-324,
        "surrogate": "X\ud800",
    }[op]


# containers are emptied, halved, given their last item twice, filled with
# 1e308 (whose totals overflow) or swapped for a scalar; leaves are swapped for
# another type, an extreme number or a string with a lone surrogate, which
# json.dumps escapes and UTF-8 cannot encode
SHAPE_OPS = ["empty", "truncate", "extra", "overflow", "str", "null"]
VALUE_OPS = ["negate", "str", "null", "bool", "object", "int", "float", "huge", "max", "tiny",
             "surrogate"]

SPACE_COMMANDS = [
    ["validate"],
    ["do", "--on", "0", "--dirac", "1", "--query", "Y=1"],
    ["do", "--on", "0,1", "--q", "0.25,0.25,0.25,0.25", "--hard"],
    ["classify", "--u", "0", "--event", "Y=1"],
    ["classify", "--u", "X", "--event", "Y in {0,1}", "--given", "Y"],
]


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(list(DOCUMENTS)))
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS[kind]))))
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        # a random JSON path: from the root, stop or step into a child
        parent, key, node = None, None, doc
        while (step := draw(st.sampled_from([None, *_children(node)]))) is not None:
            parent, key, node = node, step, node[step]
        shaped = isinstance(node, (dict, list))
        new = _mutate(node, draw(st.sampled_from(SHAPE_OPS if shaped else VALUE_OPS)))
        if parent is None:
            doc = new
        else:
            parent[key] = new
    return kind, doc


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=mutated(), command=st.sampled_from(SPACE_COMMANDS))
def test_mutated_documents_keep_the_exit_code_contract(tmp_path, case, command):
    kind, doc = case
    path = tmp_path / f"doc.{kind}.json"
    path.write_text(json.dumps(doc))
    if kind != "space":
        argv = ["compile", str(path), "--out", str(tmp_path / "out.space.json")]
    else:
        argv = [command[0], str(path), *command[1:]]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, doc, result.exception)
    assert result.exit_code in (0, 1, 2), (argv, doc, result.output)
    if result.exit_code == 1:
        lines = result.stdout.splitlines()
        assert len(lines) == 1, (argv, doc, result.output)
        report = json.loads(lines[0])
        assert isinstance(report, dict) and ("error" in report or "valid" in report), report


# each flag value is a well-formed one, one with a piece appended, or pieces
# of the grammars glued at random, among them numbers at float's edges, a
# lone surrogate and NUL
FLAG_PIECES = ["X", "Y", "0", "1", ",", "&", "=", "{", "}", " in ", "[]", "nan", "inf", "1e308",
               "-", " ", "\ud800", "\x00"]
WELL_FORMED = {
    "subset": ["X", "Y", "0", "1", "X,Y", "", "[]"],
    "atom": ["0", "1", "1,0"],
    "weights": ["0.5,0.5", "1,0", "0.25,0.25,0.25,0.25", "1e308,1"],
    "event": ["Y=1", "X=0", "Y in {0,1}", "X=1 & Y=0", "Y in {}"],
}


@st.composite
def flag(draw, kind: str):
    pieces = st.sampled_from(FLAG_PIECES)
    well = draw(st.sampled_from(WELL_FORMED[kind]))
    # mostly well-formed, so that whole commands also get past the parser
    how = draw(st.sampled_from(["well"] * 4 + ["appended", "glued"]))
    if how == "well":
        return well
    if how == "appended":
        return well + draw(pieces)
    return "".join(draw(st.lists(pieces, max_size=6)))


@st.composite
def flagged_command(draw):
    if draw(st.booleans()):
        argv = ["do", "--on", draw(flag("subset"))]
        point = draw(st.sampled_from([None, "--dirac", "--q"]))
        if point is not None:
            argv += [point, draw(flag("atom" if point == "--dirac" else "weights"))]
        if draw(st.booleans()):
            argv.append("--hard")
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--query", draw(flag("event"))]
    else:
        argv = ["classify", "--u", draw(flag("subset")), "--event", draw(flag("event"))]
        if draw(st.booleans()):
            argv += ["--given", draw(flag("subset"))]
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=flagged_command())
def test_fuzzed_flags_keep_the_exit_code_contract(tmp_path, command):
    path = tmp_path / "xor.space.json"
    if not path.exists():
        path.write_text(json.dumps(SPACES[0]))
    argv = [command[0], str(path), *command[1:]]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.exception)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    if result.exit_code == 1:
        lines = result.stdout.splitlines()
        assert len(lines) == 1, (argv, result.output)
        report = json.loads(lines[0])
        assert isinstance(report, dict) and "error" in report, report
