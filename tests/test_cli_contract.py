"""The CLI's exit-code contract under mutated documents.

Every command ends in exit 0, exit 1 with one JSON report on stdout, or
exit 2 with a usage message; no other exception escapes. Documents are
mutated at random JSON paths and written with json.dumps, so the reader
also meets what the package's writer refuses (ints beyond 64 bits, lone
surrogates).
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalspaces.cli import main
from causalspaces.compilers import compile_scm
from causalspaces.documents import scm_to_document, space_to_document
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


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


def _mutate(node, op: str):
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


# containers are emptied, halved, given their last item twice or swapped for a
# scalar; leaves are swapped for another type, an extreme number or a string
# with a lone surrogate, which json.dumps escapes and UTF-8 cannot encode
SHAPE_OPS = ["empty", "truncate", "extra", "str", "null"]
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
    kind = draw(st.sampled_from(["scm", "space"]))
    doc = json.loads(json.dumps(draw(st.sampled_from(SCMS if kind == "scm" else SPACES))))
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
    if kind == "scm":
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
