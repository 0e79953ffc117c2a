"""Document schemas, float fidelity, and the CLI expression grammars."""

import dataclasses
import datetime
import enum
import json
import uuid

import numpy as np
import pytest

from causalspaces import documents
from causalspaces.compilers import (
    NoiseTerm,
    PoSpec,
    ScmVariable,
    compile_scm,
    scm_from_functions,
)
from causalspaces.documents import (
    document_to_po,
    document_to_scm,
    document_to_space,
    dump_json,
    kind_of,
    parse_atom,
    parse_event,
    parse_subset,
    parse_weights,
    po_to_document,
    read_document,
    scm_to_document,
    space_to_document,
    subset_key,
)
from causalspaces.errors import DocumentError, DomainError
from causalspaces.harness import ice_cream_shark, xor_scm
from causalspaces.measure import Atom, condition


def reparse(obj):
    return json.loads(dump_json(obj))


def test_floats_round_trip_bitwise():
    awkward = [0.1, 1.0 / 3.0, 0.45, 1e-17, 123456.789, 5e-324, 1.0, -0.0, 2.0**-1074]
    for x in awkward:
        back = json.loads(dump_json(x))
        assert isinstance(back, float)
        assert np.float64(back).tobytes() == np.float64(x).tobytes()


def test_dump_json_structures():
    text = dump_json({"a": [1, 2.5], "b": {"c": True, "d": None}, "e": np.arange(3)})
    assert json.loads(text) == {"a": [1, 2.5], "b": {"c": True, "d": None}, "e": [0, 1, 2]}
    assert dump_json([]) == "[]" and dump_json({}) == "{}"
    # compact single line, shortest round-trip floats, numpy scalars as plain values
    text = dump_json({"p": np.array([0.1, 1.0 / 3.0]), "n": np.int64(3), "ok": np.bool_(True)})
    assert text == '{"p":[0.1,0.3333333333333333],"n":3,"ok":true}'
    with pytest.raises(DocumentError, match="non-finite"):
        dump_json(float("nan"))
    with pytest.raises(DocumentError, match="non-finite"):
        dump_json({"kernels": {"": np.array([[np.inf, 0.0]])}})
    with pytest.raises(DocumentError, match="keys"):
        dump_json({1: "x"})
    with pytest.raises(DocumentError, match="keys"):
        dump_json({"components": [{"name": "a", 2: "b"}]})
    with pytest.raises(DocumentError, match="serialize"):
        dump_json(object())


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"]
)
def test_dump_json_refuses_non_finite_floats_anywhere(bad):
    for obj in (
        {"kernels": {"0": [[0.5, bad]]}},
        [[1, 2.0], (0.5, bad)],
        {"p": np.float64(bad)},
        [np.float32(bad)],
        {"q": np.array([0.5, bad], dtype=np.float32)},
    ):
        with pytest.raises(DocumentError, match="non-finite"):
            dump_json(obj)


class Colour(enum.Enum):
    RED = 1


@dataclasses.dataclass
class Pair:
    a: int
    b: float


@pytest.mark.parametrize(
    "leaf",
    [Colour.RED, Pair(1, 0.5), datetime.datetime(2020, 1, 2), datetime.date(2020, 1, 2),
     uuid.UUID(int=7), 1j, np.array([1j]), object()],
    ids=["enum", "dataclass", "datetime", "date", "uuid", "complex", "complex-array", "object"],
)
def test_dump_json_refuses_what_json_dumps_refused(leaf):
    with pytest.raises(DocumentError, match="serialize"):
        dump_json({"x": [leaf]})


def test_dump_json_writes_non_contiguous_arrays_through_the_hook(monkeypatch):
    hooked = []
    plain = documents._plain
    monkeypatch.setattr(documents, "_plain", lambda o: hooked.append(o.shape) or plain(o))
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    text = dump_json({"t": a.T, "c": a})
    assert text == '{"t":[[0.0,3.0],[1.0,4.0],[2.0,5.0]],"c":[[0.0,1.0,2.0],[3.0,4.0,5.0]]}'
    assert dump_json(a[:, ::2]) == "[[0.0,2.0],[3.0,5.0]]"
    assert hooked == [(3, 2), (2, 2)]  # the contiguous array never reaches the hook


def test_dump_json_writes_int_and_str_subclasses_as_their_values():
    assert dump_json([enum.IntEnum("N", "ONE")(1), np.int32(4), np.str_("s")]) == '[1,4,"s"]'


def test_dump_json_refuses_integers_orjson_cannot_hold():
    with pytest.raises(DocumentError, match="serialize"):
        dump_json({"n": 10**30})


def test_read_document_rejects_non_finite_literals(tmp_path):
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.space.json"
        path.write_text('{"p": [%s, 0.5]}' % literal)
        with pytest.raises(DocumentError, match=f"non-finite number {literal}"):
            read_document(path)


def _chain(n: int):
    """Binary chain: X0 a coin, each later variable copies its parent or flips."""
    variables = [ScmVariable(f"X{j}", ("0", "1")) for j in range(n)]
    noises = [NoiseTerm(("0", "1"), (1.0 / 3.0, 2.0 / 3.0))]
    noises += [NoiseTerm(("keep", "flip"), (1.0 - 0.07 * j, 0.07 * j)) for j in range(1, n)]
    flip = {"0": "1", "1": "0"}
    return scm_from_functions(
        variables,
        noises,
        [()] + [(j - 1,) for j in range(1, n)],
        [lambda pa, z: z]
        + [
            (lambda pa, z, parent=f"X{j - 1}": pa[parent] if z == "keep" else flip[pa[parent]])
            for j in range(1, n)
        ],
    )


def test_larger_space_document_round_trip_is_byte_identical():
    cs = compile_scm(_chain(6))
    text = dump_json(space_to_document(cs))
    back = document_to_space(json.loads(text))
    assert dump_json(space_to_document(back)) == text
    assert back.observational.weights.tobytes() == cs.observational.weights.tobytes()
    for mask in range(1 << 6):
        assert back.mechanism[mask].matrix.tobytes() == cs.mechanism[mask].matrix.tobytes()


def test_space_document_round_trip_is_bitwise():
    cs = compile_scm(xor_scm())
    back = document_to_space(reparse(space_to_document(cs)))
    assert np.array_equal(back.observational.weights, cs.observational.weights)
    for mask in range(4):
        assert np.array_equal(back.mechanism[mask].matrix, cs.mechanism[mask].matrix)
    assert back.space.components == cs.space.components


def test_space_document_schema_rejections():
    good = reparse(space_to_document(compile_scm(xor_scm())))
    for mutate, what in [
        (lambda d: d.pop("p"), "missing key"),
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.update(p=[0.5, 0.5]), "atoms"),
        (lambda d: d["kernels"].pop("1"), "every subset"),
        (lambda d: d["kernels"].update({"9": []}), "every subset"),
        (lambda d: d.update(mechanism="conditionals"), "not both"),
        (lambda d: d["kernels"]["1"].pop(), "rows"),
        (lambda d: d["kernels"]["1"][0].pop(), "weights"),
        (lambda d: d["kernels"]["0,1"][2].append(0.0), "kernel '0,1' rows need 4 weights"),
        (lambda d: d["kernels"]["0,1"].pop(), "kernel '0,1' needs 4 rows"),
        (lambda d: d["kernels"]["0"].__setitem__(1, "row"), "row must be a list of numbers"),
        (lambda d: d["components"][0].pop("name"), "missing key"),
    ]:
        doc = reparse(good)
        mutate(doc)
        with pytest.raises(DocumentError, match=what):
            document_to_space(doc)
    with pytest.raises(DocumentError, match="shortcut"):
        doc = reparse(good)
        del doc["kernels"]
        doc["mechanism"] = "magic"
        document_to_space(doc)


@pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]], ids=["bool", "str", "null", "nested"])
def test_space_document_rejects_non_numbers(bad):
    good = reparse(space_to_document(compile_scm(xor_scm())))
    doc = reparse(good)
    doc["kernels"]["1"][0][0] = bad
    with pytest.raises(DocumentError, match=r"kernel '1' row must be a list of numbers"):
        document_to_space(doc)
    doc = reparse(good)
    doc["p"][0] = bad
    with pytest.raises(DocumentError, match="p must be a list of numbers"):
        document_to_space(doc)


def test_space_document_value_errors_are_not_schema_errors():
    doc = reparse(space_to_document(compile_scm(xor_scm())))
    doc["p"] = [0.5, 0.2, 0.1, 0.1]
    with pytest.raises(DomainError, match="sum"):
        document_to_space(doc)


def test_conditionals_shortcut():
    ic = ice_cream_shark()
    doc = {
        "components": [{"name": n, "outcomes": list(o)} for n, o in ic.space.components],
        "p": list(ic.observational.weights),
        "mechanism": "conditionals",
    }
    cs = document_to_space(doc)
    row = cs.mechanism[0b01].matrix[1]
    want = condition(cs.observational, Atom(0b01, 1)).weights
    assert np.allclose(row, want, atol=1e-12)


def test_scm_document_round_trip():
    s = xor_scm()
    s2 = document_to_scm(reparse(scm_to_document(s)))
    assert s2.names == s.names
    assert s2.parents == s.parents
    assert all(np.array_equal(a, b) for a, b in zip(s2.tables, s.tables))
    assert all(a.weights == b.weights for a, b in zip(s2.noises, s.noises))


def test_scm_document_schema_rejections():
    good = reparse(scm_to_document(xor_scm()))
    for mutate, what in [
        (lambda d: d.pop("tables"), "missing key"),
        (lambda d: d["noises"][0].pop("weights"), "missing key"),
        (lambda d: d["parents"].__setitem__(0, [0.5]), "integers"),
        (lambda d: d["tables"][1].__setitem__(0, [0, True]), "integers"),
        (lambda d: d["tables"][1][0].pop(), "mixed lengths"),
    ]:
        doc = reparse(good)
        mutate(doc)
        with pytest.raises(DocumentError, match=what):
            document_to_scm(doc)


def test_po_document_round_trip():
    po = PoSpec(("0", "1"), ("0", "1"), np.full(8, 0.125))
    back = document_to_po(reparse(po_to_document(po)))
    assert back.treatments == po.treatments
    assert back.covariates == ("unit",)
    assert np.array_equal(back.joint, po.joint)
    # covariates key may be omitted entirely
    doc = reparse(po_to_document(po))
    del doc["covariates"]
    assert document_to_po(doc).covariates == ("unit",)


def test_kind_of():
    assert kind_of("a/b.space.json") == "space"
    assert kind_of("x.scm.json") == "scm"
    assert kind_of("x.po.json") == "po"
    with pytest.raises(DocumentError, match="suffix"):
        kind_of("x.json")


def test_subset_grammar():
    space = ice_cream_shark().space
    assert parse_subset(space, "") == 0
    assert parse_subset(space, "[]") == 0
    assert parse_subset(space, "0,1") == 0b11
    assert parse_subset(space, "[sharks]") == 0b10
    assert parse_subset(space, " icecream , 1 ") == 0b11
    assert subset_key(0b101) == "0,2"
    assert subset_key(0) == ""
    for bad in ("2", "-1", "fish", "0,0", "0,,1"):
        with pytest.raises(DocumentError):
            parse_subset(space, bad)


def test_atom_grammar():
    space = ice_cream_shark().space
    assert parse_atom(space, 0b10, "high") == 1
    assert parse_atom(space, 0b11, "[low, high]") == 1
    with pytest.raises(DocumentError, match="labels"):
        parse_atom(space, 0b11, "low")
    with pytest.raises(DocumentError):
        parse_atom(space, 0b01, "medium")


def test_weights_grammar():
    assert np.array_equal(parse_weights("[0.25, 0.75]"), [0.25, 0.75])
    assert parse_weights("").shape == (0,)
    with pytest.raises(DocumentError, match="numbers"):
        parse_weights("a,b")


def test_event_grammar():
    ic = ice_cream_shark()
    space, p = ic.space, ic.observational.weights

    def prob(expr):
        return float(p @ parse_event(space, expr).indicator(space.full))

    assert prob("icecream=high") == pytest.approx(0.5)
    assert prob("sharks in {low, high}") == pytest.approx(1.0)
    assert prob("icecream=high & sharks=high") == pytest.approx(0.4)
    # repeating a name intersects; contradictions are the empty event
    assert prob("icecream=high & icecream=low") == 0.0
    assert prob("icecream in {low,high} & icecream=low") == pytest.approx(0.5)

    for bad in ("", "  ", "fish=1", "icecream=medium", "icecream ~ high", "icecream in {",):
        with pytest.raises(DocumentError):
            parse_event(space, bad)
