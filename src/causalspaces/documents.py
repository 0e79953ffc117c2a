"""JSON documents for spaces, models, and tables, plus CLI expression grammars.

Schema problems (wrong keys, shapes, unknown names, unparseable text) raise
DocumentError; value-level problems (weights that are not distributions,
cyclic assignment graphs) surface as the library's own errors so callers can
separate "could not read" from "read fine but invalid".

Output is compact single-line JSON with no spaces, written by orjson, which
formats float64 arrays straight from memory with no list of Python floats
in between. Floats are written in their shortest round-trip form, so a
parsed value is bit-identical to the dumped one (float32 values are written
at float32 precision). Text is UTF-8, with no \\u escapes for non-ASCII
characters. One walk over the value (_check) admits only what json.dumps
did, since orjson would write NaN and inf as null and would also take
enums, UUIDs, dataclasses and datetimes.

Input stays on the standard library's json.loads. orjson.loads is faster
but builds a parse tree before the Python objects: on the 7.5 MB n = 8
chain document, in a fresh process on a 2-vCPU Xeon, it took 0.16 s and
peaked at 127 MB RSS, against 0.27 s and 95 MB for json.loads, and a trial
of it raised the cli-ladder benchmark's peak_rss_mb from about 141 to
164 MB, past that metric's 10% bound.

Non-finite numbers are refused both when writing and when reading, where
json.loads would otherwise accept NaN and Infinity literals, read 1e400 as
inf and keep a 400-digit integer that no float can hold.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from . import subsets
from .compilers import NoiseTerm, PoSpec, ScmSpec, ScmVariable
from .core import CausalMechanism, CausalSpace, mechanism_from_conditionals
from .errors import DocumentError, DomainError
from .measure import Dist, Event, FiniteProductSpace, Kernel, check_fits, rectangle

SPACE_SUFFIX = ".space.json"
SCM_SUFFIX = ".scm.json"
PO_SUFFIX = ".po.json"
MASK_SUFFIX = ".mask.json"


# ------------------------------------------------------------ JSON egress

_DUMP_OPTIONS = (
    orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
)


def _plain(o):
    """orjson hook for the numpy arrays and scalars it does not format itself.

    Those are non-contiguous arrays and dtypes orjson does not know; the
    walk in _check has already refused every other type.
    """
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"cannot serialize {type(o).__name__}")


def _refuse_non_finite() -> None:
    raise DocumentError("cannot serialize a non-finite number")


def _check(o) -> None:
    """Refuse, before orjson writes it, what json.dumps did not write.

    Leaves are str, int, bool, None and finite floats, or numpy arrays and
    scalars of them; keys are str (json.dumps would stringify an int key).
    """
    if o is None or isinstance(o, (str, int)):
        return
    if isinstance(o, float):
        if not math.isfinite(o):
            _refuse_non_finite()
    elif isinstance(o, dict):
        for k, v in o.items():
            if not isinstance(k, str):
                raise DocumentError(f"object keys must be strings, got {k!r}")
            _check(v)
    elif isinstance(o, (list, tuple)):
        if set(map(type, o)) <= {float}:
            if not all(map(math.isfinite, o)):
                _refuse_non_finite()
        else:
            for v in o:
                _check(v)
    elif isinstance(o, np.ndarray):
        if o.dtype.kind == "f":
            if not np.isfinite(o).all():
                _refuse_non_finite()
        elif o.dtype.kind not in "biu":
            _check(o.tolist())
    elif isinstance(o, np.generic):
        _check(o.item())
    else:
        raise DocumentError(f"cannot serialize {type(o).__name__} to a document")


def _encode(obj) -> bytes:
    _check(obj)
    try:
        return orjson.dumps(obj, default=_plain, option=_DUMP_OPTIONS)
    except orjson.JSONEncodeError as exc:  # an int beyond 64 bits, a lone surrogate
        raise DocumentError(f"cannot serialize to a document: {exc}") from exc


def dump_json(obj) -> str:
    """Compact one-line JSON text: no spaces, floats in shortest round-trip form."""
    return _encode(obj).decode()


def _non_finite(name: str):
    raise DocumentError(f"non-finite number {name} is not allowed")


def read_document(path: str | Path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {p}: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except DocumentError as exc:
        raise DocumentError(f"{p}: {exc}") from None
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise DocumentError(f"{p}: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError(f"{p}: top level must be a JSON object")
    return obj


def write_document(path: str | Path, obj) -> None:
    data = _encode(obj)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.write(b"\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def kind_of(path: str | Path) -> str:
    name = str(path)
    for suffix, kind in (
        (SPACE_SUFFIX, "space"),
        (SCM_SUFFIX, "scm"),
        (PO_SUFFIX, "po"),
    ):
        if name.endswith(suffix):
            return kind
    raise DocumentError(
        f"{name!r} has no recognized suffix (.space.json, .scm.json, .po.json)"
    )


# --------------------------------------------------------- schema helpers


def _need(doc: dict, key: str, what: str):
    if key not in doc:
        raise DocumentError(f"{what} is missing key {key!r}")
    return doc[key]


def _no_extras(doc: dict, allowed: set[str], what: str) -> None:
    extra = sorted(set(doc) - allowed)
    if extra:
        raise DocumentError(f"{what} has unknown keys {extra}")


def _str_list(x, what: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(v, str) for v in x):
        raise DocumentError(f"{what} must be a list of strings")
    return tuple(x)


def _numbers_only(values) -> bool:
    """One check per distinct leaf type; bool is an int subclass but not a number here."""
    return all(
        issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))
    )


def _floats(x, what: str) -> np.ndarray:
    """float64 array of checked numbers; one that overflows a float is refused."""
    try:
        out = np.array(x, dtype=np.float64)
    except OverflowError as exc:
        raise DocumentError(f"{what} has a number too large for a float") from exc
    if not np.isfinite(out).all():
        raise DocumentError(f"{what} has a number too large for a float")
    return out


def _num_list(x, what: str) -> np.ndarray:
    if not isinstance(x, list) or not _numbers_only(x):
        raise DocumentError(f"{what} must be a list of numbers")
    return _floats(x, what)


def _named_components(x, what: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    if not isinstance(x, list) or not x:
        raise DocumentError(f"{what} must be a nonempty list")
    out = []
    for i, c in enumerate(x):
        if not isinstance(c, dict):
            raise DocumentError(f"{what}[{i}] must be an object")
        _no_extras(c, {"name", "outcomes"}, f"{what}[{i}]")
        name = _need(c, "name", f"{what}[{i}]")
        if not isinstance(name, str):
            raise DocumentError(f"{what}[{i}].name must be a string")
        out.append((name, _str_list(_need(c, "outcomes", f"{what}[{i}]"), f"{what}[{i}].outcomes")))
    return tuple(out)


# ------------------------------------------------------- space documents


def subset_key(mask: int) -> str:
    """Sorted-index-list rendering of a subset mask; empty string for ∅."""
    return ",".join(str(i) for i in subsets.indices_of(mask))


def check_document_fits(sizes: tuple[int, ...]) -> None:
    """Refuse, before building it, a space document memory cannot hold.

    A document lists every kernel's dense rows, n_atoms * prod(1 + k_t)
    numbers over components of k_t outcomes, however small the laws are.
    Writing one holds them as floats, 8 bytes a number, and orjson's output
    buffer: text of at least 4 bytes a number ("0.0,"), in a buffer that
    grows by doubling, so up to 8 bytes more: 16 bytes a number. Measured
    with scripts/doc_io_probe.py, a write's rise in max RSS on chain
    documents was at most 13.5 bytes a number at n = 6..8.
    """
    numbers = math.prod(sizes) * math.prod(1 + k for k in sizes)
    check_fits(16 * numbers, f"a space document of {numbers} numbers")


def space_to_document(cs: CausalSpace) -> dict:
    check_document_fits(cs.space.sizes)
    return {
        "components": [
            {"name": n, "outcomes": list(outs)} for n, outs in cs.space.components
        ],
        "p": cs.observational.weights,
        "kernels": {
            subset_key(mask): cs.mechanism[mask].matrix
            for mask in subsets.all_masks(cs.space.n)
        },
    }


def document_to_space(doc: dict) -> CausalSpace:
    _no_extras(doc, {"components", "p", "kernels", "mechanism"}, "space document")
    space = FiniteProductSpace(_named_components(_need(doc, "components", "space document"), "components"))
    p_raw = _num_list(_need(doc, "p", "space document"), "p")
    if len(p_raw) != space.n_atoms:
        raise DocumentError(f"p has {len(p_raw)} weights, space has {space.n_atoms} atoms")
    p = Dist(space, space.full, p_raw)

    shortcut = doc.get("mechanism")
    if shortcut is not None:
        if shortcut != "conditionals":
            raise DocumentError(f"unknown mechanism shortcut {shortcut!r}")
        if "kernels" in doc:
            raise DocumentError("give either kernels or the conditionals shortcut, not both")
        return CausalSpace(space, p, mechanism_from_conditionals(space, p))

    table = _need(doc, "kernels", "space document")
    if not isinstance(table, dict):
        raise DocumentError("kernels must be an object keyed by subsets")
    # counted first: a short table over many components must not cost 2^n keys
    if len(table) != 1 << space.n:
        raise DocumentError(
            f"kernels must cover every subset exactly once "
            f"({len(table)} given, {space.n} components have {1 << space.n})"
        )
    want = {subset_key(mask): mask for mask in subsets.all_masks(space.n)}
    missing = sorted(set(want) - set(table), key=lambda k: want[k])
    extra = sorted(set(table) - set(want))
    if missing or extra:
        raise DocumentError(
            f"kernels must cover every subset exactly once "
            f"(missing {missing[:4]}, unknown {extra[:4]})"
        )
    kernels = []
    for key, mask in want.items():
        rows = table[key]
        n_rows = space.n_atoms_of(mask)
        if not isinstance(rows, list) or len(rows) != n_rows:
            raise DocumentError(f"kernel {key!r} needs {n_rows} rows")
        if not all(isinstance(r, list) for r in rows) or not _numbers_only(
            chain.from_iterable(rows)
        ):
            raise DocumentError(f"kernel {key!r} row must be a list of numbers")
        if set(map(len, rows)) != {space.n_atoms}:
            raise DocumentError(f"kernel {key!r} rows need {space.n_atoms} weights")
        kernels.append(Kernel(space, mask, _floats(rows, f"kernel {key!r}")))
    return CausalSpace(space, p, CausalMechanism(space, tuple(kernels)))


# --------------------------------------------------- SCM and PO documents


def scm_to_document(s: ScmSpec) -> dict:
    return {
        "variables": [{"name": v.name, "outcomes": list(v.outcomes)} for v in s.variables],
        "noises": [{"outcomes": list(z.outcomes), "weights": z.weights} for z in s.noises],
        "parents": [list(ps) for ps in s.parents],
        "tables": [t for t in s.tables],
    }


def document_to_scm(doc: dict) -> ScmSpec:
    _no_extras(doc, {"variables", "noises", "parents", "tables"}, "model document")
    variables = tuple(
        ScmVariable(n, outs)
        for n, outs in _named_components(_need(doc, "variables", "model document"), "variables")
    )
    raw_noises = _need(doc, "noises", "model document")
    if not isinstance(raw_noises, list):
        raise DocumentError("noises must be a list")
    noises = []
    for i, z in enumerate(raw_noises):
        if not isinstance(z, dict):
            raise DocumentError(f"noises[{i}] must be an object")
        _no_extras(z, {"outcomes", "weights"}, f"noises[{i}]")
        noises.append(
            NoiseTerm(
                _str_list(_need(z, "outcomes", f"noises[{i}]"), f"noises[{i}].outcomes"),
                tuple(
                    _num_list(_need(z, "weights", f"noises[{i}]"), f"noises[{i}].weights").tolist()
                ),
            )
        )
    raw_parents = _need(doc, "parents", "model document")
    if not isinstance(raw_parents, list):
        raise DocumentError("parents must be a list of index lists")
    parents = []
    for i, ps in enumerate(raw_parents):
        if not isinstance(ps, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in ps
        ):
            raise DocumentError(f"parents[{i}] must be a list of integers")
        parents.append(tuple(ps))
    raw_tables = _need(doc, "tables", "model document")
    if not isinstance(raw_tables, list):
        raise DocumentError("tables must be a list of matrices")
    tables = []
    for i, rows in enumerate(raw_tables):
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise DocumentError(f"tables[{i}] must be a nonempty matrix of outcome indices")
        for r in rows:
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in r):
                raise DocumentError(f"tables[{i}] must contain integers only")
        if len({len(r) for r in rows}) > 1:
            raise DocumentError(f"tables[{i}] rows have mixed lengths")
        try:
            tables.append(np.array(rows, dtype=np.intp))
        except OverflowError as exc:
            raise DocumentError(f"tables[{i}] has an integer too large for an index") from exc
    return ScmSpec(variables, tuple(noises), tuple(parents), tuple(tables))


def po_to_document(s: PoSpec) -> dict:
    return {
        "treatments": list(s.treatments),
        "outcomes": list(s.outcomes),
        "covariates": list(s.covariates),
        "joint": s.joint,
    }


def document_to_po(doc: dict) -> PoSpec:
    _no_extras(doc, {"treatments", "outcomes", "covariates", "joint"}, "table document")
    kwargs = {}
    if "covariates" in doc:
        kwargs["covariates"] = _str_list(doc["covariates"], "covariates")
    return PoSpec(
        _str_list(_need(doc, "treatments", "table document"), "treatments"),
        _str_list(_need(doc, "outcomes", "table document"), "outcomes"),
        _num_list(_need(doc, "joint", "table document"), "joint"),
        **kwargs,
    )


# ----------------------------------------------------- expression grammar


def _split_items(text: str) -> list[str]:
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1].strip()
    if not t:
        return []
    return [part.strip() for part in t.split(",")]


def parse_subset(space: FiniteProductSpace, text: str) -> int:
    """Subset from a comma list of component indices or names; '' is ∅."""
    mask = 0
    for item in _split_items(text or ""):
        if not item:
            raise DocumentError(f"subset {text!r} has an empty entry")
        if re.fullmatch(r"-?\d+", item):
            t = int(item)
        else:
            try:
                t = space.index_of(item)
            except DomainError as exc:
                raise DocumentError(str(exc)) from exc
        if not 0 <= t < space.n:
            raise DocumentError(f"component index {t} outside this {space.n}-component space")
        if mask >> t & 1:
            raise DocumentError(f"component {item!r} listed twice in {text!r}")
        mask |= 1 << t
    return mask


def parse_atom(space: FiniteProductSpace, mask: int, text: str) -> int:
    """Flat subset-atom index from labels in ascending component order."""
    idx = subsets.indices_of(mask)
    labels = _split_items(text or "")
    if len(labels) != len(idx):
        raise DocumentError(
            f"{len(idx)} intervened components need {len(idx)} labels, got {len(labels)}"
        )
    try:
        coords = (space.outcome_index(t, v) for t, v in zip(idx, labels))
        return space.flat_of(mask, coords)
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


def parse_weights(text: str) -> np.ndarray:
    items = _split_items(text or "")
    try:
        return np.array([float(v) for v in items], dtype=np.float64)
    except ValueError as exc:
        raise DocumentError(f"weights {text!r} must be numbers") from exc


_TERM_SET = re.compile(r"(.+?)\s+in\s+\{(.*)\}\s*$", re.DOTALL)
_TERM_EQ = re.compile(r"(.+?)=(.*)$", re.DOTALL)


def parse_event(space: FiniteProductSpace, text: str) -> Event:
    """Conjunctions of `name=value` and `name in {a,b}`, joined by `&`.

    Repeating a name intersects its constraints; contradictions yield the
    empty event rather than an error.
    """
    if not text or not text.strip():
        raise DocumentError("empty event expression")
    allowed: dict[str, set[str]] = {}
    for term in text.split("&"):
        m = _TERM_SET.fullmatch(term.strip())
        if m:
            name = m.group(1).strip()
            labels = {v.strip() for v in m.group(2).split(",") if v.strip()}
        else:
            m = _TERM_EQ.fullmatch(term.strip())
            if not m:
                raise DocumentError(f"cannot parse event term {term.strip()!r}")
            name = m.group(1).strip()
            labels = {m.group(2).strip()}
        try:
            t = space.index_of(name)
        except DomainError as exc:
            raise DocumentError(str(exc)) from exc
        outs = set(space.components[t][1])
        unknown = labels - outs
        if unknown:
            raise DocumentError(
                f"component {name!r} has no outcomes {sorted(unknown)}"
            )
        allowed[name] = allowed.get(name, outs) & labels
    return rectangle(space, allowed)
