"""Command-line front end for space documents and the Gaussian demos.

Exit codes: 0 on success, 1 for semantically invalid inputs (a space
violating the mechanism axioms, a cyclic model, a null-set query), 2 for
usage and parse problems. Semantic failures print a JSON report; usage
problems go through click's stderr reporting.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from . import documents as docs
from .compilers import compile_po, compile_scm
from .core import (
    HARD,
    InterventionSpec,
    ValidationReport,
    intervene,
    intervene_hard,
    trivial_internal,
    validate_causal_space,
)
from .effects import classify_effect, has_no_effect_given
from .errors import CausalSpacesError, CycleError, DocumentError
from .gaussian import (
    altitude_temperature,
    brownian_grid,
    g_condition,
    g_intervene,
    rice_market,
)
from .measure import Dist


def _semantic(payload: dict):
    click.echo(docs.dump_json(payload))
    sys.exit(1)


def _guarded(fn):
    """Map library errors onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            try:
                return fn(*args, **kwargs)
            except DocumentError:
                raise
            except CausalSpacesError as exc:
                payload = {"error": type(exc).__name__, "detail": str(exc)}
                if isinstance(exc, CycleError) and exc.trace:
                    payload["trace"] = list(exc.trace)
                # the writer refuses a report naming text UTF-8 cannot encode
                _semantic(payload)
        except DocumentError as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _report_json(report: ValidationReport) -> dict:
    return {
        "valid": report.ok,
        "violations": [
            {
                "subset": docs.subset_key(v.subset),
                "row": v.row,
                "kind": v.kind,
                "atom": v.atom,
                "error": v.error,
            }
            for v in report.violations
        ],
    }


def _load_space(path: str):
    cs = docs.document_to_space(docs.read_document(path))
    report = validate_causal_space(cs)
    if not report.ok:
        _semantic(_report_json(report))
    return cs


@click.group()
def main():
    """Finite causal spaces: validation, interventions, effects, demos."""


@main.command()
@click.argument("path")
@_guarded
def validate(path):
    """Check both mechanism axioms of a .space.json document."""
    cs = docs.document_to_space(docs.read_document(path))
    report = validate_causal_space(cs)
    if not report.ok:
        _semantic(_report_json(report))
    click.echo(docs.dump_json(_report_json(report)))


@main.command("do")
@click.argument("path")
@click.option("--on", "on_", required=True, help="Intervened components (indices or names).")
@click.option("--dirac", default=None, help="Point atom as comma-joined outcome labels.")
@click.option("--q", "q_", default=None, help="Weights over the subset atoms, row-major.")
@click.option("--hard", is_flag=True, help="Use the closed-form hard-intervention path.")
@click.option("--query", multiple=True, help="Event expression to evaluate under p_do.")
@_guarded
def cmd_do(path, on_, dirac, q_, hard, query):
    """Intervene on a space document and print the intervention measure."""
    cs = _load_space(path)
    space = cs.space
    u = docs.parse_subset(space, on_)
    if dirac is not None and q_ is not None:
        raise DocumentError("give --dirac or --q, not both")
    if dirac is not None:
        w = np.zeros(space.n_atoms_of(u))
        w[docs.parse_atom(space, u, dirac)] = 1.0
    elif q_ is not None:
        w = docs.parse_weights(q_)
        if w.shape != (space.n_atoms_of(u),):
            raise DocumentError(
                f"--q needs {space.n_atoms_of(u)} weights, got {w.shape[0]}"
            )
    elif u == 0:
        w = np.ones(1)
    else:
        raise DocumentError("a nonempty subset needs --dirac or --q")
    try:
        q = Dist(space, u, w)
    except CausalSpacesError as exc:
        # a measure that is not a distribution is a flag error, not a model error
        raise DocumentError(str(exc)) from exc

    if hard:
        done = intervene_hard(cs, u, q)
    else:
        internal = HARD if u == 0 else trivial_internal(space, u, q)
        done = intervene(cs, InterventionSpec(u, q, internal))
    out = {
        "on": docs.subset_key(u),
        "hard": bool(hard),
        "p_do": done.observational.weights,
    }
    if query:
        probs = {}
        for expr in query:
            ev = docs.parse_event(space, expr)
            probs[expr] = float(
                done.observational.weights @ ev.indicator(space.full)
            )
        out["queries"] = probs
    click.echo(docs.dump_json(out))


@main.command()
@click.argument("path")
@click.option("--u", "u_", required=True, help="Cause subset (indices or names).")
@click.option("--event", "event_", required=True, help="Effect event expression.")
@click.option("--given", default=None, help="Classify relative to this subset instead.")
@_guarded
def classify(path, u_, event_, given):
    """Classify the causal effect of a subset on an event."""
    cs = _load_space(path)
    u = docs.parse_subset(cs.space, u_)
    a = docs.parse_event(cs.space, event_)
    if given is not None:
        v = docs.parse_subset(cs.space, given)
        click.echo(
            docs.dump_json({"no_effect_given": bool(has_no_effect_given(cs, u, v, a))})
        )
        return
    click.echo(docs.dump_json({"classification": classify_effect(cs, u, a).name}))


def _strip_known_suffix(path: str) -> str:
    for suffix in (docs.SCM_SUFFIX, docs.PO_SUFFIX, docs.SPACE_SUFFIX):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


@main.command("compile")
@click.argument("path")
@click.option("--out", "out_", default=None, help="Defaults to the input with .space.json.")
@_guarded
def cmd_compile(path, out_):
    """Compile a .scm.json or .po.json document into a space document."""
    kind = docs.kind_of(path)
    if kind == "space":
        raise DocumentError(f"{path} is already a space document")
    doc = docs.read_document(path)
    base = _strip_known_suffix(out_ or path)
    out_path = base + docs.SPACE_SUFFIX if not (out_ or "").endswith(docs.SPACE_SUFFIX) else out_
    result = {"out": out_path}
    if kind == "scm":
        spec = docs.document_to_scm(doc)
        sizes = tuple(len(v.outcomes) for v in spec.variables)
    else:
        spec = docs.document_to_po(doc)
        sizes = (len(spec.treatments), len(spec.outcomes), len(spec.covariates))
    # the space document is dense: refuse it before compiling, not after
    docs.check_document_fits(sizes)
    if kind == "scm":
        cs = compile_scm(spec)
    else:
        cs, mask = compile_po(spec)
        mask_path = _strip_known_suffix(out_path) + docs.MASK_SUFFIX
        docs.write_document(mask_path, mask.to_json_dict())
        result["mask"] = mask_path
    docs.write_document(out_path, docs.space_to_document(cs))
    click.echo(docs.dump_json(result))


@main.group()
def demo():
    """Closed-form Gaussian showcases emitting CSV or JSON."""


@demo.command()
@click.option("--steps", default=100, show_default=True)
@click.option("--horizon", default=2.0, show_default=True)
@click.option("--at", "at_", default=1.0, show_default=True, help="Grid time to pin.")
@click.option("--value", default=0.0, show_default=True, help="Pinned value.")
@_guarded
def brownian(steps, horizon, at_, value):
    """Variance paths of a Brownian grid, intervened and conditioned."""
    for flag, x in (("--at", at_), ("--horizon", horizon), ("--value", value)):
        if not np.isfinite(x):
            raise DocumentError(f"{flag} {x} is non-finite")
    if not np.isfinite(horizon * steps):
        raise DocumentError(f"--horizon {horizon} gives non-finite grid times")
    grid = brownian_grid(steps, horizon)
    times = horizon * np.arange(1, steps + 1) / steps
    i = int(np.argmin(np.abs(times - at_)))
    if abs(times[i] - at_) > 1e-9:
        raise DocumentError(f"--at {at_} is not one of the {steps} grid times")
    with np.errstate(all="ignore"):  # an overflowing moment raises DomainError
        done = g_intervene(grid, 1 << i, [value])
        seen = g_condition(grid, 1 << i, [value])
    table = np.column_stack([times, done.mean, np.diag(done.cov), seen.mean, np.diag(seen.cov)])
    lines = ["time,mean_intervened,var_intervened,mean_conditioned,var_conditioned"]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    sys.stdout.write("\r\n".join(lines) + "\r\n")


@demo.command()
@_guarded
def altitude():
    """Moments for interventions on the altitude/temperature pair."""
    at = altitude_temperature()
    up = g_intervene(at, 0b01, [1000.0])
    down = g_intervene(at, 0b10, [5.0])
    click.echo(
        docs.dump_json(
            {
                "do_altitude_1000": {"mean": up.mean[1], "var": up.cov[1, 1]},
                "do_temperature_5": {"mean": down.mean[0], "var": down.cov[0, 0]},
            }
        )
    )


@demo.command()
@_guarded
def rice():
    """Moments for both interventions on the cyclic rice market."""
    rm = rice_market()
    supply = g_intervene(rm, 0b01, [3.0])
    demand = g_intervene(rm, 0b10, [6.0])
    click.echo(
        docs.dump_json(
            {
                "do_amount_3": {"mean": supply.mean[1], "var": supply.cov[1, 1]},
                "do_price_6": {"mean": demand.mean[0], "var": demand.cov[0, 0]},
            }
        )
    )
