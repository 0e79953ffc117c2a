"""Compile structural models and potential-outcome setups into causal spaces.

A structural model is a list of assignments X_j := f_j(parents, noise_j)
with jointly independent finite noises, supplied in topological order. Each
variable's noise weights give its conditional P(x_j | pa_j), and the kernel
for a subset S is the truncated factorisation: row w's law on the complement
is the product of the conditionals of the variables outside S, read at the
full atoms over w. The observational measure is the empty subset's one row.
Nothing else is free: the whole mechanism is determined by the assignments,
which is exactly the modelling rigidity the rest of the package is built to
escape.

A potential-outcome setup carries a joint law over treatment, covariate and
the per-treatment outcome vector. Only part of its causal content is
determined: the observational measure, and the outcome part of the
treatment kernel's rows. Everything else is filled with observational
conditionals (measure.completed_conditional, whose rows over null atoms
hold the observational marginal on the complement), and compile_po returns
a specification mask saying which entries are substance and which are
filler, so downstream checks can avoid asserting anything about the filler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import subsets
from .core import CausalMechanism, CausalSpace
from .errors import CycleError, DomainError
from .measure import (
    NORM_TOL,
    SUBSET_BYTES,
    Dist,
    FiniteProductSpace,
    Kernel,
    _normalise,
    check_fits,
    completed_conditional,
)


@dataclass(frozen=True)
class ScmVariable:
    name: str
    outcomes: tuple[str, ...]


@dataclass(frozen=True)
class NoiseTerm:
    outcomes: tuple[str, ...]
    weights: tuple[float, ...]


def _find_cycle(n: int, parents: Sequence[Sequence[int]]) -> list[int] | None:
    """Directed cycle through parent -> child edges, as a vertex list.

    Depth first in index order, on an explicit stack rather than recursion.
    """
    children = [[c for c, ps in enumerate(parents) if v in ps] for v in range(n)]
    color = [0] * n
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        path, todo = [root], [iter(children[root])]
        while path:
            child = next(todo[-1], None)
            if child is None:
                color[path.pop()] = 2
                todo.pop()
            elif color[child] == 1:
                return path[path.index(child):] + [child]
            elif color[child] == 0:
                color[child] = 1
                path.append(child)
                todo.append(iter(children[child]))
    return None


@dataclass(frozen=True, eq=False)
class ScmSpec:
    """Finite structural model in topological order.

    tables[j] maps (flat parent atom, noise index) to an outcome index of
    variable j; the parent atom is row-major over parents[j] in the order
    listed there.
    """

    variables: tuple[ScmVariable, ...]
    noises: tuple[NoiseTerm, ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = len(self.variables)
        if not (len(self.noises) == len(self.parents) == len(self.tables) == d):
            raise DomainError("variables, noises, parents and tables must align")
        names = [v.name for v in self.variables]
        if len(set(names)) != d:
            raise DomainError(f"variable names must be unique, got {names}")
        for j, ps in enumerate(self.parents):
            bad = [p for p in ps if not 0 <= p < d]
            if bad:
                raise DomainError(f"variable {names[j]} has out-of-range parents {bad}")
            if any(p >= j for p in ps):
                cycle = _find_cycle(d, self.parents)
                if cycle:
                    trace = [names[v] for v in cycle]
                    raise CycleError(
                        "assignment graph is cyclic: " + " -> ".join(trace), trace
                    )
                p = next(p for p in ps if p >= j)
                raise CycleError(
                    f"variables are not in topological order: {names[p]} feeds "
                    f"{names[j]} but is listed at or after it",
                    [names[p], names[j]],
                )
        tables = []
        for j, tab in enumerate(self.tables):
            t = np.asarray(tab, dtype=np.intp)
            n_pa = math.prod(len(self.variables[p].outcomes) for p in self.parents[j])
            want = (n_pa, len(self.noises[j].outcomes))
            if t.shape != want:
                raise DomainError(
                    f"table for {names[j]} has shape {t.shape}, expected {want}"
                )
            if t.size and (t.min() < 0 or t.max() >= len(self.variables[j].outcomes)):
                raise DomainError(f"table for {names[j]} maps outside its outcome range")
            t.setflags(write=False)
            tables.append(t)
        noises = []
        for j, nz in enumerate(self.noises):
            if len(nz.weights) != len(nz.outcomes):
                raise DomainError(
                    f"noise for {names[j]} has {len(nz.weights)} weights for {len(nz.outcomes)} outcomes"
                )
            w = _normalise(np.asarray(nz.weights), f"noise for {names[j]}")
            noises.append(NoiseTerm(nz.outcomes, tuple(w.tolist())))
        object.__setattr__(self, "noises", tuple(noises))
        object.__setattr__(self, "tables", tuple(tables))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


def table_from_function(
    variables: Sequence[ScmVariable],
    parents_j: Sequence[int],
    noise_j: NoiseTerm,
    fn: Callable[[Mapping[str, str], str], str],
) -> np.ndarray:
    """Tabulate fn(parent labels, noise label) -> outcome label for one variable.

    The variable being defined must be the one following the listed parents'
    space; fn returns a label of the LAST variable in variables.
    """
    target = variables[-1]
    sizes = [len(variables[p].outcomes) for p in parents_j]
    n_pa = math.prod(sizes)
    out = np.empty((n_pa, len(noise_j.outcomes)), dtype=np.intp)
    for flat in range(n_pa):
        labels = {}
        rem = flat
        for p, s in zip(reversed(parents_j), reversed(sizes)):
            labels[variables[p].name] = variables[p].outcomes[rem % s]
            rem //= s
        for ni, nlabel in enumerate(noise_j.outcomes):
            val = fn(labels, nlabel)
            out[flat, ni] = target.outcomes.index(val)
    return out


def scm_from_functions(
    variables: Sequence[ScmVariable],
    noises: Sequence[NoiseTerm],
    parents: Sequence[Sequence[int]],
    fns: Sequence[Callable[[Mapping[str, str], str], str]],
) -> ScmSpec:
    tables = [
        table_from_function(list(variables[: j + 1]), parents[j], noises[j], fns[j])
        for j in range(len(variables))
    ]
    return ScmSpec(tuple(variables), tuple(noises), tuple(tuple(p) for p in parents), tuple(tables))


def _conditionals(s: ScmSpec, space: FiniteProductSpace) -> np.ndarray:
    """P(x_j | pa_j) at every full atom, as an (n x n_atoms) table.

    One scatter-add of variable j's noise weights into a (parent atom x
    outcome) table, read at each atom's parent and own coordinates.
    """
    coord = [space.atom_projection(space.full, 1 << t) for t in range(space.n)]
    out = np.empty((space.n, space.n_atoms))
    for j, (ps, tab, nz) in enumerate(zip(s.parents, s.tables, s.noises)):
        n_out = space.sizes[j]
        cells = tab + n_out * np.arange(len(tab))[:, None]
        w = np.broadcast_to(np.asarray(nz.weights), tab.shape)
        table = np.bincount(cells.ravel(), weights=w.ravel(), minlength=len(tab) * n_out)
        flat_pa = 0
        for p in ps:
            flat_pa = flat_pa * space.sizes[p] + coord[p]
        out[j] = table[flat_pa * n_out + coord[j]]
    return out


def compile_scm(s: ScmSpec) -> CausalSpace:
    """Each K_S as its truncated factorisation: row w's law is prod_{t not in S} P(x_t | pa_t).

    The product runs over full atoms and is laid out as the law through
    law_cells(S); on the full mask it is empty, so every row is its point
    mass. Kernel 0's one row is the observational measure.
    """
    space = FiniteProductSpace(tuple((v.name, v.outcomes) for v in s.variables))
    n, n_atoms = space.n, space.n_atoms
    # held at once: the laws and their law_cells tables, n conditional rows
    # and the n coordinate tables they are read through, one product, the
    # scatter of the largest noise table, and SUBSET_BYTES of Python objects a
    # kernel on a 64 KB base
    peak = 8 * (2 * n_atoms * 2**n + (2 * n + 1) * n_atoms + 2 * max(t.size for t in s.tables))
    check_fits(peak + SUBSET_BYTES * 2**n + 2**16, "compiling (the laws, their cell tables and the conditionals)")
    cond = _conditionals(s, space)
    kernels = []
    prod = np.empty(n_atoms)
    for mask in subsets.all_masks(n):
        prod.fill(1.0)
        for t in subsets.bits(space.full & ~mask):
            prod *= cond[t]
        kernels.append(Kernel(space, mask, law=prod[space.law_cells(mask)]))
    p = Dist(space, space.full, kernels[0].law[0])
    return CausalSpace(space, p, CausalMechanism(space, tuple(kernels)))


def truncated_factorization_oracle(s: ScmSpec, do: Mapping[str, str]) -> Dist:
    """Clamped re-run by brute-force noise enumeration, in plain Python.

    Deliberately shares no machinery with compile_scm's vectorised path; the
    two are differential-tested against each other.
    """
    space = FiniteProductSpace(tuple((v.name, v.outcomes) for v in s.variables))
    names = s.names
    clamp = {}
    for name, label in do.items():
        if name not in names:
            raise DomainError(f"no variable named {name!r}")
        j = names.index(name)
        if label not in s.variables[j].outcomes:
            raise DomainError(f"variable {name!r} has no outcome {label!r}")
        clamp[j] = s.variables[j].outcomes.index(label)
    out = [0.0] * space.n_atoms
    ranges = [range(len(nz.outcomes)) for nz in s.noises]
    for combo in itertools.product(*ranges):
        prob = 1.0
        for j, ni in enumerate(combo):
            prob *= s.noises[j].weights[ni]
        vals: list[int] = []
        for j in range(len(names)):
            if j in clamp:
                vals.append(clamp[j])
                continue
            flat_pa = 0
            for p in s.parents[j]:
                flat_pa = flat_pa * len(s.variables[p].outcomes) + vals[p]
            vals.append(int(s.tables[j][flat_pa, combo[j]]))
        flat = 0
        for j, v in enumerate(vals):
            flat = flat * len(s.variables[j].outcomes) + v
        out[flat] += prob
    return Dist(space, space.full, out)


# ---------------------------------------------------------------- outcomes


TREATMENT, OUTCOME, COVARIATE = 0b001, 0b010, 0b100


@dataclass(frozen=True)
class MaskEntry:
    """One region of a compiled mechanism: which subset, what part of its rows."""

    subset: tuple[int, ...]
    scope: str
    rows: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        out = {"subset": list(self.subset), "scope": self.scope}
        if self.rows:
            out["rows"] = list(self.rows)
        return out


@dataclass(frozen=True)
class PoSpecificationMask:
    """Which compiled kernel entries the setup determines and which are filler."""

    components: tuple[str, ...]
    mandated: tuple[MaskEntry, ...]
    filled: tuple[MaskEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "components": list(self.components),
            "mandated": [e.to_json_dict() for e in self.mandated],
            "filled": [e.to_json_dict() for e in self.filled],
        }


@dataclass(frozen=True, eq=False)
class PoSpec:
    """Joint law over treatment, covariate, and the potential-outcome vector.

    joint is flat row-major over (treatment, covariate, outcome under
    treatment 0, outcome under treatment 1, ...). A singleton covariate
    tuple models the no-covariate case.
    """

    treatments: tuple[str, ...]
    outcomes: tuple[str, ...]
    joint: np.ndarray
    covariates: tuple[str, ...] = ("unit",)

    def __post_init__(self):
        nz, ny, nx = len(self.treatments), len(self.outcomes), len(self.covariates)
        if nz < 1 or ny < 1 or nx < 1:
            raise DomainError("treatments, outcomes and covariates must be nonempty")
        w = _normalise(np.asarray(self.joint, dtype=np.float64).reshape(-1), "joint law")
        want = nz * nx * ny**nz
        if w.shape != (want,):
            raise DomainError(f"joint law needs {want} weights, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "joint", w)

    def shaped(self) -> np.ndarray:
        nz, ny, nx = len(self.treatments), len(self.outcomes), len(self.covariates)
        return self.joint.reshape((nz, nx) + (ny,) * nz)


def compile_po(s: PoSpec) -> tuple[CausalSpace, PoSpecificationMask]:
    """Embed the setup as a causal space plus a mask of what it pins down.

    The observational measure couples treatment, realised outcome (the
    potential matching the realised treatment), and covariate. Treatment
    rows are mandated on outcome events only: there the row equals the
    unconditional law of that treatment's potential outcome. The covariate
    factor of those rows, and every other subset's kernel, is observational
    filler recorded in the mask.
    """
    nz, ny, nx = len(s.treatments), len(s.outcomes), len(s.covariates)
    space = FiniteProductSpace(
        (("treatment", s.treatments), ("outcome", s.outcomes), ("covariate", s.covariates))
    )
    jr = s.shaped()
    p = np.zeros((nz, ny, nx))
    y_law = np.empty((nz, ny))
    for z in range(nz):
        block = np.moveaxis(jr[z], 1 + z, 0)  # (Y_z, X, other Y axes...)
        p[z] = block.reshape(ny, nx, -1).sum(axis=2)
        # unconditional law of the potential outcome under treatment z
        y_law[z] = jr.sum(axis=tuple(k for k in range(jr.ndim) if k != 2 + z))
    p_dist = Dist(space, space.full, p.reshape(-1))

    filled: list[MaskEntry] = []
    mandated = [MaskEntry(subset=(0,), scope="outcome-marginal")]

    z_mass = jr.reshape(nz, -1).sum(axis=1)
    x_marg = jr.reshape(nz, nx, -1).sum(axis=2)
    x_uncond = x_marg.sum(axis=0)
    ok = z_mass > NORM_TOL
    x_given = np.empty((nz, nx))
    x_given[ok] = x_marg[ok] / z_mass[ok, None]
    x_given[~ok] = x_uncond / x_uncond.sum()
    fallback_rows = np.nonzero(~ok)[0].tolist()
    filled.append(MaskEntry(subset=(0,), scope="covariate-factor"))
    if fallback_rows:
        filled.append(
            MaskEntry(subset=(0,), scope="covariate-marginal-fallback", rows=tuple(fallback_rows))
        )
    rest = (y_law[:, :, None] * x_given[:, None, :]).reshape(nz, ny * nx)
    treatment_kernel = Kernel(space, TREATMENT, law=rest)

    kernels = []
    for mask in subsets.all_masks(space.n):
        if mask == TREATMENT:
            kernels.append(treatment_kernel)
            continue
        k, masses = completed_conditional(p_dist, mask, NORM_TOL)
        kernels.append(k)
        null_rows = np.nonzero(masses <= NORM_TOL)[0].tolist()
        filled.append(MaskEntry(subset=subsets.indices_of(mask), scope="observational-conditional"))
        if null_rows:
            filled.append(
                MaskEntry(
                    subset=subsets.indices_of(mask),
                    scope="product-completion",
                    rows=tuple(null_rows),
                )
            )
    cs = CausalSpace(space, p_dist, CausalMechanism(space, tuple(kernels)))
    mask_doc = PoSpecificationMask(space.names, tuple(mandated), tuple(filled))
    return cs, mask_doc


def ate(
    s: PoSpec,
    z_high: str,
    z_low: str,
    scores: Mapping[str, float] | None = None,
) -> float:
    """Mean potential-outcome contrast between two treatment values.

    Outcome labels must carry numeric scores; by default each label is
    parsed as a float.
    """
    if scores is None:
        try:
            scores = {o: float(o) for o in s.outcomes}
        except ValueError as exc:
            raise DomainError(
                "outcome labels are not numeric; pass explicit scores"
            ) from exc
    missing = [o for o in s.outcomes if o not in scores]
    if missing:
        raise DomainError(f"scores missing for outcomes {missing}")
    vec = np.array([scores[o] for o in s.outcomes])
    jr = s.shaped()
    means = []
    for z_label in (z_high, z_low):
        if z_label not in s.treatments:
            raise DomainError(f"no treatment labelled {z_label!r}")
        z = s.treatments.index(z_label)
        axes = tuple(k for k in range(jr.ndim) if k != 2 + z)
        means.append(float(jr.sum(axis=axes) @ vec))
    return means[0] - means[1]
