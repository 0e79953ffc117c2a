"""Causal spaces on finite products: mechanisms, validation, interventions.

A causal space is an observational measure together with one probability
kernel per component subset. The two defining properties are checked by
validate_causal_space rather than at construction time, so that broken
inputs (for example loaded documents) can be inspected and reported:

  * the empty-subset kernel's single row is the observational measure;
  * every row of the subset-S kernel projects onto S as the point mass at
    the row's own atom (finite form of the interventional consistency
    requirement: the kernel cannot move the coordinates it is given).

Kernels are stored as their laws on the complement (measure.Kernel), which
holds the second property by construction for every kernel except one
built from dense rows that leak off their fibers; validation reads those
rows, and the law's row totals for the rest.

Intervening on a subset U replaces mass on the U-coordinates by a supplied
measure and re-routes every kernel through the joint kernel of the union.
Generic and hard interventions share one rewrite loop and differ only in the
weights it multiplies the union law with; a kernel whose subset contains U
is kept as the same object. trivial_internal builds its kernels a subset
at a time from their laws: each row is its point mass times q's marginal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import subsets
from .errors import DomainError
from .measure import (
    NORM_TOL,
    Dist,
    FiniteProductSpace,
    Kernel,
    bind,
    check_tol,
    conditional_kernel,
    fiber_sums,
    marginal,
)


@dataclass(frozen=True, eq=False)
class CausalMechanism:
    """One kernel per subset mask, indexed 0 .. 2^n - 1."""

    space: FiniteProductSpace
    kernels: tuple[Kernel, ...]

    def __post_init__(self):
        want = 1 << self.space.n
        if len(self.kernels) != want:
            raise DomainError(f"mechanism needs {want} kernels, got {len(self.kernels)}")
        for mask, k in enumerate(self.kernels):
            if k.space != self.space or k.source != mask:
                raise DomainError(f"kernel at position {mask} has source {k.source}")

    def __getitem__(self, mask: int) -> Kernel:
        return self.kernels[mask]


@dataclass(frozen=True, eq=False)
class CausalSpace:
    """Finite product space, observational measure, and causal mechanism."""

    space: FiniteProductSpace
    observational: Dist
    mechanism: CausalMechanism

    def __post_init__(self):
        if self.observational.space != self.space or self.observational.domain != self.space.full:
            raise DomainError("observational measure must live on the full space")
        if self.mechanism.space != self.space:
            raise DomainError("mechanism must live on the same space")

    def kernel(self, mask: int) -> Kernel:
        return self.mechanism[mask]


@dataclass(frozen=True)
class Violation:
    """One failed validation check, locating subset, row, and offending atom."""

    subset: int
    row: int | None
    kind: str
    atom: int | None
    error: float

    def describe(self) -> str:
        where = f"subset {sorted(subsets.indices_of(self.subset))}"
        if self.row is not None:
            where += f", row atom {self.row}"
        if self.atom is not None:
            where += f", atom {self.atom}"
        return f"{self.kind} at {where} (error {self.error:.3e})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_causal_space(cs: CausalSpace, tol: float = NORM_TOL) -> ValidationReport:
    """Check both defining properties, reporting every violating triple.

    A valid row of the subset-S kernel marginalises onto S as the point mass
    at its own atom. A law row puts all its mass on its own fiber, so only
    its total can miss 1. A kernel that kept leaky dense rows has its rows
    marginalised onto every S atom, and the stacked marginals must equal
    the identity matrix.
    """
    check_tol(tol)
    out: list[Violation] = []
    space = cs.space
    base = cs.mechanism[0].law[0]
    diff = np.abs(base - cs.observational.weights)
    if diff.max() > tol:
        at = int(np.argmax(diff))
        out.append(Violation(0, 0, "base-measure-mismatch", at, float(diff.max())))
    for mask in subsets.all_masks(space.n):
        if mask == 0:
            continue
        k = cs.mechanism[mask]
        if k.leaky_rows is None:
            dev = np.abs(k.law.sum(axis=1) - 1.0)
            rows = cols = np.nonzero(dev > tol)[0]
            errors = dev[rows]
        else:
            marg = fiber_sums(k.leaky_rows, space.atom_projection(space.full, mask), len(k.law))
            dev = np.abs(marg - np.eye(marg.shape[0]))
            rows, cols = np.nonzero(dev > tol)
            errors = dev[rows, cols]
        for r, c, e in zip(rows.tolist(), cols.tolist(), errors.tolist()):
            out.append(Violation(mask, r, "row-marginal-not-point-mass", c, e))
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class InterventionSpec:
    """What to intervene on: subset mask, new measure on it, internal mechanism.

    internal is a CausalSpace on the subset's components; its observational
    measure must coincide with measure. A hard intervention, the one with
    trivial internal kernels, is asked for with intervene_hard.
    """

    subset: int
    measure: Dist
    internal: CausalSpace


def trivial_internal(space: FiniteProductSpace, u: int, q: Dist) -> CausalSpace:
    """Internal space on the U-components whose kernels ignore their input.

    The row at an atom of V is the product of the point mass at that atom
    with the q-marginal on the remaining components. For a q that does not
    factorise across V and its complement this family is not "trivial" in
    the no-effect sense (a V-row still reshapes the complement's joint), but
    it satisfies both defining properties, and - the fact that matters -
    routing a generic intervention through it reproduces the hard
    intervention's closed form, which only ever integrates q's marginal on
    the coordinates outside the re-intervened subset.
    """
    if q.domain != u or u == 0:
        raise DomainError("trivial mechanism needs a measure on a nonempty subset")
    sub = space.subspace(u)
    q_sub = Dist(sub, sub.full, q.weights)
    kernels = tuple(
        Kernel(sub, local, law=marginal(q_sub, sub.full & ~local).weights)
        for local in subsets.all_masks(sub.n)
    )
    return CausalSpace(sub, q_sub, CausalMechanism(sub, kernels))


def mechanism_from_conditionals(space: FiniteProductSpace, p: Dist) -> CausalMechanism:
    """Every kernel row is p conditioned on the row's cylinder.

    Needs full support (NullSetError otherwise). The result classifies every
    subset as a local source everywhere: intervening reproduces plain
    conditioning, the regime where observational and interventional
    reasoning coincide.
    """
    if p.space != space or p.domain != space.full:
        raise DomainError("conditional mechanism needs a full-space measure")
    kernels = [conditional_kernel(p, mask) for mask in subsets.all_masks(space.n)]
    return CausalMechanism(space, tuple(kernels))


def _check_spec(cs: CausalSpace, spec: InterventionSpec) -> None:
    space = cs.space
    space._check_mask(spec.subset)
    if spec.measure.space != space or spec.measure.domain != spec.subset:
        raise DomainError("intervention measure must live on the intervened subset")
    internal = spec.internal
    if not isinstance(internal, CausalSpace):
        raise DomainError("internal mechanism must be a CausalSpace")
    sub = space.subspace(spec.subset)
    if internal.space != sub:
        raise DomainError("internal mechanism must live on the intervened components")
    if np.abs(internal.observational.weights - spec.measure.weights).max() > NORM_TOL:
        raise DomainError("internal observational measure must equal the intervention measure")
    report = validate_causal_space(internal)
    if not report.ok:
        raise DomainError(
            "internal mechanism is not a valid causal space: "
            + "; ".join(v.describe() for v in report.violations[:3])
        )


def _rewrite(cs: CausalSpace, u: int, q: Dist, mix: Callable[[int], np.ndarray]) -> CausalSpace:
    """The one intervention loop: q bound through K_U, every kernel re-routed.

    For S containing U the kernel is kept as is (Remark D.1(a)). Otherwise,
    with fresh = U minus S, mix(S&U) weighs the union rows: a weight for each
    atom of U, read at its (S&U atom, fresh atom) coordinates.

        k_new(w, A) = sum_f mix(w on S&U, f) k(S|U)((w, f), A)

    The union row (w, f) puts its mass on its own fiber, so on laws the sum
    has one term: a full atom over w is (w, f, c), with c outside the union,
    and it gets the mix weight of (w on S&U, f) times its own cell of the
    union law (Kernel.on_atoms). Gathering that product into the S table
    gives the new law.
    """
    space = cs.space
    to_u = space.atom_projection(space.full, u)
    spread = functools.cache(lambda inside: mix(inside)[to_u])  # one call per S&U
    kernels: list[Kernel] = []
    for s in subsets.all_masks(space.n):
        if not u & ~s:
            kernels.append(cs.mechanism[s])
            continue
        on_atoms = spread(s & u) * cs.mechanism[s | u].on_atoms()
        kernels.append(Kernel(space, s, law=on_atoms[space.law_cells(s)]))
    return CausalSpace(space, bind(q, cs.mechanism[u]), CausalMechanism(space, tuple(kernels)))


def intervene(cs: CausalSpace, spec: InterventionSpec) -> CausalSpace:
    """Generic intervention: new measure on the subset, kernels re-routed.

    The new subset-S kernel at a row atom splits the atom into its parts
    inside and outside U, feeds the inside part to the internal mechanism,
    and mixes the union kernel's rows with the resulting weights:

        k_new(w, A) = sum_{u'} internal(w on S&U, u') k(S|U)((w off U, u'), A)

    Only columns u' that agree with w on S&U enter the sum, which is what
    the internal kernel's law holds; off-block mass up to NORM_TOL from a
    tolerance-valid internal mechanism is dropped. The new observational
    measure is measure bound through the U-kernel. The subset is nonempty,
    since an internal space needs a component; intervene_hard takes the
    empty subset.
    """
    _check_spec(cs, spec)
    u = spec.subset
    internal = spec.internal

    def mix(inside: int) -> np.ndarray:
        # the internal kernel's law over the atoms of U
        return internal.mechanism[subsets.local_mask(inside, u)].on_atoms()

    return _rewrite(cs, u, spec.measure, mix)


def intervene_hard(cs: CausalSpace, u: int, q: Dist) -> CausalSpace:
    """Hard intervention by the closed-form product rule.

    The new subset-S kernel keeps the S-coordinates it is handed (including
    any intervened ones), draws the remaining intervened coordinates from
    q's marginal, and routes through the union kernel:

        k_new(w, A) = sum_{u' on U\\S} q_marg(u') k(S|U)((w, u'), A)

    This is the generic rewrite through the trivial internal mechanism; the
    test suite checks the two against each other.
    """
    space = cs.space
    space._check_mask(u)
    if q.space != space or q.domain != u:
        raise DomainError("intervention measure must live on the intervened subset")
    if u == 0:
        return CausalSpace(cs.space, cs.observational, cs.mechanism)

    def mix(inside: int) -> np.ndarray:
        fresh = u & ~inside
        return marginal(q, fresh).weights[space.atom_projection(u, fresh)]

    return _rewrite(cs, u, q, mix)
