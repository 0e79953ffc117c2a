"""Finite product sample spaces and the measures and kernels on them.

A space is an ordered product of named finite components. Atoms of the
sub-product over a component subset S are indexed row-major with component
index ascending, so every object below is a flat numpy array plus the subset
mask it lives on. Every index table (projections, embeddings, law cells,
coordinates) is read off one atom grid, arange(n_atoms_of(S)) shaped by
shape_of(S), which refuses a mask outside the space (DomainError).
Measures and events are dense over their sub-product. A probability kernel
from S is stored as its law: a (S atom x complement atom) table, since
every row of a causal kernel is the point mass at its own S-atom times a
law on the other components, and Kernel(law=...) is the one way a law
becomes a kernel. That is 8 * n_atoms bytes per kernel whatever S is, and
8 * n_atoms * 2^n for a mechanism; the dense (S atom x full atom) rows are
a view derived on demand. Every sum over fibers (a marginal, a kernel's
row marginals on a subset, the masses of a conditional) is one fiber_sums
call, a bincount over labels read off the cached projection tables. The
package trades memory for exhaustive, loop-free semantics, and the one
size rule, check_fits, refuses what physical memory cannot hold
(CapError); a space asks it for its laws, their cell tables and
SUBSET_BYTES of objects per subset.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import InitVar, dataclass, field
from decimal import Decimal
from typing import Iterable, Mapping

import numpy as np

from . import subsets
from .errors import CapError, DomainError, NullSetError

# Equality-of-measure tolerance used across the package.
NORM_TOL = 1e-9
# Constructor window: weights summing within this of 1 are renormalised.
RENORM_TOL = 1e-6
# Python objects per subset of a space: its Kernel, the law's array header
# and the projection cache entries it is read through (tracemalloc over
# compile_scm at n = 4..10: about 1 KB a kernel).
SUBSET_BYTES = 1024


@functools.cache
def _physical_memory() -> int | float:
    """Bytes of physical memory, or inf where sysconf cannot report them."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return pages * size if pages > 0 and size > 0 else math.inf


def check_fits(nbytes: int, what: str) -> None:
    """Refuse, before it is allocated, an array larger than physical memory."""
    limit = _physical_memory()
    if nbytes > limit:  # Decimal formats integers beyond float range
        raise CapError(f"{what} needs {Decimal(nbytes):.3g} bytes; physical memory is {Decimal(limit):.3g}")


@dataclass(frozen=True)
class FiniteProductSpace:
    """Ordered product of named finite components.

    components: tuple of (name, outcome labels). Component order is the
    ambient index order; all subset masks refer to positions in this tuple.
    """

    components: tuple[tuple[str, tuple[str, ...]], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.components, tuple):
            object.__setattr__(
                self,
                "components",
                tuple((str(n), tuple(str(o) for o in outs)) for n, outs in self.components),
            )
        n = len(self.components)
        if n < 1:
            raise DomainError("a space needs at least one component")
        names = [c[0] for c in self.components]
        if len(set(names)) != n:
            raise DomainError(f"component names must be unique, got {names}")
        for name, outcomes in self.components:
            if len(outcomes) < 1:
                raise DomainError(f"component {name!r} has no outcomes")
            if len(set(outcomes)) != len(outcomes):
                raise DomainError(f"component {name!r} has duplicate outcomes")
        # per subset, a kernel law of n_atoms floats, its cached law_cells
        # table of n_atoms indices, and the objects around them
        check_fits((16 * self.n_atoms + SUBSET_BYTES) * 2**n, f"a mechanism over {n} components")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c[0] for c in self.components)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c[1]) for c in self.components)

    @property
    def full(self) -> int:
        return subsets.full_mask(self.n)

    @property
    def n_atoms(self) -> int:
        return math.prod(self.sizes)

    def n_atoms_of(self, mask: int) -> int:
        self._check_mask(mask)
        return math.prod(len(self.components[t][1]) for t in subsets.bits(mask))

    def shape_of(self, mask: int) -> tuple[int, ...]:
        """Outcome counts of mask's components, ascending: the shape of its atom grid."""
        self._check_mask(mask)
        return tuple(len(self.components[t][1]) for t in subsets.bits(mask))

    def index_of(self, name: str) -> int:
        for t, (n, _) in enumerate(self.components):
            if n == name:
                return t
        raise DomainError(f"no component named {name!r}")

    def mask_of(self, names: Iterable[str]) -> int:
        return subsets.mask_of(self.index_of(n) for n in names)

    def outcome_index(self, t: int, label: str) -> int:
        outs = self.components[t][1]
        try:
            return outs.index(label)
        except ValueError as exc:
            raise DomainError(
                f"component {self.components[t][0]!r} has no outcome {label!r}"
            ) from exc

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full:
            raise DomainError(f"mask {mask:#b} outside this {self.n}-component space")

    def _check_atom(self, mask: int, index: int) -> None:
        n = self.n_atoms_of(mask)
        if not 0 <= index < n:
            raise DomainError(f"atom {index} outside the {n} atoms over mask {mask:#b}")

    def _grid(self, mask: int) -> np.ndarray:
        """Every atom of mask's sub-product at its coordinates: the atom grid."""
        shape = self.shape_of(mask)
        return np.arange(math.prod(shape), dtype=np.intp).reshape(shape)

    def _shape_in(self, part: int, into: int) -> list[int]:
        """into's grid shape with every axis outside part cut to length 1."""
        if not subsets.is_subset(part, into):
            raise DomainError(f"mask {part:#b} is not inside mask {into:#b}")
        return [s if part >> t & 1 else 1 for t, s in zip(subsets.bits(into), self.shape_of(into))]

    def atom_projection(self, src: int, dst: int) -> np.ndarray:
        """Map flat atoms of the src sub-product onto the dst one (dst inside src).

        dst's grid broadcast over src's other axes, raveled, and cached.
        """
        key = (src, dst)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        grid = self._grid(dst).reshape(self._shape_in(dst, src))
        out = np.broadcast_to(grid, self.shape_of(src)).ravel()
        out.setflags(write=False)
        self._cache[key] = out
        return out

    def atom_embedding(self, part: int, into: int) -> np.ndarray:
        """Flat-index contribution of a part's atoms inside a superset product.

        into's grid with the axes outside part pinned at 0, raveled. For
        disjoint parts A, B with A | B = into, the into-flat index of the
        combined atom is atom_embedding(A, into)[i] + atom_embedding(B, into)[j].
        """
        pinned = tuple(slice(s) for s in self._shape_in(part, into))
        return self._grid(into)[pinned].ravel()

    def law_cells(self, source: int) -> np.ndarray:
        """Full atom at each cell of a (source atom x complement atom) table.

        Full atoms are row-major over all components, so moving the source's
        axes to the front of the full atom grid and flattening each group
        gives the table. Cached like the projection tables: n_atoms indices
        per source, which the size rule counts beside the laws.
        """
        key = ("law", source)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n_rows = self.n_atoms_of(source)
        axes = subsets.indices_of(source) + subsets.indices_of(self.full & ~source)
        flat = np.arange(self.n_atoms, dtype=np.intp).reshape(self.sizes).transpose(axes)
        out = flat.reshape(n_rows, -1)
        out.setflags(write=False)
        self._cache[key] = out
        return out

    def coords_of(self, mask: int, index: int) -> tuple[int, ...]:
        self._check_atom(mask, index)
        return tuple(int(c) for c in np.unravel_index(index, self.shape_of(mask)))

    def flat_of(self, mask: int, coords: Iterable[int]) -> int:
        """Row-major flat index of coords over mask's grid, by Horner's rule."""
        shape = self.shape_of(mask)
        coords = tuple(coords)
        if len(coords) != len(shape):
            raise DomainError("coordinate count does not match mask")
        out = 0
        for c, sz in zip(coords, shape):
            if not 0 <= c < sz:
                raise DomainError(f"coordinate {c} out of range for size {sz}")
            out = out * sz + c
        return out

    def atom_from_labels(self, labels: Mapping[str, str]) -> "Atom":
        """Atom of the sub-product named by the mapping's keys."""
        items = sorted(((self.index_of(n), v) for n, v in labels.items()))
        mask = subsets.mask_of(t for t, _ in items)
        coords = (self.outcome_index(t, v) for t, v in items)
        return Atom(mask, self.flat_of(mask, coords))

    def labels_of(self, atom: "Atom") -> dict[str, str]:
        idx = subsets.indices_of(atom.mask)
        coords = self.coords_of(atom.mask, atom.index)
        return {self.components[t][0]: self.components[t][1][c] for t, c in zip(idx, coords)}

    def subspace(self, mask: int) -> "FiniteProductSpace":
        self._check_mask(mask)
        if mask == 0:
            raise DomainError("a sub-space needs at least one component")
        return FiniteProductSpace(tuple(self.components[t] for t in subsets.bits(mask)))


@dataclass(frozen=True)
class Atom:
    """A point of the sub-product over mask, as its flat row-major index."""

    mask: int
    index: int


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only for good, without copying where that is safe.

    An array that owns its data is frozen in place, and so is a view of
    memory that is already read-only; a view of writable memory is copied,
    since its owner could still write through it.
    """
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base
    if root.base is not None or (root is not a and root.flags.writeable):
        a = a.copy()
    a.setflags(write=False)
    return a


def _normalise(weights: np.ndarray, what: str, copy: bool = True) -> np.ndarray:
    """Shared constructor rule for measure weights, along the last axis.

    Each weight vector (a 1-D array, or every row of a matrix) is accepted
    unchanged when its total is within NORM_TOL of 1 (keeps dump/parse
    round-trips bitwise stable), renormalised when within RENORM_TOL,
    rejected beyond that. NaN weights and negative weights beyond -NORM_TOL
    are rejected; tiny negative float noise is clamped to zero. With
    copy=False, a float64 array that needs no change is returned as given.
    """
    w = np.array(weights, dtype=np.float64) if copy else np.asarray(weights, dtype=np.float64)
    low = w.min(initial=0.0)
    # written so that NaN fails the window checks
    if not low >= -NORM_TOL:
        raise DomainError(f"{what} has negative or NaN weight {low}")
    owned = copy
    if low < 0.0:
        w = np.clip(w, 0.0, None, out=w if owned else None)
        owned = True
    with np.errstate(over="ignore"):  # an infinite total fails the window below
        sums = w.sum(axis=-1, keepdims=True)
    off = np.abs(sums - 1.0)
    worst = off.max(initial=0.0)
    if not worst <= RENORM_TOL:
        bad = int(np.argmax(off))
        where = what if w.ndim == 1 else f"{what} row {bad}"
        raise DomainError(
            f"{where} weights sum to {float(sums.flat[bad])!r}, outside the 1e-6 window"
        )
    if worst > NORM_TOL:
        w = np.divide(w, sums, out=w if owned else w.copy(), where=off > NORM_TOL)
    return w


def check_tol(tol: float) -> None:
    """Reject a tolerance that would make every comparison pass or fail."""
    # written so that NaN fails the check
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be a finite non-negative number, got {tol!r}")


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability weights over the atoms of a sub-product."""

    space: FiniteProductSpace
    domain: int
    weights: np.ndarray

    def __post_init__(self):
        self.space._check_mask(self.domain)
        w = _normalise(self.weights, "distribution")
        if w.shape != (self.space.n_atoms_of(self.domain),):
            raise DomainError(
                f"weights shape {w.shape} does not match domain with "
                f"{self.space.n_atoms_of(self.domain)} atoms"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def dirac(space: FiniteProductSpace, at: Atom) -> Dist:
    """Point mass at an atom of the sub-product over at.mask."""
    space._check_atom(at.mask, at.index)
    w = np.zeros(space.n_atoms_of(at.mask))
    w[at.index] = 1.0
    return Dist(space, at.mask, w)


def uniform(space: FiniteProductSpace, mask: int) -> Dist:
    n = space.n_atoms_of(mask)
    return Dist(space, mask, np.full(n, 1.0 / n))


def fiber_sums(w: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Each row of w summed by label: w's leading shape by n columns.

    labels (one per entry of w's last axis, per row or shared) lie in
    range(n); they are atoms read off the cached projection tables.
    """
    lead = w.shape[:-1]
    rows = math.prod(lead)
    flat = (labels + np.arange(0, rows * n, n).reshape(lead + (1,))).ravel()
    return np.bincount(flat, weights=w.ravel(), minlength=rows * n).reshape(lead + (n,))


def marginal(d: Dist, mask: int) -> Dist:
    """Push d onto the sub-product over mask (mask inside d.domain)."""
    if not subsets.is_subset(mask, d.domain):
        raise DomainError("marginal target must be inside the domain")
    labels = d.space.atom_projection(d.domain, mask)
    return Dist(d.space, mask, fiber_sums(d.weights, labels, d.space.n_atoms_of(mask)))


def condition(d: Dist, at: Atom) -> Dist:
    """d conditioned on the cylinder over at; the result keeps d's domain.

    Raises NullSetError when the cylinder mass is not above NORM_TOL: a
    conditional there is a matter of convention, and silently picking one
    would hide modelling errors.
    """
    if not subsets.is_subset(at.mask, d.domain):
        raise DomainError("conditioning atom must be inside the domain")
    d.space._check_atom(at.mask, at.index)
    proj = d.space.atom_projection(d.domain, at.mask)
    fiber = proj == at.index
    total = float(d.weights[fiber].sum())
    if total <= NORM_TOL:
        raise NullSetError(f"conditioning on a null cylinder (mass {total})")
    w = np.where(fiber, d.weights, 0.0) / total
    return Dist(d.space, d.domain, w)


def product_weights(
    space: FiniteProductSpace,
    parts: Iterable[tuple[int, np.ndarray]],
    into: int,
) -> np.ndarray:
    """Weights over the into-product of independent factors on disjoint masks.

    Masks must be pairwise disjoint and union exactly to into. Raw array
    variant used wherever kernel rows are assembled factor by factor.
    """
    w = np.ones(1)
    seen = 0
    for mask, pw in parts:
        if mask & seen:
            raise DomainError("product factors must have disjoint masks")
        seen |= mask
        if mask == 0:
            continue
        w = w * np.asarray(pw, dtype=np.float64).reshape(space._shape_in(mask, into))
    if seen != into:
        raise DomainError("product factors must cover the target mask")
    return w.reshape(-1)


def product_dist(a: Dist, b: Dist) -> Dist:
    """Independent product of measures whose domains partition the space."""
    if a.space is not b.space and a.space != b.space:
        raise DomainError("product factors must share a space")
    if a.domain & b.domain:
        raise DomainError("product factors must have disjoint domains")
    into = a.domain | b.domain
    if into != a.space.full:
        raise DomainError("product factors must cover every component")
    w = product_weights(a.space, [(a.domain, a.weights), (b.domain, b.weights)], into)
    return Dist(a.space, into, w)


@dataclass(frozen=True, eq=False)
class Event:
    """Measurable set, stored as atom flags on the sub-product it depends on."""

    space: FiniteProductSpace
    domain: int
    flags: np.ndarray

    def __post_init__(self):
        self.space._check_mask(self.domain)
        f = np.array(self.flags, dtype=bool)
        if f.shape != (self.space.n_atoms_of(self.domain),):
            raise DomainError("event flags shape does not match its domain")
        f.setflags(write=False)
        object.__setattr__(self, "flags", f)

    def indicator(self, on: int | None = None) -> np.ndarray:
        """Float indicator over the atoms of on (defaults to the full space)."""
        on = self.space.full if on is None else on
        if not subsets.is_subset(self.domain, on):
            raise DomainError("event domain must be inside the target mask")
        proj = self.space.atom_projection(on, self.domain)
        return self.flags[proj].astype(np.float64)

    def probability(self, d: Dist) -> float:
        if not subsets.is_subset(self.domain, d.domain):
            raise DomainError("event domain must be inside the distribution domain")
        proj = d.space.atom_projection(d.domain, self.domain)
        return float(d.weights[self.flags[proj]].sum())

    def complement(self) -> "Event":
        return Event(self.space, self.domain, ~self.flags)

    def intersect(self, other: "Event") -> "Event":
        if self.space != other.space:
            raise DomainError("events must share a space")
        dom = self.domain | other.domain
        a = self.flags[self.space.atom_projection(dom, self.domain)]
        b = other.flags[other.space.atom_projection(dom, other.domain)]
        return Event(self.space, dom, a & b)

    def essential(self) -> "Event":
        """Same event on the smallest mask its indicator depends on."""
        mask = self.domain
        flags = self.flags
        for t in subsets.indices_of(self.domain):
            axis = subsets.indices_of(mask).index(t)
            shaped = flags.reshape(self.space.shape_of(mask))
            first = np.take(shaped, 0, axis=axis)
            if np.all(shaped == np.expand_dims(first, axis)):
                mask &= ~(1 << t)
                flags = first.reshape(-1)
        return Event(self.space, mask, flags)


def rectangle(space: FiniteProductSpace, allowed: Mapping[str, Iterable[str]]) -> Event:
    """Conjunction of per-component membership constraints."""
    items = sorted((space.index_of(n), set(v)) for n, v in allowed.items())
    mask = subsets.mask_of(t for t, _ in items)
    parts = []
    for t, labels in items:
        outs = space.components[t][1]
        unknown = labels - set(outs)
        if unknown:
            raise DomainError(f"component {space.components[t][0]!r} has no outcomes {sorted(unknown)}")
        parts.append((1 << t, np.array([o in labels for o in outs], dtype=np.float64)))
    flags = product_weights(space, parts, mask) > 0.5
    return Event(space, mask, flags)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Probability kernel from the sub-product over source into the space.

    Its row at a source atom w is the point mass at w times a law on the
    complement's atoms (the interventional-determinism axiom), so the kernel
    is stored as law, a read-only (source atom x complement atom) table of
    n_atoms float64 entries. Build one from its law with
    Kernel(space, source, law=...), given either the table or one law over
    the complement's atoms shared by every row (kept as a broadcast view).
    A law that owns its data is frozen in place instead of copied; a view
    of writable memory is copied first. On the full source the complement
    is empty, so a law that passes the weight window is stored as exactly 1
    and every row is its point mass. Dense rows over the full atoms,
    Kernel(space, source, rows), are the document form. matrix is the
    dense view, rebuilt on every access.

    Row validity (the Dist constructor rule) is enforced here; whether each
    row sits on its own fiber is the business of validate_causal_space, so
    that broken inputs can be loaded and reported instead of crashing the
    loader. Dense rows that put mass off their own fiber make an invalid
    kernel: it keeps them verbatim as leaky_rows, which only
    validate_causal_space and matrix read, while every other operation reads
    the on-fiber law. The CLI refuses such a space before do and classify.
    """

    space: FiniteProductSpace
    source: int
    rows: InitVar[np.ndarray | None] = None
    law: np.ndarray | None = None
    leaky_rows: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, rows):
        space = self.space
        space._check_mask(self.source)
        rest = space.full & ~self.source
        shape = (space.n_atoms_of(self.source), space.n_atoms_of(rest))
        if (rows is None) == (self.law is None):
            raise DomainError("a kernel needs either dense rows or its law")
        if rows is None:
            law = np.asarray(self.law, dtype=np.float64)
            if law.shape not in (shape, shape[1:]):
                raise DomainError(f"kernel law shape {law.shape}, expected {shape} or {shape[1:]}")
            law = _normalise(law, "kernel", copy=False)
            if rest == 0:
                # the complement is empty, so its one law is exactly 1
                law = np.ones(shape)
            law = _frozen(law)
            if law.shape != shape:
                law = np.broadcast_to(law, shape)
        else:
            m = np.asarray(rows, dtype=np.float64)
            want = (shape[0], space.n_atoms)
            if m.shape != want:
                raise DomainError(f"kernel matrix shape {m.shape}, expected {want}")
            m = _normalise(m, "kernel")
            law = m[np.arange(shape[0])[:, None], space.law_cells(self.source)]
            if np.count_nonzero(law) != np.count_nonzero(m):
                m.setflags(write=False)
                object.__setattr__(self, "leaky_rows", m)
            law.setflags(write=False)
        object.__setattr__(self, "law", law)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (source atom x full atom) rows, built on each access.

        Leaky dense rows are returned as they were given.
        """
        if self.leaky_rows is not None:
            return self.leaky_rows
        n_rows = self.law.shape[0]
        m = np.zeros((n_rows, self.space.n_atoms))
        m[np.arange(n_rows)[:, None], self.space.law_cells(self.source)] = self.law
        return m

    def on_atoms(self) -> np.ndarray:
        """The law over the full atoms: each atom's weight in its own fiber's row."""
        out = np.empty(self.space.n_atoms)
        out[self.space.law_cells(self.source)] = self.law
        return out

    def row_values(self, a: Event) -> np.ndarray:
        """k(atom, a) for every source atom, as one vector."""
        return self.integrate(a.indicator())

    def integrate(self, f: np.ndarray) -> np.ndarray:
        """Integral of f, a function of the full atoms, under every law row."""
        return np.einsum("wc,wc->w", self.law, f[self.space.law_cells(self.source)])

    def marginals(self, v: int) -> np.ndarray:
        """Every row's marginal on the V-components, as (source atom x V atom)."""
        space = self.space
        labels = space.atom_projection(space.full, v)[space.law_cells(self.source)]
        return fiber_sums(self.law, labels, space.n_atoms_of(v))


def bind(q: Dist, k: Kernel) -> Dist:
    """Measure A -> sum_w q(w) k(w, A); q must live on the kernel source.

    Each full atom lies over one source atom w, so its mass is q(w) times
    its cell of the law.
    """
    if q.space != k.space or q.domain != k.source:
        raise DomainError("bound measure must live on the kernel source")
    w = np.empty(q.space.n_atoms)
    w[q.space.law_cells(k.source)] = q.weights[:, None] * k.law
    return Dist(q.space, q.space.full, w)


def _conditional_table(space: FiniteProductSpace, mask: int, w: np.ndarray):
    """w conditioned on each atom of mask, as (mask atom x complement atom).

    Returns the table and the fiber masses. Every row of positive mass is
    divided by it; the caller picks the mass below which a row is null, to
    reject, complete or skip. A row of zero mass stays w's raw zeros.
    """
    table = w[space.law_cells(mask)]
    masses = fiber_sums(w, space.atom_projection(space.full, mask), space.n_atoms_of(mask))
    np.divide(table, masses[:, None], out=table, where=masses[:, None] > 0.0)
    return table, masses


def conditional_kernel(d: Dist, mask: int) -> Kernel:
    """Kernel whose rows are d conditioned on each atom of the mask product.

    Each row is the point mass at its atom times d's conditional law on the
    complement, so the table from _conditional_table is the kernel's law.
    Requires d on the full space with strictly positive mass on every fiber
    (NullSetError otherwise); with that, bind(marginal(d, mask), result)
    reproduces d (law of total probability).
    """
    if d.domain != d.space.full:
        raise DomainError("conditional kernel needs a full-space distribution")
    d.space._check_mask(mask)
    law, masses = _conditional_table(d.space, mask, d.weights)
    if masses.min() <= NORM_TOL:
        bad = int(np.argmin(masses))
        raise NullSetError(f"fiber over atom {bad} of mask {mask:#b} has null mass")
    return Kernel(d.space, mask, law=law)


def tv_distance(a: Dist, b: Dist) -> float:
    """Total variation distance between measures on the same domain."""
    if a.space != b.space or a.domain != b.domain:
        raise DomainError("total variation needs a shared domain")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())
