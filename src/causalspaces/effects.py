"""Causal-effect classification, sources, dormancy, and adjustment.

Whether one subset of components causally moves an event is decided by
exhaustive comparison of kernels across every subset of the power set, per
the definitions:

  * no effect of U on A: for every subset S and every atom, the subset-S
    kernel gives A the same value as the kernel that forgets U's part of S;
  * active: the U-kernel itself disagrees somewhere with the observational
    probability of A;
  * dormant: neither, meaning the disagreement only surfaces jointly with
    other coordinates and can be exposed by a suitable hard intervention.

Every "no effect" question (classify_effect, classify_effect_on_subset,
has_no_effect_given, activate_dormant) runs through one scan,
_first_disagreement, which returns the first (subset, row) where a kernel
and the kernel forgetting U's part disagree; activate_dormant pins that row.
The scan reads each kernel one way: an event through Kernel.integrate, or
the whole algebra of a subset V through Kernel.marginals, every row's
(S atom x V atom) marginal table.

Likewise every source question (is_source, is_global_source and the
local-source case of adjustment_estimate) runs through one check,
_source_check, which reads the U-kernel's law and p's conditional table on
U (measure._conditional_table, adjustment_estimate's only conditional too)
the same way: on one event, on V's atoms, or cell by cell.

All scans quantify over every atom regardless of observational mass: a
kernel disagreement supported only on null rows still blocks "no effect".
Only source checks and adjustment skip null atoms, where a conditional
probability is a matter of convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import subsets
from .core import CausalSpace, intervene_hard
from .errors import ContractError, DomainError, InternalInconsistencyError
from .measure import NORM_TOL, Atom, Dist, Event, bind, check_tol, dirac, fiber_sums, marginal
from .measure import _conditional_table


class EffectClass(enum.Enum):
    NONE = "none"
    ACTIVE = "active"
    DORMANT = "dormant"


def _check_event(cs: CausalSpace, a: Event) -> np.ndarray:
    if a.space != cs.space:
        raise DomainError("event must live on the causal space")
    return a.indicator()


def _event(cs: CausalSpace, a: Event):
    """One event's read under a kernel, and its observational probability."""
    ind = _check_event(cs, a)
    return (lambda k: k.integrate(ind)), cs.observational.weights @ ind


def _first_disagreement(cs: CausalSpace, pairs, read, tol: float):
    """First (big, row) where K_big and K_small differ under read by more than tol.

    pairs yields (big, small) masks with small inside big, in scan order;
    read maps a kernel to a value, or a row of values, per source atom.
    Returns None when every pair agrees; the row is located only on a hit.
    """
    space = cs.space
    for big, small in pairs:
        vb = read(cs.mechanism[big])
        vs = read(cs.mechanism[small])
        diff = np.abs(vb - vs[space.atom_projection(big, small)])
        if diff.max() > tol:
            return big, int(np.unravel_index(np.argmax(diff), diff.shape)[0])
    return None


def _classify(cs: CausalSpace, u: int, read, observed: np.ndarray, tol: float):
    """Effect class of U under read, with the first disagreement.

    The scan compares K_S with K_{S minus U} for every S meeting U, in
    ascending mask order; if it finds a disagreement, the U-kernel against
    the observational values separates ACTIVE from DORMANT.
    """
    pairs = ((s, s & ~u) for s in subsets.all_masks(cs.space.n) if s & u)
    hit = _first_disagreement(cs, pairs, read, tol)
    if hit is None:
        return EffectClass.NONE, None
    if np.abs(read(cs.mechanism[u]) - observed).max() > tol:
        return EffectClass.ACTIVE, hit
    return EffectClass.DORMANT, hit


def classify_effect(cs: CausalSpace, u: int, a: Event, tol: float = NORM_TOL) -> EffectClass:
    """Classify the effect of the U-components on one event."""
    check_tol(tol)
    cs.space._check_mask(u)
    return _classify(cs, u, *_event(cs, a), tol)[0]


def classify_effect_on_subset(
    cs: CausalSpace, u: int, v: int, tol: float = NORM_TOL
) -> EffectClass:
    """Classify the effect of U on the whole algebra of the V-components.

    Every event over V is a disjoint union of V-atom cylinders and all the
    defining comparisons are additive in the event, so comparing each
    row's marginal on V is exhaustive.
    """
    check_tol(tol)
    cs.space._check_mask(u)
    cs.space._check_mask(v)
    observed = marginal(cs.observational, v).weights
    return _classify(cs, u, lambda k: k.marginals(v), observed, tol)[0]


def classify_effect_on_sigma(
    cs: CausalSpace, u: int, events: Iterable[Event], tol: float = NORM_TOL
) -> EffectClass:
    """Classify against the algebra generated by the events.

    The events are required to generate the full algebra of the components
    they jointly depend on (the only sub-algebras this package models); the
    generated algebra is identified by reducing each event to its essential
    components and taking the union.
    """
    check_tol(tol)
    v = 0
    for ev in events:
        if ev.space != cs.space:
            raise DomainError("events must live on the causal space")
        v |= ev.essential().domain
    return classify_effect_on_subset(cs, u, v, tol)


def has_no_effect_given(
    cs: CausalSpace, u: int, v: int, a: Event, tol: float = NORM_TOL
) -> bool:
    """No effect of U on the event once the V-components are held known.

    For every subset S the kernel of S|V must agree on the event with the
    kernel that forgets U's components outside V.
    """
    check_tol(tol)
    space = cs.space
    space._check_mask(u)
    space._check_mask(v)
    read, _ = _event(cs, a)
    # S | V runs over the supersets of V, so scanning those alone is exhaustive
    w = u & ~v
    pairs = ((s, s & ~w) for s in subsets.all_masks(space.n) if s & v == v and s & w)
    return _first_disagreement(cs, pairs, read, tol) is None


def is_trivial_kernel(cs: CausalSpace, u: int, tol: float = NORM_TOL) -> bool:
    """U has no effect on anything outside itself."""
    check_tol(tol)
    rest = cs.space.full & ~u
    return classify_effect_on_subset(cs, u, rest, tol) is EffectClass.NONE


def is_time_respecting(
    cs: CausalSpace, partition: Sequence[int], tol: float = NORM_TOL
) -> bool:
    """No slice of the ordered partition affects any earlier slice."""
    check_tol(tol)
    seen = 0
    for mask in partition:
        cs.space._check_mask(mask)
        if mask & seen:
            raise DomainError("time partition slices must be disjoint")
        seen |= mask
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            if classify_effect_on_subset(cs, partition[j], partition[i], tol) is not EffectClass.NONE:
                return False
    return True


def _source_check(cs: CausalSpace, u: int, read, tol: float):
    """Whether the U-kernel matches p's conditional on U under read.

    read maps a law table (the U-kernel's or the conditional's) to values
    per U atom. U atoms of observational mass at or below tol are skipped.
    Returns the verdict, the conditional's read, and the compared atoms.
    """
    table, masses = _conditional_table(cs.space, u, cs.observational.weights)
    conditional = read(table)
    ok = masses > tol
    diff = np.abs(read(cs.mechanism[u].law) - conditional)[ok]
    return bool(diff.max(initial=0.0) <= tol), conditional, ok


def is_source(cs: CausalSpace, u: int, a: Event, tol: float = NORM_TOL) -> bool:
    """The U-kernel is a version of the conditional probability of the event.

    Atoms with observational mass at or below tol are skipped: conditional
    probability is only defined up to a null set.
    """
    check_tol(tol)
    cs.space._check_mask(u)
    ind = _check_event(cs, a)[cs.space.law_cells(u)]
    return _source_check(cs, u, lambda law: np.einsum("wc,wc->w", law, ind), tol)[0]


def is_global_source(cs: CausalSpace, u: int, tol: float = NORM_TOL) -> bool:
    """Source of every event: rows equal conditionals on positive-mass atoms."""
    check_tol(tol)
    return _source_check(cs, u, lambda law: law, tol)[0]


@dataclass(frozen=True)
class ActivationWitness:
    """Hard intervention exposing a dormant effect.

    Pinning the intervened components to the witness atom's coordinates
    turns the activated subset's effect on the event active.
    """

    intervened: int
    atom: Atom
    activated: int
    after: CausalSpace


def activate_dormant(
    cs: CausalSpace, u: int, a: Event, tol: float = NORM_TOL
) -> ActivationWitness:
    """Find a subset whose kernel disagreement exposes the dormant effect.

    Scans subsets in ascending mask order for K_S(w, A) != K_{S minus U}(w, A),
    then hard-intervenes the non-U part to the witness atom's coordinates.
    The activated subset is S's intersection with U.
    """
    check_tol(tol)
    space = cs.space
    space._check_mask(u)
    effect, hit = _classify(cs, u, *_event(cs, a), tol)
    if effect is not EffectClass.DORMANT:
        raise ContractError("activation needs a dormant classification")
    s, row = hit
    kept = s & ~u
    omega = Atom(space.full, int(space.atom_embedding(s, space.full)[row]))
    target = Atom(kept, int(space.atom_projection(s, kept)[row]))
    after = intervene_hard(cs, kept, dirac(space, target))
    activated = s & u
    if classify_effect(after, activated, a, tol) is not EffectClass.ACTIVE:
        raise InternalInconsistencyError("witness intervention failed to activate the effect")
    return ActivationWitness(intervened=kept, atom=omega, activated=activated, after=after)


@dataclass(frozen=True)
class AdjustmentResult:
    """Observational estimate of an interventional probability, with audit.

    consistent: interventional and observational conditionals given the
    U|V-components agree on atoms positive under both measures. case: which
    structural hypothesis licensed the weighting (local-source, no-effect,
    contained), or None. trusted only when both parts hold and every
    conditional the sum needed was defined.
    """

    estimate: float
    trusted: bool
    consistent: bool
    case: str | None
    notes: tuple[str, ...]


def adjustment_estimate(
    cs: CausalSpace, u: int, v: int, q: Dist, a: Event, tol: float = NORM_TOL
) -> AdjustmentResult:
    """Adjust over the V-components to estimate the intervened probability.

    Returns sum over consistent (U|V)-atoms of q(u-part) r(v-part | u-part)
    P(A | atom), with r the observational conditional (local-source case),
    the plain V-marginal (no-effect case), or degenerate (V inside U). The
    reference value it chases is the measure q bound through the U-kernel,
    evaluated on the event; the estimate itself touches only q and the
    observational measure.
    """
    check_tol(tol)
    space = cs.space
    space._check_mask(u)
    space._check_mask(v)
    if q.space != space or q.domain != u:
        raise DomainError("adjustment measure must live on the adjusted-for subset")
    ind = _check_event(cs, a)
    notes: list[str] = []
    p = cs.observational.weights
    p_do = bind(q, cs.mechanism[u]).weights

    uv = u | v
    on_a = ind[space.law_cells(uv)]
    # P(A | atom of U|V) under each measure, from its conditional table
    table_p, mass_p = _conditional_table(space, uv, p)
    table_do, mass_do = _conditional_table(space, uv, p_do)
    cond_p = np.einsum("wc,wc->w", table_p, on_a)
    cond_do = np.einsum("wc,wc->w", table_do, on_a)
    pos_do = mass_do > tol
    pos_p = mass_p > tol
    consistent = True
    if (pos_do & ~pos_p).any():
        consistent = False
        notes.append("interventional mass sits on observationally null atoms")
    both = pos_do & pos_p
    if both.any() and np.abs(cond_do - cond_p)[both].max() > tol:
        consistent = False
        notes.append("do-conditional disagrees with the observational conditional")

    labels = space.atom_projection(space.full, v)[space.law_cells(u)]
    local_source, given_u, ok_u = _source_check(
        cs, u, lambda law: fiber_sums(law, labels, space.n_atoms_of(v)), tol
    )
    if local_source:
        case = "local-source"
    elif classify_effect_on_subset(cs, u, v, tol) is EffectClass.NONE:
        case = "no-effect"
    elif subsets.is_subset(v, u):
        case = "contained"
    else:
        case = None
        notes.append("no structural hypothesis holds; weighted as no-effect")

    proj_u = space.atom_projection(uv, u)
    proj_v = space.atom_projection(uv, v)
    q_at = q.weights[proj_u]
    defined = True
    if case == "local-source":
        ok_u = ok_u[proj_u]
        r = np.where(ok_u, given_u[proj_u, proj_v], 0.0)
        if ((q_at > tol) & ~ok_u).any():
            defined = False
            notes.append("conditional over V undefined on a needed null atom")
    elif case == "contained":
        r = np.ones_like(mass_p)
    else:
        r = marginal(cs.observational, v).weights[proj_v]

    weight = q_at * r
    need = weight > tol
    if (need & ~pos_p).any():
        defined = False
        notes.append("event conditional undefined on a needed null atom")
    estimate = float(weight[need & pos_p] @ cond_p[need & pos_p])
    trusted = consistent and case is not None and defined
    return AdjustmentResult(estimate, trusted, consistent, case, tuple(notes))
