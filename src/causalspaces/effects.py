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

Likewise every source question (is_source, is_global_source and the
local-source case of adjustment_estimate) runs through one check,
_is_source_on, which compares the U-kernel with the observational
conditional on event columns: one indicator, or the atom indicators of a
subset.

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
from .measure import NORM_TOL, Atom, Dist, Event, bind, check_tol, dirac


class EffectClass(enum.Enum):
    NONE = "none"
    ACTIVE = "active"
    DORMANT = "dormant"


def _check_event(cs: CausalSpace, a: Event) -> np.ndarray:
    if a.space != cs.space:
        raise DomainError("event must live on the causal space")
    return a.indicator()


def _first_disagreement(cs: CausalSpace, pairs, cols: np.ndarray, tol: float):
    """First (big, row) where K_big and K_small differ on cols by more than tol.

    pairs yields (big, small) masks with small inside big, in scan order;
    cols is one event's indicator or a matrix of indicators as columns.
    Returns None when every pair agrees. The row is located only on a hit.
    """
    space = cs.space
    for big, small in pairs:
        vb = cs.mechanism[big].matrix @ cols
        vs = cs.mechanism[small].matrix @ cols
        diff = np.abs(vb - vs[space.atom_projection(big, small)])
        if diff.max() > tol:
            return big, int(np.unravel_index(np.argmax(diff), diff.shape)[0])
    return None


def _classify(cs: CausalSpace, u: int, cols: np.ndarray, tol: float):
    """Effect class of U on the events in cols, with the first disagreement.

    The scan compares K_S with K_{S minus U} for every S meeting U, in
    ascending mask order; if it finds a disagreement, the U-kernel against
    the observational probabilities separates ACTIVE from DORMANT.
    """
    pairs = ((s, s & ~u) for s in subsets.all_masks(cs.space.n) if s & u)
    hit = _first_disagreement(cs, pairs, cols, tol)
    if hit is None:
        return EffectClass.NONE, None
    vu = cs.mechanism[u].matrix @ cols
    if np.abs(vu - cs.observational.weights @ cols).max() > tol:
        return EffectClass.ACTIVE, hit
    return EffectClass.DORMANT, hit


def classify_effect(cs: CausalSpace, u: int, a: Event, tol: float = NORM_TOL) -> EffectClass:
    """Classify the effect of the U-components on one event."""
    check_tol(tol)
    cs.space._check_mask(u)
    return _classify(cs, u, _check_event(cs, a), tol)[0]


def classify_effect_on_subset(
    cs: CausalSpace, u: int, v: int, tol: float = NORM_TOL
) -> EffectClass:
    """Classify the effect of U on the whole algebra of the V-components.

    Every event over V is a disjoint union of V-atom cylinders and all the
    defining comparisons are additive in the event, so scanning atom events
    alone is exhaustive.
    """
    check_tol(tol)
    cs.space._check_mask(u)
    cs.space._check_mask(v)
    return _classify(cs, u, cs.space.fiber_indicators(v).T, tol)[0]


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
    ind = _check_event(cs, a)
    # S | V runs over the supersets of V, so scanning those alone is exhaustive
    w = u & ~v
    pairs = ((s, s & ~w) for s in subsets.all_masks(space.n) if s & v == v and s & w)
    return _first_disagreement(cs, pairs, ind, tol) is None


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


def _is_source_on(cs: CausalSpace, u: int, cols: np.ndarray, tol: float) -> bool:
    """The U-kernel matches p's conditional on every event column of cols.

    cols is one event's indicator or a matrix of indicators as columns.
    Atoms of U with observational mass at or below tol are skipped.
    """
    fibers = cs.space.fiber_indicators(u)
    p = cs.observational.weights
    masses = fibers @ p
    ok = masses > tol
    if not ok.any():
        return True
    cols = cols.reshape(p.shape[0], -1)
    vals = (cs.mechanism[u].matrix @ cols)[ok]
    cond = (fibers @ (p[:, None] * cols))[ok] / masses[ok, None]
    return bool(np.abs(vals - cond).max() <= tol)


def is_source(cs: CausalSpace, u: int, a: Event, tol: float = NORM_TOL) -> bool:
    """The U-kernel is a version of the conditional probability of the event.

    Atoms with observational mass at or below tol are skipped: conditional
    probability is only defined up to a null set.
    """
    check_tol(tol)
    cs.space._check_mask(u)
    return _is_source_on(cs, u, _check_event(cs, a), tol)


def is_global_source(cs: CausalSpace, u: int, tol: float = NORM_TOL) -> bool:
    """Source of every event: rows equal conditionals on positive-mass atoms."""
    check_tol(tol)
    return _is_source_on(cs, u, cs.space.fiber_indicators(cs.space.full).T, tol)


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
    effect, hit = _classify(cs, u, _check_event(cs, a), tol)
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
    fibers = space.fiber_indicators(uv)
    mass_p = fibers @ p
    mass_do = fibers @ p_do
    pos_do = mass_do > tol
    pos_p = mass_p > tol
    consistent = True
    if (pos_do & ~pos_p).any():
        consistent = False
        notes.append("interventional mass sits on observationally null atoms")
    both = pos_do & pos_p
    if both.any():
        cond_do = (fibers @ (p_do * ind))[both] / mass_do[both]
        cond_p = (fibers @ (p * ind))[both] / mass_p[both]
        if np.abs(cond_do - cond_p).max() > tol:
            consistent = False
            notes.append("do-conditional disagrees with the observational conditional")

    if _is_source_on(cs, u, space.fiber_indicators(v).T, tol):
        case = "local-source"
    elif classify_effect_on_subset(cs, u, v, tol) is EffectClass.NONE:
        case = "no-effect"
    elif subsets.is_subset(v, u):
        case = "contained"
    else:
        case = None
        notes.append("no structural hypothesis holds; weighted as no-effect")

    proj_u = space.atom_projection(uv, u)
    q_at = q.weights[proj_u]
    defined = True
    if case == "local-source":
        mass_u = (space.fiber_indicators(u) @ p)[proj_u]
        r = np.zeros_like(mass_p)
        ok_u = mass_u > tol
        r[ok_u] = mass_p[ok_u] / mass_u[ok_u]
        if ((q_at > tol) & ~ok_u).any():
            defined = False
            notes.append("conditional over V undefined on a needed null atom")
    elif case == "contained":
        r = np.ones_like(mass_p)
    else:
        proj_v = space.atom_projection(uv, v)
        r = (space.fiber_indicators(v) @ p)[proj_v]

    weight = q_at * r
    need = weight > tol
    cond_a = np.zeros_like(mass_p)
    ok_uv = mass_p > tol
    cond_a[ok_uv] = (fibers @ (p * ind))[ok_uv] / mass_p[ok_uv]
    if (need & ~ok_uv).any():
        defined = False
        notes.append("event conditional undefined on a needed null atom")
    estimate = float(weight[need & ok_uv] @ cond_a[need & ok_uv])
    trusted = consistent and case is not None and defined
    return AdjustmentResult(estimate, trusted, consistent, case, tuple(notes))
