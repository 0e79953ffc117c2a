"""Random instances, a sampling oracle, and counterexample fixtures.

Everything here exists to exercise the rest of the package: seeded
generators feeding the property suites, a two-stage Monte Carlo sampler as
an independent check on the analytic intervention path, and hand-built
spaces realizing the classical pathologies: a composition failure, a
reversibility failure, and correlation without causation. The numeric
tables inside the fixtures are frozen; scripts/regen_counterexamples.py
rederives the headline numbers from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subsets
from .compilers import NoiseTerm, ScmSpec, ScmVariable, compile_scm, scm_from_functions
from .core import CausalMechanism, CausalSpace, intervene_hard, mechanism_from_conditionals
from .errors import DomainError
from .measure import (
    Dist,
    Event,
    FiniteProductSpace,
    Kernel,
    bind,
    conditional_kernel,
    dirac,
    marginal,
    pinned_kernel,
    rectangle,
    tv_distance,
    uniform,
)

KERNEL_STYLES = ("conditional", "perturbed-conditional", "random")


@dataclass(frozen=True)
class RandomSpaceConfig:
    """Knobs for the seeded space generator; every output passes validation."""

    seed: int
    n_components: int = 3
    max_outcomes: int = 3
    kernel_style: str = "perturbed-conditional"

    def __post_init__(self):
        if not 1 <= self.n_components <= 4:
            raise DomainError("generator is tuned for 1 to 4 components")
        if not 2 <= self.max_outcomes <= 3:
            raise DomainError("generator outcomes per component must be 2 or 3")
        if self.kernel_style not in KERNEL_STYLES:
            raise DomainError(f"kernel_style must be one of {KERNEL_STYLES}")


def random_causal_space(cfg: RandomSpaceConfig) -> CausalSpace:
    """Seeded random space; the base kernel is forced to the random measure.

    conditional: every kernel row conditions the measure (every subset a
    source). perturbed-conditional: rows mix the conditional with fresh
    noise on the same fiber, keeping determinism but breaking sourceness.
    random: rows are arbitrary measures on the row's fiber.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = rng.integers(2, cfg.max_outcomes + 1, size=cfg.n_components)
    comps = tuple(
        (f"X{t}", tuple(str(i) for i in range(int(k)))) for t, k in enumerate(sizes)
    )
    space = FiniteProductSpace(comps)
    w = rng.dirichlet(np.ones(space.n_atoms)) + 1e-3
    p = Dist(space, space.full, w / w.sum())
    if cfg.kernel_style == "conditional":
        return CausalSpace(space, p, mechanism_from_conditionals(space, p))
    kernels = []
    for s in subsets.all_masks(space.n):
        if s == 0:
            kernels.append(Kernel(space, 0, p.weights[None, :]))
            continue
        cells = space.law_cells(s)
        masses = marginal(p, s).weights
        law = np.empty(cells.shape)
        for i in range(law.shape[0]):
            fresh = rng.dirichlet(np.ones(cells.shape[1]))
            if cfg.kernel_style == "perturbed-conditional":
                eps = rng.uniform(0.0, 0.5)
                law[i] = (1.0 - eps) * p.weights[cells[i]] / masses[i] + eps * fresh
            else:
                law[i] = fresh
        kernels.append(Kernel(space, s, law=law))
    return CausalSpace(space, p, CausalMechanism(space, tuple(kernels)))


def random_scm(seed: int, max_variables: int = 4, max_outcomes: int = 3) -> ScmSpec:
    """Seeded random DAG model: random parent sets, tables, and noises."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, max_variables + 1))
    sizes = [int(k) for k in rng.integers(2, max_outcomes + 1, size=d)]
    variables = tuple(
        ScmVariable(f"X{j}", tuple(str(i) for i in range(sizes[j]))) for j in range(d)
    )
    parents = tuple(
        tuple(p for p in range(j) if rng.random() < 0.5) for j in range(d)
    )
    noises = []
    tables = []
    for j in range(d):
        n_noise = int(rng.integers(1, 4))
        nw = rng.dirichlet(np.ones(n_noise)) + 0.01
        noises.append(
            NoiseTerm(tuple(f"n{i}" for i in range(n_noise)), tuple(nw / nw.sum()))
        )
        n_pa = int(np.prod([sizes[p] for p in parents[j]])) if parents[j] else 1
        tables.append(rng.integers(0, sizes[j], size=(n_pa, n_noise)))
    return ScmSpec(variables, tuple(noises), parents, tuple(tables))


def monte_carlo_intervention(
    cs: CausalSpace, u: int, q: Dist, samples: int = 100_000, seed: int = 0
) -> Dist:
    """Empirical intervention measure from two-stage sampling.

    Stage one draws subset atoms from q, stage two draws full atoms from the
    matching kernel rows; counts are pooled per row, which is the same
    two-stage law drawn in bulk.
    """
    if q.space != cs.space or q.domain != u:
        raise DomainError("sampling measure must live on the intervened subset")
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    rows = cs.mechanism[u].matrix
    counts = rng.multinomial(samples, q.weights)
    out = np.zeros(cs.space.n_atoms)
    for i, c in enumerate(counts):
        if c:
            out += rng.multinomial(int(c), rows[i])
    return Dist(cs.space, cs.space.full, out / samples)


# ------------------------------------------------------- fixture spaces


def ice_cream_shark() -> CausalSpace:
    """Correlated pair where neither component causes the other.

    The joint couples the components (common season left implicit) while
    both single-subset kernels ignore their input's value entirely, so
    classification finds no effect in either direction.
    """
    space = FiniteProductSpace(
        (("icecream", ("low", "high")), ("sharks", ("low", "high")))
    )
    p = Dist(space, space.full, np.array([0.4, 0.1, 0.1, 0.4]))
    ice, sharks = 0b01, 0b10
    kernels = (
        Kernel(space, 0, p.weights[None, :]),
        pinned_kernel(space, ice, marginal(p, sharks).weights),
        pinned_kernel(space, sharks, marginal(p, ice).weights),
        Kernel(space, space.full, np.eye(4)),
    )
    return CausalSpace(space, p, CausalMechanism(space, kernels))


def mutual_information(d: Dist, u: int, v: int) -> float:
    """I(U;V) in nats under d, for disjoint masks inside its domain."""
    if u & v:
        raise DomainError("mutual information needs disjoint masks")
    space = d.space
    puv = marginal(d, u | v).weights
    pu = marginal(d, u).weights[space.atom_projection(u | v, u)]
    pv = marginal(d, v).weights[space.atom_projection(u | v, v)]
    pos = puv > 0.0
    return float(np.sum(puv[pos] * np.log(puv[pos] / (pu[pos] * pv[pos]))))


def discretized_altitude_temperature() -> CausalSpace:
    """Three-level quantization of the altitude/temperature asymmetry.

    Altitude's kernel conditions the joint (altitude is a global source);
    temperature's kernel keeps the altitude marginal regardless of the
    temperature it is handed (no effect upward, and not a source).
    """
    space = FiniteProductSpace(
        (("altitude", ("low", "mid", "high")), ("temperature", ("cold", "mild", "warm")))
    )
    base = np.array([[1.0, 4.0, 10.0], [3.0, 9.0, 3.0], [10.0, 4.0, 1.0]])
    p = Dist(space, space.full, (base / base.sum()).reshape(-1))
    alt, temp = 0b01, 0b10
    kernels = (
        Kernel(space, 0, p.weights[None, :]),
        conditional_kernel(p, alt),
        pinned_kernel(space, temp, marginal(p, alt).weights),
        Kernel(space, space.full, np.eye(9)),
    )
    return CausalSpace(space, p, CausalMechanism(space, kernels))


def xor_scm(flip: float = 0.1) -> ScmSpec:
    """Two-variable model: X a fair coin, Y copies X with a noisy flip."""
    coin = NoiseTerm(("0", "1"), (0.5, 0.5))
    return scm_from_functions(
        [ScmVariable("X", ("0", "1")), ScmVariable("Y", ("0", "1"))],
        [coin, NoiseTerm(("keep", "flip"), (1.0 - flip, flip))],
        [(), (0,)],
        [
            lambda pa, n: n,
            lambda pa, n: pa["X"] if n == "keep" else ("1" if pa["X"] == "0" else "0"),
        ],
    )


def dormant_instances(count: int = 10) -> list[tuple[CausalSpace, int, Event]]:
    """Parity models where one input's effect hides until the other is pinned.

    Y is the parity of two fair coins plus an output flip; any one input's
    kernel leaves the parity event at probability one half, so the effect
    only shows against subsets containing both inputs.
    """
    coin = NoiseTerm(("0", "1"), (0.5, 0.5))
    out = []
    for k in range(count):
        eps = 0.02 * k
        s = scm_from_functions(
            [
                ScmVariable("X0", ("0", "1")),
                ScmVariable("X1", ("0", "1")),
                ScmVariable("Y", ("0", "1")),
            ],
            [coin, coin, NoiseTerm(("keep", "flip"), (1.0 - eps, eps))],
            [(), (), (0, 1)],
            [
                lambda pa, n: n,
                lambda pa, n: n,
                lambda pa, n: "1" if (pa["X0"] != pa["X1"]) != (n == "flip") else "0",
            ],
        )
        cs = compile_scm(s)
        u = cs.space.mask_of(["X0" if k % 2 == 0 else "X1"])
        out.append((cs, u, rectangle(cs.space, {"Y": ["1"]})))
    return out


# ------------------------------------------------- composition failure


def _composition_space(coupling: float) -> CausalSpace:
    """Four binary components; the first two are coupled under the base
    measure, the output is their parity, and every kernel resamples an
    unclamped member of the pair as a fresh fair coin.

    With coupling away from one half, intervening on the pair's joint law
    matters: the base couples them, the kernels do not.
    """
    space = FiniteProductSpace(
        tuple((name, ("0", "1")) for name in ("X1", "X2", "X3", "Y"))
    )
    pair = np.array(
        [[coupling / 2, (1 - coupling) / 2], [(1 - coupling) / 2, coupling / 2]]
    )
    kernels = []
    for s in subsets.all_masks(4):
        cells = space.law_cells(s)
        law = np.empty(cells.shape)
        for cell, flat in np.ndenumerate(cells):
            x1, x2, x3, y = space.coords_of(space.full, int(flat))
            weight = 1.0
            free1, free2 = not s & 0b0001, not s & 0b0010
            if free1 and free2:
                weight *= pair[x1, x2]
            elif free1 or free2:
                weight *= 0.5
            if not s & 0b0100:
                weight *= 0.5
            if not s & 0b1000:
                weight *= 1.0 if y == x1 ^ x2 else 0.0
            law[cell] = weight
        kernels.append(Kernel(space, s, law=law))
    p = Dist(space, space.full, kernels[0].law[0])
    return CausalSpace(space, p, CausalMechanism(space, tuple(kernels)))


@dataclass(frozen=True)
class CompositionWitness:
    """Intervening additionally on part of the pair, at the very marginal it
    already has, still moves the output event."""

    cs: CausalSpace
    s: int
    q: Dist
    r: int
    q_prime: Dist
    event: Event
    direct: float
    extended: float

    @property
    def discrepancy(self) -> float:
        return abs(self.direct - self.extended)


def _composition_witness(coupling: float) -> CompositionWitness:
    cs = _composition_space(coupling)
    space = cs.space
    s = space.mask_of(["X3"])
    q = dirac(space, space.atom_from_labels({"X3": "1"}))
    first = intervene_hard(cs, s, q).observational
    r = space.mask_of(["X1"])
    q_prime = marginal(first, s | r)
    second = intervene_hard(cs, s | r, q_prime).observational
    event = rectangle(space, {"Y": ["1"]})
    return CompositionWitness(
        cs, s, q, r, q_prime, event,
        event.probability(first), event.probability(second),
    )


def composition_counterexample() -> CompositionWitness:
    """Coupled-pair fixture; the extended intervention shifts Y=1 by 0.32."""
    return _composition_witness(0.82)


def composition_control() -> CompositionWitness:
    """Same construction with an uncoupled pair; the discrepancy vanishes."""
    return _composition_witness(0.5)


# ----------------------------------------------- reversibility failure


@dataclass(frozen=True)
class ReversibilityWitness:
    """Mutually consistent intervention measures that still disagree with
    the base measure: consistency under the kernels does not pin ℙ down."""

    cs: CausalSpace
    u: int
    r: int
    q_on_u: Dist
    q_on_r: Dist
    premise_error: float
    event: Event
    observed: float
    claimed: float

    @property
    def violation(self) -> float:
        return abs(self.observed - self.claimed)


def reversibility_counterexample() -> ReversibilityWitness:
    """Two-commodity cycle, quantized to three levels per side.

    Both cross-kernels are doubly stochastic, so the uniform pair is
    mutually consistent: intervening either side with uniform yields the
    uniform marginal on the other. The base measure is nowhere near
    uniform, so consistency says nothing about it.
    """
    space = FiniteProductSpace(
        (("amount", ("low", "mid", "high")), ("price", ("low", "mid", "high")))
    )
    amount, price = 0b01, 0b10
    to_price = np.array([[0.1, 0.2, 0.7], [0.2, 0.6, 0.2], [0.7, 0.2, 0.1]])
    to_amount = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
    p_amount = np.array([0.5, 0.3, 0.2])
    p_price = np.array([0.2, 0.3, 0.5])
    p = Dist(space, space.full, np.outer(p_amount, p_price).reshape(-1))
    kernels = (
        Kernel(space, 0, p.weights[None, :]),
        pinned_kernel(space, amount, to_price),
        pinned_kernel(space, price, to_amount),
        Kernel(space, space.full, np.eye(9)),
    )
    cs = CausalSpace(space, p, CausalMechanism(space, kernels))
    q_on_u = uniform(space, amount)
    q_on_r = uniform(space, price)
    premise_error = max(
        tv_distance(marginal(bind(q_on_u, cs.mechanism[amount]), price), q_on_r),
        tv_distance(marginal(bind(q_on_r, cs.mechanism[price]), amount), q_on_u),
    )
    event = rectangle(space, {"price": ["high"]})
    return ReversibilityWitness(
        cs, amount, price, q_on_u, q_on_r, premise_error,
        event, event.probability(p), event.probability(q_on_r),
    )


def reversibility_control() -> ReversibilityWitness:
    """Conditional mechanism on a product measure: here mutual consistency
    does force agreement with the base measure."""
    space = FiniteProductSpace(
        (("amount", ("low", "mid", "high")), ("price", ("low", "mid", "high")))
    )
    amount, price = 0b01, 0b10
    p_amount = np.array([0.5, 0.3, 0.2])
    p_price = np.array([0.2, 0.3, 0.5])
    p = Dist(space, space.full, np.outer(p_amount, p_price).reshape(-1))
    cs = CausalSpace(space, p, mechanism_from_conditionals(space, p))
    q_on_u = Dist(space, amount, p_amount)
    q_on_r = Dist(space, price, p_price)
    premise_error = max(
        tv_distance(marginal(bind(q_on_u, cs.mechanism[amount]), price), q_on_r),
        tv_distance(marginal(bind(q_on_r, cs.mechanism[price]), amount), q_on_u),
    )
    event = rectangle(space, {"price": ["high"]})
    return ReversibilityWitness(
        cs, amount, price, q_on_u, q_on_r, premise_error,
        event, event.probability(p), event.probability(q_on_r),
    )
