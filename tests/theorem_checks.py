"""Identity checks over random causal spaces, shared by the acceptance suite.

Each check returns a list of violation strings (empty when clean). Checks
whose statement is an implication also bump a named counter when the
premise actually fired, so the caller can prove the suite is not passing
vacuously.
"""

from collections import Counter

import numpy as np

from causalspaces import subsets
from causalspaces.compilers import compile_scm
from causalspaces.core import (
    CausalSpace,
    InterventionSpec,
    intervene,
    intervene_hard,
    mechanism_from_conditionals,
    trivial_internal,
    validate_causal_space,
)
from causalspaces.effects import (
    EffectClass,
    classify_effect,
    classify_effect_on_subset,
    has_no_effect_given,
    is_global_source,
    is_time_respecting,
)
from causalspaces.harness import RandomSpaceConfig, random_causal_space, random_scm
from causalspaces.measure import Dist, Event, marginal, product_weights

TOL = 1e-9
KERNEL_STYLES = ("conditional", "perturbed-conditional", "random")


def suite_space(seed: int) -> CausalSpace:
    """Space number `seed` of the 200-strong pool: half generator, half SCM."""
    if seed < 100:
        cfg = RandomSpaceConfig(
            seed=seed,
            n_components=seed % 4 + 1,
            max_outcomes=3,
            kernel_style=KERNEL_STYLES[seed % 3],
        )
        return random_causal_space(cfg)
    return compile_scm(random_scm(seed))


def random_event(space, rng) -> Event:
    """Proper event (neither null nor sure) on a random nonempty domain."""
    while True:
        domain = int(rng.integers(1, space.full + 1))
        flags = rng.random(space.n_atoms_of(domain)) < 0.5
        if 0 < flags.sum() < flags.size:
            return Event(space, domain, flags)


def random_measure(space, u: int, rng) -> Dist:
    w = rng.dirichlet(np.ones(space.n_atoms_of(u))) + 1e-3
    return Dist(space, u, w / w.sum())


def conditional_internal(space, u: int, q: Dist) -> CausalSpace:
    sub = space.subspace(u)
    q_sub = Dist(sub, sub.full, q.weights)
    return CausalSpace(sub, q_sub, mechanism_from_conditionals(sub, q_sub))


def _err(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0))


def _internal_matrix(cs: CausalSpace, spec: InterventionSpec, s: int) -> np.ndarray:
    """Rows of L_{S} over the subset product, for S inside the intervened set."""
    return spec.internal.mechanism[subsets.local_mask(s, spec.subset)].matrix


def check_empty_intervention(cs: CausalSpace) -> list[str]:
    """Intervening on the trivial sub-σ-algebra changes nothing."""
    done = intervene_hard(cs, 0, Dist(cs.space, 0, [1.0]))
    out = []
    if _err(done.observational.weights, cs.observational.weights) > TOL:
        out.append("empty intervention moved the measure")
    for mask in subsets.all_masks(cs.space.n):
        if _err(done.mechanism[mask].matrix, cs.mechanism[mask].matrix) > TOL:
            out.append(f"empty intervention moved kernel {mask}")
    return out


def check_intervention(cs: CausalSpace, spec: InterventionSpec):
    """Validity theorem, Remark D.1(a)(b)(c), and effectiveness in one pass.

    Returns (intervened space, violations).
    """
    space = cs.space
    u, q = spec.subset, spec.measure
    done = intervene(cs, spec)
    out = [
        "validity: " + v.describe()
        for v in validate_causal_space(done, TOL).violations
    ]

    # flags the full atoms over each atom of U, built from coordinates
    fibers_u = np.zeros((space.n_atoms, space.n_atoms_of(u)))
    for j in range(space.n_atoms):
        coords = space.coords_of(space.full, j)
        fibers_u[j, space.flat_of(u, [coords[t] for t in subsets.indices_of(u)])] = 1.0
    for s in subsets.all_masks(space.n):
        m_do = done.mechanism[s].matrix
        if subsets.is_subset(u, s):
            if _err(m_do, cs.mechanism[s].matrix) > TOL:
                out.append(f"D.1(a) fails at S={s}")
        if subsets.is_subset(s, u):
            left = _internal_matrix(cs, spec, s)
            want = left @ cs.mechanism[u].matrix
            if _err(m_do, want) > TOL:
                out.append(f"D.1(b) fails at S={s}")
            if _err(m_do @ fibers_u, left) > TOL:
                out.append(f"D.1(b) restriction to the intervened algebra fails at S={s}")
        if s & u == 0:
            emb_s = space.atom_embedding(s, s | u)
            emb_u = space.atom_embedding(u, s | u)
            stacked = cs.mechanism[s | u].matrix[np.add.outer(emb_s, emb_u)]
            want = np.tensordot(stacked, q.weights, axes=([1], [0]))
            if _err(m_do, want) > TOL:
                out.append(f"D.1(c) fails at S={s}")

    for s in subsets.all_masks(space.n):
        if subsets.is_subset(s, u):
            got = marginal(done.observational, s).weights
            if _err(got, marginal(q, s).weights) > TOL:
                out.append(f"effectiveness fails at S={s}")
    return done, out


def check_hard_vs_generic(cs: CausalSpace, u: int, q: Dist):
    hard = intervene_hard(cs, u, q)
    if u:
        generic = intervene(cs, InterventionSpec(u, q, trivial_internal(cs.space, u, q)))
    else:
        generic = intervene_hard(cs, u, q)
    out = []
    if _err(hard.observational.weights, generic.observational.weights) > TOL:
        out.append("hard vs generic measures differ")
    for mask in subsets.all_masks(cs.space.n):
        if _err(hard.mechanism[mask].matrix, generic.mechanism[mask].matrix) > TOL:
            out.append(f"hard vs generic kernel {mask} differs")
    return hard, out


def check_effect_identities(cs: CausalSpace, events, rng) -> tuple[list[str], Counter]:
    """Remark C.2(d)(e)(g)(h) and Remark C.5(d)."""
    space = cs.space
    masks = list(subsets.all_masks(space.n))
    out: list[str] = []
    hits: Counter = Counter()

    for a in events:
        classes = {v: classify_effect(cs, v, a) for v in masks}
        ind = a.indicator(space.full)
        none_sets = [v for v in masks if classes[v] is EffectClass.NONE]

        for u in none_sets:
            for v in masks:
                if subsets.is_subset(v, u) and classes[v] is not EffectClass.NONE:
                    out.append(f"C.2(e) fails: {u} NONE but subset {v} is {classes[v]}")
                if subsets.is_subset(v, u) and v not in (0, u):
                    hits["C.2(e)"] += 1

                vals_v = cs.mechanism[v].matrix @ ind
                vals_uv = cs.mechanism[u | v].matrix @ ind
                lhs = vals_v[space.atom_projection(space.full, v)]
                rhs = vals_uv[space.atom_projection(space.full, u | v)]
                if _err(lhs, rhs) > TOL:
                    out.append(f"C.2(g) fails: {u} NONE but K_{v} and K_{u | v} differ on the event")
                hits["C.2(g)"] += 1

                if not has_no_effect_given(cs, u, v, a, tol=TOL):
                    out.append(f"C.5(d) fails: {u} NONE but effect given {v}")
                hits["C.5(d)"] += 1

        for u in none_sets:
            for v in none_sets:
                union = u | v
                if classes[union] is not EffectClass.NONE:
                    out.append(f"C.2(h) fails: {u},{v} NONE but union is {classes[union]}")
                if union not in (u, v):
                    hits["C.2(h)"] += 1

    for _ in range(2):
        u = int(rng.integers(0, space.full + 1))
        on_subset = {v: classify_effect_on_subset(cs, u, v) for v in masks}
        for v in masks:
            if on_subset[v] is not EffectClass.NONE:
                continue
            for w in masks:
                if subsets.is_subset(w, v):
                    if w != v:
                        hits["C.2(d)"] += 1
                    if on_subset[w] is not EffectClass.NONE:
                        out.append(
                            f"C.2(d) fails: no effect on algebra {v} but {on_subset[w]} on {w}"
                        )
    return out, hits


def check_d4(cs: CausalSpace, spec: InterventionSpec, done, hard_done, events, rng):
    """Lemma D.4(i)(ii)(iii)."""
    space = cs.space
    u = spec.subset
    out: list[str] = []
    hits: Counter = Counter()

    if u:
        sub_event = random_event_on(space, u, rng)
        for v in subsets.all_masks(space.n):
            if v & u:
                continue
            got = classify_effect(done, v, sub_event)
            hits["D.4(i)"] += 1
            if got is not EffectClass.NONE:
                out.append(f"D.4(i) fails: {v} classifies {got} on an intervened event")

    for a in events:
        for v in subsets.all_masks(space.n):
            before = classify_effect(cs, v, a)
            if before is not EffectClass.NONE:
                continue
            if v & u == 0:
                hits["D.4(ii)"] += 1
                after = classify_effect(done, v, a)
                if after is not EffectClass.NONE:
                    out.append(f"D.4(ii) fails: NONE {v} became {after}")
            hits["D.4(iii)"] += 1
            after_hard = classify_effect(hard_done, v, a)
            if after_hard is not EffectClass.NONE:
                out.append(f"D.4(iii) fails: NONE {v} became {after_hard} under hard")
    return out, hits


def random_event_on(space, domain: int, rng) -> Event:
    """Proper event measurable on exactly the given nonempty domain."""
    n = space.n_atoms_of(domain)
    if n < 2:
        return Event(space, domain, np.ones(n, dtype=bool))
    while True:
        flags = rng.random(n) < 0.5
        if 0 < flags.sum() < n:
            return Event(space, domain, flags)


def check_d6(cs: CausalSpace, events, rng):
    """Lemma D.6: conditional no-effect survives intervening on the condition."""
    space = cs.space
    out: list[str] = []
    hits: Counter = Counter()
    for a in events:
        for _ in range(2):
            u = int(rng.integers(0, space.full + 1))
            v = int(rng.integers(0, space.full + 1))
            if not has_no_effect_given(cs, u, v, a, tol=TOL):
                continue
            if u & ~v:
                hits["D.6"] += 1
            q_v = random_measure(space, v, rng) if v else Dist(space, 0, [1.0])
            done = intervene_hard(cs, v, q_v)
            got = classify_effect(done, u & ~v, a)
            if got is not EffectClass.NONE:
                out.append(f"D.6 fails: u={u} v={v} classifies {got} after intervening")
    return out, hits


def check_d7(cs: CausalSpace, partition, rng) -> list[str]:
    """Theorem D.7: hard interventions preserve time-respecting mechanisms."""
    out = []
    if not is_time_respecting(cs, partition, tol=TOL):
        return [f"premise: partition {partition} is not time-respecting"]
    space = cs.space
    for _ in range(2):
        u = int(rng.integers(1, space.full + 1))
        done = intervene_hard(cs, u, random_measure(space, u, rng))
        if not is_time_respecting(done, partition, tol=TOL):
            out.append(f"D.7 fails after intervening on {u}")
    return out


def check_sources(cs: CausalSpace, spec: InterventionSpec, done, rng) -> list[str]:
    """Source theorems: (i) intervened set, (ii) factorizing hard sub-block."""
    space = cs.space
    u = spec.subset
    out = []
    if not is_global_source(done, u, tol=TOL):
        out.append(f"source (i) fails: {u} is not a global source after intervening")

    if u:
        u_bits = list(subsets.bits(u))
        k = int(rng.integers(1, len(u_bits) + 1))
        v = subsets.mask_of(rng.choice(u_bits, size=k, replace=False).tolist())
        sub = space.subspace(u)
        parts = []
        for piece in (v, u & ~v):
            if piece:
                local = subsets.local_mask(piece, u)
                w = rng.dirichlet(np.ones(sub.n_atoms_of(local))) + 1e-3
                parts.append((local, w / w.sum()))
        q_w = product_weights(sub, parts, sub.full)
        done2 = intervene_hard(cs, u, Dist(space, u, q_w))
        if not is_global_source(done2, v, tol=TOL):
            out.append(f"source (ii) fails: factorized {v} inside {u}")
    return out


def run_suite(seed: int) -> tuple[list[str], Counter]:
    """All criterion identities on suite space `seed`; returns violations, hits."""
    cs = suite_space(seed)
    space = cs.space
    rng = np.random.default_rng(seed + 77_000)
    out: list[str] = []
    hits: Counter = Counter()

    out += ["validity(base): " + v.describe() for v in validate_causal_space(cs, TOL).violations]
    out += check_empty_intervention(cs)

    events = [random_event(space, rng) for _ in range(2)]

    u = int(rng.integers(1, space.full + 1))
    q = random_measure(space, u, rng)
    if seed % 2:
        spec = InterventionSpec(u, q, conditional_internal(space, u, q))
    else:
        spec = InterventionSpec(u, q, trivial_internal(space, u, q))

    done, errs = check_intervention(cs, spec)
    out += errs
    hard_done, errs = check_hard_vs_generic(cs, u, q)
    out += errs

    errs, h = check_effect_identities(cs, events, rng)
    out += errs
    hits += h
    errs, h = check_d4(cs, spec, done, hard_done, events, rng)
    out += errs
    hits += h
    errs, h = check_d6(cs, events, rng)
    out += errs
    hits += h
    out += check_sources(cs, spec, done, rng)

    if seed >= 100:
        # compiled models are time-respecting along their topological order
        partition = [1 << t for t in range(space.n)]
        out += check_d7(cs, partition, rng)

    return [f"seed {seed}: {msg}" for msg in out], hits
