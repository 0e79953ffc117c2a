"""Causal-space validation and intervention semantics.

The intervention oracle here is a deliberately naive triple loop over row
atoms, internal-mechanism atoms, and columns; the library's einsum path must
reproduce it entry for entry.
"""

import itertools

import numpy as np
import pytest

from causalspaces import core as C
from causalspaces import measure as M
from causalspaces import subsets
from causalspaces.errors import DomainError

RNG = np.random.default_rng


def grid22():
    return M.FiniteProductSpace((("X", ("0", "1")), ("Y", ("0", "1"))))


def xor_space():
    """X Bernoulli(.5), Y = X xor noise(.1); conditionals as mechanism."""
    sp = grid22()
    p = M.Dist(sp, 3, [0.45, 0.05, 0.05, 0.45])
    return C.CausalSpace(sp, p, C.mechanism_from_conditionals(sp, p))


def random_space(seed, sizes=(2, 2, 3), style="random"):
    """Small valid space: random base measure, rows random on their fibers."""
    rng = RNG(seed)
    sp = M.FiniteProductSpace(
        tuple((f"c{t}", tuple(str(v) for v in range(s))) for t, s in enumerate(sizes))
    )
    p = M.Dist(sp, sp.full, rng.dirichlet(np.ones(sp.n_atoms) * 2.0))
    if style == "conditional":
        return C.CausalSpace(sp, p, C.mechanism_from_conditionals(sp, p))
    kernels = []
    for mask in subsets.all_masks(sp.n):
        n_rows = sp.n_atoms_of(mask)
        proj = sp.atom_projection(sp.full, mask)
        rows = np.zeros((n_rows, sp.n_atoms))
        for i in range(n_rows):
            fiber = proj == i
            rows[i, fiber] = rng.dirichlet(np.ones(int(fiber.sum())))
        if mask == 0:
            rows[0] = p.weights
        kernels.append(M.Kernel(sp, mask, rows))
    return C.CausalSpace(sp, p, C.CausalMechanism(sp, tuple(kernels)))


def random_internal(cs, u, seed):
    """Non-trivial internal mechanism: conditionals of a random joint on U."""
    rng = RNG(seed)
    sub = cs.space.subspace(u)
    q_joint = M.Dist(sub, sub.full, rng.dirichlet(np.ones(sub.n_atoms) * 3.0))
    internal = C.CausalSpace(sub, q_joint, C.mechanism_from_conditionals(sub, q_joint))
    q = M.Dist(cs.space, u, q_joint.weights)
    return q, internal


# ------------------------------------------------------------- validation


def test_valid_space_passes():
    assert C.validate_causal_space(xor_space()).ok
    for seed in range(5):
        assert C.validate_causal_space(random_space(seed)).ok


def test_base_measure_mismatch_reported():
    cs = xor_space()
    other = M.Dist(cs.space, 3, [0.25, 0.25, 0.25, 0.25])
    broken = C.CausalSpace(cs.space, other, cs.mechanism)
    report = C.validate_causal_space(broken)
    assert not report.ok
    assert any(v.kind == "base-measure-mismatch" and v.subset == 0 for v in report.violations)


def test_non_point_marginal_reported_with_location():
    cs = xor_space()
    rows = cs.mechanism[0b01].matrix.copy()
    rows[1] = [0.25, 0.25, 0.25, 0.25]  # mass leaks off the X=1 fiber
    kernels = list(cs.mechanism.kernels)
    kernels[0b01] = M.Kernel(cs.space, 0b01, rows)
    broken = C.CausalSpace(cs.space, cs.observational, C.CausalMechanism(cs.space, tuple(kernels)))
    report = C.validate_causal_space(broken)
    hits = [v for v in report.violations if v.subset == 0b01]
    assert hits and all(v.row == 1 for v in hits)
    assert all(v.kind == "row-marginal-not-point-mass" for v in hits)


# -------------------------------------------- determinism <-> event identity


def _event_identity_max_violation(space, kernel, s_mask):
    """max |k(w, A&B) - 1_A(w) k(w, B)| over all A in the S-algebra, all B."""
    n_s = space.n_atoms_of(s_mask)
    n = space.n_atoms
    proj = space.atom_projection(space.full, s_mask)
    a_events = np.array(list(itertools.product([False, True], repeat=n_s)), dtype=bool)
    b_events = np.array(list(itertools.product([False, True], repeat=n)), dtype=float)
    ia = a_events[:, proj].astype(float)  # cylinders of the S-algebra
    worst = 0.0
    for r in range(n_s):
        lhs = (ia * kernel.matrix[r][None, :]) @ b_events.T
        rhs = np.outer(a_events[:, r].astype(float), kernel.matrix[r] @ b_events.T)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_point_marginal_rows_satisfy_event_identity():
    cs = random_space(7, sizes=(2, 2, 2))
    for s_mask in subsets.all_masks(cs.space.n):
        assert _event_identity_max_violation(cs.space, cs.mechanism[s_mask], s_mask) < 1e-12


def test_event_identity_detects_leaky_row():
    cs = random_space(8, sizes=(2, 2, 2))
    rows = cs.mechanism[0b011].matrix.copy()
    rows[0] = 0.7 * rows[0] + 0.3 * rows[3]  # mix in another fiber's mass
    leaky = M.Kernel(cs.space, 0b011, rows)
    assert _event_identity_max_violation(cs.space, leaky, 0b011) > 0.01


# --------------------------------------------------------- trivial kernels


def test_trivial_internal_product_rows():
    sp = grid22()
    q = M.Dist(sp, 3, [0.25, 0.25, 0.25, 0.25])
    mech = C.trivial_internal(sp, 3, q).mechanism
    np.testing.assert_allclose(mech[0b01].matrix[0], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(mech[0].matrix[0], q.weights, atol=1e-15)


def test_trivial_internal_valid_even_for_coupled_measure():
    sp = grid22()
    q = M.Dist(sp, 3, [0.45, 0.05, 0.05, 0.45])  # far from a product
    internal = C.trivial_internal(sp, 3, M.Dist(sp, 3, q.weights))
    assert C.validate_causal_space(internal).ok


def test_conditional_mechanism_row_oracle():
    sp = grid22()
    p = M.Dist(sp, 3, [0.5, 0.3, 0.1, 0.1])
    mech = C.mechanism_from_conditionals(sp, p)
    np.testing.assert_allclose(mech[0b01].matrix[1], [0.0, 0.0, 0.5, 0.5], atol=1e-15)


def test_conditional_mechanism_caches_no_dense_matrix():
    sp = M.FiniteProductSpace(tuple((f"X{t}", ("0", "1", "2")) for t in range(4)))
    p = M.Dist(sp, sp.full, RNG(0).dirichlet(np.ones(sp.n_atoms)))
    C.mechanism_from_conditionals(sp, p)
    # only integer projection tables stay; fiber indicators would rival the mechanism
    assert sp._cache
    assert not [k for k, v in sp._cache.items() if v.dtype == np.float64]


# ------------------------------------------------------------ intervening


def test_empty_intervention_is_identity():
    cs = xor_space()
    q = M.Dist(cs.space, 0, [1.0])
    out = C.intervene_hard(cs, 0, q)
    assert np.array_equal(out.observational.weights, cs.observational.weights)
    for mask in subsets.all_masks(cs.space.n):
        assert np.array_equal(out.mechanism[mask].matrix, cs.mechanism[mask].matrix)


def test_xor_point_intervention():
    cs = xor_space()
    y1 = M.rectangle(cs.space, {"Y": {"1"}})
    done = C.intervene_hard(cs, 0b01, M.dirac(cs.space, M.Atom(0b01, 1)))
    assert y1.probability(done.observational) == pytest.approx(0.9, abs=1e-12)
    done0 = C.intervene_hard(cs, 0b01, M.dirac(cs.space, M.Atom(0b01, 0)))
    assert y1.probability(done0.observational) == pytest.approx(0.1, abs=1e-12)


def _naive_soft_kernel(cs, internal, u, s):
    """Triple-loop reference for the re-routed subset-S kernel."""
    space = cs.space
    inside, outside, union = s & u, s & ~u, s | u
    sub = space.subspace(u)
    local = subsets.local_mask(inside, u)
    mix = internal.mechanism[local].matrix
    out = np.zeros((space.n_atoms_of(s), space.n_atoms))
    for i in range(space.n_atoms_of(s)):
        labels = space.labels_of(M.Atom(s, i))
        v_at = sub.atom_from_labels({k: v for k, v in labels.items() if space.index_of(k) in set(subsets.bits(inside))}) if inside else M.Atom(0, 0)
        for j in range(space.n_atoms_of(u)):
            u_labels = space.subspace(u).labels_of(M.Atom(sub.full, j))
            combined = dict(labels)
            combined.update(u_labels)
            merged = {k: v for k, v in combined.items() if space.index_of(k) in set(subsets.bits(union))}
            at = space.atom_from_labels(merged) if union else M.Atom(0, 0)
            out[i] += mix[v_at.index, j] * cs.mechanism[union].matrix[at.index]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_soft_intervention_matches_naive_loops(seed):
    cs = random_space(seed, sizes=(2, 3, 2))
    u = [0b011, 0b101, 0b110, 0b010][seed % 4]
    q, internal = random_internal(cs, u, seed + 100)
    done = C.intervene(cs, C.InterventionSpec(u, q, internal))
    for s in subsets.all_masks(cs.space.n):
        ref = _naive_soft_kernel(cs, internal, u, s)
        np.testing.assert_allclose(done.mechanism[s].matrix, ref, atol=1e-12)
    np.testing.assert_allclose(
        done.observational.weights, q.weights @ cs.mechanism[u].matrix, atol=1e-12
    )


@pytest.mark.parametrize("seed", range(4))
def test_hard_equals_generic_through_trivial(seed):
    cs = random_space(seed + 20, sizes=(2, 2, 3))
    rng = RNG(seed + 500)
    u = int(rng.integers(1, cs.space.full + 1))
    q = M.Dist(cs.space, u, rng.dirichlet(np.ones(cs.space.n_atoms_of(u))))
    hard = C.intervene_hard(cs, u, q)
    soft = C.intervene(cs, C.InterventionSpec(u, q, C.trivial_internal(cs.space, u, q)))
    for s in subsets.all_masks(cs.space.n):
        np.testing.assert_allclose(
            hard.mechanism[s].matrix, soft.mechanism[s].matrix, atol=1e-12
        )


@pytest.mark.parametrize("seed", range(3))
def test_intervened_space_validates_and_is_effective(seed):
    cs = random_space(seed + 40)
    rng = RNG(seed + 700)
    u = int(rng.integers(1, cs.space.full + 1))
    q, internal = random_internal(cs, u, seed + 41)
    done = C.intervene(cs, C.InterventionSpec(u, q, internal))
    assert C.validate_causal_space(done).ok
    # effectiveness: the new measure restricted to any part of U is q there
    for s_sub in subsets.all_masks(cs.space.n):
        if not subsets.is_subset(s_sub, u):
            continue
        np.testing.assert_allclose(
            M.marginal(done.observational, s_sub).weights,
            M.marginal(q, s_sub).weights,
            atol=1e-9,
        )


def test_closed_form_special_cases():
    cs = random_space(99, sizes=(2, 2, 2))
    u = 0b011
    q, internal = random_internal(cs, u, 77)
    done = C.intervene(cs, C.InterventionSpec(u, q, internal))
    # contained subset: kernel unchanged
    hard = C.intervene_hard(cs, u, q)
    for s in subsets.all_masks(cs.space.n):
        if subsets.is_subset(u, s):
            np.testing.assert_allclose(
                hard.mechanism[s].matrix, cs.mechanism[s].matrix, atol=1e-12
            )
    # subset inside U: rows are the internal rows routed through the U-kernel
    for s in (0b001, 0b010, 0b011):
        local = subsets.local_mask(s, u)
        expect = internal.mechanism[local].matrix @ cs.mechanism[u].matrix
        np.testing.assert_allclose(done.mechanism[s].matrix, expect, atol=1e-12)
        # restricted to U-cylinder events the kernel is the internal one
        keep = cs.space.atom_projection(cs.space.full, u)
        onehot = (keep[None, :] == np.arange(cs.space.n_atoms_of(u))[:, None]).astype(float)
        np.testing.assert_allclose(
            done.mechanism[s].matrix @ onehot.T,
            internal.mechanism[local].matrix,
            atol=1e-12,
        )
    # disjoint subset: mixture of union rows under q itself
    s = 0b100
    joint = cs.mechanism[s | u].matrix
    e_s = cs.space.atom_embedding(s, s | u)
    e_u = cs.space.atom_embedding(u, s | u)
    expect = np.einsum("u,suo->so", q.weights, joint[e_s[:, None] + e_u[None, :]])
    np.testing.assert_allclose(hard.mechanism[s].matrix, expect, atol=1e-12)


@pytest.mark.parametrize("path", ["hard", "generic"])
def test_kernels_over_supersets_of_u_are_shared(path):
    cs = random_space(5, sizes=(2, 3, 2))
    u = 0b101
    q, internal = random_internal(cs, u, 13)
    if path == "hard":
        done = C.intervene_hard(cs, u, q)
    else:
        done = C.intervene(cs, C.InterventionSpec(u, q, internal))
    for s in subsets.all_masks(cs.space.n):
        # Remark D.1(a): a kernel handed every intervened coordinate is unchanged
        assert (done.mechanism[s] is cs.mechanism[s]) == subsets.is_subset(u, s)


# ------------------------------------------------------------- spec checks


def test_spec_rejects_mismatched_measure():
    cs = xor_space()
    q = M.Dist(cs.space, 0b10, [0.5, 0.5])
    with pytest.raises(DomainError):
        C.intervene_hard(cs, 0b01, q)


def test_generic_spec_rejects_mismatched_measure():
    cs = xor_space()
    internal = C.trivial_internal(cs.space, 0b01, M.Dist(cs.space, 0b01, [0.5, 0.5]))
    q = M.Dist(cs.space, 0b10, [0.5, 0.5])
    with pytest.raises(DomainError, match="intervened subset"):
        C.intervene(cs, C.InterventionSpec(0b01, q, internal))


def test_intervene_refuses_an_internal_that_is_not_a_causal_space():
    cs = xor_space()
    q = M.Dist(cs.space, 0b01, [0.3, 0.7])
    mechanism = C.trivial_internal(cs.space, 0b01, q).mechanism
    for internal in (None, "hard", mechanism):
        with pytest.raises(DomainError, match="must be a CausalSpace"):
            C.intervene(cs, C.InterventionSpec(0b01, q, internal))


def test_intervene_leaves_the_empty_subset_to_intervene_hard():
    cs = xor_space()
    q = M.Dist(cs.space, 0, [1.0])
    internal = C.trivial_internal(cs.space, 0b01, M.Dist(cs.space, 0b01, [0.5, 0.5]))
    with pytest.raises(DomainError, match="at least one component"):
        C.intervene(cs, C.InterventionSpec(0, q, internal))


def test_spec_rejects_internal_measure_disagreement():
    cs = xor_space()
    q = M.Dist(cs.space, 0b01, [0.3, 0.7])
    other = C.trivial_internal(cs.space, 0b01, M.Dist(cs.space, 0b01, [0.5, 0.5]))
    with pytest.raises(DomainError):
        C.intervene(cs, C.InterventionSpec(0b01, q, other))


def test_spec_rejects_invalid_internal():
    cs = random_space(3)
    u = 0b011
    q, internal = random_internal(cs, u, 11)
    sub = internal.space
    rows = internal.mechanism[0b01].matrix.copy()
    rows[0] = rows[1]  # wrong fiber: breaks the point-marginal property
    kernels = list(internal.mechanism.kernels)
    kernels[0b01] = M.Kernel(sub, 0b01, rows)
    broken = C.CausalSpace(sub, internal.observational, C.CausalMechanism(sub, tuple(kernels)))
    with pytest.raises(DomainError):
        C.intervene(cs, C.InterventionSpec(u, q, broken))
