"""Measure layer: spaces, distributions, events, kernels.

Expected vectors in the oracle tests are frozen from pencil-and-paper
computations on 2x2 grids (fiber sums, renormalised fibers, outer products,
mixtures of kernel rows), not from running the code under test.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalspaces import measure as M
from causalspaces import subsets
from causalspaces.core import CausalMechanism, CausalSpace, validate_causal_space
from causalspaces.errors import CapError, DomainError, NullSetError


def grid22():
    return M.FiniteProductSpace((("A", ("0", "1")), ("B", ("0", "1"))))


# ---------------------------------------------------------------- oracles


def test_marginal_oracle():
    sp = grid22()
    d = M.Dist(sp, 3, [0.5, 0.3, 0.1, 0.1])
    # fiber sums: A=0 -> .5+.3, A=1 -> .1+.1
    np.testing.assert_allclose(M.marginal(d, 0b01).weights, [0.8, 0.2], atol=1e-15)
    np.testing.assert_allclose(M.marginal(d, 0b10).weights, [0.6, 0.4], atol=1e-15)


def test_condition_oracle():
    sp = grid22()
    d = M.Dist(sp, 3, [0.5, 0.3, 0.1, 0.1])
    got = M.condition(d, M.Atom(0b01, 1))
    # renormalised A=1 fiber: [.1,.1]/.2
    np.testing.assert_allclose(got.weights, [0.0, 0.0, 0.5, 0.5], atol=1e-15)
    assert got.domain == 3


def test_product_oracle():
    sp = grid22()
    a = M.Dist(sp, 0b01, [0.7, 0.3])
    b = M.Dist(sp, 0b10, [0.5, 0.5])
    np.testing.assert_allclose(
        M.product_dist(a, b).weights, [0.35, 0.35, 0.15, 0.15], atol=1e-15
    )


def test_bind_is_row_mixture():
    sp = grid22()
    rows = np.array([[0.4, 0.6, 0.0, 0.0], [0.0, 0.0, 0.1, 0.9]])
    k = M.Kernel(sp, 0b01, rows)
    q = M.Dist(sp, 0b01, [0.5, 0.5])
    np.testing.assert_allclose(
        M.bind(q, k).weights, 0.5 * rows[0] + 0.5 * rows[1], atol=1e-15
    )


def test_conditional_kernel_oracle():
    sp = grid22()
    d = M.Dist(sp, 3, [0.5, 0.3, 0.1, 0.1])
    k = M.conditional_kernel(d, 0b01)
    np.testing.assert_allclose(k.matrix[1], [0.0, 0.0, 0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(k.matrix[0], [0.625, 0.375, 0.0, 0.0], atol=1e-15)


def test_dirac():
    sp = grid22()
    d = M.dirac(sp, M.Atom(3, 2))
    assert d.weights[2] == 1.0 and d.weights.sum() == 1.0
    np.testing.assert_array_equal(M.marginal(d, 0b01).weights, [0.0, 1.0])


def grid23():
    return M.FiniteProductSpace((("A", ("0", "1")), ("B", ("0", "1", "2"))))


OUT_OF_RANGE = {
    "coords_of-past-end": lambda sp: sp.coords_of(0b11, 7),
    "coords_of-negative": lambda sp: sp.coords_of(0b11, -1),
    "labels_of": lambda sp: sp.labels_of(M.Atom(0b11, 9)),
    "dirac-negative": lambda sp: M.dirac(sp, M.Atom(0b11, -1)),
    "dirac-past-end": lambda sp: M.dirac(sp, M.Atom(0b11, 6)),
    "condition": lambda sp: M.condition(M.uniform(sp, sp.full), M.Atom(0b01, 5)),
    "mask_of-duplicate": lambda sp: sp.mask_of(["A", "A"]),
    "local_mask-not-contained": lambda sp: subsets.local_mask(0b01, 0b10),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_indices_outside_their_range_are_a_domain_error(case):
    # a wrapped-around index would read another atom, and a raw IndexError
    # or ValueError would escape the typed errors
    with pytest.raises(DomainError):
        OUT_OF_RANGE[case](grid23())


# ------------------------------------------------------- constructor rules


def test_weights_window():
    sp = grid22()
    with pytest.raises(DomainError):
        M.Dist(sp, 3, [0.5, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        M.Dist(sp, 3, [0.3, 0.3, 0.3, 0.3])
    # inside the 1e-6 window: renormalised
    d = M.Dist(sp, 3, [0.25, 0.25, 0.25, 0.25 + 5e-7])
    assert abs(d.weights.sum() - 1.0) <= 1e-9


def test_weights_negative():
    sp = grid22()
    with pytest.raises(DomainError):
        M.Dist(sp, 3, [0.5, 0.6, -0.1, 0.0])
    # float noise below the tolerance is clamped
    d = M.Dist(sp, 3, [0.5, 0.5, -1e-12, 1e-12])
    assert d.weights[2] == 0.0


def test_weights_nan_rejected():
    sp = grid22()
    with pytest.raises(DomainError, match="NaN"):
        M.Dist(sp, 0b01, [np.nan, 0.5])


def test_overflowing_totals_are_a_domain_error():
    # each total overflows to inf, which the weight window refuses with no numpy warning
    sp = grid22()
    with pytest.raises(DomainError, match="distribution weights sum to inf"):
        M.Dist(sp, 0b01, [1e308, 1e308])
    with pytest.raises(DomainError, match="kernel weights sum to inf"):
        M.Kernel(sp, 0b01, law=[1e308, 1e308])
    with pytest.raises(DomainError, match="kernel row 1 weights sum to inf"):
        M.Kernel(sp, 0b01, law=[[0.5, 0.5], [1e308, 1e308]])
    with pytest.raises(DomainError, match="kernel row 0 weights sum to inf"):
        M.Kernel(sp, 0b01, [[1e308, 0.0, 1e308, 0.0], [0.0, 0.5, 0.0, 0.5]])


def test_normalisation_idempotent_bitwise():
    sp = grid22()
    w = np.array([0.5, 0.3, 0.1, 0.1])
    one = M.Dist(sp, 3, w)
    two = M.Dist(sp, 3, one.weights)
    assert np.array_equal(one.weights, two.weights)


def test_null_conditioning_is_hard_error():
    sp = grid22()
    d = M.Dist(sp, 3, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(NullSetError):
        M.condition(d, M.Atom(0b01, 1))
    with pytest.raises(NullSetError):
        M.conditional_kernel(d, 0b01)


def test_component_cap():
    # the rule counts the laws, their cached law cells and the objects of each
    # subset, (16 * n_atoms + SUBSET_BYTES) * 2^n bytes: 13 components of 4
    # outcomes need 8.8e12
    comps = tuple((f"c{t}", ("0", "1", "2", "3")) for t in range(13))
    with pytest.raises(CapError, match=r"needs 8\.80e\+12 bytes"):
        M.FiniteProductSpace(comps)
    # 12 binary components need 272 MB (17.4 GB as dense rows)
    assert M.FiniteProductSpace(tuple((f"c{t}", ("0", "1")) for t in range(12))).n == 12
    # the rule counts bytes, not components: 13 one-outcome components need 8.5 MB
    assert M.FiniteProductSpace(tuple((f"c{t}", ("0",)) for t in range(13))).n == 13
    # a size beyond float range still makes a one-line CapError
    with pytest.raises(CapError, match=r"needs 1\.90e\+390 bytes"):
        M.FiniteProductSpace(tuple((f"c{t}", ("0", "1", "2")) for t in range(500)))


def test_space_rule_counts_the_objects_of_each_subset(monkeypatch):
    monkeypatch.setattr(M, "_physical_memory", lambda: 8 * 2**30)
    ones = [(f"c{t}", ("0",)) for t in range(23)]
    # 2^23 one-atom laws take 134 MB, but their kernels and cache entries about 9 GB
    with pytest.raises(CapError, match=r"23 components needs 8\.72e\+9 bytes"):
        M.FiniteProductSpace(tuple(ones))
    assert M.FiniteProductSpace(tuple(ones[:22])).n == 22


def test_size_rule_is_physical_memory(monkeypatch):
    limit = M._physical_memory()
    M.check_fits(limit, "an array of exactly physical memory")
    with pytest.raises(CapError, match="one byte too many needs"):
        M.check_fits(limit + 1, "one byte too many")

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    # where sysconf cannot report the memory, nothing is refused
    monkeypatch.setattr(M.os, "sysconf", unknown)
    assert M._physical_memory.__wrapped__() == float("inf")


def test_kernel_row_window():
    sp = grid22()
    with pytest.raises(DomainError):
        M.Kernel(sp, 0b01, [[0.4, 0.4, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    with pytest.raises(DomainError):
        M.Kernel(sp, 0b01, np.ones((3, 4)) * 0.25)


def test_kernel_nan_rejected():
    sp = grid22()
    with pytest.raises(DomainError, match="NaN"):
        M.Kernel(sp, 0, [[np.nan, 1.0, 0.0, 0.0]])


def test_law_kernel_keeps_its_table_read_only():
    sp = grid232()
    law = np.full((6, 2), 0.5)
    k = M.Kernel(sp, 0b011, law=law)
    # an array that owns its data is frozen in place, so no one can write to the kernel
    assert k.law is law and not law.flags.writeable
    assert k.leaky_rows is None
    # a view of writable memory is copied, since its owner could still write through it
    owner = np.full((6, 3), 0.5)
    for view in (owner[:, :2], np.broadcast_to(owner[0, :2], (6, 2))):
        k = M.Kernel(sp, 0b011, law=view)
        assert not np.shares_memory(k.law, owner) and not k.law.flags.writeable
    assert owner.flags.writeable
    # one shared law is kept as a broadcast view of its frozen self
    shared = np.array([0.25, 0.75])
    k = M.Kernel(sp, 0b011, law=shared)
    assert np.shares_memory(k.law, shared) and not shared.flags.writeable
    assert k.law.shape == (6, 2) and k.law.strides[0] == 0
    with pytest.raises(DomainError, match=r"kernel law shape \(6, 3\), expected \(6, 2\)"):
        M.Kernel(sp, 0b011, law=np.full((6, 3), 1 / 3))
    with pytest.raises(DomainError, match="either dense rows or its law"):
        M.Kernel(sp, 0b011)
    with pytest.raises(DomainError, match="either dense rows or its law"):
        M.Kernel(sp, 0b011, k.matrix, law=law)
    with pytest.raises(DomainError, match="kernel row 1 weights sum to"):
        M.Kernel(sp, 0b011, law=[[0.5, 0.5], [0.5, 0.4]] + [[0.5, 0.5]] * 4)


def test_dense_rows_become_a_law_unless_they_leak():
    sp = grid232()
    rng = np.random.default_rng(3)
    law = rng.dirichlet(np.ones(3), size=4)  # source A,C; complement B
    dense = M.Kernel(sp, 0b101, law=law).matrix
    k = M.Kernel(sp, 0b101, dense)
    assert k.leaky_rows is None
    assert np.array_equal(k.law, law) and np.array_equal(k.matrix, dense)
    leaky = dense.copy()
    leaky[2] = np.roll(leaky[2], 1)
    k = M.Kernel(sp, 0b101, leaky)
    # kept verbatim for validation and the dense view; the law holds the on-fiber part
    assert np.array_equal(k.leaky_rows, leaky) and k.matrix is k.leaky_rows
    on_fiber = k.law.sum(axis=1)
    assert on_fiber[2] < 1.0 and np.allclose(np.delete(on_fiber, 2), 1.0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_law_operations_match_the_dense_view(data):
    space, d = data.draw(space_and_dist(full_support=True))
    mask = data.draw(st.integers(0, space.full))
    k = M.conditional_kernel(d, mask)
    q = M.marginal(d, mask)
    assert np.array_equal(M.bind(q, k).weights, q.weights @ k.matrix)
    for step in (2, 3):
        f = (np.arange(space.n_atoms) % step == 0).astype(np.float64)
        np.testing.assert_allclose(k.integrate(f), k.matrix @ f, rtol=0, atol=1e-15)
    # the subset read against the dense rows summed over each V atom's fiber
    v = data.draw(st.integers(0, space.full))
    dense = k.matrix
    want = np.zeros((dense.shape[0], space.n_atoms_of(v)))
    for j in range(space.n_atoms):
        coords = space.coords_of(space.full, j)
        want[:, space.flat_of(v, [coords[t] for t in subsets.indices_of(v)])] += dense[:, j]
    np.testing.assert_allclose(k.marginals(v), want, rtol=0, atol=1e-15)


def grid232():
    return M.FiniteProductSpace(
        (("A", ("0", "1")), ("B", ("0", "1", "2")), ("C", ("0", "1")))
    )


@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
def test_law_kernel_rows_are_point_times_law(per_row):
    sp = grid232()
    rng = np.random.default_rng(11)
    for source in subsets.all_masks(sp.n):
        rest = sp.full & ~source
        n_rows, n_rest = sp.n_atoms_of(source), sp.n_atoms_of(rest)
        law = rng.dirichlet(np.ones(n_rest), size=n_rows if per_row else None)
        k = M.Kernel(sp, source, law=law)
        assert k.source == source
        for i in range(n_rows):
            point = np.zeros(n_rows)
            point[i] = 1.0
            rest_w = law[i] if per_row else law
            want = M.product_weights(sp, [(source, point), (rest, rest_w)], sp.full)
            assert np.array_equal(k.matrix[i], want), (source, i)


def test_law_kernel_source_edges():
    sp = grid232()
    law = np.arange(1.0, 13.0) / 78.0
    np.testing.assert_array_equal(M.Kernel(sp, 0, law=law).matrix, law[None, :])
    np.testing.assert_array_equal(M.Kernel(sp, sp.full, law=[1.0]).matrix, np.eye(12))
    per_row = np.ones((12, 1))
    np.testing.assert_array_equal(M.Kernel(sp, sp.full, law=per_row).matrix, np.eye(12))
    # the complement of the full source is empty: a law within the window is
    # stored as exactly 1, and one that is not a distribution is refused
    assert np.array_equal(M.Kernel(sp, sp.full, law=per_row - 2**-53).law, per_row)
    with pytest.raises(DomainError, match=r"kernel weights sum to 0\.5"):
        M.Kernel(sp, sp.full, law=[0.5])
    with pytest.raises(DomainError, match="shape"):
        M.Kernel(sp, 0b001, law=np.full(3, 1 / 3))
    with pytest.raises(DomainError, match="shape"):
        M.Kernel(sp, 0b001, law=np.full((3, 6), 1 / 6))


@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
def test_law_kernels_form_a_valid_space(per_row):
    sp = grid232()
    rng = np.random.default_rng(12)
    p = M.Dist(sp, sp.full, rng.dirichlet(np.ones(sp.n_atoms)))
    kernels = [M.Kernel(sp, 0, p.weights[None, :])]
    for source in subsets.all_masks(sp.n)[1:]:
        rest = sp.full & ~source
        law = M.marginal(p, rest).weights
        if per_row:
            law = rng.dirichlet(np.ones(len(law)), size=sp.n_atoms_of(source))
        kernels.append(M.Kernel(sp, source, law=law))
    cs = CausalSpace(sp, p, CausalMechanism(sp, tuple(kernels)))
    assert validate_causal_space(cs).ok


# ------------------------------------------------------------- indexing


def test_flat_round_trip():
    sp = M.FiniteProductSpace((("X", ("a", "b")), ("Y", ("0", "1", "2")), ("Z", ("u", "v"))))
    for mask in subsets.all_masks(3):
        if mask == 0:
            continue
        for i in range(sp.n_atoms_of(mask)):
            assert sp.flat_of(mask, sp.coords_of(mask, i)) == i


def test_row_major_order():
    sp = M.FiniteProductSpace((("X", ("a", "b")), ("Y", ("0", "1", "2"))))
    # atom index = x * 3 + y with the later component fastest
    assert sp.coords_of(sp.full, 5) == (1, 2)
    at = sp.atom_from_labels({"X": "b", "Y": "1"})
    assert (at.mask, at.index) == (3, 4)
    assert sp.labels_of(at) == {"X": "b", "Y": "1"}


def test_embedding_splits_flat_index():
    sp = M.FiniteProductSpace((("X", ("a", "b")), ("Y", ("0", "1", "2")), ("Z", ("u", "v"))))
    full = sp.full
    for part in (0b001, 0b010, 0b100, 0b011, 0b101):
        rest = full & ~part
        ea = sp.atom_embedding(part, full)
        eb = sp.atom_embedding(rest, full)
        got = sorted((ea[:, None] + eb[None, :]).reshape(-1).tolist())
        assert got == list(range(sp.n_atoms))


def test_subspace_preserves_order():
    sp = M.FiniteProductSpace((("X", ("a", "b")), ("Y", ("0", "1", "2")), ("Z", ("u", "v"))))
    sub = sp.subspace(0b101)
    assert sub.names == ("X", "Z")
    assert sub.n_atoms == sp.n_atoms_of(0b101)


def test_index_tables_read_each_atom_at_its_coordinates():
    sp = M.FiniteProductSpace((("X", ("a", "b")), ("Y", ("0", "1", "2")), ("Z", ("u", "v"))))
    assert sp.shape_of(0b101) == (2, 2) and sp.shape_of(0) == ()
    for src in subsets.all_masks(3):
        idx = subsets.indices_of(src)
        coords = [sp.coords_of(src, i) for i in range(sp.n_atoms_of(src))]
        for dst in subsets.all_masks(3):
            if not subsets.is_subset(dst, src):
                continue
            keep = [k for k, t in enumerate(idx) if dst >> t & 1]
            want = [sp.flat_of(dst, [c[k] for k in keep]) for c in coords]
            assert sp.atom_projection(src, dst).tolist() == want
            assert not sp.atom_projection(src, dst).flags.writeable
            # each dst atom inside src, with src's other coordinates at 0
            want = []
            for j in range(sp.n_atoms_of(dst)):
                part = iter(sp.coords_of(dst, j))
                want.append(sp.flat_of(src, [next(part) if k in keep else 0 for k in range(len(idx))]))
            assert sp.atom_embedding(dst, src).tolist() == want


OUTSIDE_THE_SPACE = {
    "shape_of": lambda sp: sp.shape_of(0b100),
    "law_cells": lambda sp: sp.law_cells(0b100),
    "atom_projection-src": lambda sp: sp.atom_projection(0b111, 0b1),
    "atom_projection-dst": lambda sp: sp.atom_projection(0b11, 0b100),
    "atom_embedding": lambda sp: sp.atom_embedding(0b1, 0b101),
    "coords_of": lambda sp: sp.coords_of(0b100, 0),
    "flat_of": lambda sp: sp.flat_of(0b100, [0]),
    "indicator": lambda sp: M.Event(sp, 0b01, [True, False]).indicator(on=0b101),
    "product_weights": lambda sp: M.product_weights(sp, [(0b100, [1.0])], 0b100),
    "bits-negative": lambda sp: list(subsets.bits(-1)),
    "shape_of-negative": lambda sp: sp.shape_of(-1),
    "law_cells-negative": lambda sp: sp.law_cells(-1),
    "atom_projection-negative": lambda sp: sp.atom_projection(-1, 0),
    "atom_embedding-negative": lambda sp: sp.atom_embedding(0, -1),
    "indicator-negative": lambda sp: M.Event(sp, 0b01, [True, False]).indicator(on=-1),
}


@pytest.mark.parametrize("case", list(OUTSIDE_THE_SPACE))
def test_masks_outside_the_space_are_a_domain_error(case):
    # every index table is built on a checked mask's atom grid; a negative
    # mask has infinitely many bits, so it must be refused before any loop
    with pytest.raises(DomainError):
        OUTSIDE_THE_SPACE[case](grid23())


# ------------------------------------------------------------ properties


@st.composite
def space_and_dist(draw, full_support=False, max_components=3, max_outcomes=3):
    n = draw(st.integers(1, max_components))
    sizes = draw(st.lists(st.integers(1, max_outcomes), min_size=n, max_size=n))
    comps = tuple(
        (f"c{t}", tuple(str(v) for v in range(s))) for t, s in enumerate(sizes)
    )
    space = M.FiniteProductSpace(comps)
    low = 0.05 if full_support else 0.0
    raw = draw(
        st.lists(
            st.floats(low, 1.0, allow_nan=False),
            min_size=space.n_atoms,
            max_size=space.n_atoms,
        )
    )
    total = sum(raw)
    assume(total > 1e-3)
    return space, M.Dist(space, space.full, np.array(raw) / total)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_marginal_tower_property(data):
    space, d = data.draw(space_and_dist())
    mid = data.draw(st.integers(0, space.full))
    sub = data.draw(st.integers(0, space.full)) & mid
    via = M.marginal(M.marginal(d, mid), sub)
    direct = M.marginal(d, sub)
    np.testing.assert_allclose(via.weights, direct.weights, atol=1e-12)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_law_of_total_probability(data):
    space, d = data.draw(space_and_dist(full_support=True))
    mask = data.draw(st.integers(0, space.full))
    k = M.conditional_kernel(d, mask)
    back = M.bind(M.marginal(d, mask), k)
    np.testing.assert_allclose(back.weights, d.weights, atol=1e-9)
    rows = [M.condition(d, M.Atom(mask, i)).weights for i in range(space.n_atoms_of(mask))]
    np.testing.assert_allclose(k.matrix, np.stack(rows), rtol=0, atol=1e-15)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_product_marginals_recover_factors(data):
    space, d = data.draw(space_and_dist())
    assume(space.n >= 2)
    mask = data.draw(st.integers(1, space.full - 1))
    a = M.marginal(d, mask)
    b = M.marginal(d, space.full & ~mask)
    prod = M.product_dist(a, b)
    np.testing.assert_allclose(M.marginal(prod, mask).weights, a.weights, atol=1e-12)
    np.testing.assert_allclose(
        M.marginal(prod, space.full & ~mask).weights, b.weights, atol=1e-12
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_event_algebra(data):
    space, d = data.draw(space_and_dist())
    mask = data.draw(st.integers(0, space.full))
    n = space.n_atoms_of(mask)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    ev = M.Event(space, mask, flags)
    assert ev.probability(d) + ev.complement().probability(d) == pytest.approx(1.0, abs=1e-12)
    ind = ev.indicator()
    assert ev.probability(d) == pytest.approx(float(d.weights @ ind), abs=1e-12)
    red = ev.essential()
    np.testing.assert_array_equal(red.indicator(), ind)
    assert subsets.is_subset(red.domain, ev.domain)


def test_rectangle_and_conjunction():
    sp = grid22()
    d = M.Dist(sp, 3, [0.5, 0.3, 0.1, 0.1])
    a1 = M.rectangle(sp, {"A": {"1"}})
    b0 = M.rectangle(sp, {"B": {"0"}})
    both = a1.intersect(b0)
    assert both.probability(d) == pytest.approx(0.1)
    assert a1.probability(d) == pytest.approx(0.2)
    assert M.rectangle(sp, {"A": {"0", "1"}}).essential().domain == 0
    with pytest.raises(DomainError):
        M.rectangle(sp, {"A": {"nope"}})


def test_rectangle_without_constraints_is_the_whole_space():
    ev = M.rectangle(grid22(), {})
    assert ev.domain == 0
    np.testing.assert_array_equal(ev.flags, [True])


def test_condition_requires_subset_domain():
    sp = grid22()
    d = M.Dist(sp, 0b01, [0.5, 0.5])
    with pytest.raises(DomainError):
        M.condition(d, M.Atom(0b10, 0))
