"""Output checks. Each returns None when the output is right, else a reason.

The references are independent of the code under test where the package
has one: ``truncated_factorization_oracle`` for interventional laws, plain
loops over the joint for potential-outcome laws, and the closed forms of
Brownian motion for the Gaussian grid. Negative controls feed the same
checks a corrupted input or a perturbed reference, and must see them fail.
"""

from __future__ import annotations

import json

import numpy as np

from causalspaces.compilers import PoSpec, ScmSpec, truncated_factorization_oracle

TOL = 1e-9


class Checker:
    """Applies the checks and keeps the largest oracle deviation seen."""

    def __init__(self):
        self.oracle_max_abs_err = 0.0
        self._oracle_cache: dict = {}

    def oracle(self, spec: ScmSpec, do: dict[str, str]) -> np.ndarray:
        """Interventional law of a point intervention, cached per model and clamp."""
        key = (id(spec), tuple(sorted(do.items())))
        if key not in self._oracle_cache:
            # the entry keeps spec alive, so its id cannot be reused
            self._oracle_cache[key] = (spec, truncated_factorization_oracle(spec, do).weights)
        return self._oracle_cache[key][1]

    def oracle_mixture(self, spec: ScmSpec, comps: list[int], q: np.ndarray) -> np.ndarray:
        """Law under q on the listed binary components (row-major, ascending)."""
        out = np.zeros(1 << len(spec.variables))
        k = len(comps)
        for a, w in enumerate(q):
            if w == 0.0:
                continue
            do = {f"X{t}": str((a >> (k - 1 - i)) & 1) for i, t in enumerate(comps)}
            out += w * self.oracle(spec, do)
        return out

    def near(self, got, want, what: str, record: bool = True) -> str | None:
        """Within TOL everywhere; record=True counts the deviation as an oracle error."""
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            return f"{what}: shape {got.shape}, expected {want.shape}"
        err = float(np.max(np.abs(got - want), initial=0.0))
        if record:
            self.oracle_max_abs_err = max(self.oracle_max_abs_err, err)
        if not err <= TOL:
            return f"{what} is off by {err:.3e}"
        return None


def first(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def cli_json(result) -> tuple[dict | None, str | None]:
    code, out, err = result
    if code != 0:
        return None, f"exit code {code}: {(out or err).strip()[:200]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"unparseable output: {exc}"


def expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def identical_spaces(a, b) -> str | None:
    """Same components, and bit-identical measure and kernels."""
    if a.space.components != b.space.components:
        return "components differ"
    if a.observational.weights.tobytes() != b.observational.weights.tobytes():
        return "observational measure is not bit-identical"
    for mask in range(1 << a.space.n):
        if a.mechanism[mask].matrix.tobytes() != b.mechanism[mask].matrix.tobytes():
            return f"kernel {mask:#b} is not bit-identical"
    return None


def same_intervention(hard, generic) -> str | None:
    """Hard and generic results agree on the measure and on every kernel."""
    err = float(np.abs(hard.observational.weights - generic.observational.weights).max())
    for mask in range(1 << hard.space.n):
        d = np.abs(hard.mechanism[mask].matrix - generic.mechanism[mask].matrix)
        err = max(err, float(d.max()))
    return None if err <= TOL else f"hard and generic interventions differ by {err:.3e}"


def po_outcome_laws(spec: PoSpec) -> list[np.ndarray]:
    """Law of each treatment's potential outcome, by a loop over the joint."""
    nz, ny, nx = len(spec.treatments), len(spec.outcomes), len(spec.covariates)
    laws = [np.zeros(ny) for _ in range(nz)]
    for flat, w in enumerate(spec.joint):
        rest = flat
        ys = []
        for _ in range(nz):
            ys.append(rest % ny)
            rest //= ny
        ys.reverse()  # row-major: treatment, covariate, Y_0, ..., Y_{nz-1}
        for z in range(nz):
            laws[z][ys[z]] += w
    return laws


def brownian_closed_form(times: np.ndarray, pins: list[int], values, conditioned: bool):
    """Mean and covariance of Brownian motion on a grid with pinned times.

    Intervening restarts the path at the latest pin (variance t - s after
    it, the observational law before the first pin). Conditioning gives the
    Brownian bridge between neighbouring pins, counting W(0) = 0 as a pin.
    """
    n = len(times)
    order = sorted(range(len(pins)), key=lambda k: pins[k])
    pt = [float(times[pins[k]]) for k in order]
    pv = [float(values[k]) for k in order]
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    seg = []
    for i, t in enumerate(times):
        t = float(t)
        before = [k for k in range(len(pt)) if pt[k] <= t]
        after = [k for k in range(len(pt)) if pt[k] > t]
        a, va = (pt[before[-1]], pv[before[-1]]) if before else (0.0, 0.0)
        if before and pt[before[-1]] == t:
            mean[i] = va
            seg.append(None)
            continue
        if not conditioned:
            mean[i] = va if before else 0.0
            seg.append(("restart", a, None))
        elif after:
            b, vb = pt[after[0]], pv[after[0]]
            mean[i] = va + (vb - va) * (t - a) / (b - a)
            seg.append(("bridge", a, b))
        else:
            mean[i] = va
            seg.append(("restart", a, None))
    for i in range(n):
        for j in range(n):
            if seg[i] is None or seg[i] != seg[j]:
                continue
            kind, a, b = seg[i]
            lo, hi = sorted((float(times[i]), float(times[j])))
            if kind == "restart":
                cov[i, j] = lo - a
            else:
                cov[i, j] = (lo - a) * (b - hi) / (b - a)
    return mean, cov


def closed_form_error(g, times, pins, values, conditioned: bool) -> str | None:
    mean, cov = brownian_closed_form(times, pins, values, conditioned)
    err = max(float(np.abs(g.mean - mean).max()), float(np.abs(g.cov - cov).max()))
    what = "conditioned" if conditioned else "intervened"
    return None if err <= TOL else f"{what} Brownian moments off by {err:.3e}"


def brownian_csv_error(text: str, steps: int, horizon: float, at: float, value: float) -> str | None:
    """Check the CSV of `demo brownian` against the closed forms."""
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) != steps + 1:
        return f"expected {steps + 1} CSV lines, got {len(lines)}"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    times = horizon * np.arange(1, steps + 1) / steps
    pin = int(np.argmin(np.abs(times - at)))
    m_i, c_i = brownian_closed_form(times, [pin], [value], conditioned=False)
    m_c, c_c = brownian_closed_form(times, [pin], [value], conditioned=True)
    want = np.column_stack([times, m_i, np.diag(c_i), m_c, np.diag(c_c)])
    err = float(np.abs(rows - want).max())
    return None if err <= TOL else f"Brownian demo columns off by {err:.3e}"


def corrupt_row(matrix: np.ndarray) -> np.ndarray:
    """Move kernel row 0 of the X0 kernel onto X0 = 1 atoms.

    X0 is the most significant coordinate, so rolling by half the atoms
    keeps the row a distribution but breaks its point mass on X0 = 0.
    """
    m = np.array(matrix, dtype=np.float64)
    m[0] = np.roll(m[0], m.shape[1] // 2)
    return m


def perturbed(weights: np.ndarray) -> np.ndarray:
    w = np.array(weights, dtype=np.float64)
    w[int(np.argmax(w))] += 1e-6
    return w

