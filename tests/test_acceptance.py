"""The ten acceptance gates, one test per criterion.

Each test pins its own tolerances and wall-clock budget; run with -v to get
the per-criterion pass/fail lines.
"""

import csv
import io
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from causalspaces.cli import main as cli_main
from causalspaces.compilers import (
    PoSpec,
    compile_po,
    compile_scm,
    truncated_factorization_oracle,
)
from causalspaces.core import intervene_hard
from causalspaces.documents import (
    document_to_space,
    dump_json,
    read_document,
    scm_to_document,
    space_to_document,
)
from causalspaces.effects import EffectClass, activate_dormant, classify_effect
from causalspaces.gaussian import (
    Gaussian,
    altitude_temperature,
    brownian_grid,
    g_condition,
    g_dirac,
    g_intervene,
    rice_market,
    sample_intervention,
)
from causalspaces.harness import (
    composition_counterexample,
    dormant_instances,
    ice_cream_shark,
    mutual_information,
    random_scm,
    reversibility_counterexample,
    xor_scm,
)
from causalspaces.measure import Dist, rectangle

from theorem_checks import run_suite


class budget:
    """Assert the block stays under its wall-clock allowance (seconds)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, kind, value, tb):
        if kind is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return False


def test_criterion_01_altitude_temperature_moments():
    with budget(1.0):
        at = altitude_temperature()
        up = g_intervene(at, 0b01, g_dirac([1000.0]))
        assert abs(up.mean[1] - 10.0) <= 1e-9
        assert abs(up.cov[1, 1] - 0.25) <= 1e-9
        for q in (g_dirac([5.0]), Gaussian([0.0], [[2.0]]), Gaussian([-3.0], [[0.5]])):
            down = g_intervene(at, 0b10, q)
            assert abs(down.mean[0] - 1000.0) <= 1e-9
            assert abs(down.cov[0, 0] - 300.0) <= 1e-9


def test_criterion_02_rice_cycle_moments():
    with budget(1.0):
        rm = rice_market()
        supply = g_intervene(rm, 0b01, g_dirac([3.0]))
        assert abs(supply.mean[1] - 4.5) <= 1e-9
        assert abs(supply.cov[1, 1] - 0.25) <= 1e-9
        demand = g_intervene(rm, 0b10, g_dirac([6.0]))
        assert abs(demand.mean[0] - 4.0) <= 1e-9
        assert abs(demand.cov[0, 0] - 0.25) <= 1e-9
        # both results are valid measures and both kernels deterministic
        for g in (supply, demand):
            assert np.linalg.eigvalsh(g.cov).min() >= -1e-12
        for mask in (0b01, 0b10):
            k = rm.kernel(mask)
            for pos, t in enumerate(np.flatnonzero([mask & 1, mask >> 1])):
                assert k.coeff[t, pos] == 1.0
                assert k.offset[t] == 0.0
                assert not k.noise_cov[t].any()


def test_criterion_03_brownian_grid_paths():
    with budget(30.0):
        grid = brownian_grid(100, 2.0)
        t = 2.0 * np.arange(1, 101) / 100
        pin = 49
        assert t[pin] == 1.0

        done = g_intervene(grid, 1 << pin, g_dirac([0.0]))
        want_do = np.where(t < 1.0, t, t - 1.0)
        want_do[pin] = 0.0
        assert np.abs(np.diag(done.cov) - want_do).max() <= 1e-8

        seen = g_condition(grid, 1 << pin, [0.0])
        want_cond = t * (1.0 - t)
        assert np.abs(np.diag(seen.cov)[:pin] - want_cond[:pin]).max() <= 1e-8

        n = 100_000
        paths = sample_intervention(grid, 1 << pin, g_dirac([0.0]), n, seed=321)
        sd = np.sqrt(want_do)
        assert (np.abs(paths.mean(axis=0)) <= 4.0 * sd / np.sqrt(n) + 1e-12).all()
        var_se = want_do * np.sqrt(2.0 / n)
        assert (np.abs(paths.var(axis=0) - want_do) <= 4.0 * var_se + 1e-12).all()


def test_criterion_04_scm_differential_testing():
    with budget(60.0):
        for seed in range(100):
            s = random_scm(seed)
            cs = compile_scm(s)
            space = cs.space
            for j, v in enumerate(s.variables):
                for label in v.outcomes:
                    w = np.zeros(space.n_atoms_of(1 << j))
                    w[space.outcome_index(j, label)] = 1.0
                    done = intervene_hard(cs, 1 << j, Dist(space, 1 << j, w))
                    want = truncated_factorization_oracle(s, {v.name: label})
                    err = np.abs(done.observational.weights - want.weights).max()
                    assert err <= 1e-9, f"seed {seed}, do({v.name}={label}): {err}"


def test_criterion_05_theorem_suite_200_spaces():
    with budget(300.0):
        violations: list[str] = []
        hits: Counter = Counter()
        for seed in range(200):
            v, h = run_suite(seed)
            violations += v
            hits += h
        assert not violations, violations[:20]
        for name in (
            "C.2(d)", "C.2(e)", "C.2(g)", "C.2(h)", "C.5(d)",
            "D.4(i)", "D.4(ii)", "D.4(iii)", "D.6",
        ):
            assert hits[name] > 0, f"{name} was never exercised non-vacuously"


def test_criterion_06_dormant_activation():
    with budget(30.0):
        instances = dormant_instances(10)
        assert len(instances) >= 10
        for cs, u, a in instances:
            assert classify_effect(cs, u, a) is EffectClass.DORMANT
            w = activate_dormant(cs, u, a)
            assert w.activated and (w.activated & ~u) == 0
            assert classify_effect(w.after, w.activated, a) is EffectClass.ACTIVE


def test_criterion_07_composition_and_reversibility_counterexamples():
    with budget(5.0):
        comp = composition_counterexample()
        assert comp.discrepancy > 0.01
        rev = reversibility_counterexample()
        assert rev.premise_error <= 1e-9
        assert rev.violation > 0.01


def test_criterion_08_dependence_without_causation():
    with budget(5.0):
        ic = ice_cream_shark()
        assert mutual_information(ic.observational, 0b01, 0b10) > 0.01
        for u, other in ((0b01, "sharks"), (0b10, "icecream")):
            for label in ("low", "high"):
                a = rectangle(ic.space, {other: [label]})
                assert classify_effect(ic, u, a) is EffectClass.NONE


def test_criterion_09_potential_outcome_embedding():
    with budget(1.0):
        # axes (treatment, covariate, outcome@0, outcome@1): a latent robust
        # type realises 1 under both treatments and seeks treatment 1
        j = np.zeros((2, 2, 2, 2))
        j[1, 1, 1, 1] = 0.4
        j[0, 1, 1, 1] = 0.1
        j[1, 0, 0, 0] = 0.1
        j[0, 0, 0, 0] = 0.4
        po = PoSpec(("0", "1"), ("0", "1"), j.reshape(-1), covariates=("frail", "robust"))
        cs, _ = compile_po(po)
        space = cs.space
        kz = cs.mechanism[0b001]
        jr = po.shaped()
        for z in (0, 1):
            law = jr.sum(axis=tuple(k for k in range(jr.ndim) if k != 2 + z))
            for y in (0, 1):
                a = rectangle(space, {"outcome": [str(y)]})
                assert float(kz.matrix[z] @ a.indicator(space.full)) == law[y]

        y1 = rectangle(space, {"outcome": ["1"]}).indicator(space.full)
        z1 = rectangle(space, {"treatment": ["1"]}).indicator(space.full)
        p = cs.observational.weights
        observational = float(p @ (y1 * z1)) / float(p @ z1)
        gap = abs(float(kz.matrix[1] @ y1) - observational)
        assert gap > 0.05


def test_criterion_10_cli_round_trip_and_demos(tmp_path):
    runner = CliRunner()
    scm_path = tmp_path / "xor.scm.json"
    scm_path.write_text(dump_json(scm_to_document(xor_scm())) + "\n")

    compiled = runner.invoke(cli_main, ["compile", str(scm_path)])
    assert compiled.exit_code == 0
    out_path = json.loads(compiled.output)["out"]

    checked = runner.invoke(cli_main, ["validate", out_path])
    assert checked.exit_code == 0

    doc = read_document(out_path)
    truth = compile_scm(xor_scm())
    assert np.array_equal(np.array(doc["p"]), truth.observational.weights)
    redumped = dump_json(space_to_document(document_to_space(doc))) + "\n"
    assert redumped == Path(out_path).read_text()

    # demo outputs carry the criterion 1-3 values
    alt = json.loads(runner.invoke(cli_main, ["demo", "altitude"]).output)
    assert abs(alt["do_altitude_1000"]["mean"] - 10.0) <= 1e-9
    assert abs(alt["do_altitude_1000"]["var"] - 0.25) <= 1e-9
    assert abs(alt["do_temperature_5"]["mean"] - 1000.0) <= 1e-9
    assert abs(alt["do_temperature_5"]["var"] - 300.0) <= 1e-9

    rice = json.loads(runner.invoke(cli_main, ["demo", "rice"]).output)
    assert abs(rice["do_amount_3"]["mean"] - 4.5) <= 1e-9
    assert abs(rice["do_amount_3"]["var"] - 0.25) <= 1e-9
    assert abs(rice["do_price_6"]["mean"] - 4.0) <= 1e-9
    assert abs(rice["do_price_6"]["var"] - 0.25) <= 1e-9

    brownian = runner.invoke(cli_main, ["demo", "brownian"])
    rows = list(csv.DictReader(io.StringIO(brownian.stdout_bytes.decode())))
    assert len(rows) == 100
    assert list(rows[0]) == [
        "time", "mean_intervened", "var_intervened", "mean_conditioned", "var_conditioned",
    ]
    for row in rows:
        s = float(row["time"])
        want_do = 0.0 if s == 1.0 else (s if s < 1.0 else s - 1.0)
        assert abs(float(row["var_intervened"]) - want_do) <= 1e-8
        if s < 1.0:
            assert abs(float(row["var_conditioned"]) - s * (1.0 - s)) <= 1e-8
