"""End-to-end CLI behavior through click's test runner."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from causalspaces import measure
from causalspaces.cli import main
from causalspaces.compilers import PoSpec, compile_scm, truncated_factorization_oracle
from causalspaces.documents import (
    document_to_space,
    dump_json,
    po_to_document,
    read_document,
    scm_to_document,
    space_to_document,
)
from causalspaces.harness import ice_cream_shark, xor_scm


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def xor_space_path(tmp_path, runner):
    scm = tmp_path / "xor.scm.json"
    scm.write_text(dump_json(scm_to_document(xor_scm())) + "\n")
    result = runner.invoke(main, ["compile", str(scm)])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)["out"]


def test_validate_accepts_a_valid_document(runner, xor_space_path):
    result = runner.invoke(main, ["validate", xor_space_path])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"valid": True, "violations": []}


def test_validate_reports_axiom_violations(runner, tmp_path, xor_space_path):
    doc = read_document(xor_space_path)
    # break determinism: X-kernel row 0 no longer keeps X at 0
    doc["kernels"]["0"][0] = [0.0, 0.0, 0.5, 0.5]
    bad = tmp_path / "bad.space.json"
    bad.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["valid"] is False
    assert any(v["subset"] == "0" and v["row"] == 0 for v in report["violations"])


def test_parse_problems_exit_2(runner, tmp_path, xor_space_path):
    mangled = tmp_path / "broken.space.json"
    mangled.write_text('{"components": [,]}')
    result = runner.invoke(main, ["validate", str(mangled)])
    assert result.exit_code == 2
    missing = runner.invoke(main, ["validate", str(tmp_path / "nowhere.space.json")])
    assert missing.exit_code == 2
    # a component name with a byte that is not UTF-8
    latin = tmp_path / "latin.space.json"
    latin.write_bytes(Path(xor_space_path).read_bytes().replace(b'"X"', b'"X\xff"'))
    result = runner.invoke(main, ["validate", str(latin)])
    assert result.exit_code == 2, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "cannot read" in errors[0]


def test_non_finite_literals_exit_2(runner, tmp_path, xor_space_path):
    path = tmp_path / "nan.space.json"
    path.write_text(
        '{"components":[{"name":"a","outcomes":["0","1"]}],"p":[NaN,0.5],'
        '"mechanism":"conditionals"}'
    )
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "non-finite number NaN" in result.output

    # literals that overflow a float, an index or int's digit limit
    documents = {
        "space.json": read_document(xor_space_path),
        "scm.json": json.loads(dump_json(scm_to_document(xor_scm()))),
        "po.json": json.loads(dump_json(po_to_document(PoSpec(("0", "1"), ("0", "1"), np.full(8, 0.125))))),
    }
    sites = [
        ("space.json", lambda d: d["p"]),
        ("space.json", lambda d: d["kernels"]["0"][1]),
        ("scm.json", lambda d: d["noises"][0]["weights"]),
        ("scm.json", lambda d: d["tables"][1][0]),
        ("po.json", lambda d: d["joint"]),
    ]
    for literal in ("1e400", "-1e400", "1" + "0" * 400, "1" + "0" * 5000):
        for suffix, site in sites:
            doc = json.loads(json.dumps(documents[suffix]))
            site(doc)[0] = "@"
            path = tmp_path / f"big.{suffix}"
            path.write_text(json.dumps(doc).replace('"@"', literal))
            command = "validate" if suffix == "space.json" else "compile"
            result = runner.invoke(main, [command, str(path)])
            assert result.exit_code == 2, (literal[:6], suffix, result.output)
            assert "Error: " in result.output


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "causalspaces", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "Usage: causalspaces" in result.stdout


def test_do_matches_the_factorization_oracle(runner, xor_space_path):
    result = runner.invoke(
        main, ["do", xor_space_path, "--on", "X", "--dirac", "1", "--query", "Y=1"]
    )
    assert result.exit_code == 0
    out = json.loads(result.output)
    want = truncated_factorization_oracle(xor_scm(), {"X": "1"})
    assert np.allclose(out["p_do"], want.weights, atol=1e-12)
    assert out["queries"]["Y=1"] == pytest.approx(0.9)

    hard = runner.invoke(
        main, ["do", xor_space_path, "--on", "0", "--dirac", "1", "--hard"]
    )
    assert json.loads(hard.output)["p_do"] == out["p_do"]


def test_do_on_nothing_echoes_the_observational_measure(runner, xor_space_path):
    result = runner.invoke(main, ["do", xor_space_path, "--on", "[]"])
    assert result.exit_code == 0
    doc = read_document(xor_space_path)
    assert json.loads(result.output)["p_do"] == doc["p"]


def test_do_flag_problems_exit_2(runner, xor_space_path):
    cases = [
        ["do", xor_space_path, "--on", "0", "--q", "0.5,0.4"],
        ["do", xor_space_path, "--on", "0", "--q", "0.5,0.25,0.25"],
        ["do", xor_space_path, "--on", "0", "--dirac", "1", "--q", "1,0"],
        ["do", xor_space_path, "--on", "0", "--dirac", "2"],
        ["do", xor_space_path, "--on", "5", "--dirac", "1"],
        ["do", xor_space_path, "--on", "0"],
        ["do", xor_space_path, "--on", "0", "--dirac", "1", "--query", "Z=1"],
    ]
    for argv in cases:
        assert runner.invoke(main, argv).exit_code == 2, argv


def test_classify_fixture(runner, tmp_path):
    path = tmp_path / "ice.space.json"
    path.write_text(dump_json(space_to_document(ice_cream_shark())) + "\n")
    none = runner.invoke(
        main, ["classify", str(path), "--u", "sharks", "--event", "icecream=high"]
    )
    assert json.loads(none.output) == {"classification": "NONE"}
    active = runner.invoke(
        main, ["classify", str(path), "--u", "sharks", "--event", "sharks=high"]
    )
    assert json.loads(active.output) == {"classification": "ACTIVE"}
    given = runner.invoke(
        main,
        ["classify", str(path), "--u", "sharks", "--event", "icecream=high", "--given", "sharks"],
    )
    assert json.loads(given.output) == {"no_effect_given": True}


def test_compile_round_trip_is_bitwise(runner, tmp_path, xor_space_path):
    cs = compile_scm(xor_scm())
    doc = read_document(xor_space_path)
    assert doc["p"] == list(cs.observational.weights)
    # dumping the reloaded document reproduces the file byte for byte
    text1 = Path(xor_space_path).read_text()
    text2 = dump_json(space_to_document(document_to_space(doc))) + "\n"
    assert text1 == text2


def test_compile_cycle_reports_trace(runner, tmp_path):
    doc = scm_to_document(xor_scm())
    doc["parents"] = [[1], [0]]
    doc["tables"][0] = [[0, 0], [1, 1]]
    path = tmp_path / "loop.scm.json"
    path.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["error"] == "CycleError"
    assert "X" in report["trace"]


def test_compile_reports_a_long_cycle(runner, tmp_path):
    doc = _chain_document(1500, 2, 1)
    doc["parents"][0] = [1499]
    doc["tables"][0] = [[0], [1]]
    path = tmp_path / "ring.scm.json"
    path.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["error"] == "CycleError"
    assert report["trace"] == [f"X{j}" for j in range(1500)] + ["X0"]


def test_a_report_that_cannot_be_written_exits_2(runner, tmp_path):
    # json.loads reads the escape as a lone surrogate, which UTF-8 cannot encode
    doc = scm_to_document(xor_scm())
    doc["variables"][0]["name"] = "X\ud800"
    doc["parents"] = [[1], [0]]
    doc["tables"][0] = [[0, 0], [1, 1]]
    path = tmp_path / "loop.scm.json"
    path.write_text(json.dumps(doc, default=np.ndarray.tolist))
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 2, (result.exception, result.output)
    assert "cannot serialize" in result.output


def _chain_document(n_vars, n_outcomes, n_noise):
    """X_0 <- noise, X_j <- X_{j-1} + noise, modulo the outcome count."""
    outcomes = [str(i) for i in range(n_outcomes)]
    noise = {"outcomes": [str(i) for i in range(n_noise)], "weights": [1 / n_noise] * n_noise}
    tables = [[[z % n_outcomes for z in range(n_noise)]]]
    tables += [[[(x + z) % n_outcomes for z in range(n_noise)] for x in range(n_outcomes)]] * (n_vars - 1)
    return {
        "variables": [{"name": f"X{j}", "outcomes": outcomes} for j in range(n_vars)],
        "noises": [noise] * n_vars,
        "parents": [[]] + [[j] for j in range(n_vars - 1)],
        "tables": tables,
    }


def test_compile_refuses_what_memory_cannot_hold(runner, tmp_path, monkeypatch):
    # judged against an 8 GiB machine, whatever this one has
    monkeypatch.setattr(measure, "_physical_memory", lambda: 8 * 2**30)
    cases = {
        # 12 four-outcome variables: 5.5e11 bytes of laws, a 7.4e16-byte document
        "wide": (_chain_document(12, 4, 4), "space document"),
        # 12 binary variables: 134 MB of laws compile, but the document lists
        # 4096 * 3^12 dense numbers, 3.9e10 bytes to write; refused before compiling
        "binary": (_chain_document(12, 2, 2), "space document"),
    }
    for name, (doc, what) in cases.items():
        path = tmp_path / f"{name}.scm.json"
        path.write_text(dump_json(doc) + "\n")
        result = runner.invoke(main, ["compile", str(path)])
        assert result.exit_code == 1, (name, result.output)
        out = json.loads(result.output)
        assert out["error"] == "CapError" and what in out["detail"], (name, out)
        assert not (tmp_path / f"{name}.space.json").exists()
    # 6 binary variables with 200-outcome noises: a 32 KB mechanism, which
    # the compiler builds from per-variable conditionals without ever
    # enumerating the 6.4e13 joint noise atoms
    path = tmp_path / "noisy.scm.json"
    path.write_text(dump_json(_chain_document(6, 2, 200)) + "\n")
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "noisy.space.json").exists()


def test_compile_renormalises_noise_weights_within_the_window(runner, tmp_path):
    doc = _chain_document(3, 2, 2)
    doc["noises"] = [{"outcomes": ["0", "1"], "weights": [0.5, 0.5000004]}] * 3
    path = tmp_path / "near.scm.json"
    path.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["validate", json.loads(result.output)["out"]])
    assert result.exit_code == 0, result.output


def test_demo_brownian_refuses_what_memory_cannot_hold(runner, monkeypatch):
    monkeypatch.setattr(measure, "_physical_memory", lambda: 8 * 2**30)
    # 10^14 covariance entries: refused before the grid or its times exist
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["demo", "brownian", "--steps", "10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 1, result.output
    out = json.loads(result.output)
    assert out["error"] == "CapError" and "Brownian grid" in out["detail"], out
    assert peak < 2**20


def test_compile_po_emits_mask_alongside(runner, tmp_path):
    doc = {
        "treatments": ["0", "1"],
        "outcomes": ["0", "1"],
        "joint": [0.4, 0.1, 0.1, 0.4, 0.0, 0.0, 0.0, 0.0],
    }
    path = tmp_path / "po.po.json"
    path.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["compile", str(path), "--out", str(tmp_path / "po.space.json")])
    assert result.exit_code == 0
    out = json.loads(result.output)
    mask = read_document(out["mask"])
    assert set(mask) == {"components", "mandated", "filled"}
    assert any(e["scope"] == "outcome-marginal" for e in mask["mandated"])
    check = runner.invoke(main, ["validate", out["out"]])
    assert check.exit_code == 0


def test_compile_rejects_wrong_kinds(runner, tmp_path, xor_space_path):
    assert runner.invoke(main, ["compile", xor_space_path]).exit_code == 2
    assert runner.invoke(main, ["compile", str(tmp_path / "x.json")]).exit_code == 2


def test_compile_refuses_an_empty_table(runner, tmp_path):
    doc = _chain_document(1, 2, 2)
    doc["tables"][0] = []
    path = tmp_path / "empty.scm.json"
    path.write_text(dump_json(doc) + "\n")
    result = runner.invoke(main, ["compile", str(path)])
    assert result.exit_code == 2, result.output
    assert "tables[0] must be a nonempty matrix" in result.output


def test_compile_refuses_an_output_it_cannot_write(runner, tmp_path):
    path = tmp_path / "xor.scm.json"
    path.write_text(dump_json(scm_to_document(xor_scm())) + "\n")
    out = tmp_path / "missing" / "xor.space.json"
    result = runner.invoke(main, ["compile", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "cannot write" in result.output


def test_a_short_kernel_table_is_refused_before_its_subsets_are_listed(runner, tmp_path):
    # 20 one-outcome components: 2^20 subsets, but the document lists one kernel
    doc = {
        "components": [{"name": f"X{j}", "outcomes": ["0"]} for j in range(20)],
        "p": [1.0],
        "kernels": {"": [[1.0]]},
    }
    path = tmp_path / "wide.space.json"
    path.write_text(dump_json(doc) + "\n")
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["validate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert peak < 2**20, peak
    assert "1 given, 20 components have 1048576" in result.output


def test_demo_brownian_csv(runner):
    result = runner.invoke(main, ["demo", "brownian", "--steps", "10", "--horizon", "1.0", "--at", "0.5"])
    assert result.exit_code == 0
    raw = result.stdout_bytes.decode()
    assert "\r\n" in raw
    rows = list(csv.DictReader(io.StringIO(raw)))
    assert len(rows) == 10
    assert list(rows[0]) == [
        "time",
        "mean_intervened",
        "var_intervened",
        "mean_conditioned",
        "var_conditioned",
    ]
    for row in rows:
        s = float(row["time"])
        want = s if s < 0.5 else s - 0.5
        assert float(row["var_intervened"]) == pytest.approx(want, abs=1e-12)
        assert float(row["mean_intervened"]) == 0.0
        # bridge on [0, 0.5], then a restarted motion carrying s - 1/2
        want_c = s - min(s, 0.5) ** 2 / 0.5
        assert float(row["var_conditioned"]) == pytest.approx(want_c, abs=1e-12)
    off_grid = runner.invoke(main, ["demo", "brownian", "--at", "0.123"])
    assert off_grid.exit_code == 2
    for value in ("nan", "inf"):
        pinned = runner.invoke(main, ["demo", "brownian", "--value", value])
        assert pinned.exit_code == 2, pinned.output
        assert "non-finite" in pinned.output
    for flags in (
        ["--steps", "4", "--horizon", "2", "--at", "nan"],
        ["--horizon", "nan"],
        ["--horizon", "inf"],
        ["--steps", "4", "--horizon", "1e308"],
    ):
        bad = runner.invoke(main, ["demo", "brownian", *flags])
        assert bad.exit_code == 2, (flags, bad.output)
        assert "non-finite" in bad.output


def test_demo_altitude_json(runner):
    result = runner.invoke(main, ["demo", "altitude"])
    out = json.loads(result.output)
    assert out["do_altitude_1000"] == {"mean": 10.0, "var": 0.25}
    assert out["do_temperature_5"] == {"mean": 1000.0, "var": 300.0}


def test_demo_rice_json(runner):
    result = runner.invoke(main, ["demo", "rice"])
    out = json.loads(result.output)
    assert out["do_amount_3"] == {"mean": 4.5, "var": 0.25}
    assert out["do_price_6"] == {"mean": 4.0, "var": 0.25}
