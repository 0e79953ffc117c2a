#!/usr/bin/env python3
"""Print one sha256 over what a checkout's CLI prints for a fixed command set.

    python scripts/cli_digest.py [CHECKOUT]

CHECKOUT (default: this repository) is a source tree of the project, for
example a commit exported with `git archive`; it is only read. The script
imports causalspaces from CHECKOUT/src and the seeded models from
CHECKOUT/perfbench, writes the documents into a temporary directory, runs
every command in-process and hashes (command, exit code, stdout, stderr)
with that directory masked, so running it on two trees and comparing the
digests shows whether a change moved a single byte of CLI output.

The commands, on perfbench's chain and DAG models at seed 11 and n = 3..8:
compile, validate, do (--dirac, --q, --hard, --query, --on '' and
--on []), both do refusals (a wrong weight count, no measure), classify
and classify --given. Then validate, do and do --hard on a chain document
at n = 3 with one kernel row leaking off its fiber, and the three demos.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

SEED = 11


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    root = Path(ap.parse_args().checkout).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import models
    from causalspaces import cli, documents

    def run(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main.main(args=argv, prog_name="causalspaces")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # noqa: BLE001 - an escape is output too
                code = -1
                print(repr(exc), file=sys.stderr)
        return code, out.getvalue(), err.getvalue()

    start = time.perf_counter()
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:

        def record(argv: list[str]) -> None:
            lines.append(json.dumps([argv, *run(argv)]).replace(tmp, "<tmp>") + "\n")

        for f, make in enumerate((models.xor_chain, models.random_dag)):
            for n in range(3, 9):
                scm = f"{tmp}/m{f}n{n}.scm.json"
                sp = f"{tmp}/m{f}n{n}.space.json"
                spec = make(np.random.default_rng([SEED, 1, f, n]), n)
                documents.write_document(scm, documents.scm_to_document(spec))
                last = f"X{n - 1}"
                for argv in (
                    ["compile", scm, "--out", sp],
                    ["validate", sp],
                    ["do", sp, "--on", "X1", "--dirac", "1", "--query", f"{last}=1"],
                    ["do", sp, "--on", "X0,X2", "--dirac", "1,0", "--hard"],
                    ["do", sp, "--on", "X0", "--q", "0.3,0.7", "--query", "X0=1"],
                    ["do", sp, "--on", "0,1", "--q", "0.1,0.2,0.3,0.4",
                     "--query", f"X0=1 & {last}=1", "--query", f"{last} in {{0}}"],
                    ["do", sp, "--on", "X1", "--q", "0.5,0.5", "--hard"],
                    ["do", sp, "--on", ""],
                    ["do", sp, "--on", "[]", "--query", "X0=1"],
                    ["do", sp, "--on", "X0", "--q", "0.5,0.25,0.25"],
                    ["do", sp, "--on", "X0"],
                    ["classify", sp, "--u", "X0", "--event", f"{last}=1"],
                    ["classify", sp, "--u", last, "--event", "X0=1"],
                    ["classify", sp, "--u", "X0", "--event", f"{last}=1", "--given", "X1"],
                ):
                    record(argv)

        doc = documents.read_document(f"{tmp}/m0n3.space.json")
        rows = np.array(doc["kernels"]["0"])
        rows[0] = 0.8 * rows[0] + 0.2 * np.roll(rows[0], 1)
        doc["kernels"]["0"] = rows
        leaky = f"{tmp}/leaky.space.json"
        documents.write_document(leaky, doc)
        record(["validate", leaky])
        record(["do", leaky, "--on", "X1", "--dirac", "1"])
        record(["do", leaky, "--on", "X1", "--dirac", "1", "--hard"])

        record(["demo", "altitude"])
        record(["demo", "rice"])
        record(["demo", "brownian", "--steps", "100", "--horizon", "2.0", "--at", "1.0",
                "--value", "0.0"])

    print(f"cli {hashlib.sha256(''.join(lines).encode()).hexdigest()}")
    print(f"# {len(lines)} commands, {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
