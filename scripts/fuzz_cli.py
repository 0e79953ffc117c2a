#!/usr/bin/env python3
"""Run the CLI exit-code contract tests with more hypothesis examples.

    python scripts/fuzz_cli.py [--examples N]

Re-runs both hypothesis tests of tests/test_cli_contract.py (mutated
documents, and generated flag strings on the xor space document) with N
examples each (default 2000), against this repository's src. Each test's
undecorated body and its own strategies are reused, so the run checks
exactly what tier-1 checks, only longer. It stays derandomised with no
example database, and a numpy RuntimeWarning is an error, as under pytest.
A break prints hypothesis's falsifying example and exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--examples", type=int, default=2000, help="examples per test")
    n = ap.parse_args().examples
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    from hypothesis import HealthCheck, given, settings

    import test_cli_contract as contract

    for test in (contract.test_mutated_documents_keep_the_exit_code_contract,
                 contract.test_fuzzed_flags_keep_the_exit_code_contract):
        handle = test.hypothesis
        longer = settings(max_examples=n, derandomize=True, database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])(
            given(**handle._given_kwargs)(handle.inner_test))
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            longer(tmp_path=Path(tmp))
        print(f"{test.__name__}: {n} examples, no break, {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
