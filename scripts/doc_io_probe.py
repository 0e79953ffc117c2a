#!/usr/bin/env python3
"""Document I/O costs on perfbench's XOR-chain space documents, n = 3..8.

Each n runs in a fresh process (Linux: it reads /proc/self/statm), which
compiles the chain and then:
- writes its space document once with write_document, and reports the rise
  of max RSS over the RSS just before the write (an upper bound when the
  write does not set a new high-water mark), per dense number written;
- times dump_json(space_to_document(cs)), read_document and
  document_to_space on the parsed document, best of 3;
- reports the process's peak RSS (ru_maxrss) at the end.

    PYTHONPATH=src python3 scripts/doc_io_probe.py
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from causalspaces import documents
from causalspaces.compilers import compile_scm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import models  # noqa: E402  (perfbench's seeded model generators)

MB = 2**20


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _best(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def probe(n: int) -> dict:
    cs = compile_scm(models.xor_chain(np.random.default_rng([5, n]), n))
    numbers = cs.space.n_atoms * 3**n
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"chain{n}.space.json"
        before = _rss()
        documents.write_document(path, documents.space_to_document(cs))
        write_peak = max(0, _maxrss() - before)  # RSS may fall while freed pages return
        doc = documents.read_document(path)
        return {
            "n": n,
            "numbers": numbers,
            "mb": path.stat().st_size / MB,
            "dump_s": _best(lambda: documents.dump_json(documents.space_to_document(cs))),
            "read_s": _best(lambda: documents.read_document(path)),
            "to_space_s": _best(lambda: documents.document_to_space(doc)),
            "write_peak_mb": write_peak / MB,
            "bytes_per_number": write_peak / numbers,
            "peak_mb": _maxrss() / MB,
        }


def main() -> int:
    print(f"{'n':>2}{'numbers':>10}{'doc MB':>8}{'dump_json s':>13}{'read s':>9}"
          f"{'to_space s':>12}{'write peak MB':>15}{'B/number':>10}{'peak MB':>9}")
    for n in range(3, 9):
        out = subprocess.run([sys.executable, __file__, str(n)], capture_output=True,
                             text=True, check=True)
        r = json.loads(out.stdout)
        print(f"{r['n']:>2}{r['numbers']:>10}{r['mb']:>8.2f}{r['dump_s']:>13.4f}{r['read_s']:>9.4f}"
              f"{r['to_space_s']:>12.4f}{r['write_peak_mb']:>15.1f}{r['bytes_per_number']:>10.1f}"
              f"{r['peak_mb']:>9.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(probe(int(sys.argv[1]))))
        sys.exit(0)
    sys.exit(main())
