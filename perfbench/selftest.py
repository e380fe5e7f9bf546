"""Show that the benchmark's checks reject corrupted inputs.

    python3 perfbench/selftest.py

Each case starts from an input the checks accept, corrupts it in one
way, and expects a rejection; the uncorrupted input must pass, so a
check that rejects everything does not count.  Exit code 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import checks
from measure import SRC, WORKLOADS, program_targets, table_spec

sys.path.insert(0, str(SRC))


def _csv(rows) -> str:
    lines = [checks.CSV_HEADER] + [f"{n},{m!r},{s!r},{c}" for n, m, s, c in rows]
    return "\n".join(lines) + "\n"


def cases():
    from entpower import closedform

    ours = checks.exact_targets(4, 5)
    spec = table_spec(WORKLOADS["ep-cue"], ours)
    # an ep-cue CSV sitting exactly on its gate targets
    means = {n: float(t) for n, _, t in spec.gates}
    rows = [(n, means.get(n, 0.6), 1e-3, 1024) for n in spec.ns]
    good = _csv(rows)
    shifted = list(rows)
    shifted[0] = (1, rows[0][1] + 6 * rows[0][2], rows[0][2], rows[0][3])
    zero = list(rows)
    zero[5] = (6, rows[5][1], 0.0, rows[5][3])
    digit = good.replace("0.001,", "0.002,", 1)
    program = program_targets(closedform)
    wrong = dict(program, opent_cue=program["opent_cue"] + Fraction(1, 10**12))
    return [
        ("mean shifted by 6 sigma", lambda: checks.check_table(good, spec, 1024),
         lambda: checks.check_table(_csv(shifted), spec, 1024)),
        ("pool CSV differing in one digit", lambda: checks.check_identical(good, good, "pool"),
         lambda: checks.check_identical(digit, good, "pool")),
        ("wrong target Fraction", lambda: checks.compare_targets(ours, program),
         lambda: checks.compare_targets(ours, wrong)),
        ("zero stderr", lambda: checks.check_table(good, spec, 1024),
         lambda: checks.check_table(_csv(zero), spec, 1024)),
    ]


def main() -> int:
    bad = 0
    for name, clean, corrupted in cases():
        accepted, rejected = not clean(), bool(corrupted())
        ok = accepted and rejected
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: clean input accepted={accepted}, "
              f"corrupted input rejected={rejected}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
