"""Mutation checks: each mutation below, applied alone to a fresh copy of
``src/``, must make the tests listed with it fail.

    python tests/mutations.py            # every mutation
    python tests/mutations.py NAME ...   # only the named ones

A mutation replaces one snippet of one file of ``src/ternstab`` with
another.  The snippet must occur in that file exactly once, so a refactor
that moves or rewrites it fails here until its entry is updated.  The listed
tests first run on an unmutated copy and must pass there; a mutation is
killed when its tests then fail (pytest exit status 1).  The script exits
with status 0 when every mutation is killed, and 1 when one survives, no
longer applies or ends its tests in an error.  It is not a pytest module,
so the tier-1 suite does not collect it.

Never weaken a mutation to make it die.  A survivor is a gap in the tests,
or an equivalent change, to be dropped with the argument why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    file: str  # under src/ternstab
    old: str
    new: str
    tests: tuple  # pytest arguments, run from the repository root


MUTATIONS = [
    Mutation(
        "kernel-negative-zero-sums", "algebra.py",
        "        sums += 0.0\n", "",
        ("tests/test_contraction.py", "-k", "NonzeroKernel"),
    ),
    Mutation(
        "kernel-values-not-multiplied", "algebra.py",
        "            terms *= v[:, None]\n", "            pass\n",
        ("tests/test_contraction.py", "-k", "NonzeroKernel"),
    ),
    Mutation(
        "grids-take-the-nonzero-kernel", "algebra.py",
        "        if lead in leads:\n", "        if True:\n",
        ("tests/test_contraction.py", "-k", "NonzeroKernel"),
    ),
    Mutation(
        "row-norms-not-rescaled-on-underflow", "algebra.py",
        "    if low >= _LEAST_ROOT and high < np.inf:\n", "    if high < np.inf:\n",
        ("tests/test_rownorm.py",),
    ),
    Mutation(
        "stop-rejected-at-limit", "stability.py",
        "    return n if n <= limit else None\n", "    return n if n < limit else None\n",
        ("tests/test_stacked.py", "-k", "APrioriStop"),
    ),
    Mutation(
        "duplicate-arguments-summed-once", "control.py",
        "    return list(zip(*(norms[i] for i in first if i in norms)))\n",
        "    return list(zip(*(norms[i] for i in distinct)))\n",
        ("tests/test_control.py", "-k", "StackedArguments"),
    ),
    Mutation(
        "sweep-writes-into-the-callers-control", "harness.py",
        '        clone["control"] = {**raw.get("control", DEFAULT_CONTROL), param: value}\n',
        '        clone["control"] = raw.setdefault("control", dict(DEFAULT_CONTROL))\n'
        '        clone["control"][param] = value\n',
        ("tests/test_harness.py", "-k", "SweepHashMemo"),
    ),
    Mutation(
        "join-without-the-one-nonzero-guard", "algebra.py",
        "            if all(e.p1.counts.max() <= 1 for e in law):\n", "            if True:\n",
        ("tests/test_laws.py",),
    ),
    Mutation(
        "join-letter-from-the-wrong-operand", "algebra.py",
        "**{s: (0, a) for a, s in enumerate(self.first)}}",
        "**{s: (1, a) for a, s in enumerate(self.first)}}",
        ("tests/test_laws.py",),
    ),
    Mutation(
        "join-lead-value-lost-at-a-run-edge", "algebra.py",
        "            runs.append(leads[start:n])\n",
        "            runs.append(leads[start:n - 1])\n",
        ("tests/test_laws.py",),
    ),
    Mutation(
        "stacked-segment-shifted-by-one-row", "stability.py",
        "            norms[at][j], end = found[end : end + len(rows)], end + len(rows)\n",
        "            norms[at][j], end = found[end : end + len(rows)], end + len(rows) + 1\n",
        ("tests/test_harness.py", "-k", "Sweep"),
    ),
    Mutation(
        "stacked-phi-of-the-first-point", "stability.py",
        "    controls = [run[4] for run in runs]\n",
        "    controls = [runs[0][4]] * len(runs)\n",
        ("tests/test_harness.py", "-k", "Sweep"),
    ),
    Mutation(
        "run-keeps-no-whole-trace", "harness.py",
        "keep_traces=keep_traces, points=checks)", "keep_traces=False, points=checks)",
        ("tests/test_golden.py",),
    ),
    Mutation(
        "bool-counted-as-a-number", "algebra.py",
        "        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)\n",
        "        return math.isfinite(value)\n",
        ("tests/test_input_rules.py",),
    ),
    Mutation(
        "bracket-table-tau-and-xi-swapped", "maps.py",
        "np.tensordot(np.tensordot(mod.product_xab, tau.matrix, (1, 0)), xi.matrix, (1, 0))",
        "np.tensordot(np.tensordot(mod.product_xab, xi.matrix, (1, 0)), tau.matrix, (1, 0))",
        ("tests/test_contraction.py", "-k", "BracketTable"),
    ),
    Mutation(
        "kernel-rule-counts-every-pair", "algebra.py",
        "        staged = d1 * d2 * int(np.count_nonzero(live.any(axis=(0, 1))))\n",
        "        staged = d1 * d2 * d3 * dout\n",
        ("tests/test_contraction.py", "-k", "LiveSlabs"),
    ),
]


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    """The tests, run against the library copy ``src``, without bytecode
    or cache files."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _outcome(mutation: Mutation) -> str | None:
    """None when the mutation is killed, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _copy(tmp) / "ternstab" / mutation.file
        text = path.read_text()
        count = text.count(mutation.old)
        if count != 1:
            return f"the snippet occurs {count} times in {mutation.file}"
        path.write_text(text.replace(mutation.old, mutation.new))
        run = _pytest(path.parent.parent, mutation.tests)
    if run.returncode == 1:
        return None
    if run.returncode == 0:
        return "survived: its tests pass"
    return (f"its tests ended with status {run.returncode}:\n"
            f"{run.stdout[-2000:]}{run.stderr[-2000:]}")


def main(names: list) -> int:
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    tests = list(dict.fromkeys(m.tests for m in chosen))
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp)
        where = subprocess.run([sys.executable, "-c", "import ternstab; print(ternstab.__file__)"],
                               env={**os.environ, "PYTHONPATH": str(src)},
                               capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            print(f"the tests would not import the copy: ternstab is {where!r}", file=sys.stderr)
            return 1
        for args in tests:
            run = _pytest(src, args)
            if run.returncode != 0:
                print(f"unmutated tests fail: {' '.join(args)}\n{run.stdout[-2000:]}",
                      file=sys.stderr)
                return 1
    failed = 0
    for mutation in chosen:
        problem = _outcome(mutation)
        print(f"{mutation.name}: {'killed' if problem is None else problem}", flush=True)
        failed += problem is not None
    print(f"{len(chosen) - failed} of {len(chosen)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
