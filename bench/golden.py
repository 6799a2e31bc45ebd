"""Golden CLI corpus: exit codes and stdout of fixed invocations, as a diff aid.

    python3 bench/golden.py regen   # rewrite bench/golden/corpus.json from the current tree
    python3 bench/golden.py diff    # print the differences against it; exit 1 if any

The corpus holds the `cli` workload's invocations for seed 0, together with
their input files, so it stays fixed when the benchmark's seeds change.  A
refactor that keeps output bytes shows an empty diff.  No benchmark workload
reads the corpus: it decides no pass or failure.
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path

import spec
from worker import Cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "golden" / "corpus.json"
GOLDEN_SEED = 0


def run_cases(files: dict, cases: list) -> list[dict]:
    cli = Cli(files, cases)
    try:
        out = []
        for case in cases:
            res = cli.invoke(case["argv"])
            out.append({"name": case["name"], "argv": case["argv"],
                        "exit": res["exit"], "stdout": res["stdout"]})
        return out
    finally:
        cli.close()


def regen() -> int:
    made = spec.cli_tasks(GOLDEN_SEED)
    cases = run_cases(made["files"], made["tasks"])
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"files": made["files"], "cases": cases}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS.relative_to(ROOT)}")
    return 0


def diff() -> int:
    corpus = json.loads(CORPUS.read_text())
    changed = 0
    for old, new in zip(corpus["cases"], run_cases(corpus["files"], corpus["cases"])):
        if old == new:
            continue
        changed += 1
        print(f"--- {old['name']}: exit {old['exit']} -> {new['exit']}")
        sys.stdout.writelines(difflib.unified_diff(
            old["stdout"].splitlines(keepends=True), new["stdout"].splitlines(keepends=True),
            "golden", "current"))
    print(f"{changed} of {len(corpus['cases'])} cases differ")
    return 1 if changed else 0


if __name__ == "__main__":
    commands = {"regen": regen, "diff": diff}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]]())
