"""Record the stored answers in expected.json from the current code.

    python3 perfbench/record.py

Runs every input of every pool once (library ops in one process, each CLI
request in its own) and keeps the exact outputs: class numbers, orbit
degrees, verdicts, relations, orbit sizes and recognized points.  Answers
that fail the benchmark's independent exact checks are not written.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    ops = run.all_pool_ops()
    result = run.run_pass(ops, traced=False)
    answers = {}
    for op in ops:
        r = result["results"][run.op_id(op)]
        if op["kind"] == "cli":
            if r["code"] != 0:
                print(f"{run.op_id(op)}: exit {r['code']}", file=sys.stderr)
                return 1
            answers[run.op_id(op)] = run.cli_output(r)
        elif r["error"] is None:
            answers[run.op_id(op)] = run.stored_answer(r["output"])
    problems = {k: v for k, v in run.check_pass(ops, result, answers).items() if v}
    if problems:
        for oid, probs in problems.items():
            print(f"{oid}: {'; '.join(probs)}", file=sys.stderr)
        return 1
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
