#!/usr/bin/env python3
"""Require every perfbench run to read correct with no failed operation.

Usage: perfbench-check.py RUN.out [RUN.out ...]

Each file is the standard output of one ``perfbench/run.py`` run; its last
line is the result object ``{"correct", "attempted", "failed", "metrics"}``.
A run fails the check when that line is missing or unparsable, reads
``correct: false`` (an output check or a regime floor failed; the run's
standard error names it), attempts nothing, or counts a failed operation.
"""

import json
import sys


def check(path: str) -> str | None:
    """The problem with one run's result line, or ``None``."""
    try:
        with open(path) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError) as exc:
        return f"no result line ({exc.__class__.__name__}: {exc})"
    if result.get("correct") is not True:
        return "correct is not true"
    if int(result.get("attempted", 0)) <= 0:
        return "attempted nothing"
    if int(result.get("failed", -1)) != 0:
        return f"failed = {result.get('failed')}"
    return None


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bad = 0
    for path in argv[1:]:
        problem = check(path)
        print(f"{path}: {problem or 'ok'}")
        bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
