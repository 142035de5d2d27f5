"""The benchmark as a module, from the repository root.

    python -m benchmarks.e2e run --seed 2025 [--workload W] [--trace 1] \
        [--out runs.jsonl]
    python -m benchmarks.e2e compare parent.jsonl change.jsonl

``run`` takes the arguments of ``run.py``, ``compare`` those of
``compare.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

COMMANDS = {"run": run.main, "compare": compare.main}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in COMMANDS:
        print(
            "usage: python -m benchmarks.e2e {run,compare} [args...]",
            file=sys.stderr,
        )
        return 2
    return COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
