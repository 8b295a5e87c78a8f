#!/usr/bin/env python3
"""Write perfbench/references.json from the current engine.

The benchmark compares every case tree, comparison, candidate check and
the granular2d root reduction against these digests.  Run this only on a
commit whose outputs are known good (they were frozen at the commit that
added the benchmark), because it makes the checks pass by construction:

    python3 perfbench/freeze_references.py

Case trees are frozen twice: as text, and with every solved value replaced
by its values at fixed points, because the text of some solved values
changes from process to process (see ``worker.solved_values``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import worker


def main() -> int:
    os.chdir(Path(__file__).resolve().parent.parent)
    sys.path.insert(0, "src")
    refs = {}
    for name, build in sorted(worker.WORKLOADS.items()):
        frozen = {}
        for op in build(0, {}):
            if op.frozen is not None:
                frozen[op.label] = op.frozen(op.run())
        refs[name] = frozen
    worker.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {worker.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
