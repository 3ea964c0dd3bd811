#!/usr/bin/env python3
"""Record the reference results that ``workload.py`` checks against.

    python3 perfbench/record_reference.py

Runs each workload's study once at workers=1 for the default seed and the
holdout seed and writes ``perfbench/reference.json``.  Re-record only when a
change is meant to alter results, and say why in the change.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1)   # the default seed and the holdout seed

# Another BLAS thread count may change float sums in the last digits;
# workload.py compares floats within REFERENCE_REL_TOL.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import studies  # noqa: E402  (needs the path and BLAS setting above)


def main():
    reference = {name: {str(seed): workload.study(seed, 1) for seed in SEEDS}
                 for name, workload in studies.WORKLOADS.items()}
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
