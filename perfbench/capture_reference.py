#!/usr/bin/env python3
"""Recapture ``perfbench/reference.json``: the report digest of every
``fig5_sweep`` and ``attack_shootout`` operation.

    python3 perfbench/capture_reference.py

Only rerun this when a change is *meant* to alter simulated behaviour;
the benchmark fails any run whose reports differ from these digests.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, fig5, shootout  # noqa: E402


def main() -> int:
    reference = {fig5.NAME: fig5.capture_reference(),
                 shootout.NAME: shootout.capture_reference()}
    with open(common.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(v) for v in reference.values())} digests to "
          f"{os.path.relpath(common.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
