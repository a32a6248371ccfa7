"""Set-up probe: a fresh interpreter imports discflux and builds one workload's inputs.

``run.py`` times this whole process from start to exit; that is ``setup_s``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import discflux  # noqa: E402

if not os.path.abspath(discflux.__file__).startswith(SRC + os.sep):
    sys.exit(f"discflux was imported from {discflux.__file__}, not from {SRC}")

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
