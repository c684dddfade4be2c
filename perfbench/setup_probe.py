"""One set-up sample: time `import flataff` plus loading a workload's
corpus from JSON, in a fresh interpreter, and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD

run.py starts this several times per run and reports the median.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads  # imports flataff and flataff.cli

    workloads.load_corpus(sys.argv[1])
    print(repr(time.perf_counter() - t0))
