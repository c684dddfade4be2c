"""numpy loads with one BLAS thread here, as a search loads it, so the
tests that fork search workers fork a process that runs one thread."""

import os

for blas in ("OPENBLAS", "OMP", "MKL"):
    os.environ.setdefault(f"{blas}_NUM_THREADS", "1")
