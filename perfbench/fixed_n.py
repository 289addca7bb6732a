"""Median eigh and SVD time of the Hamiltonian at fixed N, through numkit.

    python3 perfbench/fixed_n.py

Prints one JSON object mapping ``numkit.<op>_s.N<n>`` to seconds. These are
the layer costs at N = 256 and N = 1024 that sweeps pay once per grid point.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trotterlab import numkit  # noqa: E402
from trotterlab.hamiltonian import GridSpec, build_pair  # noqa: E402

SIZES = (256, 1024)
REPEATS = 3


def main() -> None:
    out = {}
    for n in SIZES:
        total = build_pair(GridSpec.canonical(-math.pi, math.pi, 1.0 / n)).total
        for name, fn in (("eigh", numkit.hermitian_eig), ("svd", numkit.spectral_norm)):
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                fn(total)
                times.append(time.perf_counter() - start)
            out[f"numkit.{name}_s.N{n}"] = statistics.median(times)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
