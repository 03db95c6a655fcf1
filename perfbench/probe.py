"""Machine-speed probe.

On a shared machine the speed of one core drifts by 20-40 % over minutes,
and every job of a run slows together.  The probe times a fixed kernel
between jobs, in a process of its own so nothing the library does (its
heap, its imports, its objects) can change the kernel's time; only the
machine can.  The kernel mixes the library's kinds of work: Python integer,
set and list arithmetic and numpy uint8 table gathers.

``wall_s`` is the measured time scaled by REFERENCE_S / (median probe time
of the run): seconds at the machine speed at which the probe takes
REFERENCE_S.  The raw seconds are reported next to it.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median probe time on the 2-vCPU Intel Xeon virtual machine the benchmark
# was defined on; it sets only the scale of wall_s, not its spread.
REFERENCE_S = 0.020


def kernel() -> int:
    """About 30 ms of the library's kinds of work, at small sizes."""
    # digit-parity filter into a set (coset.build_T)
    members = {i for i in range(1, 30_000) if (i & 0x5555).bit_count() & 1}
    # table-lookup double loop over Python lists (polys.mul)
    mul = [[(a * b) % 251 for b in range(16)] for a in range(16)]
    acc = [0] * 240
    for i, ca in enumerate(range(1, 120)):
        row = mul[ca & 15]
        for j in range(120):
            acc[i + j] ^= row[j & 15]
    # uint8 table gathers with an XOR reduction (cyclic.gram_matrix)
    table = (np.arange(16 * 16, dtype=np.uint32) % 251).astype(np.uint8).reshape(16, 16)
    rows = np.random.default_rng(0).integers(0, 16, size=(40, 1024), dtype=np.uint8)
    gram = [np.bitwise_xor.reduce(table[r[None, :], rows], axis=1) for r in rows]
    # modular index gather over a boolean array (bounds.bch_search)
    idx = np.arange(1 << 15, dtype=np.int64)
    mem = (idx & 3) == 1
    runs = [int(mem[a * idx % idx.size].sum()) for a in (3, 5, 7)]
    return len(members) + acc[7] + int(gram[5].sum()) + sum(runs)


class SpeedProbe:
    """A probe process; ``measure()`` returns one kernel time in seconds."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def serve():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    serve()
