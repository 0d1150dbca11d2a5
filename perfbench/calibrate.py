"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on change speed by up to half
within minutes, while a run lasts seconds. ``chunk`` is a fixed piece of
pure-Python work shaped like mellinkit's inner loop (small frozen dataclasses
validated in ``__post_init__``, closures over logs and powers, compensated
summation); it never calls mellinkit, so no change to the program moves it.
Timing it next to the ops and scaling every op time by
``NOMINAL_S / chunk time`` turns wall times into times at one fixed machine
speed: on a 2-vCPU x86 virtual machine the spread of 5 s medians fell from 0.22
to 0.03.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

#: wall time of one ``chunk`` at the reference speed (a quiet 2-vCPU x86
#: virtual machine); a calibrated time reads as wall time on that machine
NOMINAL_S = 0.0072
#: ``seconds`` keeps the fastest of this many chunks
REPEATS = 3
#: time of ``setup_probe.py baseline`` at the reference speed. Set-up is
#: mostly module loading, which the chunk does not follow; the baseline
#: imports do (on the same machine the spread of set-up times fell from
#: 0.38 to 0.09 once divided by the adjacent baseline times)
IMPORT_NOMINAL_S = 0.060


@dataclass(frozen=True)
class _Cell:
    k: int
    vals: tuple

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("negative index")
        for v in self.vals:
            z = complex(v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("non-finite entry")
        object.__setattr__(self, "vals", tuple(self.vals))


def _cell(k: int, order: int) -> _Cell:
    return _Cell(k, tuple(1.0 / (k + 1.0 + j) for j in range(order + 1)))


def _apply(cell: _Cell, log_x: float) -> float:
    acc, lp = 0.0, 1.0
    for v in cell.vals:
        acc += v * lp
        lp *= log_x
    return acc


def chunk(n: int = 300) -> float:
    total, comp = 0.0, 0.0
    for i in range(n):
        x = 0.05 + (i % 97) / 100.0
        log_x = math.log(x)
        for k in range(8):
            t = _apply(_cell(k, 2), log_x) * x ** k
            s = total + t
            comp += (total - s) + t if abs(total) >= abs(t) else (t - s) + total
            total = s
    return total + comp


def seconds() -> float:
    """Current wall time of one chunk (the fastest of REPEATS)."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        chunk()
        best = min(best, time.perf_counter() - t0)
    return best
