"""Host-speed calibration: a fixed kernel timed next to every measurement.

The host's speed drifts. On a 2-vCPU Xeon VM, one ``custom_multi``
operation took between 0.42 and 1.06 s over minutes, with no steal time and
with CPU time equal to wall time. Python-bound work swings by up to 2x, and
numpy-bound work by about 1.3x. That drift is larger than any bound a
regression check could use. The kernel below does a fixed amount of
Python-bound work of the kind the solver does per step: interpreter work and
numpy operations on arrays of a few thousand elements. A Python-bound time
``t`` measured next to kernel times ``k`` is reported as
``t * REFERENCE_S / mean(k)``. That is the time at the host speed where the
kernel takes ``REFERENCE_S``. Numpy-bound times drift less than the kernel,
so they stay raw. The raw times are recorded alongside.
"""

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.040


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    x = np.linspace(0.0, 1.0, 4096)
    y = np.empty_like(x)
    acc = 0.0
    start = perf_counter()
    for k in range(5000):
        np.multiply(x, 0.999, out=y)
        y += 0.001
        acc += float(y[k % 4096]) + math.sin(k)
        acc += sum(i * 0.5 for i in range(20))
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return elapsed


def factor(kernel_before: float, kernel_after: float) -> float:
    """Scale to reference host speed, from the kernel times around a measurement."""
    return REFERENCE_S / (0.5 * (kernel_before + kernel_after))
