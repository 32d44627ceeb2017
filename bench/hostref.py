"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark samples ``host_reference()`` between requests and scales each
round's latencies to a host on which the kernel takes ``NOMINAL_S``.  The
kernel mixes the kinds of work the requests do, in code the program cannot
change: small numpy calls (a degree-8 Bernstein evaluation in the style of
``model.bernstein_weights``), boolean array work (one m=3 level update in the
style of ``mc``) and interpreter object churn (dicts of lists and tuples).
"""

import time

import numpy as np

NOMINAL_S = 1e-3  # the kernel's time on the reference host
# A request's latency is scaled by (NOMINAL_S / kernel time) ** HOST_EXPONENT.
# When the 2-vCPU host of bench/README.md slows down, request latencies grow
# about as the kernel's time to the power 1.3: on three sets of raw runs,
# this exponent about halved the spread over seeds of the dynamics workloads
# and left the tree workloads as steady as with 1.
HOST_EXPONENT = 1.3

_POINTS = (0.2, 0.7, 0.4, 0.9)
_COEFFS = np.linspace(0.0, 1.0, 9)
_UNIFORM = np.linspace(0.0, 1.0, 3**7 * 3).reshape(3**7, 3)
_CHILD = (np.arange(3**7 * 3) % 5 < 2).reshape(3**7, 3)


def host_reference() -> float:
    """Seconds for one pass of the reference kernel."""
    t0 = time.perf_counter()
    for x in _POINTS:
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.where(pts > 0.5, 1.0 - pts, pts)
        w = np.empty((pts.size, 9))
        w[:, 0] = (1.0 - base) ** 8
        ratio = base / (1.0 - base)
        for k in range(8):
            w[:, k + 1] = w[:, k] * ((8 - k) / (k + 1)) * ratio
        float(w[0] @ _COEFFS)
    for _ in range(3):
        success = _UNIFORM < np.where(_CHILD, 0.7, 0.4)
        n_b = (success & _CHILD).sum(axis=1)
        n_r = (success & ~_CHILD).sum(axis=1)
        float((n_b > n_r).mean())
    table = {}
    for i in range(300):
        table[str(i)] = [float(i), (i, i % 7)]
    return time.perf_counter() - t0


def median_reference(samples: int) -> float:
    """Median seconds of ``samples`` passes of the kernel."""
    times = sorted(host_reference() for _ in range(samples))
    return times[samples // 2]
