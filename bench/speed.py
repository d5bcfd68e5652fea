"""Host-speed probe: a fixed numpy kernel timed beside every request.

On a shared host the speed a process gets drifts by a third or more within
seconds as other tenants come and go, and the drift moves every timing of a
run together.  The probe is the benchmark's own code on fixed inputs, so no
change to semiphi can alter its work: its time measures the host alone.

A busy host slows different kinds of work by different amounts, so each
workload is rescaled by the kernel that does the kind of work its requests
spend their time on (``workloads.PROBE_KERNEL``):

* ``dense``: complex 16 x 16 products in a Python loop, Hermitian eigenvalue
  solves and an SVD, like the extension engine's linear algebra;
* ``dispatch``: numpy calls on 4 x 4 arrays in a Python loop (conversion,
  finiteness check, einsum, norm), like the per-pair loops of the verdicts,
  whose time goes to call overhead rather than arithmetic.

After each request the kernel runs a number of times in proportion to the
request's duration (``PROBE_SHARE`` of it, at least once), so the probe
samples the host about as often as the requests spend time on it.  A timing
is rescaled by ``NOMINAL_S[kernel]`` over the mean kernel time around it:
it then reads as on a host where the kernel takes ``NOMINAL_S[kernel]``.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# About each kernel's mean time on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4, OpenBLAS, one BLAS thread), so that rescaled timings stay close to
# wall-clock ones there.  They are only units: any fixed values would do.
NOMINAL_S = {"dense": 1.5e-3, "dispatch": 1.0e-3}
PROBE_SHARE = 0.05  # probe time per second of request time


def _dense_kernel(rng: np.random.Generator):
    mats = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)) for _ in range(8)]
    hermitian = [a @ a.conj().T for a in mats]
    tall = rng.standard_normal((400, 24)) + 1j * rng.standard_normal((400, 24))

    def run() -> float:
        acc = 0.0
        for a in hermitian:
            for b in hermitian:
                acc += np.trace(a @ b).real
            acc += np.linalg.eigvalsh(a)[0]
        return acc + np.linalg.svd(tall, compute_uv=False)[0]

    return run


def _dispatch_kernel(rng: np.random.Generator):
    xs = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(6)]
    kraus = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))

    def run() -> float:
        acc = 0.0
        for x in xs:
            for y in xs:
                a = np.asarray(x.conj().T @ y, dtype=complex)
                if not np.all(np.isfinite(a)):
                    raise ValueError("non-finite probe product")
                acc += np.linalg.norm(np.einsum("tmq,qr,tnr->mn", kraus, a, kraus.conj()))
        return acc

    return run


KERNELS = {"dense": _dense_kernel, "dispatch": _dispatch_kernel}


class Probe:
    """Times one fixed kernel and keeps its samples, so a run can average
    them over the whole run or around each request."""

    def __init__(self, kernel: str) -> None:
        self._kernel = KERNELS[kernel](np.random.default_rng(0))
        self.nominal_s = NOMINAL_S[kernel]
        self.total_s = 0.0
        self.runs = 0
        # (midpoint, seconds, runs) of every sample, for local averages
        self.samples: list[tuple[float, float, int]] = []

    def sample(self, request_s: float) -> None:
        """Run the kernel after a request that took ``request_s`` seconds."""
        reps = max(1, math.ceil(PROBE_SHARE * request_s / self.nominal_s))
        start = time.perf_counter()
        for _ in range(reps):
            self._kernel()
        end = time.perf_counter()
        self.total_s += end - start
        self.runs += reps
        self.samples.append((0.5 * (start + end), end - start, reps))

    def reset(self) -> None:
        self.total_s = 0.0
        self.runs = 0
        self.samples.clear()

    def local_scales(self, midpoints: list[float], window_s: float) -> list[float]:
        """For each time in ``midpoints``, the factor that takes a timing
        made then to the nominal host speed: the nominal time over the mean
        kernel time of the samples within ``window_s`` either side (at
        least the nearest sample on each side)."""
        times = [t for t, _, _ in self.samples]
        cum_s, cum_runs = [0.0], [0]
        for _, sec, reps in self.samples:
            cum_s.append(cum_s[-1] + sec)
            cum_runs.append(cum_runs[-1] + reps)
        out = []
        for mid in midpoints:
            at = bisect.bisect(times, mid)
            lo = min(bisect.bisect_left(times, mid - window_s), max(at - 1, 0))
            hi = max(bisect.bisect(times, mid + window_s), min(at + 1, len(times)))
            out.append(self.nominal_s * (cum_runs[hi] - cum_runs[lo]) / (cum_s[hi] - cum_s[lo]))
        return out

    def mean_s(self) -> float:
        return self.total_s / self.runs

    def scale(self) -> float:
        """Factor that takes this run's timings to the nominal host speed."""
        return self.nominal_s / self.mean_s()
