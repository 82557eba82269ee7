"""Host-speed sampler: how fast this vCPU ran while a timed piece of work ran.

On a shared host the speed of a vCPU changes with what runs on its
neighbours. On the 2-vCPU virtual machine this benchmark was written on, the
same ENVAR fit took 0.31 s or 0.70 s depending on the moment, and a slow
stretch could last minutes, in CPU time as much as in wall time (steal time
stayed near zero). ``SpeedSampler`` samples that speed while the work runs:
an interval timer interrupts the process every ``INTERVAL_S`` and the handler
times a fixed probe, a piece of work that does not depend on envarkit. The
probe's reference time over its measured time, averaged over the samples, is
the host's speed relative to the reference; ``at_reference`` scales measured
seconds to seconds at the reference speed:

    with SpeedSampler(descent_probe) as sampler:
        work()
    seconds = at_reference(elapsed, sampler.speed())

Two probes: ``loop_probe`` uses only the standard library, so it can run
before numpy and envarkit are imported (set-up time); ``descent_probe`` adds
a scipy ``expm_frechet`` of a 5 x 5 matrix, the kind of call an ENVAR descent
step makes. A sample costs under 2% of the time it samples, the same on
every commit. Interval timers are not inherited across ``fork``.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP = 2000


def loop_probe() -> None:
    x = 1
    for _ in range(LOOP):
        x = x * 3 % 1000003


# probe seconds at the reference speed: about the fastest the machine above ran
loop_probe.reference_s = 0.14e-3

_FRECHET_ARGS = []


def descent_probe() -> None:
    if not _FRECHET_ARGS:
        import numpy as np
        from scipy.linalg import expm_frechet

        rng = np.random.default_rng(0)
        _FRECHET_ARGS.extend((expm_frechet, 0.3 * rng.standard_normal((5, 5)),
                              rng.standard_normal((5, 5))))
    frechet, a, e = _FRECHET_ARGS
    loop_probe()
    frechet(a, e)


descent_probe.reference_s = 0.28e-3


def at_reference(seconds: float, speed: float) -> float:
    """``seconds`` measured at host ``speed``, expressed at the reference speed."""
    return seconds * speed


class SpeedSampler:
    """Times ``probe`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self, probe=descent_probe):
        self.probe = probe
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.probe()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        self.probe()  # untimed: loads what the probe needs
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()  # work shorter than one interval still gets a sample

    def speed(self) -> float:
        """Mean of reference time over sample time: 1.0 at the reference speed.

        The work done in a stretch of time is proportional to the speed in
        it, so the mean of the speeds, not of the sample times, is the one
        that scales elapsed time."""
        ref = self.probe.reference_s
        return sum(ref / d for d in self.samples) / len(self.samples)

    def __enter__(self) -> SpeedSampler:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
