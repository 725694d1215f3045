"""A fixed, hypkm-free reference workload that gauges interpreter speed.

On a shared host the interpreter's speed swings by up to half, over spells
of a second to minutes, and a whole 30 s run can land in a slow spell.  So
the benchmark times every operation on a scaled clock (``ScaledClock``): it
times this reference right before the operation, every ``TICK_S`` during it
(from a SIGALRM handler, in the one thread) and right after it, and scales
each stretch of the operation's time by ``REF_S`` over the reference's time
at its two ends.  A spell that slows both cancels; a change to hypkm moves
only the operation.  The reference imports nothing from hypkm, so no change
to the program can move it.

The work mixes what hypkm's interpreter-bound paths do: float arithmetic
and math calls, small tuples and lists, dict updates, function calls,
Fraction arithmetic and string formatting.  It does no big-integer work,
whose speed does not follow these swings.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from fractions import Fraction

#: nominal reference time in seconds: scaled times are seconds at the
#: interpreter speed at which ``sample()`` reads REF_S.
REF_S = 0.001

#: the reference is timed this many times per sample; the sample is the
#: fastest, since interrupts only ever add time.
TRIES = 3

#: seconds between reference samples taken during an operation.
TICK_S = 0.2


def _step(x: float, y: float, lam: float) -> tuple[float, float]:
    return (1.0 - lam) * x + lam * y, abs(x - y)


def _work() -> int:
    x, acc = 0.3, 0.0
    rows = []
    seen: dict[int, float] = {}
    for i in range(400):
        y = math.sin(i * 0.37) * 0.5 + 0.5
        x, d = _step(x, y, 0.25)
        acc += math.sqrt(d + 1.0)
        seen[i & 63] = acc
        rows.append(f"{i},{x:.17g},{d:.17g}")
    q = Fraction(0)
    for k in range(1, 25):
        q += Fraction(1, k * (k + 1))
    pts = sorted((round(v, 3), k) for k, v in seen.items())
    return len(rows) + len(pts) + q.denominator


def sample() -> float:
    """Seconds of one reference run: the fastest of TRIES."""
    best = math.inf
    for _ in range(TRIES):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Times one operation on the reference-scaled clock.

    ``start()`` and ``stop()`` bracket the operation.  The reference samples
    split it into stretches; ``raw_s`` is the operation's own time (the
    samples taken during it excluded) and ``scaled_s`` the sum of each
    stretch times REF_S over the mean of the samples at its ends.  A signal
    handler runs between bytecodes, so a long call into C delays a sample
    and lengthens a stretch, nothing more.
    """

    def __init__(self):
        self.raw_s = self.scaled_s = 0.0
        self._ref = self._since = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        ref = sample()
        if self._since:
            self._stretch(t0 - self._since, ref)
        self._ref, self._since = ref, time.perf_counter()

    def _stretch(self, dt: float, ref: float) -> None:
        self.raw_s += dt
        self.scaled_s += dt * 2 * REF_S / (self._ref + ref)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._sample()
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        self.raw_s = self.scaled_s = 0.0
        self._since = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t_end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._stretch(t_end - self._since, sample())
