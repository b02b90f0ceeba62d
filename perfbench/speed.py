"""Timing that is steady on a shared host: wall time scaled by a reference loop.

The benchmark runs on a few cores of a busy shared machine whose speed
swings by up to 2.2x for tens of seconds at a time while other tenants load
it; no stretch of a short run is then sure to run at full speed, so neither
the fastest nor the median unit of work is steady from run to run.  The
same swings slow a fixed reference loop.  While a stretch of work is timed,
the loop runs as a probe at both ends of it and, unless the stretch is short,
every SAMPLE_INTERVAL_S from a timer signal.  Each piece of wall time
between two probes is scaled by REF_NOMINAL_S over the mean of the two.
Probe time is not counted.  A change to the program moves the scaled time
as it moves the wall time, because the loop lives here and not in the
program.  Raw wall times are reported too.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the time of `_reference_loop` on the 2-vCPU Intel Xeon VM the
# benchmark's figures come from, when lightly loaded.  It only sets the scale
# of the reported seconds: while the loop takes this long, scaled time is
# wall time.
REF_NOMINAL_S = 0.4e-3
SAMPLE_INTERVAL_S = 0.02
# probes that open and close a stretch; their median counts, so that one
# interrupted probe does not skew the stretch
END_PROBES = 3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64)) * 0.1
_B = _rng.standard_normal((128, 64))
_V = _rng.standard_normal((1, 64))
_X = _rng.standard_normal((4, 16))
_W_IN = _rng.standard_normal((16, 64)) * 0.2
_W_LSTM = _rng.standard_normal((64, 256)) * 0.1
_KEYS = [f"k{i}" for i in range(32)]
_ONES = np.ones(8)

_sampling = True


def set_sampling(on):
    """Turn the timer probes on or off; when off, stretches are probed at
    their ends only."""
    global _sampling
    _sampling = on


def _reference_loop():
    """A fixed mix of the kinds of code the program runs, in about equal
    shares of time: interpreted Python, tiny numpy calls, a batch-1
    attention and LSTM step like one decision, and batch-128 matrix
    products.  The kinds slow down by different amounts when the host is
    loaded.  In a 200 s trace on a loaded host, such a mix tracked decisions,
    the simulator and the desk pipeline to within 5-6% (log std over 2 s
    windows, against 15-27% unscaled); any one kind alone left one of them
    10% off."""
    acc = 0.0
    for i in range(300):                            # interpreted Python
        d = {"a": i, "b": i + 1}
        acc += d["a"] * d["b"] % 7
    v = _ONES
    for _ in range(60):                             # tiny numpy calls
        v = np.add(v, 1.0)
    h = np.tanh(_X @ _W_IN)                         # one decision-like step
    s = h @ _A @ h.T
    s = np.exp(s - s.max(axis=1, keepdims=True))
    h = h + (s / s.sum(axis=1, keepdims=True)) @ h
    h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-5)
    c = np.zeros(64)
    for t in range(4):
        z = h[t] @ _W_LSTM
        c = np.tanh(z[:64]) * c + np.tanh(z[64:128])
    for _ in range(4):                              # small vector work
        table = {k: j * 0.5 for j, k in enumerate(_KEYS)}
        g = np.tanh(_V @ _A)
        acc += sum(table.values()) + float(np.exp(-g * g).sum())
    acc += float((_B @ _A).sum())                   # a batch-128 product
    return acc + float(v[0]) + float(c.sum())


class Stopwatch:
    """Sums the wall time of timed stretches, and that time scaled.

    `start()` opens a stretch and `stop()` closes it, returning the
    stretch's (wall seconds, scale), where scale is scaled over wall time.
    Between them probes run from a timer signal, unless `timer=False`;
    `end_probes` probes open and close the stretch.
    """

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self._probes = None        # (start, end, loop seconds) of each probe
        self._timer = False
        self._end_probes = END_PROBES

    def _probe(self, repeats=1):
        start = perf_counter()
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            _reference_loop()
            times.append(perf_counter() - t0)
        self._probes.append((start, perf_counter(), statistics.median(times)))

    def _on_alarm(self, signum, frame):
        if self._probes is not None:
            self._probe()

    def start(self, timer=True, end_probes=END_PROBES):
        self._probes = []
        self._end_probes = end_probes
        self._probe(end_probes)
        self._timer = timer and _sampling
        if self._timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(self._end_probes)
        probes, self._probes = self._probes, None
        wall = scaled = 0.0
        for (_, end, d0), (start, _, d1) in zip(probes, probes[1:]):
            piece = start - end
            wall += piece
            scaled += piece * 2.0 * REF_NOMINAL_S / (d0 + d1)
        self.wall += wall
        self.scaled += scaled
        return wall, (scaled / wall if wall > 0 else 1.0)
