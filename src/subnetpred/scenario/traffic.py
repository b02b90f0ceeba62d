"""Slot-level traffic of the interfering sub-networks.

Each sub-network has one slot per SA pair (slot k belongs to pair k) and
one of two models:

* bernoulli isochronous -- every slot transmits with probability eta.
* push-pull -- the first n_reserved SA pairs are fixed pull pairs (periodic
  updates); the others are push pairs, which transmit only while executing
  a task burst.  Bursts start as a Poisson process of rate `intensity` per
  second and last a geometric number of cycles (mean burst_duration_s), so
  activity is persistent rather than per-slot coin flips.  A Bern(eta)
  transmission draw gates every scheduled slot on top.

This module samples each interferer's occupancy on its own slot grid
(`TrafficProcess.sample_own_slots`).  Sub-networks are not slot-synchronized:
the simulator maps that grid onto the victim's slots through a fractional
clock offset that drifts every cycle (see scenario/simulate.py).
"""

from __future__ import annotations

import numpy as np


def push_start_probability(model, dt):
    """Per-cycle probability that an idle push SA pair starts a burst."""
    return 1.0 - np.exp(-model.intensity * dt)


def push_stop_probability(model, dt):
    """Per-cycle probability that an ongoing burst ends (geometric length)."""
    mean_cycles = max(model.burst_duration_s / dt, 1.0)
    return 1.0 / mean_cycles


class TrafficProcess:
    """Stateful per-sub-network traffic with persistent push bursts.

    step and sample_own_slots work on a block of TX cycles at once, from
    uniforms drawn beforehand: per cycle, n_sn x n_push push-start and as
    many push-stop uniforms (n_push is 0 for bernoulli), then n_sn x n_sa
    Bern(eta) uniforms.
    """

    def __init__(self, model, n_sn, n_sa, dt, rng):
        self.model = model
        self.n_sa = n_sa
        self.n_push = n_sa - model.n_reserved if model.variant == "push-pull" else 0
        self.start = push_start_probability(model, dt)
        self.stop = push_stop_probability(model, dt)
        self.activity = np.zeros((n_sn, n_sa), dtype=bool)
        if self.n_push:
            duty = self.start / max(self.start + self.stop, 1e-12)
            self.activity[:, model.n_reserved:] = (
                rng.random((n_sn, self.n_push)) < duty)

    def step(self, uniforms):
        """Burst states [b x n_sn x n_sa] after each cycle of a block, given
        the cycles' push-start and push-stop uniforms [b x 2 x n_sn x n_push].

        Per cycle a push pair's state becomes where(state, stays, starts),
        with starts = u_start < start and stays = not u_stop < stop.  The
        block is one scan of that recurrence: a cycle whose stay equals its
        start resets the state to that value, a start without a stay toggles
        it, and any other cycle holds it.  So the state is the last reset's
        value, or the carried state before any reset, XOR the parity of the
        toggles since; that is, the parity of the starts from the last
        reset on, with the carried state as a reset before the block.  It
        is boolean, so it is exact.
        """
        b = len(uniforms)
        shape = (b,) + self.activity.shape
        if not self.n_push:
            return np.broadcast_to(self.activity, shape)
        starts = uniforms[:, 0] < self.start
        stays = ~(uniforms[:, 1] < self.stop)
        # parity[i + 1]: XOR of the carried state and the starts of the
        # block's first i cycles; parity[0] is False
        parity = np.zeros((b + 2,) + starts.shape[1:], dtype=bool)
        parity[1] = self.activity[:, self.model.n_reserved:]
        parity[2:] = starts
        np.bitwise_xor.accumulate(parity, axis=0, out=parity)
        # last[t]: r + 1 for the last reset r <= t, or 0 when the block has
        # none before t; the state after cycle t is then
        # parity[t + 2] ^ parity[last[t]], the XOR of the starts of cycles
        # r to t (or of the carried state and every start so far)
        last = np.where(starts == stays, np.arange(1, b + 1)[:, None, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        out = np.zeros(shape, dtype=bool)
        np.bitwise_xor(parity[2:], np.take_along_axis(parity, last, axis=0),
                       out=out[:, :, self.model.n_reserved:])
        self.activity = out[-1]
        return out

    def sample_own_slots(self, activity, uniforms):
        """Occupancy chi [b x n_sn x n_sa] of each sub-network's own slots.

        Given the burst states [b x n_sn x n_sa] of a block of cycles (step)
        and their Bern(eta) uniforms of the same shape: slot k carries a
        transmission when SA pair k is scheduled (always, for bernoulli and
        pull; during a task burst, for push) and the Bern(eta) draw passes.
        """
        passed = uniforms < self.model.eta
        if self.model.variant == "bernoulli":
            return passed
        pull = np.arange(self.n_sa) < self.model.n_reserved
        return (activity | pull) & passed
