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
        """
        shape = (len(uniforms),) + self.activity.shape
        if not self.n_push:
            return np.broadcast_to(self.activity, shape)
        starts = uniforms[:, 0] < self.start
        stays = ~(uniforms[:, 1] < self.stop)
        out = np.zeros(shape, dtype=bool)
        push = self.activity[:, self.model.n_reserved:]
        for t in range(len(uniforms)):
            push = out[t, :, self.model.n_reserved:] = np.where(push, stays[t],
                                                                starts[t])
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
