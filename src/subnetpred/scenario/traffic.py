"""Slot-level traffic of the interfering sub-networks.

Two models:

* bernoulli isochronous -- every slot is owned round-robin by one SA pair
  and carries a transmission with probability eta.
* push-pull -- the first n_reserved slots belong to fixed pull SA pairs
  (periodic updates); the remaining slots belong 1:1 to the push SA pairs,
  which transmit only while executing a task burst.  Bursts start as a
  Poisson process of rate `intensity` per second and last a geometric
  number of cycles (mean burst_duration_s), so activity is persistent
  rather than per-slot coin flips.  A Bern(eta) transmission draw gates
  every scheduled slot on top.

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
    """Stateful per-sub-network traffic with persistent push bursts."""

    def __init__(self, model, n_sn, n_sa, dt, rng):
        self.model = model
        self.n_sn = n_sn
        self.n_sa = n_sa
        self.start = push_start_probability(model, dt)
        self.stop = push_stop_probability(model, dt)
        self.activity = np.zeros((n_sn, n_sa), dtype=bool)
        if model.variant == "push-pull":
            duty = self.start / max(self.start + self.stop, 1e-12)
            self.activity[:, model.n_reserved:] = (
                rng.random((n_sn, n_sa - model.n_reserved)) < duty)

    def step(self, rng):
        """Advance burst states by one TX cycle."""
        if self.model.variant != "push-pull":
            return
        push = self.activity[:, self.model.n_reserved:]
        starts = rng.random(push.shape) < self.start
        stops = rng.random(push.shape) < self.stop
        self.activity[:, self.model.n_reserved:] = np.where(push, ~stops, starts)

    def sample_own_slots(self, rng, n_slots):
        """Occupancy and owner of each sub-network's own slot grid.

        Returns (chi [n_sn x n_slots], owner [n_slots]).  Slot k belongs to
        SA pair k mod n_sa (pull pairs first); a slot carries a
        transmission when its owner is scheduled (always, for bernoulli and
        pull; during a task burst, for push) and the Bern(eta) draw passes.
        """
        owner = np.arange(n_slots) % self.n_sa
        passed = rng.random((self.n_sn, n_slots)) < self.model.eta
        if self.model.variant == "bernoulli":
            return passed, owner
        scheduled = self.activity[:, owner]
        scheduled[:, :self.model.n_reserved] = True
        return scheduled & passed, owner
