"""Sub-network placement: uniform centers with a minimum spacing, SA offsets
drawn as a binomial point process on a disc around each center."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PlacementError(RuntimeError):
    """Area cannot host the requested number of sub-networks at min distance."""


@dataclass
class MobilityState:
    """An rdmm state: the sub-network centers, their headings, the fixed SA
    offsets and the box the centers move in."""

    positions: np.ndarray          # [N x 2] centers, meters
    headings: np.ndarray           # [N] radians
    offsets: np.ndarray            # [N x M x 2] SA offsets from center
    bounds: tuple                  # (lo_x, lo_y, hi_x, hi_y), meters


def disc_offsets(n_sn, n_sa, radius, rng):
    """Uniform draws on a disc of the given radius, [n_sn x n_sa x 2]."""
    rad = radius * np.sqrt(rng.random((n_sn, n_sa)))
    ang = rng.uniform(0.0, 2.0 * np.pi, (n_sn, n_sa))
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)


# candidate draws per sub-network before deploy gives up
MAX_TRIES_PER_SN = 500


def deploy(config, rng):
    """Place sub-network centers uniformly with pairwise spacing >= min_distance.

    Centers stay sn_radius away from the area border so SA pairs remain
    inside; DeploymentConfig makes both sides exceed 2 sn_radius.  Raises
    PlacementError after MAX_TRIES_PER_SN draws for one sub-network.
    """
    n = config.n_subnetworks
    r = config.sn_radius
    width, height = config.area
    lo_x, hi_x = r, width - r
    lo_y, hi_y = r, height - r

    centers = np.empty((n, 2))
    for i in range(n):
        for _ in range(MAX_TRIES_PER_SN):
            cand = rng.uniform([lo_x, lo_y], [hi_x, hi_y])
            if i == 0 or np.all(np.linalg.norm(centers[:i] - cand, axis=1)
                                >= config.min_distance):
                centers[i] = cand
                break
        else:
            raise PlacementError(
                f"could not place sub-network {i + 1}/{n} at min distance "
                f"{config.min_distance} m inside {config.area}")

    headings = rng.uniform(0.0, 2.0 * np.pi, n)
    offsets = disc_offsets(n, config.sa_pairs_per_sn, r, rng)
    return MobilityState(positions=centers, headings=headings, offsets=offsets,
                         bounds=(lo_x, lo_y, hi_x, hi_y))
