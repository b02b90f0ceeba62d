"""Mobility models: random-direction movement with collision avoidance, and
fixed alley circuits for the factory-floor layout."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .deploy import MobilityState, disc_offsets


def _propose(positions, headings, step, bounds):
    """Candidate positions one step along the headings, reflected into the
    bounds; a reflection flips the matching heading component."""
    lo, hi = np.array(bounds[:2]), np.array(bounds[2:])
    unit = np.array([np.cos(headings), np.sin(headings)]).T
    cand = positions + step * unit
    below, above = cand < lo, cand > hi
    flip = below | above
    if flip.any():
        cand = np.where(below, 2.0 * lo - cand, np.where(above, 2.0 * hi - cand, cand))
        unit = np.where(flip, -unit, unit)
    return cand, np.arctan2(unit[:, 1], unit[:, 0])


def _crowded(cand, guard):
    """Sub-networks closer than guard to any other candidate position."""
    x, y = cand[:, 0], cand[:, 1]
    dx, dy = x[:, None] - x, y[:, None] - y
    dist = np.sqrt(dx * dx + dy * dy)          # planar_norm of the differences
    np.fill_diagonal(dist, np.inf)
    return (dist < guard).any(axis=1)


# near-collision resamples per step before the stragglers stay put
MAX_RETRIES = 8


def step_mobility(state, speed, dt, min_distance, rng):
    """One random-direction (rdmm) step; dt must be positive.

    Constant speed, reflection at the border, heading resampled on
    near-collision; stragglers stay put for the cycle.  Collisions are
    detected with a 2-step hysteresis margin so accepted positions always
    satisfy the min-distance invariant exactly.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    step = speed * dt
    if step == 0.0:
        return state
    pos = state.positions
    head = state.headings.copy()
    cand, cand_head = _propose(pos, head, step, state.bounds)
    guard = min_distance + 2.0 * step
    for _ in range(MAX_RETRIES):
        bad = _crowded(cand, guard)
        if not bad.any():
            break
        head[bad] = rng.uniform(0.0, 2.0 * np.pi, int(bad.sum()))
        cand[bad], cand_head[bad] = _propose(pos[bad], head[bad], step, state.bounds)
    else:
        bad = _crowded(cand, guard)
        cand[bad] = pos[bad]
    return replace(state, positions=cand, headings=cand_head)


@dataclass(frozen=True)
class AlleyLayout:
    """Closed rectangular circuits (racetracks) stacked inside the area."""

    loops: tuple            # tuple of [k x 2] vertex arrays, closed polylines
    cum_lengths: tuple      # per loop: cumulative segment lengths, leading 0

    @property
    def n_loops(self):
        return len(self.loops)

    def total_length(self, k):
        return float(self.cum_lengths[k][-1])

    def locate(self, path_ids, arcs):
        """Positions [... x 2] and tangent headings [...] at arc lengths arcs
        along the loops path_ids (broadcast against arcs), wrapping at each
        loop's end."""
        arcs = np.asarray(arcs, dtype=float)
        path_ids = np.broadcast_to(path_ids, arcs.shape)
        positions = np.empty(arcs.shape + (2,))
        headings = np.empty(arcs.shape)
        for k, (verts, cum) in enumerate(zip(self.loops, self.cum_lengths)):
            on_loop = path_ids == k
            s = arcs[on_loop] % cum[-1]
            seg = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(verts) - 2)
            a, b = verts[seg], verts[seg + 1]
            frac = (s - cum[seg]) / (cum[seg + 1] - cum[seg])
            positions[on_loop] = a + frac[:, None] * (b - a)
            headings[on_loop] = np.arctan2(b[:, 1] - a[:, 1], b[:, 0] - a[:, 0])
        return positions, headings


# horizontal racetracks in the alley layout
N_ALLEY_LOOPS = 3


def build_alley_layout(area=(180.0, 90.0), margin=10.0):
    """Axis-aligned alley circuits: N_ALLEY_LOOPS horizontal racetracks."""
    width, height = area
    usable_h = height - 2.0 * margin
    band = usable_h / N_ALLEY_LOOPS
    loops = []
    cums = []
    for k in range(N_ALLEY_LOOPS):
        y0 = margin + k * band
        y1 = y0 + 0.6 * band
        verts = np.array([
            [margin, y0], [width - margin, y0],
            [width - margin, y1], [margin, y1], [margin, y0],
        ])
        seg = np.linalg.norm(np.diff(verts, axis=0), axis=1)
        loops.append(verts)
        cums.append(np.concatenate([[0.0], np.cumsum(seg)]))
    return AlleyLayout(loops=tuple(loops), cum_lengths=tuple(cums))


def deploy_alley(config, rng):
    """Assign sub-networks round-robin to alley loops with staggered starts."""
    layout = build_alley_layout(config.area, margin=max(config.sn_radius * 2, 5.0))
    n = config.n_subnetworks
    path_ids = np.arange(n) % layout.n_loops
    per_loop = np.maximum(np.bincount(path_ids, minlength=layout.n_loops), 1)
    lengths = np.array([layout.total_length(k) for k in range(layout.n_loops)])
    rank_in_loop = np.arange(n) // layout.n_loops
    arc = rank_in_loop * lengths[path_ids] / per_loop[path_ids]
    positions, headings = layout.locate(path_ids, arc)
    offsets = disc_offsets(n, config.sa_pairs_per_sn, config.sn_radius, rng)
    w, h = config.area
    return MobilityState(positions=positions, headings=headings, offsets=offsets,
                         path_ids=path_ids, arc_positions=arc, layout=layout,
                         bounds=(0.0, 0.0, w, h))


def alley_positions(state, speed, dt, n_cycles):
    """Positions [n_cycles x N x 2] along the circuits at every cycle,
    starting at state: each cycle adds speed * dt to every arc length, and
    the positions wrap at each loop's end."""
    steps = np.full((n_cycles, state.arc_positions.size), speed * dt)
    steps[0] = state.arc_positions
    return state.layout.locate(state.path_ids, np.add.accumulate(steps, axis=0))[0]
