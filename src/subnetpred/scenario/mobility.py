"""Mobility models: random-direction movement with collision avoidance, and
fixed alley circuits for the factory-floor layout.

An alley trajectory draws nothing: alley_centers gives each sub-network's
center as a function of its index and the cycle alone.

An rdmm step draws only when it reflects at the border or crowds another
sub-network; every other step just moves each center along its heading.
free_run computes a stretch of such event-free steps at once, bit for bit
equal to step_mobility's, so a simulator calls step_mobility only at the
event steps and the generator's stream keeps its order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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


def free_run(state, step, guard, horizon):
    """Centers [k x N x 2] and headings [k x N] after each of the next
    k <= horizon rdmm steps of length step from state that neither reflect
    nor crowd (no center closer than guard to another); when k < horizon,
    step k + 1 does one of the two.  These are the steps step_mobility
    takes without a draw, with the same bits: the heading recurrence runs
    step by step on [N] rows as in _propose until it reaches a fixed point,
    and the positions are summed in step order.  At step 0 every step
    leaves the state as it is.

    Only the pairs that start closer than guard + 2 step horizon can crowd
    during the run, since each center moves at most step a step; the
    distances of those pairs alone are formed, with _crowded's ufuncs in
    its order, so each is bit for bit the distance it would compute.  The
    screen's margin, 1e-9 of the area's extent and of that reach, lies far
    above the rounding the summed positions gather over a run (a few ulps
    of the extent a step), so no pair it drops is one that crowds.
    """
    n = state.headings.size
    if step == 0.0:
        return (np.broadcast_to(state.positions, (horizon, n, 2)),
                np.broadcast_to(state.headings, (horizon, n)))
    heads = np.empty((horizon + 1, n))
    heads[0] = state.headings
    # the start positions, then per step the x and y rows of the unit
    # vector as _propose lays them out, scaled by step after the loop
    moves = np.empty((horizon + 1, 2, n))
    moves[0] = state.positions.T
    for k in range(horizon):
        unit = moves[k + 1]
        np.cos(heads[k], out=unit[0])
        np.sin(heads[k], out=unit[1])
        np.arctan2(unit[1], unit[0], out=heads[k + 1])
        if heads[k + 1].tobytes() == heads[k].tobytes():
            # a fixed point: every later step repeats this one
            moves[k + 2:] = unit
            heads[k + 2:] = heads[k + 1]
            break
    moves[1:] *= step
    cand = np.add.accumulate(moves, axis=0)             # [horizon + 1 x 2 x N]
    lo = np.array(state.bounds[:2])[:, None]
    hi = np.array(state.bounds[2:])[:, None]
    event = ((cand[1:] < lo) | (cand[1:] > hi)).any(axis=(1, 2))
    reach = guard + 2.0 * step * horizon
    reach += 1e-9 * (reach + max(map(abs, state.bounds)))
    x, y = moves[0]
    i, j = np.nonzero(np.hypot(x[:, None] - x, y[:, None] - y) < reach)
    i, j = i[i < j], j[i < j]
    # sqrt(dx * dx + dy * dy) of the kept pairs, in place
    d = np.subtract(cand[1:, :, i], cand[1:, :, j])
    np.multiply(d, d, out=d)
    dist = np.add(d[:, 0], d[:, 1])
    event |= (np.sqrt(dist, out=dist) < guard).any(axis=1)
    k = int(event.argmax()) if event.any() else horizon
    return cand[1:k + 1].transpose(0, 2, 1), heads[1:k + 1]


@dataclass(frozen=True)
class AlleyLayout:
    """Closed rectangular circuits (racetracks) stacked inside the area."""

    loops: tuple            # tuple of [k x 2] vertex arrays, closed polylines
    cum_lengths: tuple      # per loop: cumulative segment lengths, leading 0

    def locate(self, path_ids, arcs):
        """Positions [... x 2] at arc lengths arcs along the loops path_ids
        (broadcast against arcs), wrapping at each loop's end."""
        arcs = np.asarray(arcs, dtype=float)
        path_ids = np.broadcast_to(path_ids, arcs.shape)
        positions = np.empty(arcs.shape + (2,))
        for k, (verts, cum) in enumerate(zip(self.loops, self.cum_lengths)):
            on_loop = path_ids == k
            s = arcs[on_loop] % cum[-1]
            seg = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(verts) - 2)
            a, b = verts[seg], verts[seg + 1]
            frac = (s - cum[seg]) / (cum[seg + 1] - cum[seg])
            positions[on_loop] = a + frac[:, None] * (b - a)
        return positions


# horizontal racetracks in the alley layout
N_ALLEY_LOOPS = 3


def build_alley_layout(area, margin):
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


def alley_centers(config, members, n_cycles):
    """Centers [n_cycles x members x 2] of the sub-networks members (an
    index array) on the alley circuits of config, a DeploymentConfig; they
    draw nothing.  Sub-network i runs loop i % N_ALLEY_LOOPS and starts at
    arc length (i // N_ALLEY_LOOPS) * L / n, L being the loop's length and
    n its count of sub-networks; each cycle adds speed * tx_cycle_duration
    to the arc length, and the centers wrap at the loop's end.  A center
    depends on its own index and cycle alone, so any set of members gives
    the matching columns of the set of all N."""
    layout = build_alley_layout(config.area, margin=config.alley_margin)
    loop = members % N_ALLEY_LOOPS
    lengths = np.array([cum[-1] for cum in layout.cum_lengths])
    per_loop = np.bincount(np.arange(config.n_subnetworks) % N_ALLEY_LOOPS)
    arcs = np.full((n_cycles, members.size), config.speed * config.tx_cycle_duration)
    arcs[0] = members // N_ALLEY_LOOPS * lengths[loop] / per_loop[loop]
    return layout.locate(loop, np.add.accumulate(arcs, axis=0))
