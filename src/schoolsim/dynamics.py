"""Swarm dynamics: schooling forces and the stochastic time stepper.

Each fish carries a position and velocity.  Velocities change under four
forces evaluated synchronously at the current state: pairwise
attraction/repulsion, velocity alignment, boundary avoidance driven by a
ray cast along the heading, and a pull up the food-scent gradient.
Positions integrate the (pre-update) velocity plus additive Gaussian
noise, explicit Euler-Maruyama style, and are clamped to stay inside
the arena.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Arena, clamp_many, ray_hits_many
from .scent import ScentField, sample_gradient_many

# Pairwise and wall distances are floored here before entering the
# force-law powers, so coincident draws cannot produce infinities.
EPS_DIST = 1e-6
# Clamped positions are placed this far inside the boundary.
EPS_INSIDE = 1e-4


class ForceBlowUpError(RuntimeError):
    """A force evaluation produced a non-finite value."""


@dataclass(frozen=True)
class ModelParams:
    """Force coefficients and integration settings.

    ``p < q`` shape the attraction/repulsion and alignment kernels around
    the preferred spacing ``r``; ``P < Q`` shape the wall-avoidance kernel
    around the reaction range ``R``.  ``sensitivity`` scales the pull up
    the scent gradient, ``noise`` the Brownian jitter, and speeds are
    capped at ``vmax``.
    """

    attraction: float = 1.0
    alignment: float = 1.0
    avoidance: float = 1.0
    p: float = 3.0
    q: float = 5.0
    P: float = 3.0
    Q: float = 5.0
    r: float = 0.1
    R: float = 0.2
    sensitivity: float = 0.5
    noise: float = 0.001
    vmax: float = 0.8
    dt: float = 0.01

    def __post_init__(self):
        for name in ("attraction", "alignment", "avoidance", "sensitivity", "noise"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"ModelParams.{name} must be >= 0 and finite, got {v}")
        if not 1.0 < self.p < self.q:
            raise ValueError(f"ModelParams requires 1 < p < q, got p={self.p} q={self.q}")
        if not 1.0 < self.P < self.Q:
            raise ValueError(f"ModelParams requires 1 < P < Q, got P={self.P} Q={self.Q}")
        for name in ("r", "R", "vmax", "dt"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"ModelParams.{name} must be positive and finite, got {v}")


@dataclass
class SwarmState:
    """Positions and velocities of the school at one instant.

    Arrays have shape (N, 2) with N >= 2.  Treated as immutable; step()
    returns a fresh state.
    """

    time: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have matching shapes")
        if self.positions.ndim != 2 or self.positions.shape[1] != 2 or self.positions.shape[0] < 2:
            raise ValueError(f"state must hold at least two 2D fish, got shape {self.positions.shape}")

    @property
    def n_fish(self) -> int:
        return self.positions.shape[0]


def _pair_kernels(positions: np.ndarray, params: ModelParams):
    """Pairwise difference vectors and the two radial kernel matrices."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    ratio = params.r / np.maximum(dist, EPS_DIST)
    rp = ratio**params.p
    rq = ratio**params.q
    return diff, rp, rq


def obstacle_forces(positions: np.ndarray, velocities: np.ndarray,
                    arena: Arena, params: ModelParams) -> np.ndarray:
    """Boundary-avoidance force on every fish, shape (N, 2).

    Casts a ray along each velocity; the force opposes the velocity
    component toward the struck face (the difference between the velocity
    and its specular reflection), weighted by proximity.  Fish whose ray
    meets nothing (zero velocity) feel no force.
    """
    has_hit, _pts, normals, dist = ray_hits_many(arena, positions, velocities)
    vn = (velocities * normals).sum(axis=1)
    ratio = params.R / np.maximum(dist, EPS_DIST)
    coef = ratio**params.P + ratio**params.Q
    force = (-params.avoidance * coef * 2.0 * vn)[:, None] * normals
    force[~has_hit] = 0.0
    return force


def total_forces(positions: np.ndarray, velocities: np.ndarray, arena: Arena,
                 field: ScentField | None, params: ModelParams) -> np.ndarray:
    """Sum of all four forces at the given (synchronous) state."""
    n = positions.shape[0]
    force = np.zeros((n, 2))
    if params.attraction != 0.0 or params.alignment != 0.0:
        diff, rp, rq = _pair_kernels(positions, params)
        if params.attraction != 0.0:
            force -= params.attraction * np.einsum("ij,ijk->ik", rp - rq, diff)
        if params.alignment != 0.0:
            dv = velocities[:, None, :] - velocities[None, :, :]
            force -= params.alignment * np.einsum("ij,ijk->ik", rp + rq, dv)
    if params.avoidance != 0.0:
        force += obstacle_forces(positions, velocities, arena, params)
    if params.sensitivity != 0.0 and field is not None:
        force += params.sensitivity * sample_gradient_many(field, positions)
    return force


def _cap_many(vel: np.ndarray, vmax: float) -> np.ndarray:
    speed = np.hypot(vel[:, 0], vel[:, 1])
    factor = vmax / np.maximum(speed, vmax)
    return vel * factor[:, None]


def step(state: SwarmState, arena: Arena, field: ScentField | None,
         params: ModelParams, rng: np.random.Generator | None = None,
         dw: np.ndarray | None = None) -> SwarmState:
    """Advance the whole school by one time step of params.dt.

    Forces are evaluated for every fish at the incoming state before any
    update.  The new velocity is the force update capped at vmax; the new
    position integrates the old velocity plus noise * dw and is clamped
    into the arena, zeroing the velocity component along any boundary
    normal the clamp pushed against.  ``dw`` (per-component N(0, dt)
    Brownian increments) is drawn from rng when not supplied.
    """
    pos, vel = state.positions, state.velocities
    force = total_forces(pos, vel, arena, field, params)
    if not np.isfinite(force).all():
        bad = np.where(~np.isfinite(force).all(axis=1))[0]
        raise ForceBlowUpError(
            f"non-finite force on fish {bad.tolist()} at t={state.time:.6g}; "
            f"params={params}"
        )
    v_new = _cap_many(vel + params.dt * force, params.vmax)
    if dw is None:
        if rng is None:
            raise ValueError("step needs an rng when no explicit dw is supplied")
        dw = rng.normal(0.0, math.sqrt(params.dt), size=pos.shape)
    x_new, moved = clamp_many(arena, pos + params.dt * vel + params.noise * dw,
                              EPS_INSIDE)
    if moved.any():
        v_new = np.where(moved, 0.0, v_new)
    return SwarmState(state.time + params.dt, x_new, v_new)


def advance(state: SwarmState, arena: Arena, field: ScentField | None,
            params: ModelParams, rng: np.random.Generator, n_steps: int,
            sample_stride: int = 0):
    """Run n_steps steps; optionally record every sample_stride-th state.

    Returns ``(final_state, samples)`` where samples is a list of the
    recorded states (always including the initial and final ones) when
    sample_stride > 0, else an empty list.
    """
    samples = [state] if sample_stride > 0 else []
    for k in range(1, n_steps + 1):
        state = step(state, arena, field, params, rng)
        if sample_stride > 0 and (k % sample_stride == 0 or k == n_steps):
            samples.append(state)
    return state, samples
