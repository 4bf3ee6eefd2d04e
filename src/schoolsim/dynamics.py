"""Swarm dynamics: the schooling force law and the stochastic time stepper.

total_forces() sums four forces on fish i at the synchronous state:

    F_i = - attraction  * sum_j (rho_ij^p - rho_ij^q) (x_i - x_j)
          - alignment   * sum_j (rho_ij^p + rho_ij^q) (v_i - v_j)
          - avoidance   * (sigma_i^P + sigma_i^Q) * 2 (v_i . n_i) n_i
          + sensitivity * grad U(x_i)

with rho_ij = r / |x_i - x_j| (rho_ii = 0) and sigma_i = R / d_i, each
distance floored at EPS_DIST.  The ray along v_i first strikes a face with
normal n_i at distance d_i; n_i = 0 and d_i = inf when it strikes nothing,
as when v_i = 0.  U is the scent.
step() and advance() integrate it explicitly, Euler-Maruyama style;
advance() steps a (B, N, 2) batch of independent schools and returns only
its final state.  Sampling a run is calling advance() in chunks, as
experiment.run_trials() does.
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
# advance() draws the noise of this many steps at once; a (k, N, 2) draw
# gives exactly the values of k successive (N, 2) draws.
NOISE_BLOCK = 256


class ForceBlowUpError(RuntimeError):
    """A force evaluation produced a non-finite value in the batch's ``schools``."""


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
        for name in ("p", "q", "P", "Q"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"ModelParams.{name} must be finite, got {v}")
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
    """Positions and velocities of a school, or of a batch of schools, at one instant.

    Arrays have shape (N, 2), or (B, N, 2) for a batch, with N >= 2.
    Treated as immutable; step() returns a fresh state.
    """

    time: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have matching shapes")
        if self.positions.ndim not in (2, 3) or self.positions.shape[-1] != 2 or self.n_fish < 2:
            raise ValueError(f"state must hold at least two 2D fish, got shape {self.positions.shape}")

    @property
    def n_fish(self) -> int:
        return self.positions.shape[-2]


def total_forces(positions: np.ndarray, velocities: np.ndarray, arena: Arena,
                 field: ScentField | None, params: ModelParams) -> np.ndarray:
    """The force law above at a synchronous (N, 2) or (B, N, 2) state; a
    zero coefficient, or no field, skips its term's work."""
    force = np.zeros(positions.shape)
    if params.attraction != 0.0 or params.alignment != 0.0:
        diff = positions[..., :, None, :] - positions[..., None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        np.einsum("...ii->...i", dist)[...] = np.inf  # so that rho_ii = 0
        ratio = params.r / np.maximum(dist, EPS_DIST)
        rp = ratio**params.p
        rq = ratio**params.q
        if params.attraction != 0.0:
            force -= params.attraction * np.einsum("...ij,...ijk->...ik", rp - rq, diff)
        if params.alignment != 0.0:
            dv = velocities[..., :, None, :] - velocities[..., None, :, :]
            force -= params.alignment * np.einsum("...ij,...ijk->...ik", rp + rq, dv)
    rows, vrows = positions.reshape(-1, 2), velocities.reshape(-1, 2)
    if params.avoidance != 0.0:
        normals, hit_dist = ray_hits_many(arena, rows, vrows)
        vn = (vrows * normals).sum(axis=1)
        ratio = params.R / np.maximum(hit_dist, EPS_DIST)
        coef = ratio**params.P + ratio**params.Q
        force += ((-params.avoidance * coef * 2.0 * vn)[:, None] * normals).reshape(force.shape)
    if params.sensitivity != 0.0 and field is not None:
        force += params.sensitivity * sample_gradient_many(field, rows).reshape(force.shape)
    return force


def _advance_arrays(t: float, pos: np.ndarray, vel: np.ndarray, dw: np.ndarray,
                    arena: Arena, field: ScentField | None, params: ModelParams):
    """One step on bare (..., N, 2) arrays: (pos, vel) at t -> at t + dt."""
    force = total_forces(pos, vel, arena, field, params)
    if not np.isfinite(force).all():
        bad = ~np.isfinite(force).all(axis=-1).reshape(-1, pos.shape[-2])
        err = ForceBlowUpError(f"non-finite force on [school, fish] "
                               f"{np.argwhere(bad).tolist()} at t={t:.6g}; params={params}")
        err.schools = np.flatnonzero(bad.any(axis=1)).tolist()
        raise err
    v_new = vel + params.dt * force
    speed = np.hypot(v_new[..., 0], v_new[..., 1])
    v_new = v_new * (params.vmax / np.maximum(speed, params.vmax))[..., None]
    proposal = (pos + params.dt * vel + params.noise * dw).reshape(-1, 2)
    x_new, moved = clamp_many(arena, proposal, EPS_INSIDE)
    if moved.any():
        v_new = np.where(moved.reshape(v_new.shape), 0.0, v_new)
    return x_new.reshape(pos.shape), v_new


# Quoted, so a command that never steps does not import numpy.random.
def step(state: SwarmState, arena: Arena, field: ScentField | None,
         params: ModelParams, rng: "np.random.Generator | None" = None,
         dw: np.ndarray | None = None) -> SwarmState:
    """Advance the whole school by one time step of params.dt.

    Forces are evaluated for every fish at the incoming state before any
    update.  The new velocity is the force update capped at vmax; the new
    position integrates the old velocity plus noise * dw and is clamped
    into the arena, zeroing the velocity component along any boundary
    normal the clamp pushed against.  ``dw`` (per-component N(0, dt)
    Brownian increments) is drawn from rng when not supplied.
    """
    if dw is None:
        if rng is None:
            raise ValueError("step needs an rng when no explicit dw is supplied")
        dw = rng.normal(0.0, math.sqrt(params.dt), size=state.positions.shape)
    pos, vel = _advance_arrays(state.time, state.positions, state.velocities, dw,
                               arena, field, params)
    return SwarmState(state.time + params.dt, pos, vel)


def advance(state: SwarmState, arena: Arena, field: ScentField | None,
            params: ModelParams, rngs, n_steps: int) -> SwarmState:
    """Run a (B, N, 2) batch n_steps steps, school b drawing its noise from
    rngs[b], and return the final state.  Each school moves and draws as in
    n_steps calls to step() on it alone, so a run split into calls of any
    lengths gives the bits of the run in one call.
    """
    t, pos, vel = state.time, state.positions, state.velocities
    for k in range(n_steps):
        if k % NOISE_BLOCK == 0:
            size = (min(NOISE_BLOCK, n_steps - k),) + pos.shape[1:]
            noise = np.stack([g.normal(0.0, math.sqrt(params.dt), size) for g in rngs], 1)
        pos, vel = _advance_arrays(t, pos, vel, noise[k % NOISE_BLOCK],
                                   arena, field, params)
        t += params.dt
    return SwarmState(t, pos, vel)
