"""2D Rayleigh-Benard convection solver (Boussinesq approximation).

Nondimensionalization (diffusive scaling): lengths by the layer height H,
time by the thermal diffusion time H^2/kappa, temperature by the wall
difference. The governing equations integrated here are

    du/dt + (u.grad)u = -grad p + Pr lap u
    dv/dt + (u.grad)v = -dp/dy  + Pr lap v + Ra Pr T
    dT/dt + (u.grad)T =           lap T
    div u = 0

on a domain periodic in x with no-slip walls at y=0 (T=1, heated) and
y=1 (T=0). Discretization: MAC staggered grid (u on x-faces, v on
y-faces, T and p at cell centers), first-order upwind advection,
central diffusion, forward Euler in time, and a pressure projection
whose Poisson solve (FFT in x, DCT-II in y) is direct: one solve per step
brings the discrete divergence

    div[j,i] = (u[j,i+1] - u[j,i])/dx + (v[j+1,i] - v[j,i])/dy

to round-off, and every step checks that it is at most
PROJECTION_TOLERANCE in max-norm.

The public point grid has nx points in x (periodic, spacing dx) and ny
points in y spanning [0, 1]; dx = dy = 1/(ny-1). `snapshot_of` samples
the staggered fields onto that grid, which pins the wall values exactly
(u = v = 0, T = 1 bottom / 0 top).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from nekmini.data_model import POINT, Block, FieldArray, Snapshot


PROJECTION_TOLERANCE = 1.0e-8  # max-norm bound on the discrete divergence


class StabilityError(RuntimeError):
    """The live flow broke the advective CFL limit. (The diffusive limit
    depends only on the parameters, so SolverParams rejects it when built.)"""


class ProjectionError(RuntimeError):
    """The step's one Poisson solve left the divergence above tolerance."""


@dataclass(frozen=True)
class SolverParams:
    nx: int = 64
    ny: int = 64
    rayleigh: float = 1.0e5
    prandtl: float = 0.7
    dt: float | None = None  # None: use stable_dt()
    seed: int = 0
    amplitude: float = 1.0e-3  # of the seeded random temperature perturbation

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if self.rayleigh <= 0 or self.prandtl <= 0:
            raise ValueError("rayleigh and prandtl must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.dt is None:
            object.__setattr__(self, "dt", stable_dt(self))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        diff_ratio = self.dt * max(1.0, self.prandtl) / (0.25 * self.dy ** 2)
        if diff_ratio > 1.0:
            raise ValueError(f"dt {self.dt:g} breaks the diffusive limit: "
                             f"diffusive ratio {diff_ratio:.3f} > 1")

    @property
    def dy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def dx(self) -> float:
        return self.dy  # square cells


def stable_dt(p: SolverParams) -> float:
    """Default timestep from the diffusive limit and a free-fall CFL estimate.

    The advective margin is wider than the diffusive one because the
    free-fall velocity only estimates the eventual flow speed; the actual
    CFL is re-checked against the live fields every step.
    """
    h = p.dy
    diff = 0.8 * 0.25 * h * h / max(1.0, p.prandtl)
    vff = max(1.0, np.sqrt(p.rayleigh * p.prandtl))  # free-fall velocity estimate
    adv = 0.4 * 0.5 * h / vff
    return min(diff, adv)


@dataclass(frozen=True)
class SolverState:
    """Staggered fields plus grid geometry and clock.

    Shapes (rows are y, columns are x): u is (ny-1, nx) on x-faces,
    v is (ny, nx) on y-faces (rows 0 and -1 are the walls, identically 0),
    temperature and pressure are (ny-1, nx) at cell centers.
    """

    u: np.ndarray
    v: np.ndarray
    temperature: np.ndarray
    pressure: np.ndarray
    time: float
    step: int
    dx: float
    dy: float

    def __post_init__(self):
        for name in ("u", "v", "temperature", "pressure"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def init_state(p: SolverParams) -> SolverState:
    """Conduction profile plus a seeded random temperature perturbation."""
    ncx, ncy = p.nx, p.ny - 1
    u = np.zeros((ncy, ncx))
    v = np.zeros((ncy + 1, ncx))
    yc = (np.arange(ncy) + 0.5) * p.dy
    temperature = np.tile((1.0 - yc)[:, None], (1, ncx))
    if p.amplitude > 0:
        rng = np.random.default_rng(p.seed)
        temperature += p.amplitude * (2.0 * rng.random((ncy, ncx)) - 1.0)
    pressure = np.zeros((ncy, ncx))
    return SolverState(u, v, temperature, pressure, time=0.0, step=0, dx=p.dx, dy=p.dy)


def _poisson_solve(rhs: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Solve the 5-point Laplacian (periodic x, Neumann y) at cell centers.

    Direct solve: rfft along x diagonalizes the periodic direction, DCT-II
    along y diagonalizes the cell-centered Neumann direction. The constant
    null-space component is pinned to zero.
    """
    ncy, ncx = rhs.shape
    f = scipy.fft.rfft(rhs, axis=1)
    f = scipy.fft.dct(f, type=2, axis=0, norm="ortho")
    kx = np.arange(ncx // 2 + 1)
    ky = np.arange(ncy)
    lam_x = (2.0 * np.cos(2.0 * np.pi * kx / ncx) - 2.0) / (dx * dx)
    lam_y = (2.0 * np.cos(np.pi * ky / ncy) - 2.0) / (dy * dy)
    denom = lam_y[:, None] + lam_x[None, :]
    denom[0, 0] = 1.0  # null space; numerator forced to zero below
    f /= denom
    f[0, 0] = 0.0
    g = scipy.fft.idct(f, type=2, axis=0, norm="ortho")
    return scipy.fft.irfft(g, n=ncx, axis=1)


def divergence(u: np.ndarray, v: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Discrete divergence at cell centers."""
    return (np.roll(u, -1, axis=1) - u) / dx + (v[1:] - v[:-1]) / dy


def max_divergence(s: SolverState) -> float:
    return float(np.abs(divergence(s.u, s.v, s.dx, s.dy)).max())


def _upwind(adv: np.ndarray, back: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    return np.where(adv > 0, back, fwd)


def step(s: SolverState, p: SolverParams) -> SolverState:
    """Advance one explicit step; raises on a CFL or projection failure."""
    dt, dx, dy = p.dt, s.dx, s.dy
    pr, ra = p.prandtl, p.rayleigh

    vmax = max(float(np.abs(s.u).max()), float(np.abs(s.v).max()))
    cfl = vmax * dt / min(dx, dy)
    if cfl > 0.5:
        raise StabilityError(f"advective CFL {cfl:.3f} > 0.5 (max velocity {vmax:.3g})")

    u, v, temp = s.u, s.v, s.temperature

    # --- u momentum (x-faces) ---
    u_w, u_e = np.roll(u, 1, axis=1), np.roll(u, -1, axis=1)
    ug = np.vstack([-u[:1], u, -u[-1:]])  # no-slip ghosts
    v_w = np.roll(v, 1, axis=1)
    v_at_u = 0.25 * (v[:-1] + v[1:] + v_w[:-1] + v_w[1:])
    dudx = _upwind(u, (u - u_w) / dx, (u_e - u) / dx)
    dudy = _upwind(v_at_u, (ug[1:-1] - ug[:-2]) / dy, (ug[2:] - ug[1:-1]) / dy)
    lap_u = (u_e - 2 * u + u_w) / dx**2 + (ug[2:] - 2 * u + ug[:-2]) / dy**2
    u_star = u + dt * (-(u * dudx + v_at_u * dudy) + pr * lap_u)

    # --- v momentum (interior y-faces; walls stay 0) ---
    vi = v[1:-1]
    u_at_v = 0.25 * (u[:-1] + u_e[:-1] + u[1:] + u_e[1:])
    vi_w, vi_e = np.roll(vi, 1, axis=1), np.roll(vi, -1, axis=1)
    dvdx = _upwind(u_at_v, (vi - vi_w) / dx, (vi_e - vi) / dx)
    dvdy = _upwind(vi, (v[1:-1] - v[:-2]) / dy, (v[2:] - v[1:-1]) / dy)
    lap_v = (vi_e - 2 * vi + vi_w) / dx**2 + (v[2:] - 2 * vi + v[:-2]) / dy**2
    buoy = ra * pr * 0.5 * (temp[:-1] + temp[1:])
    v_star = v.copy()
    v_star[1:-1] = vi + dt * (-(u_at_v * dvdx + vi * dvdy) + pr * lap_v + buoy)

    # --- pressure projection: one direct solve, then the tolerance check ---
    phi = _poisson_solve(divergence(u_star, v_star, dx, dy) / dt, dx, dy)
    u_new = u_star - dt * (phi - np.roll(phi, 1, axis=1)) / dx
    v_new = v_star
    v_new[1:-1] -= dt * (phi[1:] - phi[:-1]) / dy
    residual = float(np.abs(divergence(u_new, v_new, dx, dy)).max())
    if residual > PROJECTION_TOLERANCE:
        raise ProjectionError(f"divergence {residual:.3e} above tolerance "
                              f"{PROJECTION_TOLERANCE:.3e} after the pressure projection")

    # --- temperature: diffusion + conservative upwind fluxes ---
    t_w = np.roll(temp, 1, axis=1)
    tg = np.vstack([2.0 - temp[:1], temp, -temp[-1:]])  # Dirichlet ghosts: T=1 bottom, 0 top
    lap_t = (np.roll(temp, -1, axis=1) - 2 * temp + t_w) / dx**2 \
        + (tg[2:] - 2 * temp + tg[:-2]) / dy**2
    flux_x = u_new * _upwind(u_new, t_w, temp)
    flux_y = np.zeros_like(v_new)  # wall rows: no advective flux through walls
    vf = v_new[1:-1]
    flux_y[1:-1] = vf * _upwind(vf, temp[:-1], temp[1:])
    adv_t = -(np.roll(flux_x, -1, axis=1) - flux_x) / dx - (flux_y[1:] - flux_y[:-1]) / dy
    temp_new = temp + dt * (adv_t + lap_t)

    return SolverState(
        u_new, v_new, temp_new, phi,
        time=s.time + dt, step=s.step + 1, dx=dx, dy=dy,
    )


def kinetic_energy(s: SolverState) -> float:
    """Total kinetic energy, 0.5 * integral(u^2 + v^2) over the domain."""
    uc = 0.5 * (s.u + np.roll(s.u, -1, axis=1))
    vc = 0.5 * (s.v[:-1] + s.v[1:])
    return float(0.5 * np.sum(uc**2 + vc**2) * s.dx * s.dy)


def nusselt(s: SolverState) -> float:
    """Heat-transfer enhancement Nu = 1 + <v T> (diffusive units: kappa,
    height and wall temperature difference all equal 1).

    The volume average uses v interpolated to cell centers, so a pure
    conduction state (v = 0) returns exactly 1.
    """
    vc = 0.5 * (s.v[:-1] + s.v[1:])
    return 1.0 + float(np.mean(vc * s.temperature))


def _cells_to_points(c: np.ndarray, bottom: np.ndarray, top: np.ndarray) -> np.ndarray:
    g = np.vstack([bottom, c, top])
    west = np.roll(g, 1, axis=1)
    return 0.25 * (g[:-1] + g[1:] + west[:-1] + west[1:])


def snapshot_of(s: SolverState, producer_id: int) -> Snapshot:
    """Sample the staggered state onto the (ny, nx) point grid as a
    one-block snapshot.

    Wall rows come out exact by construction: averaging u with its
    no-slip ghost gives 0, averaging T with its Dirichlet ghost gives
    the wall temperature. The block is placed by the abutting tiling
    rule: producer k's block owns the global point columns
    [k*nx, (k+1)*nx - 1].
    """
    ny, nx = s.v.shape
    velocity = np.empty((ny, nx, 2))
    ug = np.vstack([-s.u[:1], s.u, -s.u[-1:]])
    np.add(ug[:-1], ug[1:], out=velocity[..., 0])
    np.add(np.roll(s.v, 1, axis=1), s.v, out=velocity[..., 1])
    velocity *= 0.5
    temperature = _cells_to_points(s.temperature, 2.0 - s.temperature[:1], -s.temperature[-1:])
    pressure = _cells_to_points(s.pressure, s.pressure[:1], s.pressure[-1:])
    for a in (velocity, pressure, temperature):
        a.setflags(write=False)  # new arrays nothing else holds: FieldArray adopts them
    o = producer_id * nx
    block = Block(
        origin=(o * s.dx, 0.0, 0.0),
        spacing=(s.dx, s.dy, 1.0),
        extents=(o, o + nx - 1, 0, ny - 1, 0, 0),
        fields=(
            FieldArray("velocity", POINT, 2, velocity.ravel()),
            FieldArray("pressure", POINT, 1, pressure.ravel()),
            FieldArray("temperature", POINT, 1, temperature.ravel()),
        ),
    )
    return Snapshot(time=s.time, step=s.step, producer_id=producer_id, blocks=(block,))
