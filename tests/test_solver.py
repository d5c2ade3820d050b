import re

import numpy as np
import pytest

from nekmini import solver
from nekmini.data_model import validate_snapshot
from nekmini.solver import (
    PROJECTION_TOLERANCE,
    ProjectionError,
    SolverParams,
    StabilityError,
    init_state,
    kinetic_energy,
    max_divergence,
    nusselt,
    snapshot_of,
    step,
)


def small_params(**kw):
    defaults = dict(nx=16, ny=16, rayleigh=1e4, prandtl=0.7,
                    amplitude=1e-3, seed=7)
    defaults.update(kw)
    return SolverParams(**defaults)


def test_too_small_grid_rejected():
    with pytest.raises(ValueError):
        SolverParams(nx=2, ny=16)


def test_zero_amplitude_gives_exact_conduction_profile():
    p = small_params(amplitude=0.0)
    s = init_state(p)
    yc = (np.arange(p.ny - 1) + 0.5) * p.dy
    assert np.array_equal(s.temperature, np.tile((1.0 - yc)[:, None], (1, p.nx)))
    assert not s.u.any() and not s.v.any()


def test_init_deterministic_for_fixed_seed():
    p = small_params(seed=42)
    a, b = init_state(p), init_state(p)
    assert np.array_equal(a.temperature, b.temperature)


def test_step_determinism():
    p = small_params()
    s1, s2 = init_state(p), init_state(p)
    for _ in range(50):
        s1 = step(s1, p)
        s2 = step(s2, p)
    for name in ("u", "v", "temperature", "pressure"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))


def test_divergence_invariant_every_step():
    p = small_params(rayleigh=1e5)
    s = init_state(p)
    for _ in range(100):
        s = step(s, p)
        assert max_divergence(s) <= PROJECTION_TOLERANCE


def test_temperature_respects_maximum_principle():
    # donor-cell advection plus explicit diffusion cannot create new
    # temperature extrema: T stays inside the wall values [0, 1]
    p = SolverParams()  # 64x64, Ra=1e5
    s = init_state(p)
    for _ in range(2000):
        s = step(s, p)
        assert s.temperature.min() >= -1e-9
        assert s.temperature.max() <= 1.0 + 1e-9


def test_conduction_equilibrium_is_fixed_point():
    # with no horizontal gradient the buoyant column is absorbed by pressure
    p = small_params(rayleigh=1e6, amplitude=0.0)
    s0 = init_state(p)
    s = s0
    for _ in range(100):
        s = step(s, p)
    assert np.abs(s.u).max() <= PROJECTION_TOLERANCE
    assert np.abs(s.v).max() <= PROJECTION_TOLERANCE
    assert np.abs(s.temperature - s0.temperature).max() <= PROJECTION_TOLERANCE


def test_boundary_rows_exact_after_steps():
    p = small_params(rayleigh=1e5)
    s = init_state(p)
    for _ in range(50):
        s = step(s, p)
    assert not s.v[0].any() and not s.v[-1].any()
    snap = snapshot_of(s, producer_id=0)
    ny, nx = p.ny, p.nx
    vel = snap.blocks[0].field_named("velocity").values.reshape(ny, nx, 2)
    temp = snap.blocks[0].field_named("temperature").values.reshape(ny, nx)
    assert not vel[0].any() and not vel[-1].any()  # no-slip walls
    assert np.array_equal(temp[0], np.ones(nx))
    assert np.array_equal(temp[-1], np.zeros(nx))


def test_cfl_violation_raises_with_ratio():
    p = small_params(dt=1e-4)
    s = init_state(p)
    fast = np.full_like(s.u, 1000.0)
    bad = type(s)(fast, s.v, s.temperature, s.pressure, s.time, s.step, s.dx, s.dy)
    with pytest.raises(StabilityError, match="CFL"):
        step(bad, p)


def test_diffusive_limit_violation_raises():
    with pytest.raises(StabilityError, match="diffusive"):
        p = small_params(dt=1.0)
        step(init_state(p), p)


def test_projection_cap_raises_naming_tolerance_and_iterations(monkeypatch):
    # with no projection allowed, the buoyant first step keeps its divergence
    monkeypatch.setattr(solver, "PROJECTION_MAX_ITERS", 0)
    p = small_params(rayleigh=1e5)
    with pytest.raises(ProjectionError) as e:
        step(init_state(p), p)
    m = re.fullmatch(r"divergence (\S+) above tolerance 1\.000e-08 after 0 projection iterations",
                     str(e.value))
    assert m is not None, str(e.value)
    assert float(m.group(1)) > PROJECTION_TOLERANCE


def test_projection_that_reaches_tolerance_on_the_last_iteration_passes(monkeypatch):
    # one Poisson solve brings the divergence to ~1e-13; a cap of one
    # iteration must check that result, not raise on it
    monkeypatch.setattr(solver, "PROJECTION_MAX_ITERS", 1)
    p = small_params(rayleigh=1e5)
    s = init_state(p)
    for _ in range(20):
        s = step(s, p)
    assert max_divergence(s) <= PROJECTION_TOLERANCE


def test_nusselt_conduction_state_is_exactly_one():
    p = small_params(amplitude=0.0)
    assert nusselt(init_state(p)) == 1.0


def test_nusselt_antisymmetric_in_v():
    p = small_params(rayleigh=1e5)
    s = init_state(p)
    for _ in range(200):
        s = step(s, p)
    flipped = type(s)(s.u, -s.v, s.temperature, s.pressure, s.time, s.step, s.dx, s.dy)
    assert nusselt(flipped) - 1.0 == pytest.approx(-(nusselt(s) - 1.0), rel=1e-12)


def test_snapshot_counts_and_fields():
    p = small_params(nx=8, ny=8)
    snap = snapshot_of(init_state(p), producer_id=0)
    assert validate_snapshot(snap) == []
    b = snap.blocks[0]
    assert b.point_count == 64
    assert b.field_named("velocity").values.size == 128
    assert b.field_named("pressure").values.size == 64


def test_snapshot_copies_not_aliases():
    p = small_params(nx=8, ny=8)
    s = init_state(p)
    a = snapshot_of(s, producer_id=0)
    b = snapshot_of(s, producer_id=0)
    assert a == b
    assert a.blocks[0].fields[0].values is not b.blocks[0].fields[0].values


def test_snapshot_tiling_offset():
    # producer 3 with 64 local columns owns global columns starting at 192
    p = small_params(nx=64, ny=16)
    snap = snapshot_of(init_state(p), producer_id=3)
    assert snap.blocks[0].extents[0] == 192
    assert snap.blocks[0].origin[0] == pytest.approx(192 * p.dx)


def test_subcritical_kinetic_energy_decays():
    # below the convection threshold the seeded perturbation dies out
    p = SolverParams(nx=32, ny=32, rayleigh=1e3, prandtl=0.7,
                     amplitude=1e-3, seed=3)
    s = init_state(p)
    ke_early = None
    for i in range(1, 2001):
        s = step(s, p)
        if i == 200:
            ke_early = kinetic_energy(s)
    assert kinetic_energy(s) < ke_early
