import re
from pathlib import Path

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
    # the limit depends only on dt, Pr and dy, so the parameters are rejected
    with pytest.raises(ValueError, match=r"diffusive ratio 900\.000 > 1"):
        small_params(dt=1.0)


def test_projection_above_tolerance_raises_naming_residual_and_tolerance(monkeypatch):
    # a solve that corrects nothing leaves the buoyant first step's divergence
    monkeypatch.setattr(solver, "_poisson_solve", lambda rhs, dx, dy: np.zeros_like(rhs))
    p = small_params(rayleigh=1e5)
    with pytest.raises(ProjectionError) as e:
        step(init_state(p), p)
    m = re.fullmatch(r"divergence (\S+) above tolerance 1\.000e-08 after the pressure projection",
                     str(e.value))
    assert m is not None, str(e.value)
    assert float(m.group(1)) > PROJECTION_TOLERANCE


REFERENCE = Path(__file__).parent / "data" / "solver_reference.npz"


def reference_params():
    return SolverParams(nx=32, ny=17, amplitude=0.5, seed=0)


def test_step_matches_the_frozen_reference():
    """500 steps of a developed flow (KE ~ 1.8e3, max|u| ~ 63) match the
    state the solver gave before any change to `step`, within 1e-12 relative.

    The file was written by:

        python -c "import numpy as np; from nekmini.solver import *
        p = SolverParams(nx=32, ny=17, amplitude=0.5, seed=0); s = init_state(p)
        for _ in range(500): s = step(s, p)
        np.savez('tests/data/solver_reference.npz', u=s.u, v=s.v,
                 temperature=s.temperature, pressure=s.pressure)"
    """
    p = reference_params()
    s = init_state(p)
    for _ in range(500):
        s = step(s, p)
    ref = np.load(REFERENCE)
    for name in ("u", "v", "temperature", "pressure"):
        want, got = ref[name], getattr(s, name)
        assert got.shape == want.shape
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got - want).max() <= 1e-12 * scale, name
    assert kinetic_energy(s) > 1e3  # developed: the upwind terms are exercised


def test_one_poisson_solve_per_step(monkeypatch):
    calls = []
    real = solver._poisson_solve

    def counting(rhs, dx, dy):
        calls.append(rhs.shape)
        return real(rhs, dx, dy)

    monkeypatch.setattr(solver, "_poisson_solve", counting)
    p = reference_params()
    s = init_state(p)
    for i in range(1, 501):
        s = step(s, p)
        assert len(calls) == i
    assert max_divergence(s) <= PROJECTION_TOLERANCE


@pytest.mark.parametrize("rayleigh, grows", [(1500.0, False), (2000.0, True)])
def test_onset_of_convection_is_bracketed_by_linear_theory(rayleigh, grows):
    # no-slip linear theory: Ra_c ~ 1707.8 at k_c ~ 3.117 (Chandrasekhar 1961);
    # nx = 2(ny-1) holds one critical wavelength across the periodic domain
    p = SolverParams(nx=32, ny=17, rayleigh=rayleigh, prandtl=0.7,
                     amplitude=1e-2, seed=1)
    s = init_state(p)
    for i in range(1, 2001):
        s = step(s, p)
        if i == 1000:
            ke_1000 = kinetic_energy(s)
    assert (kinetic_energy(s) > ke_1000) is grows, (ke_1000, kinetic_energy(s))


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
