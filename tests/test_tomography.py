import warnings

import numpy as np
import pytest

from wignerlab import (
    GaussianStateSpec,
    GridFunction,
    MetaplecticSpec,
    NormalizationError,
    ParameterError,
    PhaseSpaceFunction,
    TomogramSet,
    coherent_state,
    covariance_matrix,
    dual_grid,
    eta_scan,
    gaussian_state,
    hermite_state,
    inverse_radon,
    make_grid,
    marginals,
    metaplectic_apply,
    pauli_pair,
    pure_density,
    radon,
    reconstruct_density,
    wigner,
)
from wignerlab.tomography import SUPPORT_RTOL

from oracles import backprojection_support, covariance_dense, radon_dense

ETA = 1.0


def _self_dual_grid(n=128, eta=ETA):
    half = 0.5 * np.sqrt(2.0 * np.pi * eta * n)
    return make_grid(-half, half, n)


def _cat(grid, x0=0.5, p0=2.0, eta=ETA):
    """Two-coherent cat state (|z0> + |-z0>), normalized.

    Split mainly along p: its kernel lags |x - y| stay below L/2, which the
    dual p grid of W needs to resolve the fringes at every angle.
    """
    values = coherent_state(grid, eta, x0, p0).values + coherent_state(grid, eta, -x0, -p0).values
    return GridFunction(grid, values, eta).normalized()


@pytest.fixture
def grid():
    return _self_dual_grid()


def test_radon_reproduces_marginals(grid):
    psi = coherent_state(grid, ETA, 0.5, -0.3)
    result = wigner(psi)
    tomo = radon(result, [0.0, np.pi / 2])
    pos, mom = marginals(result)
    assert np.max(np.abs(tomo.values[0] - pos)) < 1e-10
    assert np.max(np.abs(tomo.values[1] - mom)) < 1e-10


def test_radon_gaussian_closed_form(grid):
    # projection of an isotropic Gaussian is a 1-D Gaussian with variance
    # cos^2 sxx + sin^2 spp for a diagonal covariance
    sigma = np.diag([0.8, 0.5])
    W = gaussian_state(GaussianStateSpec(sigma, np.zeros(2), ETA), grid)
    theta = np.pi / 4
    tomo = radon(W, [theta])
    var = np.cos(theta) ** 2 * 0.8 + np.sin(theta) ** 2 * 0.5
    ref = np.exp(-0.5 * grid.points**2 / var) / np.sqrt(2.0 * np.pi * var)
    assert np.max(np.abs(tomo.values[0] - ref)) < 1e-10


def test_radon_masses_are_preserved(grid):
    W = wigner(coherent_state(grid, ETA, 0.2, 0.4))
    tomo = radon(W, np.linspace(0.0, np.pi, 16, endpoint=False))
    assert np.max(np.abs(tomo.masses() - 1.0)) < 1e-8


@pytest.mark.parametrize("x_max", [10.0, 12.0])
def test_radon_matches_rotated_position_density(x_max):
    # the tomogram at theta is the position density of the state rotated by
    # the metaplectic operator of R(theta) = [[c, s], [-s, c]]
    grid = make_grid(-10.0, x_max, 256)
    psi = _cat(grid)
    angles = np.array([np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, -np.pi / 4])
    tomo = radon(wigner(psi), angles)
    for row, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        rotated = metaplectic_apply(MetaplecticSpec.free(np.array([[c, s], [-s, c]])), psi)
        ref = np.abs(rotated.values) ** 2
        assert np.max(np.abs(tomo.values[row] - ref)) <= 1e-7 * np.max(ref)


def test_radon_rejects_empty_angles(grid):
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError):
        radon(W, [])


@pytest.mark.parametrize(
    "angles", [[np.nan], [np.inf], [[0.1, 0.2]]], ids=["nan", "inf", "two_dimensional"]
)
def test_radon_rejects_bad_angles(grid, angles):
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError):
        radon(W, angles)


def test_tomogram_set_rejects_non_finite_samples(grid):
    values = np.zeros((2, grid.n))
    TomogramSet([0.0, 1.0], grid, values, ETA)
    with pytest.raises(ParameterError):
        TomogramSet([0.0, np.nan], grid, values, ETA)
    values[1, 7] = np.inf
    with pytest.raises(ParameterError):
        TomogramSet([0.0, 1.0], grid, values, ETA)


def test_radon_refuses_oversized_spectra_before_allocating(grid):
    W = wigner(coherent_state(grid, ETA))
    # a zero-stride view: 10^9 angles without 8 GB of angle storage
    angles = np.broadcast_to(0.3, (10**9,))
    with pytest.raises(ParameterError, match="ray spectra"):
        radon(W, angles)


def test_radon_shares_one_p_axis_stage_per_sine(grid, monkeypatch):
    import wignerlab.tomography as tomography

    calls = []
    chirp_z = tomography.chirp_z

    def counting_chirp_z(*args):
        calls.append(args[1:])
        return chirp_z(*args)

    monkeypatch.setattr(tomography, "chirp_z", counting_chirp_z)
    W = wigner(coherent_state(grid, ETA, 0.4, -0.3))
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    tomo = radon(W, angles)
    # theta and pi - theta pair up; theta = 0 and pi/2 stand alone
    assert len(calls) == 91
    np.testing.assert_allclose(tomo.masses(), 1.0, atol=1e-10)


def test_radon_transforms_only_the_support_box(monkeypatch):
    # a coherent state at N = 256 fills a few dozen of the 256 p columns and
    # about half the x rows above SUPPORT_RTOL max |W|
    import wignerlab.tomography as tomography

    # the p-axis chirp-z of each stage evaluates only the k >= 0 half of the
    # 256-point k grid, at most 129 points
    shapes, outputs = [], []
    chirp_z = tomography.chirp_z

    def recording_chirp_z(values, m, *args):
        shapes.append(values.shape)
        outputs.append(m)
        return chirp_z(values, m, *args)

    monkeypatch.setattr(tomography, "chirp_z", recording_chirp_z)
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), ETA))
    radon(W, np.linspace(0.0, np.pi, 180, endpoint=False))
    assert shapes and all(n_x < 256 and n_p < 256 for n_x, n_p in shapes)
    assert max(outputs) <= 256 // 2 + 1


def test_radon_of_zero_is_zero(grid):
    W = PhaseSpaceFunction(grid, dual_grid(grid, ETA), np.zeros((grid.n, grid.n)), ETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tomo = radon(W, np.linspace(0.0, np.pi, 16, endpoint=False))
    assert np.all(tomo.values == 0.0)


def test_radon_keeps_a_faint_far_plateau(grid):
    # a plateau just above SUPPORT_RTOL max |W| in the corner opposite the
    # state stays in the support box, so the tomograms carry its mass
    W = wigner(coherent_state(grid, ETA, 0.4, -0.3))
    values = W.values.real.copy()
    values[:16, :16] = 1.5 * SUPPORT_RTOL * np.max(np.abs(values))
    plateau = PhaseSpaceFunction(W.x_grid, W.p_grid, values, ETA, kind="wigner")
    extra = 256 * values[0, 0] * W.area_element
    angles = np.linspace(0.0, np.pi, 16, endpoint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gained = radon(plateau, angles).masses() - radon(W, angles).masses()
    np.testing.assert_allclose(gained, extra, rtol=1e-2)


def test_mass_drift_check_sees_mass_outside_the_support_box(grid, monkeypatch):
    # the drift check compares with the mass of the whole W, so a box that
    # cut into the state would not pass silently
    import wignerlab.tomography as tomography

    half = (slice(0, grid.n // 2), slice(None))
    monkeypatch.setattr(tomography, "_support_box", lambda values, dx, dp: half)
    W = wigner(coherent_state(grid, ETA, 0.4, -0.3))
    with pytest.warns(UserWarning, match="mass drift"):
        radon(W, [0.0, 1.0])


def test_support_box_margin_keeps_axis_rays_at_round_off():
    # at theta = 0 a ray sums a whole row of W, and at N = 512 one x step is
    # an eighth of a p step: the box margin must be a p step wide in x, or the
    # rows it drops show in the position marginal well above round-off
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 512), ETA, 0.3, 0.2))
    angles = [0.0, np.pi / 2]
    ref = radon_dense(W, angles)
    assert np.max(np.abs(radon(W, angles).values - ref)) <= 2e-13 * np.max(np.abs(ref))


def test_radon_chirps_start_at_k_zero():
    # the chirps' phase error grows with the square of their indices; indexed
    # from k = 0 they stay small over the half spectrum at N = 1024, where
    # indexed from k = -K/2 they read 2.6e-13 of the peak off the dense sum
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 1024), ETA, 0.3, 0.2))
    angles = [0.0, np.pi / 2, 1.0, np.pi - 1.0]
    ref = radon_dense(W, angles)
    assert np.max(np.abs(radon(W, angles).values - ref)) <= 2e-13 * np.max(np.abs(ref))


def test_radon_band_edge_scales_with_the_box():
    # scaling x and p by a power of two and eta by its square scales every
    # sample of W by 1/lambda^2 and each tomogram by 1/lambda, bit for bit,
    # as long as the k band of each angle is cut relative to pi / dp: an
    # absolute margin moved the band at lambda = 2^100
    lam = 2.0**100
    angles = np.linspace(0.0, np.pi, 60, endpoint=False)

    def tomograms(scale):
        grid = make_grid(-10.0 * scale, 10.0 * scale, 256)
        psi = coherent_state(grid, ETA * scale**2, 0.7 * scale, -0.4 * scale)
        return radon(wigner(psi), angles).values

    assert np.array_equal(tomograms(lam) * lam, tomograms(1.0))


def test_filtered_backprojection_accuracy(grid):
    W = wigner(coherent_state(grid, ETA, 0.4, -0.2))
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    tomo = radon(W, angles)
    recon = inverse_radon(tomo)
    ref = W.values.real
    err = np.sqrt(np.sum((recon.values.real - ref) ** 2) / np.sum(ref**2))
    assert err < 0.02
    assert recon.integral().real == pytest.approx(1.0, abs=1e-3)


def test_backprojection_recovers_covariance(grid):
    sigma = np.array([[0.9, 0.2], [0.2, 0.6]])
    W = gaussian_state(GaussianStateSpec(sigma, np.zeros(2), ETA), grid)
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    recon = inverse_radon(radon(W, angles))
    cov = covariance_matrix(recon)
    assert np.max(np.abs(cov.sigma - sigma)) < 0.03 * np.max(np.abs(sigma))
    # the marginal and bilinear-form moments are the N x N mesh sums, also
    # on a reconstruction with negative ripples
    mean, dense = covariance_dense(recon)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(cov.sigma - dense)) <= 1e-13 * scale
    assert np.max(np.abs(cov.mean - mean)) <= 1e-13 * np.sqrt(scale)


def test_few_angles_warns(grid):
    W = wigner(coherent_state(grid, ETA))
    tomo = radon(W, np.linspace(0.0, np.pi, 8, endpoint=False))
    with pytest.warns(UserWarning, match="angles"):
        inverse_radon(tomo)


def test_reconstruct_density_pipeline(grid):
    psi = coherent_state(grid, ETA, 0.3, 0.2)
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    tomo = radon(wigner(psi), angles)
    density, info = reconstruct_density(tomo, ETA)
    assert density is not None
    assert not info["violations"]
    assert info["min_eigenvalue"] > -1e-4
    assert np.array_equal(info["reconstruction"].values, inverse_radon(tomo).values)
    rho = pure_density(psi)
    fidelity = (
        np.real(np.sum(rho.kernel.conj() * density.kernel)) * grid.dx**2
    )
    assert fidelity > 0.98


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("state", ["coherent", "cat", "hermite1"])
def test_support_aware_reconstruction_on_default_box(n, state):
    # at N = 512 the dual p box reaches |p| = 80 while the state lives in
    # |p| < 5: backprojection outside the tomograms' support would leave
    # streaks that break positivity.  Every tomogram of the first Hermite
    # state vanishes at the sample X = 0, which must not cut the support.
    grid = make_grid(-10.0, 10.0, n)
    psi = {
        "coherent": coherent_state(grid, ETA, 0.3, 0.2),
        "cat": _cat(grid),
        "hermite1": hermite_state(grid, ETA, 1),
    }[state]
    w = wigner(psi)
    tomo = radon(w, np.linspace(0.0, np.pi, 180, endpoint=False))
    density, info = reconstruct_density(tomo, ETA)
    recon = info["reconstruction"].values.real
    truth = w.values
    assert np.sqrt(np.sum((recon - truth) ** 2) / np.sum(truth**2)) < 2e-3
    assert np.mean(recon != 0.0) < 0.2  # most of the box is outside the support
    assert info["renormalization"] == pytest.approx(1.0, abs=1e-4)
    assert density is not None
    assert not info["violations"]
    fidelity = np.real(psi.values.conj() @ density.kernel @ psi.values) * grid.dx**2
    assert fidelity > 0.999


@pytest.mark.parametrize("box", [(-10.0, 10.0), (-8.0, 12.0), (-6.0, 6.0)])
def test_backprojection_keeps_the_whole_grid_support(box):
    # the support intersection starts from the box of rows and columns that
    # the strips nearest theta = pi/2 and 0 can keep, yet it keeps exactly
    # the points of the whole-grid intersection, for one angle, a few and
    # many, with and without an angle at 0 and pi/2
    grid = make_grid(*box, 64)
    W = wigner(coherent_state(grid, ETA, 1.3, -0.7))
    for count in (1, 2, 3, 37, 90):
        for offset in (0.0, 0.1):
            angles = np.linspace(0.0, np.pi, count, endpoint=False) + offset
            tomo = radon(W, angles)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kept = inverse_radon(tomo).values != 0.0
            assert np.array_equal(kept, backprojection_support(tomo))


def test_support_mask_keeps_fringes_between_empty_tomogram_stretches():
    # a cat split by 12 along x: its theta = 0 tomogram falls below
    # SUPPORT_RTOL between the lobes, yet the fringes at x = 0, twice as tall
    # as the lobes, carry signed mass there.  Only the outer extent of each
    # tomogram bounds the support.
    grid = make_grid(-16.0, 16.0, 256)
    values = coherent_state(grid, ETA, 6.0, 0.0).values + coherent_state(grid, ETA, -6.0, 0.0).values
    psi = GridFunction(grid, values, ETA).normalized()
    w = wigner(psi)
    tomo = radon(w, np.linspace(0.0, np.pi, 180, endpoint=False))
    gap = np.abs(tomo.values[0, np.abs(grid.points) < 0.2])
    assert gap.size > 0 and np.all(gap < 1e-12 * np.max(np.abs(tomo.values)))
    recon = inverse_radon(tomo).values.real
    truth = w.values
    origin = np.argmin(np.abs(grid.points)), np.argmin(np.abs(w.p_grid.points))
    assert recon[origin] == pytest.approx(truth[origin], rel=1e-2)
    assert np.sqrt(np.sum((recon - truth) ** 2) / np.sum(truth**2)) < 2e-2
    # fidelity of the pure state with the reconstruction, 2 pi eta <W_psi, W>
    fidelity = 2.0 * np.pi * ETA * np.sum(truth * recon) * w.area_element
    assert fidelity > 0.99


@pytest.mark.parametrize("eta", [0.5, 0.3])
def test_reconstruction_below_the_tomograms_eta_agrees_with_eta_scan(eta):
    # the backprojected W keeps the tomograms' eta = 1 as its label, so its
    # quantization at eta oversamples p by 2 ceil(1 / eta) and stays positive
    grid = make_grid(-10.0, 10.0, 256)
    tomo = radon(wigner(coherent_state(grid, ETA, 0.5, 0.3)), np.linspace(0.0, np.pi, 180, endpoint=False))
    density, info = reconstruct_density(tomo, eta)
    assert density is not None and not info["violations"]
    assert density.eta == eta and info["min_eigenvalue"] > -1e-8
    W = info["reconstruction"]
    W.values /= np.sum(W.values.real) * W.area_element
    assert eta_scan(W, [eta]).verdicts() == ["mixed"]


def test_reconstruct_density_rejects_unnormalized(grid):
    W = wigner(coherent_state(grid, ETA))
    tomo = radon(W, np.linspace(0.0, np.pi, 90, endpoint=False))
    bad = TomogramSet(tomo.angles, tomo.grid, 2.0 * tomo.values, tomo.eta)
    with pytest.raises(NormalizationError):
        reconstruct_density(bad, ETA)


def test_pauli_pair_overlap_and_marginals(grid):
    alpha = 1.0 + 1.0j
    psi1, psi2 = pauli_pair(alpha, grid, ETA)
    overlap = abs(psi1.inner(psi2)) ** 2
    assert overlap == pytest.approx(alpha.real / abs(alpha), abs=1e-6)
    W1, W2 = wigner(psi1), wigner(psi2)
    for theta in (0.0, np.pi / 2):
        t1 = radon(W1, [theta]).values[0]
        t2 = radon(W2, [theta]).values[0]
        assert np.max(np.abs(t1 - t2)) < 1e-10


def test_pauli_pair_differs_at_generic_angles(grid):
    # the two states share the position and momentum marginals but a full
    # 180-angle tomogram set tells them apart
    psi1, psi2 = pauli_pair(1.0 + 1.0j, grid, ETA)
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    t1 = radon(wigner(psi1), angles)
    t2 = radon(wigner(psi2), angles)
    assert np.max(np.abs(t1.values - t2.values)) > 1e-3


def test_pauli_pair_validation(grid):
    with pytest.raises(ParameterError):
        pauli_pair(-1.0 + 1.0j, grid, ETA)
    with pytest.raises(ParameterError):
        pauli_pair(1.0, grid, ETA)
