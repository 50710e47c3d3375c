import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import wignerlab
from wignerlab import (
    Grid,
    GridFunction,
    MetaplecticSpec,
    NotFreeError,
    ParameterError,
    ValidationError,
    blocks,
    chirp_matrix,
    coherent_state,
    fourier_matrix,
    gaussian_admissible,
    hermite_state,
    is_symplectic,
    j_matrix,
    make_grid,
    metaplectic_apply,
    rescale_matrix,
    symplectic_eigenvalues,
    wigner,
    williamson,
)

from wignerlab.symplectic import _free_blocks

from oracles import metaplectic_matrix, point_interp2d, symplectic_eigenvalues_dense

ETA = 1.0


def _random_symplectic(rng, free=True):
    """Moderate 2x2 symplectic matrix assembled from generating blocks."""
    while True:
        q = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        p = rng.uniform(-1.5, 1.5)
        r = rng.uniform(-1.5, 1.5)
        S = np.array([[r / q, 1.0 / q], [(p * r - q * q) / q, p / q]])
        ok, _ = is_symplectic(S)
        if ok and (not free or abs(S[0, 1]) > 0.1):
            return S


def test_j_matrix_and_blocks():
    J = j_matrix(1)
    assert np.array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])
    for n in (2, 3, 4):
        eye, zero = np.eye(n), np.zeros((n, n))
        Jn = j_matrix(n)
        assert Jn.dtype == np.float64
        assert np.array_equal(Jn, np.block([[zero, eye], [-eye, zero]]))
    J2 = j_matrix(2)
    assert np.array_equal(J2 @ J2, -np.eye(4))
    S = np.arange(16.0).reshape(4, 4)
    A, B, C, D = blocks(S)
    assert np.array_equal(A, S[:2, :2])
    assert np.array_equal(B, S[:2, 2:])
    assert np.array_equal(C, S[2:, :2])
    assert np.array_equal(D, S[2:, 2:])


def test_generator_matrices_are_symplectic():
    for S in (chirp_matrix(0.7), rescale_matrix(1.8), fourier_matrix(1)):
        ok, resid = is_symplectic(S)
        assert ok
        assert resid < 1e-14
    ok, _ = is_symplectic(np.diag([2.0, 2.0]))
    assert not ok


def test_generating_function_reproduces_matrix():
    # A(x, x') = P x^2 / 2 - Q x x' + R x'^2 / 2 generates S: with p = dA/dx
    # and p' = -dA/dx', S maps (x', p') to (x, p)
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = _random_symplectic(rng)
        P, Q, R = (block[0, 0] for block in _free_blocks(S))
        x, xp = rng.uniform(-2.0, 2.0, size=2)
        p, pprime = P * x - Q * xp, Q * x - R * xp
        image = S @ np.array([xp, pprime])
        assert abs(image[0] - x) < 1e-10
        assert abs(image[1] - p) < 1e-10


def test_not_free_raises():
    with pytest.raises(NotFreeError):
        MetaplecticSpec.free_as_word(np.eye(2))
    with pytest.raises(NotFreeError):
        MetaplecticSpec.free(chirp_matrix(0.5))


def test_williamson_closed_form():
    sigma = np.array([[2.0, 0.3], [0.3, 0.8]])
    data = williamson(sigma)
    recon = data.S.T @ data.D @ data.S
    assert np.max(np.abs(recon - sigma)) < 1e-12
    assert data.eigenvalues[0] == pytest.approx(np.sqrt(np.linalg.det(sigma)), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_williamson_random(n):
    rng = np.random.default_rng(4)
    for _ in range(50):
        M = rng.normal(size=(2 * n, 2 * n))
        sigma = M @ M.T + 0.1 * np.eye(2 * n)
        data = williamson(sigma)
        recon = data.S.T @ data.D @ data.S
        scale = np.max(np.abs(sigma))
        assert np.max(np.abs(recon - sigma)) < 1e-8 * scale
        ok, resid = is_symplectic(data.S)
        assert ok and resid < 1e-9
        ref = symplectic_eigenvalues_dense(sigma)
        assert np.max(np.abs(np.sort(data.eigenvalues) - np.sort(ref))) < 1e-8 * scale
        # each mode's frame is phased so that S[n + j, j] = 0 < S[j, j]; at
        # n = 1 that is the upper-triangular factor
        assert np.max(np.abs(np.diagonal(data.S[n:, :n]))) < 1e-12 * np.max(np.abs(data.S))
        assert np.all(np.diagonal(data.S[:n, :n]) > 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_spectrum_takes_two_hermitian_eigensolves(n, monkeypatch):
    # one eigh of Sigma (positivity and its roots), one of i Sigma^-1/2 J Sigma^-1/2;
    # gaussian_admissible adds only its own eigvalsh of Sigma + i eta J / 2
    solves = []

    def counting(name):
        solve = getattr(np.linalg, name)

        def counted(matrix, *args, **kwargs):
            solves.append(name)
            return solve(matrix, *args, **kwargs)

        return counted

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    M = np.random.default_rng(n).normal(size=(2 * n, 2 * n))
    sigma = M @ M.T + 0.1 * np.eye(2 * n)
    williamson(sigma)
    assert solves == ["eigh", "eigh"]
    solves.clear()
    symplectic_eigenvalues(sigma)
    assert solves == ["eigh", "eigh"]
    solves.clear()
    gaussian_admissible(sigma, ETA)
    assert solves == ["eigh", "eigh", "eigvalsh"]


def test_library_takes_no_general_eigensolve():
    sources = Path(wignerlab.__file__).parent.glob("*.py")
    assert not [path.name for path in sources if re.search(r"\beigvals\(", path.read_text())]


def test_williamson_degenerate_warns_and_factors():
    sigma = 0.7 * np.eye(4)
    with pytest.warns(UserWarning, match="near-degenerate"):
        data = williamson(sigma)
    assert np.max(np.abs(data.S.T @ data.D @ data.S - sigma)) < 1e-12
    ok, resid = is_symplectic(data.S)
    assert ok and resid < 1e-9
    assert np.allclose(data.eigenvalues, 0.7, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("t", [2.0**-100, 1.0, 2.0**100])
def test_williamson_warning_is_scale_free(t):
    # the gaps between symplectic eigenvalues are read relative to the
    # largest, so Sigma scaled by t warns exactly when Sigma does
    shear = np.eye(4)
    shear[2:, :2] = [[0.3, -0.2], [-0.2, 0.5]]
    sigma = shear.T @ np.diag([0.998, 1.488, 0.998, 1.488]) @ shear
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = williamson(t * sigma)
    assert np.allclose(data.eigenvalues / t, [0.998, 1.488], rtol=1e-12, atol=0.0)
    with pytest.warns(UserWarning, match="near-degenerate"):
        williamson(0.7 * t * np.eye(4))


def test_williamson_rejects_non_finite_covariance():
    with pytest.raises(ValidationError, match="finite"):
        williamson(np.full((2, 2), np.nan))


def test_word_matrix_matches_free_matrix():
    rng = np.random.default_rng(5)
    for _ in range(10):
        S = _random_symplectic(rng)
        spec = MetaplecticSpec.free_as_word(S)
        assert np.max(np.abs(metaplectic_matrix(spec) - S)) < 1e-10


def test_metaplectic_is_unitary():
    grid = make_grid(-10.0, 10.0, 128)
    psi = coherent_state(grid, ETA, 0.4, -0.2)
    rng = np.random.default_rng(6)
    for _ in range(5):
        S = _random_symplectic(rng)
        out = metaplectic_apply(MetaplecticSpec.free(S), psi)
        assert abs(out.norm() - 1.0) < 1e-7


def test_word_and_quadrature_paths_agree():
    grid = make_grid(-10.0, 10.0, 128)
    psi = hermite_state(grid, ETA, 1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        S = _random_symplectic(rng)
        via_quad = metaplectic_apply(MetaplecticSpec.free(S), psi)
        via_word = metaplectic_apply(MetaplecticSpec.free_as_word(S), psi)
        # the two realizations may differ by a sign (double cover)
        diff = min(
            np.max(np.abs(via_quad.values - via_word.values)),
            np.max(np.abs(via_quad.values + via_word.values)),
        )
        assert diff < 1e-6


@pytest.mark.parametrize("x_max", [10.0, 12.0])
def test_free_rotation_moves_a_coherent_state_to_the_closed_form(x_max):
    # the metaplectic operator of R(theta) = [[c, s], [-s, c]] moves the
    # coherent state at z0 to the one at R z0, up to a phase: on centred and
    # offset boxes the quadrature's position density misses the closed form
    # by at most 1.6e-14 of its peak, where the generator word of the same
    # R missed by 3.0e-4 and 4.3e-4 at theta = 5 pi / 6
    grid = make_grid(-10.0, x_max, 256)
    z0 = np.array([2.0, -1.0])
    phi = coherent_state(grid, ETA, *z0)
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, -np.pi / 4):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, s], [-s, c]])
        moved = np.abs(metaplectic_apply(MetaplecticSpec.free(R), phi).values) ** 2
        closed = np.abs(coherent_state(grid, ETA, *(R @ z0)).values) ** 2
        assert np.max(np.abs(moved - closed)) <= 1e-12 * np.max(closed)


def test_wigner_transport():
    # W(S psi)(z) = W psi(S^-1 z) on the interior of the grid
    grid = make_grid(-10.0, 10.0, 128)
    psi = coherent_state(grid, ETA, 0.5, 0.3)
    rng = np.random.default_rng(8)
    S = _random_symplectic(rng)
    moved = metaplectic_apply(MetaplecticSpec.free(S), psi)
    W_in = wigner(psi)
    W_out = wigner(moved)
    Sinv = np.linalg.inv(S)
    xx, pp = W_out.meshes()
    back_x = Sinv[0, 0] * xx + Sinv[0, 1] * pp
    back_p = Sinv[1, 0] * xx + Sinv[1, 1] * pp
    ref = point_interp2d(W_in.values, W_in.x_grid, W_in.p_grid, back_x, back_p)
    interior = (np.abs(xx) < 5.0) & (np.abs(pp) < 5.0)
    assert np.max(np.abs((W_out.values - ref)[interior])) < 1e-6


def test_round_trip_through_inverse():
    grid = make_grid(-10.0, 10.0, 128)
    psi = coherent_state(grid, ETA, 0.3, -0.4)
    rng = np.random.default_rng(9)
    S = _random_symplectic(rng)
    Sinv = np.linalg.inv(S)
    there = metaplectic_apply(MetaplecticSpec.free(S), psi)
    back = metaplectic_apply(MetaplecticSpec.free(Sinv), there)
    fidelity = abs(psi.inner(back))
    assert fidelity == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("n", [63, 65])
def test_rescale_keeps_the_top_bin_whole_at_odd_n(n):
    # at odd N the top frequency (N - 1) / 2 is an ordinary bin, paired with
    # -(N - 1) / 2, not a Nyquist bin to split: halved, it read 0.52 off
    grid = Grid(-10.0, 10.0, n)
    k = (n - 1) // 2
    wave = np.exp(2j * np.pi * k * (grid.points - grid.x_min) / grid.length)
    rescale = MetaplecticSpec.from_word([("rescale", 1.1, 0)])
    out = metaplectic_apply(rescale, GridFunction(grid, wave, ETA))
    t = (1.1 * grid.points - grid.x_min) / grid.length
    exact = np.where((t >= 0.0) & (t < 1.0), np.sqrt(1.1) * np.exp(2j * np.pi * k * t), 0.0)
    assert np.max(np.abs(out.values - exact)) < 1e-12


def test_fourier_word_matches_eta_fourier():
    from wignerlab import eta_fourier

    # self-dual grid (n dx^2 = 2 pi eta) so input and output grids coincide
    half = 0.5 * np.sqrt(2.0 * np.pi * ETA * 128)
    grid = make_grid(-half, half, 128)
    psi = coherent_state(grid, ETA, 0.6, 0.1)
    out = metaplectic_apply(MetaplecticSpec.from_word([("fourier",)]), psi)
    ft = eta_fourier(psi)
    phase = np.exp(-0.25j * np.pi)
    assert np.max(np.abs(out.values - phase * ft.values)) < 1e-10


def test_fourier_word_keeps_every_sample_of_a_self_dual_grid():
    from wignerlab import dual_grid, eta_fourier

    # at eta = 1.7 the dual grid starts one rounding above x_min; the step
    # must not read the first sample as off the grid
    eta = 1.7
    half = 0.5 * np.sqrt(2.0 * np.pi * eta * 128)
    grid = make_grid(-half, half, 128)
    assert dual_grid(grid, eta).x_min > grid.x_min
    rng = np.random.default_rng(10)
    psi = GridFunction(grid, rng.normal(size=128) + 1j * rng.normal(size=128), eta)
    word = MetaplecticSpec.from_word([("fourier",)])
    values = np.exp(0.25j * np.pi) * metaplectic_apply(word, psi).values
    ft = eta_fourier(psi).values
    assert np.max(np.abs(values - ft)) < 1e-12 * np.max(np.abs(ft))


def test_word_mixes_free_and_elementary_steps():
    grid = make_grid(-10.0, 10.0, 128)
    psi = coherent_state(grid, ETA, 0.3, -0.2)
    S, P = _random_symplectic(np.random.default_rng(11)), 0.7
    word = MetaplecticSpec.from_word([("free", S), ("chirp", P)])
    chirp = MetaplecticSpec.from_word([("chirp", P)])
    in_turn = metaplectic_apply(chirp, metaplectic_apply(MetaplecticSpec.free(S), psi))
    assert np.array_equal(metaplectic_apply(word, psi).values, in_turn.values)
    assert np.array_equal(metaplectic_matrix(word), chirp_matrix(P) @ S)


@pytest.mark.parametrize(
    "word",
    [[("chirp", np.eye(2))], [("rescale", 2.0 * np.eye(2), 1), ("chirp", np.eye(2))]],
)
def test_word_with_two_degrees_of_freedom_is_refused(word):
    # a 1-D state cannot carry an n = 2 step; no step may run on its [0, 0] entry
    psi = coherent_state(make_grid(-10.0, 10.0, 64), ETA)
    assert metaplectic_matrix(MetaplecticSpec.from_word(word)).shape == (4, 4)
    with pytest.raises(ParameterError, match="n = 1 only"):
        metaplectic_apply(MetaplecticSpec.from_word(word), psi)
