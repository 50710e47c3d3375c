import numpy as np
import pytest

from wignerlab import (
    GaussianStateSpec,
    ParameterError,
    PhaseSpaceFunction,
    ValidationError,
    coherent_state,
    covariance_matrix,
    eta_scan,
    gaussian_admissible,
    gaussian_state,
    gaussian_wavepacket,
    hermite_state,
    klm_test,
    dual_grid,
    make_grid,
    narcowich_oconnell_profile,
    quartic_derivative_witness,
    reduced_transform,
    robertson_schrodinger_checks,
    sigma_transform_at,
    wigner,
)
from wignerlab import quantumness
from wignerlab.grid import support_box
from wignerlab.quantumness import _POINT_CHUNK, klm_matrix

from oracles import klm_matrix_dense, transform_dense, wavepacket_wigner_closed

ETA = 1.0
TINY = np.finfo(float).tiny


def _self_dual_grid(n=128, eta=ETA):
    half = 0.5 * np.sqrt(2.0 * np.pi * eta * n)
    return make_grid(-half, half, n)


@pytest.fixture
def grid():
    return make_grid(-10.0, 10.0, 128)


def test_gaussian_state_closed_form(grid):
    sigma = np.array([[0.8, 0.1], [0.1, 0.6]])
    W = gaussian_state(GaussianStateSpec(sigma, np.array([0.3, -0.2]), ETA), grid)
    assert W.kind == "wigner"
    assert W.integral().real == pytest.approx(1.0, abs=1e-9)
    cov = covariance_matrix(W)
    assert np.max(np.abs(cov.sigma - sigma)) < 1e-8
    assert np.max(np.abs(cov.mean - [0.3, -0.2])) < 1e-9


def test_gaussian_wavepacket_matches_closed_wigner(grid):
    m = 1.0 + 0.5j
    numeric = wigner(gaussian_wavepacket(grid, ETA, m)).values
    assert np.max(np.abs(numeric - wavepacket_wigner_closed(grid, ETA, m))) < 1e-8


def test_gaussian_state_takes_a_spec_only(grid):
    with pytest.raises(ParameterError, match="unsupported Gaussian spec dict"):
        gaussian_state({"m": 1.0 + 0.5j, "eta": ETA}, grid)


def test_coherent_state_covariance(grid):
    W = wigner(coherent_state(grid, ETA, 0.4, -0.1))
    cov = covariance_matrix(W)
    # coherent state: Sigma = (eta / 2) I
    assert np.max(np.abs(cov.sigma - 0.5 * ETA * np.eye(2))) < 1e-8


def test_gaussian_admissibility_equivalence():
    # the two closed-form criteria must agree on random covariance matrices
    rng = np.random.default_rng(10)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.integers(1, 3)
        M = rng.normal(size=(2 * n, 2 * n))
        sigma = M @ M.T + 0.05 * np.eye(2 * n)
        out = gaussian_admissible(sigma, ETA)
        assert out["positive_definite"]
        # gaussian_admissible raises ValidationError internally if the
        # lambda_min and matrix criteria ever disagree
        assert out["admissible"] == (2.0 * out["lambda_min"] >= ETA - 1e-9)
        seen[out["admissible"]] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_admissibility_boundary_case():
    out = gaussian_admissible(0.5 * ETA * np.eye(2), ETA)
    assert out["admissible"]
    assert out["lambda_min"] == pytest.approx(0.5 * ETA, abs=1e-12)


def test_admissibility_two_mode_counterexample():
    # positive definite with good per-mode checks, but the cross-mode
    # correlations make it quantum-inadmissible
    sigma = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    ) + 1e-6 * np.eye(4)
    out = gaussian_admissible(sigma, ETA)
    assert not out["admissible"]
    assert all(check["ok"] for check in robertson_schrodinger_checks(np.eye(4), ETA) )


def test_admissibility_rejects_asymmetric():
    out = gaussian_admissible(np.array([[1.0, 0.3], [0.0, 1.0]]), ETA)
    assert not out["admissible"]
    assert not out["positive_definite"]


def test_klm_passes_for_ground_state():
    grid = _self_dual_grid()
    W = wigner(coherent_state(grid, ETA))
    for seed in range(10):
        report = klm_test(W, ETA, samples=40, seed=seed)
        assert report.passed
        assert report.min_eigenvalue >= -1e-8
    assert report.hessian_min_eigenvalue >= -1e-8
    assert report.continuity_residual < 1e-8


def test_klm_fails_above_native_eta():
    # the same distribution cannot be a Wigner function at larger eta
    grid = _self_dual_grid()
    W = wigner(coherent_state(grid, ETA))
    report = klm_test(W, 1.5 * ETA, samples=40, seed=0)
    assert not report.passed


def test_klm_ball_radius_reads_the_support_block():
    # the CLI's coherent W has Sigma = I / 2, so the ball's radius is
    # 3 / sqrt(2): its moments read the support block, not the round-off
    # floor of W around it
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), ETA))
    radius = klm_test(W, ETA, samples=8).details["radius"]
    assert abs(radius / (3.0 / np.sqrt(2.0)) - 1.0) <= 1e-14


def test_klm_rejects_unnormalized(grid):
    W = wigner(coherent_state(grid, ETA))
    bad = type(W)(W.x_grid, W.p_grid, 2.0 * W.values, W.eta, kind="wigner")
    with pytest.raises(ValidationError):
        klm_test(bad, ETA)


def test_klm_refuses_oversized_sample_count(grid):
    # 20000 samples need 25.6 GB for the four 20000 x 20000 complex
    # matrices alone; refused before anything is allocated
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError, match="GiB"):
        klm_test(W, ETA, samples=20000)


@pytest.mark.parametrize("eta", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_klm_refuses_zero_or_non_finite_eta(grid, eta):
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError, match="eta"):
        klm_test(W, eta)


@pytest.mark.parametrize("eta", [0.0, np.nan, np.inf])
def test_sigma_transform_refuses_zero_or_non_finite_eta(grid, eta):
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError, match="eta"):
        sigma_transform_at(W, np.zeros((3, 2)), eta)


@pytest.mark.parametrize("eta", [0.0, np.nan, np.inf])
def test_gaussian_admissible_refuses_zero_or_non_finite_eta(eta):
    with pytest.raises(ParameterError, match="eta"):
        gaussian_admissible(np.eye(2), eta)


@pytest.mark.parametrize(
    "sigma",
    [np.full((2, 2), np.inf), np.array([[1.0, np.nan], [np.nan, 1.0]])],
    ids=["all_inf", "one_nan"],
)
def test_gaussian_admissible_refuses_a_non_finite_sigma(sigma):
    # refused before any eigensolve: an all-inf Sigma read a nan minimum
    # eigenvalue, and one with a NaN off-diagonal a verdict of -0.707
    with pytest.raises(ParameterError, match="non-finite"):
        gaussian_admissible(sigma, ETA)


def test_negative_eta_keeps_its_meaning():
    # the Gaussian test reads |eta|; the KLM matrix at -eta is minus the
    # conjugate of the one at eta, so a state positive at eta fails there
    assert gaussian_admissible(np.eye(2), -ETA) == gaussian_admissible(np.eye(2), ETA)
    W = wigner(coherent_state(_self_dual_grid(64), ETA))
    assert klm_test(W, ETA, samples=8).passed
    assert klm_test(W, -ETA, samples=8).verdict == "violation"


@pytest.mark.parametrize(
    "kwargs",
    [{"samples": 2.5}, {"samples": True}, {"samples": 1}, {"samples": "40"},
     {"seed": -1}, {"seed": 1.5}, {"seed": False}],
    ids=["float_samples", "bool_samples", "one_sample", "string_samples",
         "negative_seed", "float_seed", "bool_seed"],
)
def test_klm_refuses_bad_sample_count_or_seed(grid, kwargs):
    W = wigner(coherent_state(grid, ETA))
    with pytest.raises(ParameterError, match="samples|seed"):
        klm_test(W, ETA, **kwargs)


def test_klm_takes_numpy_integers(grid):
    W = wigner(coherent_state(grid, ETA))
    report = klm_test(W, ETA, samples=np.int64(8), seed=np.uint32(3))
    assert report.points.shape == (8, 2)
    assert report.seed == 3


def test_narcowich_oconnell_witness():
    a, b = 0.5, 0.5
    profile = narcowich_oconnell_profile(a, b)
    witness = quartic_derivative_witness(profile)
    # closed form: d^4/dx^4 at 0 is -24 a^2
    assert witness == pytest.approx(-24.0 * a**2, rel=0.02)
    assert witness < 0.0


def test_eta_scan_verdicts():
    grid = _self_dual_grid()
    W = wigner(coherent_state(grid, ETA))
    result = eta_scan(W, [0.5 * ETA, ETA, 1.5 * ETA])
    assert result.verdicts() == ["mixed", "pure", "inadmissible"]
    for entry in result.entries:
        # Int W^2 = 1/(2 pi eta0) for a pure state at native eta0, so the
        # surrogate 2 pi eta Int W^2 scales like eta / eta0
        assert entry["purity_surrogate"] == pytest.approx(entry["eta"] / ETA, abs=1e-6)


@pytest.mark.parametrize("power", [-300, -280, 280, 300])
def test_eta_scan_verdicts_do_not_depend_on_the_scale(power):
    # at (lam x, lam p, lam^2 eta) W scales by 1/lam^2 and its squares leave
    # the float range: the purity surrogate sums them in units of the peak,
    # where squared samples read "mixed" for "pure" at lam = 2^280 and raised
    # a RuntimeWarning at lam = 2^-280
    def verdicts(lam):
        half = 0.5 * np.sqrt(2.0 * np.pi * ETA * 128) * lam
        W = wigner(coherent_state(make_grid(-half, half, 128), ETA * lam**2))
        return eta_scan(W, [0.5 * ETA * lam**2, ETA * lam**2, 1.5 * ETA * lam**2]).verdicts()

    assert verdicts(2.0**power) == verdicts(1.0) == ["mixed", "pure", "inadmissible"]


def test_eta_scan_quantizes_the_real_part():
    # a complex W is refused, even with an imaginary part of 5e-10 max |a|;
    # the caller's explicit real part scans as W does, and the density is
    # Hermitian to round-off
    grid = _self_dual_grid()
    W = wigner(coherent_state(grid, ETA))
    real = eta_scan(W, [0.5, 1.0, 1.5])
    values = W.values + 5e-10j * np.max(np.abs(W.values))
    tilted = PhaseSpaceFunction(W.x_grid, W.p_grid, values, ETA, "wigner")
    with pytest.raises(ParameterError, match="wigner function is complex"):
        eta_scan(tilted, [0.5, 1.0, 1.5])
    chosen = PhaseSpaceFunction(W.x_grid, W.p_grid, values.real, ETA, "wigner")
    result = eta_scan(chosen, [0.5, 1.0, 1.5])
    assert result.verdicts() == real.verdicts() == ["mixed", "pure", "inadmissible"]
    assert all(entry["hermiticity_residue"] <= 1e-12 for entry in result.entries)


def test_eta_scan_judges_the_normalized_density():
    # a mass of 1 + 5e-7 passes the unit-mass check; the entry's trace reads
    # it, and the verdicts are those of the unit-mass W
    grid = _self_dual_grid()
    W = wigner(coherent_state(grid, ETA))
    unit = eta_scan(W, [0.5, 1.0, 1.5])
    heavy = PhaseSpaceFunction(W.x_grid, W.p_grid, (1.0 + 5e-7) * W.values, ETA, "wigner")
    result = eta_scan(heavy, [0.5, 1.0, 1.5])
    assert result.verdicts() == unit.verdicts()
    for entry, reference in zip(result.entries, unit.entries):
        assert entry["trace"] == pytest.approx((1.0 + 5e-7) * reference["trace"], abs=1e-14)
        assert entry["purity_surrogate"] == pytest.approx(reference["purity_surrogate"], abs=1e-12)


def test_eta_scan_flags_nonpositive_distribution():
    grid = _self_dual_grid()
    W = wigner(hermite_state(grid, ETA, 1))
    result = eta_scan(W, [ETA])
    # a genuine Wigner function at its own eta is a pure state even though
    # the distribution itself takes negative values
    assert result.verdicts() == ["pure"]



def test_dias_prata_spectra_of_fock_and_coherent_states():
    # a pure state that is not Gaussian is admissible, among eta' > 0, at its
    # own eta only (Dias & Prata, Rep. Math. Phys., 2009); a coherent state
    # is a Gaussian of covariance eta / 2, admissible at each eta' <= eta
    grid = make_grid(-10.0, 10.0, 256)
    foreign = [0.3, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 3.0]
    for n in (1, 2, 3):
        W = wigner(hermite_state(grid, ETA, n))
        assert eta_scan(W, foreign).verdicts() == ["inadmissible"] * len(foreign), n
    W = wigner(coherent_state(grid, ETA))
    assert eta_scan(W, [0.3, 0.5, 0.9, 0.99, 1.0]).verdicts() == ["mixed"] * 4 + ["pure"]

SIGMA = np.array([[0.8, 0.1], [0.1, 0.6]])


def _normal_density(x_grid, p_grid, eta, mean):
    xx, pp = np.meshgrid(x_grid.points - mean[0], p_grid.points - mean[1], indexing="ij")
    dz = np.stack([xx, pp], axis=-1)
    quad = np.einsum("...i,ij,...j->...", dz, np.linalg.inv(SIGMA), dz)
    values = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(SIGMA)))
    return PhaseSpaceFunction(x_grid, p_grid, values, eta, kind="wigner")


def _normal_reduced_transform(points, mean):
    """Int exp(-i sigma(w, z)) a(z) dz for the normal density a: with
    sigma(w, z) = xi . z, xi = (w_p, -w_x), it is the characteristic function
    exp(-i xi . mean - xi Sigma xi / 2)."""
    xi = np.stack([points[:, 1], -points[:, 0]], axis=1)
    quad = np.einsum("mi,ij,mj->m", xi, SIGMA, xi)
    return np.exp(-1j * xi @ np.asarray(mean) - 0.5 * quad)


@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize(
    "layout, count",
    [("dual", 40), ("offset", 40), ("dual", 2 * _POINT_CHUNK + 7)],
)
def test_transforms_match_normal_characteristic_function(eta, layout, count):
    if layout == "dual":
        x_grid = make_grid(-10.0, 10.0, 128)
        p_grid, mean = dual_grid(x_grid, eta), (0.3, -0.2)
    else:  # neither grid centered, p grid not dual and of another size
        x_grid, p_grid = make_grid(-4.0, 10.0, 64), make_grid(-6.0, 8.0, 32)
        mean = (3.0, 1.0)
    a = _normal_density(x_grid, p_grid, eta, mean)
    rng = np.random.default_rng(count + int(10 * eta))
    points = rng.uniform(-2.0, 2.0, size=(count, 2))

    fast = sigma_transform_at(a, points, eta)
    literal = transform_dense(a, points, 1.0 / eta) / (2.0 * np.pi * eta)
    closed = _normal_reduced_transform(points / eta, mean) / (2.0 * np.pi * eta)
    assert np.max(np.abs(fast - literal)) < 1e-14
    assert np.max(np.abs(fast - closed)) < 1e-12

    fast = reduced_transform(a, points)
    assert np.max(np.abs(fast - transform_dense(a, points, 1.0))) < 1e-13
    assert np.max(np.abs(fast - _normal_reduced_transform(points, mean))) < 1e-12


def _subnormal(array) -> bool:
    """Whether a real or imaginary part of ``array`` lies in (0, tiny)."""
    parts = np.abs(np.concatenate([np.ravel(array.real), np.ravel(np.imag(array))]))
    return bool(np.any((parts > 0.0) & (parts < TINY)))


def test_klm_contraction_reads_no_subnormal_sample(monkeypatch):
    # the bench's KLM input, Sigma = 0.25 I on the dual grid at N = 256,
    # whose tails hold subnormal samples, and a 10x squeezed Gaussian turned
    # by 45 degrees, whose support block still holds some: zeroing them moves
    # no bit of the KLM matrix, and no contraction at arbitrary points sees one
    grid = make_grid(-10.0, 10.0, 256)
    p_grid = dual_grid(grid, ETA)
    xx, pp = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    round_ = np.exp(-2.0 * (xx**2 + pp**2)) / (2.0 * np.pi * 0.25)
    # Sigma = R diag(5, 0.05) R^T with R the 45 degree turn, det Sigma = 0.25
    u, v = (xx + pp) / np.sqrt(2.0), (pp - xx) / np.sqrt(2.0)
    squeezed = np.exp(-0.5 * (u**2 / 5.0 + v**2 / 0.05)) / (2.0 * np.pi * 0.5)
    points = np.random.default_rng(3).uniform(-1.5, 1.5, size=(40, 2))
    operands = []
    contraction = quantumness._quadrature_transform

    def spy(values, ex, ep):
        operands.extend([values, ex, ep])
        return contraction(values, ex, ep)

    monkeypatch.setattr(quantumness, "_quadrature_transform", spy)
    for values in (round_, squeezed):
        a = PhaseSpaceFunction(grid, p_grid, values, ETA, kind="wigner")
        assert _subnormal(a.values)
        flushed = PhaseSpaceFunction(
            grid, p_grid, np.where(np.abs(values) < TINY, 0.0, values), ETA, kind="wigner"
        )
        operands.clear()
        assert np.array_equal(klm_matrix(a, points, ETA), klm_matrix(flushed, points, ETA))
        reduced_transform(a, points)
        sigma_transform_at(a, points, ETA)
        assert operands and not any(_subnormal(operand) for operand in operands)
    # the squeezed block keeps samples below tiny, which only the flush reads as 0
    assert _subnormal(squeezed[support_box(squeezed, np.finfo(float).eps)])


def test_klm_keeps_a_grid_filled_above_round_off():
    # a Gaussian as wide as the grid: its corner samples, exp(-25) of its
    # peak, lie above eps max |W|, so no row or column is left out
    grid = _self_dual_grid(64)
    p_grid = dual_grid(grid, ETA)
    xx, pp = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    values = np.exp(-(xx**2 + pp**2) / 8.0)
    values /= np.sum(values) * grid.dx * p_grid.dx
    a = PhaseSpaceFunction(grid, p_grid, values, ETA, kind="wigner")
    assert np.min(values) > np.finfo(float).eps * np.max(values)
    report = klm_test(a, ETA, samples=12, seed=2)
    assert report.details["support_rows"] == [0, 64]
    assert report.details["support_cols"] == [0, 64]
    assert report.details["dropped_mass"] == 0.0
    dense = klm_matrix_dense(a, report.points, ETA)
    fast = klm_matrix(a, report.points, ETA)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.linalg.norm(dense, 2)


def test_transform_of_a_complex_function_matches_literal_quadrature():
    x_grid = make_grid(-10.0, 10.0, 64)
    a = _normal_density(x_grid, dual_grid(x_grid, ETA), ETA, (0.3, -0.2))
    xx, _ = a.meshes()
    chirped = PhaseSpaceFunction(a.x_grid, a.p_grid, a.values * np.exp(0.7j * xx), ETA)
    points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(30, 2))
    literal = transform_dense(chirped, points, 1.0 / ETA) / (2.0 * np.pi * ETA)
    assert np.max(np.abs(sigma_transform_at(chirped, points, ETA) - literal)) < 1e-14


@pytest.mark.parametrize("eta", [ETA, 1.5 * ETA])
def test_klm_min_eigenvalue_matches_literal_quadrature(eta):
    W = wigner(coherent_state(_self_dual_grid(64), ETA))
    report = klm_test(W, eta, samples=20, seed=3)
    pts = report.points
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
    asig = transform_dense(W, diffs, 1.0 / eta).reshape(20, 20) / (2.0 * np.pi * eta)
    sig = np.outer(pts[:, 1], pts[:, 0]) - np.outer(pts[:, 0], pts[:, 1])
    matrix = np.exp(0.5j * sig / eta) * asig
    min_eig = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))[0]
    assert abs(report.min_eigenvalue - min_eig) <= 1e-12
