import numpy as np
import pytest

from wignerlab import (
    DensityMatrix,
    GridFunction,
    MixedStateSpec,
    NormalizationError,
    OperatorMatrix,
    ParameterError,
    ValidationError,
    coherent_state,
    eta_scan,
    hermite_state,
    make_grid,
    mix,
    pure_density,
    radon,
    reconstruct_density,
    state_stats,
    validate_density,
    wigner,
)

from oracles import spectral_decompose

ETA = 1.0


@pytest.fixture
def grid():
    return make_grid(-10.0, 10.0, 64)


def test_operator_apply_and_compose(grid):
    psi = coherent_state(grid, ETA)
    rho = pure_density(psi)
    out = rho.op.apply(psi)
    # projector onto psi acts as the identity on psi
    assert np.max(np.abs(out.values - psi.values)) < 1e-10
    sq = rho.op.compose(rho.op)
    assert np.max(np.abs(sq.kernel - rho.op.kernel)) < 1e-10


def test_operator_trace_and_hs(grid):
    psi = coherent_state(grid, ETA)
    rho = pure_density(psi)
    assert rho.op.trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.op.hs_norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert rho.op.hermiticity_residue() < 1e-14


def test_trace_cyclicity(grid):
    a = pure_density(coherent_state(grid, ETA, 0.5, 0.0)).op
    b = pure_density(hermite_state(grid, ETA, 1)).op
    ab = a.compose(b).trace()
    ba = b.compose(a).trace()
    assert abs(ab - ba) < 1e-12


def test_pure_density_requires_normalization(grid):
    psi = coherent_state(grid, ETA)
    bad = GridFunction(grid, 2.0 * psi.values, ETA)
    with pytest.raises(NormalizationError):
        pure_density(bad)


def test_mixture_weights_validated(grid):
    psi = coherent_state(grid, ETA)
    with pytest.raises(ParameterError):
        MixedStateSpec([(0.7, psi)])
    with pytest.raises(ParameterError):
        MixedStateSpec([(-0.5, psi), (1.5, psi)])


def test_validate_density_flags_bad_operators(grid):
    n = grid.n
    non_herm = OperatorMatrix(grid, np.triu(np.ones((n, n))), ETA)
    report = validate_density(non_herm)
    assert not report.ok
    assert any("hermiticity" in v for v in report.violations)
    with pytest.raises(ValidationError):
        validate_density(non_herm, strict=True)


def test_spectral_decompose_reconstructs(grid):
    psi0 = coherent_state(grid, ETA)
    psi1 = hermite_state(grid, ETA, 1)
    rho = mix(MixedStateSpec([(0.75, psi0), (0.25, psi1)]))
    data = spectral_decompose(rho)
    assert data.eigenvalues[0] == pytest.approx(0.75, abs=1e-10)
    assert data.eigenvalues[1] == pytest.approx(0.25, abs=1e-10)
    recon = np.zeros((grid.n, grid.n), dtype=complex)
    for lam, vec in zip(data.eigenvalues, data.eigenvectors):
        recon += lam * np.outer(vec.values, vec.values.conj())
    assert np.max(np.abs(recon - rho.op.kernel)) < 1e-8
    # eigenvectors orthonormal in the dx inner product
    assert data.eigenvectors[0].norm() == pytest.approx(1.0, abs=1e-10)
    assert abs(data.eigenvectors[0].inner(data.eigenvectors[1])) < 1e-10


def test_state_stats_pure_and_mixed(grid):
    psi0 = coherent_state(grid, ETA)
    stats = state_stats(pure_density(psi0))
    assert stats["trace"] == pytest.approx(1.0, abs=1e-8)
    assert stats["purity"] == pytest.approx(1.0, abs=1e-8)
    assert stats["entropy"] == pytest.approx(0.0, abs=1e-8)
    psi1 = hermite_state(grid, ETA, 1)
    rho = mix(MixedStateSpec([(0.5, psi0), (0.5, psi1)]))
    stats = state_stats(rho)
    assert stats["purity"] == pytest.approx(0.5, abs=1e-8)
    assert stats["entropy"] == pytest.approx(np.log(2.0), abs=1e-8)


def test_eigenvalues_descending(grid):
    psi0 = coherent_state(grid, ETA)
    psi1 = hermite_state(grid, ETA, 1)
    rho = mix(MixedStateSpec([(0.6, psi0), (0.4, psi1)]))
    vals = validate_density(rho.op).eigenvalues
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[0] == pytest.approx(0.6, abs=1e-10)


def test_state_stats_reads_the_spectrum_mix_validated(grid, monkeypatch):
    psi0 = coherent_state(grid, ETA)
    psi1 = hermite_state(grid, ETA, 1)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix, *args, **kwargs):
        solves.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho = mix(MixedStateSpec([(0.5, psi0), (0.5, psi1)]))
    stats = state_stats(rho)
    assert solves == [(2, 2)]
    report = rho.report
    assert report.min_eigenvalue == report.eigenvalues[-1]
    assert stats["purity"] == pytest.approx(0.5, abs=1e-8)


def test_state_stats_takes_the_floor_the_density_was_validated_at():
    # the backprojected density passes its 1e-4 floor with eigenvalues far
    # below -1e-10 max; the stats clamp them, as the report allowed
    w = wigner(coherent_state(make_grid(-10.0, 10.0, 256), ETA))
    density, _ = reconstruct_density(radon(w, np.linspace(0.0, np.pi, 180, endpoint=False)), ETA)
    assert density.report.ok and density.report.min_eigenvalue < -1e-10
    stats = state_stats(density)
    assert stats["clamped"] == pytest.approx(-np.sum(density.report.eigenvalues.clip(None, 0.0)))
    assert stats["trace"] == pytest.approx(1.0, abs=1e-6)


def test_state_stats_raises_the_violations_of_its_report(grid):
    op = OperatorMatrix(grid, 2.0 * pure_density(coherent_state(grid, ETA)).kernel, ETA)
    report = validate_density(op)
    with pytest.raises(ValidationError, match="trace"):
        state_stats(DensityMatrix(op, report))


def test_mix_reports_its_factors_as_the_range_basis(grid):
    # rank r and certificate 0; the purity is the kernel's Frobenius norm
    psi0, psi2 = coherent_state(grid, ETA), hermite_state(grid, ETA, 2)
    rho = mix(MixedStateSpec([(0.7, psi0), (0.3, psi2)]))
    assert rho.report.rank == 2 and rho.report.certificate == 0.0
    assert state_stats(rho)["purity"] == pytest.approx(0.7**2 + 0.3**2, abs=1e-12)


def test_eta_scan_and_reconstruction_take_no_n_by_n_eigensolve(monkeypatch):
    # both validate numerically low-rank kernels: a sketch of 32 columns
    # certifies them, and the only eigensolves are of 32 x 32 projections
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix, *args, **kwargs):
        solves.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), ETA)).W
    assert eta_scan(W, [0.5, 1.0, 1.5]).verdicts() == ["mixed", "pure", "inadmissible"]
    assert solves == [(32, 32)] * 3
    solves.clear()
    w = wigner(coherent_state(make_grid(-10.0, 10.0, 512), ETA))
    density, _ = reconstruct_density(radon(w, np.linspace(0.0, np.pi, 180, endpoint=False)), ETA)
    assert density is not None and density.report.rank == 32
    assert solves == [(32, 32)]
