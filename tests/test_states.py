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
    weyl_quantize,
    wigner,
)
from wignerlab import states

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


def test_norm_and_trace_share_one_tolerance(grid):
    # Tr |psi><psi| = ||psi||^2, so a state the spec accepts has a trace
    # the density accepts, and one whose trace would fail is refused first
    psi = coherent_state(grid, ETA)
    over = GridFunction(grid, (1.0 + 9e-9) * psi.values, ETA)  # ||psi||^2 - 1 = 1.8e-8
    with pytest.raises(NormalizationError):
        MixedStateSpec([(1.0, over)])
    near = GridFunction(grid, np.sqrt(1.0 + 0.9e-8) * psi.values, ETA)
    rho = mix(MixedStateSpec([(1.0, near)]))
    assert rho.report.ok and rho.op.trace().real == pytest.approx(1.0 + 0.9e-8, abs=1e-15)
    assert wigner(MixedStateSpec([(1.0, near)])).values.shape == (grid.n, grid.n)


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
        DensityMatrix(non_herm, report)


def _reference_report(op, psd_floor):
    """The report from an explicitly formed Hermitian part H = (K + K^H) / 2,
    with residue 2 max |K - H| / max |K|."""
    kernel = op.kernel
    herm = np.add(kernel.conj().T, kernel, out=np.empty_like(kernel))
    herm *= 0.5
    residue = 2.0 * float(np.max(np.abs(kernel - herm))) / float(np.max(np.abs(kernel)))
    vals, certificate, rank = states._spectrum(herm, psd_floor)
    return states._judge(op, residue, vals * op.dx, certificate * op.dx, rank, psd_floor)


def _assert_same_report(report, reference):
    assert np.array_equal(report.eigenvalues, reference.eigenvalues)
    assert report.certificate == reference.certificate
    assert report.rank == reference.rank
    assert report.hermiticity_residue == reference.hermiticity_residue
    assert report.trace_diagonal == reference.trace_diagonal
    assert report.violations == reference.violations


@pytest.mark.parametrize("eta", [None, 0.5])
def test_validate_density_reads_a_bit_hermitian_kernel_as_its_own_hermitian_part(eta):
    # the quantization of a real W equals its conjugate transpose entry for
    # entry: the report is the one of the formed Hermitian part, residue 0
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 128), ETA))
    op = weyl_quantize(W) if eta is None else weyl_quantize(W, eta=eta)
    assert np.array_equal(op.kernel, op.kernel.conj().T)
    report = validate_density(op, 1e-8)
    assert report.hermiticity_residue == 0.0
    _assert_same_report(report, _reference_report(op, 1e-8))


def test_validate_density_forms_the_hermitian_part_of_a_round_off_kernel():
    # one ulp off in the upper triangle: the kernel is Hermitian only to
    # round-off, so its residue and spectrum are those of (K + K^H) / 2
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 128), ETA))
    kernel = weyl_quantize(W).kernel.copy()
    kernel[np.triu_indices(len(kernel), 1)] *= 1.0 + 2.0**-52
    op = OperatorMatrix(W.x_grid, kernel, ETA)
    assert not np.array_equal(kernel, kernel.conj().T)
    report = validate_density(op, 1e-8)
    assert 0.0 < report.hermiticity_residue < 1e-15
    _assert_same_report(report, _reference_report(op, 1e-8))


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


def test_mix_keeps_its_root(grid):
    # rho = U U^H with the one root U = Psi^T diag(sqrt w), kept twice as the
    # factors; the spectrum is that of the r x r Gram matrix U^H U dx
    weights = [0.5, 0.3, 0.2]
    states = [coherent_state(grid, ETA), hermite_state(grid, ETA, 1), hermite_state(grid, ETA, 2)]
    rho = mix(MixedStateSpec(list(zip(weights, states))))
    u = rho.factors[0]
    assert rho.factors[1] is u
    assert np.array_equal(u, np.stack([psi.values for psi in states], axis=1) * np.sqrt(weights))
    assert np.array_equal(rho.kernel, u @ u.conj().T)
    gram = np.linalg.eigvalsh(u.conj().T @ u * grid.dx)
    assert np.array_equal(rho.report.eigenvalues[:3], gram[::-1])
    assert not np.any(rho.report.eigenvalues[3:])


def test_eta_scan_and_reconstruction_take_no_n_by_n_eigensolve(monkeypatch):
    # both validate numerically low-rank kernels: a sketch of 32 columns
    # certifies them, and the only eigensolves are of 32 x 32 projections
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix, *args, **kwargs):
        solves.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), ETA))
    assert eta_scan(W, [0.5, 1.0, 1.5]).verdicts() == ["mixed", "pure", "inadmissible"]
    assert solves == [(32, 32)] * 3
    solves.clear()
    w = wigner(coherent_state(make_grid(-10.0, 10.0, 512), ETA))
    density, _ = reconstruct_density(radon(w, np.linspace(0.0, np.pi, 180, endpoint=False)), ETA)
    assert density is not None and density.report.rank == 32
    assert solves == [(32, 32)]
