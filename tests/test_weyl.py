import numpy as np
import pytest

from wignerlab import (
    GridFunction,
    MixedStateSpec,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    coherent_state,
    cross_wigner,
    displace,
    dual_grid,
    eta_scan,
    hermite_state,
    make_grid,
    pure_density,
    reflect,
    symplectic_fourier,
    trace_from_symbol,
    twisted_product,
    weyl_quantize,
    weyl_symbol,
    wigner,
)
from wignerlab.weyl import expectation

from oracles import (
    quantize_via_displacements,
    quantize_via_reflections,
    twisted_product_via_convolution,
)

ETA = 1.0


@pytest.fixture
def grid():
    return make_grid(-8.0, 8.0, 64)


def _random_state(grid, rng):
    terms = 0.0
    for _ in range(2):
        z0 = rng.uniform(-1.0, 1.0, size=2)
        phase = np.exp(2j * np.pi * rng.uniform())
        terms = terms + phase * displace(coherent_state(grid, ETA), z0).values
    return GridFunction(grid, terms, ETA).normalized()


def test_displacement_commutation_phase():
    # wide grid: two displacements move the state by up to 3, and the
    # periodic wrap of the tail has to stay below the phase tolerance
    rng = np.random.default_rng(0)
    psi = coherent_state(make_grid(-12.0, 12.0, 128), ETA)
    for _ in range(10):
        z0 = rng.uniform(-1.5, 1.5, size=2)
        z1 = rng.uniform(-1.5, 1.5, size=2)
        lhs = displace(displace(psi, z1), z0)
        rhs = displace(displace(psi, z0), z1)
        sigma = z0[1] * z1[0] - z1[1] * z0[0]
        phase = np.exp(1j * sigma / ETA)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) < 1e-9


def test_displacement_addition_phase():
    rng = np.random.default_rng(1)
    psi = coherent_state(make_grid(-12.0, 12.0, 128), ETA)
    for _ in range(10):
        z0 = rng.uniform(-1.5, 1.5, size=2)
        z1 = rng.uniform(-1.5, 1.5, size=2)
        sigma = z0[1] * z1[0] - z1[1] * z0[0]
        lhs = displace(psi, z0 + z1)
        rhs = displace(displace(psi, z1), z0)
        phase = np.exp(-0.5j * sigma / ETA)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) < 1e-9


def test_reflection_is_involution(grid):
    psi = coherent_state(grid, ETA, 0.4, -0.3)
    z0 = (0.3, 0.7)
    twice = reflect(reflect(psi, z0), z0)
    assert np.max(np.abs(twice.values - psi.values)) < 1e-12


def test_wigner_from_reflection_pairing(grid):
    # W psi(z0) = <psi | Pi(z0) psi> / (pi eta) at a grid point
    psi = coherent_state(grid, ETA, 0.4, -0.3)
    W = wigner(psi)
    # pick a center with 2 x0 on the grid so the reflection needs no interpolation
    i, k = 32, 36
    z0 = (W.W.x_grid.points[i], W.W.p_grid.points[k])
    pairing = psi.inner(reflect(psi, z0)) / (np.pi * ETA)
    assert abs(W.W.values[i, k] - pairing) < 1e-10


def test_symbol_of_projector_is_scaled_wigner(grid):
    psi = coherent_state(grid, ETA, 0.2, 0.1)
    a = weyl_symbol(pure_density(psi).op)
    ref = 2.0 * np.pi * ETA * wigner(psi).W.values
    assert np.max(np.abs(a.values - ref)) < 1e-12


def test_weyl_round_trip(grid):
    rng = np.random.default_rng(2)
    for _ in range(3):
        psi = _random_state(grid, rng)
        phi = _random_state(grid, rng)
        kernel = np.outer(psi.values, phi.values.conj())
        op = pure_density(psi).op
        op.kernel = kernel
        a = weyl_symbol(op)
        back = weyl_quantize(a)
        assert np.max(np.abs(back.kernel - kernel)) < 1e-6


def test_symbol_norm_identity(grid):
    # Int |a|^2 dz = 2 pi eta * Int |K|^2 dx dy
    psi = coherent_state(grid, ETA, 0.3, -0.5)
    op = pure_density(psi).op
    a = weyl_symbol(op)
    lhs = float(np.sum(np.abs(a.values) ** 2) * a.area_element)
    rhs = 2.0 * np.pi * ETA * op.hs_norm_squared()
    assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_identity_and_position_symbols(grid):
    # symbol a(x, p) = 1 quantizes to the identity, a = x to multiplication by x
    from wignerlab import PhaseSpaceFunction, dual_grid

    gp = dual_grid(grid, ETA)
    ones = PhaseSpaceFunction(grid, gp, np.ones((grid.n, grid.n)), ETA, kind="symbol")
    op = weyl_quantize(ones)
    ident = np.eye(grid.n) / grid.dx
    assert np.max(np.abs(op.kernel - ident)) < 1e-10
    xs = PhaseSpaceFunction(
        grid, gp, np.broadcast_to(grid.points[:, None], (grid.n, grid.n)), ETA,
        kind="symbol",
    )
    opx = weyl_quantize(xs)
    assert np.max(np.abs(opx.kernel - np.diag(grid.points) / grid.dx)) < 1e-8


def test_trace_from_symbol(grid):
    psi = coherent_state(grid, ETA, 0.2, 0.4)
    op = pure_density(psi).op
    out = trace_from_symbol(weyl_symbol(op))
    assert out["trace"].real == pytest.approx(op.trace().real, abs=1e-10)
    assert out["hs_norm_squared"] == pytest.approx(op.hs_norm_squared(), abs=1e-10)


def test_product_trace_formula(grid):
    # Tr(A B) = (2 pi eta)^-1 Int a b dz
    a_op = pure_density(coherent_state(grid, ETA, 0.5, 0.0)).op
    b_op = pure_density(hermite_state(grid, ETA, 1)).op
    a = weyl_symbol(a_op)
    b = weyl_symbol(b_op)
    lhs = a_op.compose(b_op).trace()
    rhs = np.sum(a.values * b.values) * a.area_element / (2.0 * np.pi * ETA)
    assert abs(lhs - rhs) < 1e-10


def test_quantizer_equivalence(grid):
    psi = coherent_state(grid, ETA, 0.3, -0.2)
    a = weyl_symbol(pure_density(psi).op)
    direct = weyl_quantize(a)
    via_refl = quantize_via_reflections(a)
    via_disp = quantize_via_displacements(a)
    assert np.max(np.abs(via_refl.kernel - direct.kernel)) < 1e-5
    assert np.max(np.abs(via_disp.kernel - direct.kernel)) < 1e-5
    assert np.max(np.abs(via_disp.kernel - via_refl.kernel)) < 1e-5


def test_twisted_product_routes_agree(grid):
    a = weyl_symbol(pure_density(coherent_state(grid, ETA, 0.4, 0.0)).op)
    b = weyl_symbol(pure_density(hermite_state(grid, ETA, 1)).op)
    fast = twisted_product(a, b)
    slow = twisted_product_via_convolution(a, b)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-5


def test_twisted_product_composes_operators(grid):
    a = weyl_symbol(pure_density(coherent_state(grid, ETA, 0.4, 0.0)).op)
    b = weyl_symbol(pure_density(hermite_state(grid, ETA, 1)).op)
    c = twisted_product(a, b)
    lhs = weyl_quantize(c).kernel
    rhs = weyl_quantize(a).compose(weyl_quantize(b)).kernel
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_expectation_of_position_squared(grid):
    from wignerlab import PhaseSpaceFunction, dual_grid

    psi = coherent_state(grid, ETA, 0.5, 0.0)
    rho = pure_density(psi)
    gp = dual_grid(grid, ETA)
    xx = np.broadcast_to(grid.points[:, None], (grid.n, grid.n))
    a = PhaseSpaceFunction(grid, gp, xx**2, ETA, kind="symbol")
    # <x^2> of a coherent state at x0: x0^2 + eta / 2
    assert expectation(a, rho) == pytest.approx(0.25 + ETA / 2.0, abs=1e-8)


def test_cross_wigner_consistency_with_symbol(grid):
    # rank-one operator |psi><phi| has symbol 2 pi eta W(psi, phi)
    psi = coherent_state(grid, ETA, 0.2, 0.3)
    phi = hermite_state(grid, ETA, 1)
    op = pure_density(psi).op
    op.kernel = np.outer(psi.values, phi.values.conj())
    a = weyl_symbol(op)
    ref = 2.0 * np.pi * ETA * cross_wigner(psi, phi).values
    assert np.max(np.abs(a.values - ref)) < 1e-10


def test_native_quantizer_takes_no_chirp_z(monkeypatch):
    # at the symbol's own eta each block of rows is one FFT; a foreign eta
    # sums each block's spectrum against one Dirichlet table per call, with no
    # chirp-z and no refined rows at any eta.  Each kernel shifts its odd-lag
    # columns half a step, N/2 columns per call: the N/2 odd lags of the band
    # |d| <= N/2 natively.  The symbol of a kernel adds one 2-D half-step
    # shift, along both axes in one call.  A real symbol sums only the lags
    # d >= 0 (odd lags 1 .. N/2 natively, 1 .. N - 1 at a foreign eta); a
    # complex one at a foreign eta is Op(Re a) + i Op(Im a), two N x N
    # tables of the lags 0 .. N - 1 filled from the one Dirichlet table,
    # each with its N/2 odd-lag columns shifted in one call
    from wignerlab import transforms, weyl

    assert not hasattr(weyl, "chirp_z") and not hasattr(weyl, "refine")
    calls = {"_dirichlet_table": 0, "fourier_shift": 0}
    shifted = []

    def counting(name):
        original = getattr(weyl, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "fourier_shift":
                shifted.append(np.shape(args[0]))
            return original(*args, **kwargs)

        return counted

    def refusing(*args, **kwargs):
        raise AssertionError("the quantizer refined rows or ran a chirp-z")

    grid = make_grid(-10.0, 10.0, 256)
    a = weyl_symbol(pure_density(coherent_state(grid, ETA, 0.4, 0.0)).op)
    b = weyl_symbol(pure_density(hermite_state(grid, ETA, 1)).op)
    W = wigner(coherent_state(grid, ETA, 0.4, 0.0)).W
    assert W.values.dtype == np.float64
    for name in calls:
        monkeypatch.setattr(weyl, name, counting(name))
    for name in ("chirp_z", "refine"):
        monkeypatch.setattr(transforms, name, refusing)
    weyl_quantize(a)
    assert calls == {"_dirichlet_table": 0, "fourier_shift": 1}
    assert shifted == [(256, 128)]
    twisted_product(a, b)
    assert calls == {"_dirichlet_table": 0, "fourier_shift": 4}
    weyl_quantize(a, eta=1.5 * a.eta)
    assert calls == {"_dirichlet_table": 1, "fourier_shift": 6}
    assert shifted[-2:] == [(256, 128), (256, 128)]
    weyl_quantize(W)
    assert calls == {"_dirichlet_table": 1, "fourier_shift": 7}
    assert shifted[-1] == (256, 64)
    for eta in (1.5, 0.5, 0.25):
        weyl_quantize(W, eta=eta * W.eta)
        assert shifted[-1] == (256, 128)
    assert calls == {"_dirichlet_table": 4, "fourier_shift": 10}


def test_hermitian_lag_pass_is_one_hfft_without_exp_tables(monkeypatch):
    # on the centred dual grid every phase of the lag sum is +-1, so once its
    # lags are built, the Wigner function of a state or of a mixture makes no
    # exp table of N or more entries and runs one hfft over lags 0 .. N/2 (an
    # irfft of the lags conjugated in place), and no full FFT.  A state's
    # folded lags 0 .. N/2 come from its rank-one factors, with no N x 2N
    # table; a mixture's from the N x N table its factors fold into
    from wignerlab import weyl

    after = []

    def recording(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            if after and (name != "exp" or np.size(out) >= 256):
                after.append(name)
            return out

        return recorded

    def building(build):
        def built(*args, **kwargs):
            table = build(*args, **kwargs)
            after.append(table.shape)
            return table

        return built

    grid = make_grid(-10.0, 10.0, 256)
    psi = coherent_state(grid, ETA, 0.4, 0.0)
    spec = MixedStateSpec([(0.5, psi), (0.5, hermite_state(grid, ETA, 1))])
    for name in ("_folded_correlation", "_rank_one_lags"):
        monkeypatch.setattr(weyl, name, building(getattr(weyl, name)))
    monkeypatch.setattr(np, "exp", recording(np, "exp"))
    for name in ("fft", "hfft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, recording(np.fft, name))
    for source, shape in ((psi, (256, 129)), (spec, (256, 256))):
        after.clear()
        assert wigner(source).W.values.dtype == np.float64
        assert after == [shape, "irfft"]


def test_quantizer_sums_a_longer_p_grid_in_full():
    # a p grid at the dual spacing but with 2N points is no native DFT: its
    # rows run through the foreign sum, two real (N + 1) x N Dirichlet
    # factors, and every p sample counts
    from wignerlab.grid import Grid

    from oracles import weyl_quantize_dense

    grid = make_grid(-8.0, 8.0, 64)
    dp = dual_grid(grid, ETA).dx
    p_grid = Grid(-grid.n * dp, grid.n * dp, 2 * grid.n)
    x, p = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    a = PhaseSpaceFunction(grid, p_grid, np.exp(-(x**2) - p**2 / 4.0), ETA, kind="symbol")
    dense = weyl_quantize_dense(a)
    assert np.linalg.norm(weyl_quantize(a).kernel - dense) <= 1e-12 * np.linalg.norm(dense)


def test_quantizer_refuses_an_odd_p_grid_at_a_foreign_eta():
    # the refinement of the p samples splits their Nyquist bin, which an odd
    # number of samples does not have: a real and a complex symbol on 65 p
    # points are both refused
    from wignerlab.grid import Grid

    grid = make_grid(-8.0, 8.0, 64)
    dp = dual_grid(grid, ETA).dx
    p_grid = Grid(-32.5 * dp, 32.5 * dp, 65)
    x, p = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    values = np.exp(-(x**2) - p**2 / 4.0)
    for samples in (values, values + 0j):
        a = PhaseSpaceFunction(grid, p_grid, samples, ETA, kind="symbol")
        with pytest.raises(ParameterError, match="even number of samples"):
            weyl_quantize(a)


def test_quantize_refuses_an_oversized_grid():
    # the foreign working set does not grow with the p oversampling: at
    # N = 8192 the kernels, the correlation and the Dirichlet table count
    # 5.1 GiB and are refused before anything is allocated, here at an
    # eta that oversamples p by 2000
    grid = make_grid(-10.0, 10.0, 8192)
    a = PhaseSpaceFunction(grid, dual_grid(grid, ETA), np.broadcast_to(0.0, (8192, 8192)), ETA)
    with pytest.raises(ParameterError, match="p oversampling by 2000"):
        weyl_quantize(a, eta=1e-3)


def test_quantizer_refuses_an_odd_x_grid_before_any_transform(monkeypatch):
    # the half-step correlation needs an even N: an odd x grid is refused at
    # once, at the symbol's own eta and at a foreign one, real or complex
    from wignerlab.grid import Grid

    def refusing(*args, **kwargs):
        raise AssertionError("transformed before the parity check")

    grid = Grid(-10.0, 10.0, 255)
    p_grid = dual_grid(grid, ETA)
    for name in ("rfft", "ifft"):
        monkeypatch.setattr(np.fft, name, refusing)
    for values in (np.zeros((255, 255)), np.zeros((255, 255), dtype=complex)):
        a = PhaseSpaceFunction(grid, p_grid, values, ETA)
        for eta in (None, 0.5):
            with pytest.raises(ParameterError, match="needs an even N, got 255"):
                weyl_quantize(a, eta=eta)


def test_native_quantizer_shifts_the_odd_lags_of_any_even_grid():
    # on N = 30 and 66 points the native band of a complex symbol starts at
    # the odd lag -N/2: its odd-lag columns are shifted, not the even ones.
    # At eta = 0.5 and 1.5 the symbol is Op(Re a) + i Op(Im a), each part's
    # N x N table holding the lags 0 .. N - 1 of a Hermitian kernel
    from wignerlab.grid import Grid

    from oracles import weyl_quantize_dense

    for n in (30, 66):
        grid = Grid(-8.0, 8.0, n)
        psi = coherent_state(grid, ETA, 0.3, 0.2)
        op = pure_density(psi).op
        op.kernel = np.outer(psi.values, hermite_state(grid, ETA, 1).values.conj())
        a = weyl_symbol(op)
        for eta in (None, 0.5, 1.5):
            dense = weyl_quantize_dense(a, eta=eta)
            kernel = weyl_quantize(a, eta=eta).kernel
            assert np.max(np.abs(kernel - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_dirichlet_table_is_the_literal_sum_at_its_singularities():
    # A_j = G(+j) + G(-j) and B_j = i (G(+j) - G(-j)),
    # G(j) = sum_{m < M} exp(i (2 pi j / M + d step) m), times the weight of
    # lag d, rebuilt from the plan's real factors, row turns and lag ramp.
    # At eta / a.eta = 1.5, 0.5 and 1/3 some u = pi j + c d vanish
    # mathematically, where both sines of G vanish together
    from wignerlab import weyl

    grid = make_grid(-6.0, 6.0, 16)
    W = wigner(coherent_state(grid, ETA, 0.4, 0.0)).W
    n, n_p, dx, dp = grid.n, W.p_grid.n, grid.dx, W.p_grid.dx
    d = np.arange(n)
    for ratio in (1.5, 0.5, 1.0 / 3.0):
        eta = ratio * ETA
        factor = weyl._p_oversampling(W, eta)
        m = factor * n_p
        step = dp * dx / (factor * eta)
        weight = dp / factor / (2.0 * np.pi * eta) * np.exp(1j * W.p_grid.x_min * d * dx / eta)
        samples = np.arange(m)[:, None, None]
        j = np.arange(n_p // 2 + 1)[:, None]
        plus, minus = (
            np.exp(1j * (s * 2.0 * np.pi * j / m + d * step) * samples).sum(axis=0)
            for s in (1, -1)
        )
        literal = np.empty((n_p // 2 + 1, 2, n), dtype=complex)
        literal[:, 0] = plus + minus
        literal[:, 1] = 1j * (plus - minus)
        literal[0, 0] *= 0.5
        literal *= weight
        (total, diff), turns, ramp = weyl._dirichlet_table(W, eta, factor)
        assert total.shape == diff.shape == (n_p // 2 + 1, n)
        turns = turns[:, None]
        table = np.empty_like(literal)
        table[:, 0] = (turns.real * total + 1j * turns.imag * diff) * ramp
        table[:, 1] = (-turns.imag * total + 1j * turns.real * diff) * ramp
        peak = np.max(np.abs(literal))
        assert np.max(np.abs(table - literal)) <= 1e-13 * peak


@pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -1.0])
def test_quantizer_and_eta_scan_refuse_a_bad_eta(eta):
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 64), ETA)).W
    with pytest.raises(ParameterError, match="eta must be a positive real number"):
        weyl_quantize(W, eta=eta)
    with pytest.raises(ParameterError, match="eta must be a positive real number"):
        eta_scan(W, [eta])


def _scaled_outputs(lam):
    """The quantizer at 0.5 eta and 1.5 eta (a real and a complex symbol),
    the ambiguity and symplectic Fourier transforms and the eta scan on the
    box lam [-10, 10) at eta lam^2, each output scaled back by its power of
    lam: kernels as lam^-3, phase-space functions as lam^-2."""
    grid = make_grid(-10.0 * lam, 10.0 * lam, 128)
    eta = ETA * lam * lam
    psi = coherent_state(grid, eta, 0.4 * lam, 0.3 * lam)
    phi = coherent_state(grid, eta, -0.5 * lam, 0.2 * lam)
    W, X = wigner(psi).W, cross_wigner(psi, phi)
    outputs = {
        f"quantize {name} at {ratio} eta": weyl_quantize(a, eta=ratio * eta).kernel * lam**3
        for name, a in (("W", W), ("X", X))
        for ratio in (0.5, 1.5)
    }
    outputs["ambiguity"] = ambiguity(psi).values * lam**2
    outputs["symplectic_fourier"] = symplectic_fourier(W).values * lam**2
    verdicts = eta_scan(W, [0.5 * eta, eta, 1.5 * eta]).verdicts()
    return outputs, verdicts


@pytest.mark.parametrize("j", [-60, -50, -30, -7, -1, 1, 6, 30, 50, 60])
def test_the_half_spectrum_maps_scale_exactly_with_eta(j):
    # x, p -> lam x, lam p and eta -> lam^2 eta map every sum onto itself,
    # and at lam = 4^j every grid point, phase argument and normalization
    # scales by a power of two, so the outputs are the lam = 1 outputs times
    # a power of two bit for bit, as long as none reaches a subnormal
    reference, truth = _scaled_outputs(1.0)
    assert truth == ["mixed", "pure", "inadmissible"]
    outputs, verdicts = _scaled_outputs(4.0**j)
    for name, values in outputs.items():
        assert np.array_equal(values, reference[name]), name
    assert verdicts == truth
