"""Reference quadratures the tests compare the library's fast paths against.

Each function here is a literal, slow evaluation of a formula that the
library computes through FFTs or chirp-z passes: dense phase matrices for the
lag transforms, the symplectic Fourier transform, the free metaplectic
operator and the Radon transform, the
unfolded N x 2N half-step correlation of a kernel or its factors, Python
loops over reflections and displacements for the quantizer, a direct twisted
convolution, the eigen-loop Wigner function of a density matrix, the KLM
matrix over all M^2 point differences, the phase-space moments over N x N
meshes, the closed-form Wigner function of a Gaussian wavepacket and the
symplectic spectrum from the general eigensolver of J Sigma.  The dense
interpolants check the metaplectic word steps and covariance identities: the
1-D, tensor and pointwise ones are direct trigonometric sums, the
row-sheared one reuses the library's ``fourier_shift``.  Three checks of
identities stand beside them: ``metaplectic_matrix``, the product of a
generator word's step matrices; ``reflection_wigner_check``, W psi(z0)
against the reflection pairing (pi eta)^-1 <psi | Pi(z0) psi>; and
``fock_narcowich_spectrum``, the exact eigenvalues of
2 pi eta' Op_eta'(W_n^eta) for a Fock state, by a Gauss-Laguerre sum with
no grid.  Some oracles reuse small library helpers (``refine``,
``fourier_shift``, ``symplectic_fourier``, ``reflect``, the free blocks
``_free_blocks``, the word steps ``_step``, the half-step sampler
``_half_steps``, and for the full-width quantizer read-out the foreign-eta
lag tables and the Hermitian mirror); none calls the transform it checks.
All are meant for small grids, except the full-width read-out, which is the
quantizer's earlier production code, kept as it was: the zero-filled
N x 2N and N x N lag tables of a symbol at its own eta, read through
strided parity views whose lag 0 sits in column w - N.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from wignerlab import (
    DensityMatrix,
    GridFunction,
    MetaplecticSpec,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ValidationError,
    dual_grid,
    j_matrix,
    reflect,
    symplectic_fourier,
    wigner,
)
from wignerlab import weyl
from wignerlab.symplectic import _free_blocks, _step
from wignerlab.tomography import SUPPORT_RTOL
from wignerlab.transforms import fourier_shift, refine
from wignerlab.weyl import _ROW_CHUNK, _half_steps


def _padded_fine(values: np.ndarray, n: int) -> np.ndarray:
    """Half-step samples with n zeros of padding on each side (length 4n)."""
    pad = np.zeros(4 * n, dtype=complex)
    pad[n : 3 * n] = refine(values, 2)
    return pad


def _phase_kernel(y: np.ndarray, p: np.ndarray, eta: float) -> np.ndarray:
    return np.exp(-1j * np.outer(y, p) / eta)


def _p_oversampled(values: np.ndarray, a: PhaseSpaceFunction, eta_use: float, base: int):
    """p-axis oversampling by base * ceil(eta / eta_use), with its p samples."""
    factor = base * max(1, int(np.ceil(a.eta / eta_use)))
    fine = refine(values, factor, axis=1)
    p = a.p_grid.x_min + np.arange(factor * a.p_grid.n) * a.p_grid.dx / factor
    return fine, p, a.p_grid.dx / factor


def midpoint_lag(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint row and lag column of each entry (a, b) of an N x N kernel.

    Entry (a, b) has the lag s dx, s = a - b, in column s + N of the 2N
    lags of the half-step correlation, and the midpoint x_j for even s or
    x_j - dx/2 for odd s, with j = (a + b + 1) >> 1 in both cases.  The map is
    one to one.
    """
    a, b = np.ogrid[:n, :n]
    return (a + b + 1) >> 1, a - b + n


def half_step_correlation(kernel, grid) -> np.ndarray:
    """C[j, m] = K(x_j + y_m/2, x_j - y_m/2) at the 2N lags y_m = (m - N) dx:
    the N x 2N table whose lags t and t - N the library folds into one cell.

    Both arguments sit x_j +- s dx/2 for the lag index s = m - N, so they
    are on the grid for even s and half a step off it for odd s.  Even lags
    read K itself, odd lags the band-limited interpolant of K shifted by
    -dx/2 along both axes.  Each kernel entry lands in its cell, one parity
    block K[a::2, b::2] at a time through :func:`full_parity_views`;
    cells whose arguments fall off the grid stay zero.  ``kernel`` is the
    N x N kernel, or a pair (U, V) of N x r factors with K = U V^H, whose
    half-step samples (the library's ``_half_steps``) give each parity block
    as one (N/2 x r)(r x N/2) product of two row slices of step 4.  N must
    be even.
    """
    n = grid.n
    corr = np.zeros((n, 2 * n), dtype=complex)
    views = full_parity_views(corr)
    if isinstance(kernel, tuple):
        f, g = _half_steps(kernel, grid)
        for (a, b), view in views.items():
            # odd lags (a != b) read the odd, shifted samples
            odd = int(a != b)
            np.matmul(f[n + 2 * a + odd : 3 * n : 4], g[n + 2 * b + odd : 3 * n : 4].T, out=view)
        return corr
    shifted = fourier_shift(kernel, grid, -0.5 * grid.dx, axis=0)
    fourier_shift(shifted, grid, -0.5 * grid.dx, axis=1, out=shifted)
    for (a, b), view in views.items():
        view[...] = (kernel if a == b else shifted)[a::2, b::2]
    return corr


def full_parity_views(corr: np.ndarray) -> dict:
    """The cells of each parity block of the kernel, as views of ``corr``.

    ``corr`` is a C-contiguous N x w lag table whose lag-0 column is w - N:
    the N x 2N table of lags -N .. N - 1, or an N x N table.  Entry
    (2i + a, 2k + b) of an N x N kernel sits at flat offset
    i (w + 2) + k (w - 2) + h w + a - b + w - N, h = (a + b + 1) >> 1, so the
    block K[a::2, b::2] is one strided N/2 x N/2 view per (a, b).  On the
    N x 2N table the four views cover each cell (h, a - b + N) once.  On an
    N x N table, row h and lag d at flat offset h N + d, the cells of the
    lower triangle (lags a - b >= 0) are in place, at (h, d), and those of
    the strict upper triangle land one row up, at (h - 1, d + N).  N must be
    even.
    """
    n, width = corr.shape
    if n % 2:
        raise ParameterError(f"the half-step correlation needs an even N, got {n}")
    flat = corr.reshape(-1)  # a view: corr is C-contiguous
    strides = ((width + 2) * corr.itemsize, (width - 2) * corr.itemsize)
    return {
        (a, b): np.lib.stride_tricks.as_strided(
            flat[((a + b + 1) >> 1) * width + a - b + width - n :], (n // 2, n // 2), strides
        )
        for a in (0, 1)
        for b in (0, 1)
    }


def _full_native_lags(a: PhaseSpaceFunction, eta_use: float) -> tuple:
    """The zero-filled lag table of a symbol whose p grid is dual to its x grid
    at ``eta_use``, and its filled columns lo .. hi - 1: the lags |d| <= N/2
    (d >= 0 if real) of an N x 2N table (N x N if real)."""
    n = a.x_grid.n
    real = not np.iscomplexobj(a.values)
    width, first = (n, 0) if real else (2 * n, -(n // 2))
    stop = n // 2 + 1
    d = np.arange(first, stop)
    dp = a.p_grid.dx
    weight = dp / (2.0 * np.pi * eta_use) * np.exp(1j * a.p_grid.x_min * d * a.x_grid.dx / eta_use)
    weight[np.abs(d) == n // 2] *= 0.5
    lo, hi = first + width - n, stop + width - n
    corr = np.zeros((n, width), dtype=complex)
    half = n // 2
    for start in range(0, n, _ROW_CHUNK):
        block = a.values[start : start + _ROW_CHUNK]
        rows = corr[start : start + _ROW_CHUNK]
        if real:
            sums = np.fft.rfft(block, axis=1)
            np.conjugate(sums, out=sums)
            np.multiply(sums, weight, out=rows[:, lo:hi])
            continue
        # lags -N/2 .. -1 are DFT bins N/2 .. N - 1, lags 0 .. N/2 bins 0 .. N/2
        sums = np.fft.ifft(block, axis=1, norm="forward")
        np.multiply(sums[:, half:], weight[:half], out=rows[:, lo : lo + half])
        np.multiply(sums[:, : half + 1], weight[half:], out=rows[:, lo + half : hi])
    return corr, lo, hi


def _full_lag_kernel(corr: np.ndarray, lo: int, hi: int, grid) -> np.ndarray:
    """The kernel held by the filled columns lo .. hi - 1 of a lag table whose
    lag-0 column is w - N: odd lags (odd columns) shifted half a step in x,
    the parity blocks copied out, an N x N table's lower triangle mirrored."""
    n = grid.n
    odd = range(lo | 1, hi, 2)
    size = -(-len(odd) // max(1, 2 * len(odd) // n))
    for k in range(0, len(odd), size):
        cols = slice(odd[k], odd[k] + 2 * size, 2)
        corr[:, cols] = fourier_shift(corr[:, cols], grid, 0.5 * grid.dx, axis=0)
    kernel = np.empty((n, n), dtype=complex)
    for (r, c), view in full_parity_views(corr).items():
        kernel[r::2, c::2] = view
    if corr.shape[1] == n:
        weyl._mirror_lower(kernel)
    return kernel


def weyl_quantize_full_table(a: PhaseSpaceFunction, eta: float | None = None) -> np.ndarray:
    """The kernel of ``weyl_quantize(a, eta)`` read out of full-width lag tables.

    At the symbol's own eta, the zero-filled N x 2N table of a complex
    symbol or N x N table of a real one; at a foreign eta, the library's
    N x N tables of real samples, one for a real symbol and two for a
    complex one, whose Hermitian kernels combine as Op(Re a) + i Op(Im a).
    Each is read out through :func:`full_parity_views`, with no clearing of
    the entries beyond the band: they read zero-filled cells.
    """
    eta_use = a.eta if eta is None else float(eta)
    n = a.x_grid.n
    dual = dual_grid(a.x_grid, eta_use)
    if a.p_grid.n == n and abs(a.p_grid.dx - dual.dx) <= 1e-12 * dual.dx:
        return _full_lag_kernel(*_full_native_lags(a, eta_use), a.x_grid)
    factor = weyl._p_oversampling(a, eta_use)
    table = weyl._dirichlet_table(a, eta_use, factor)
    kernel = _full_lag_kernel(weyl._foreign_lags(a.values.real, table), 0, n, a.x_grid)
    if np.iscomplexobj(a.values):
        imag = _full_lag_kernel(weyl._foreign_lags(a.values.imag, table), 0, n, a.x_grid)
        kernel.real -= imag.imag
        kernel.imag += imag.real
    return kernel


def cross_wigner_dense(psi: GridFunction, phi: GridFunction) -> np.ndarray:
    """W(psi, phi) as the half-step correlation times a dense phase matrix."""
    grid, eta = psi.grid, psi.eta
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, eta)
    pf = _padded_fine(psi.values, n)
    gf = _padded_fine(phi.values, n)
    j = np.arange(n)[:, None]
    m = np.arange(2 * n)[None, :]
    corr = pf[2 * j + m] * gf[2 * j - m + 2 * n].conj()
    y = (np.arange(2 * n) - n) * dx
    return dx / (2.0 * np.pi * eta) * corr @ _phase_kernel(y, p_grid.points, eta)


def ambiguity_dense(psi: GridFunction) -> np.ndarray:
    """Ambiguity function with the lag sum as a dense phase matrix."""
    grid, eta = psi.grid, psi.eta
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, eta)
    pad = np.zeros(6 * n, dtype=complex)
    pad[2 * n : 4 * n] = refine(psi.values, 2)
    j = np.arange(n)[None, :]  # x index
    m = np.arange(n)[:, None]  # y index
    half = n // 2
    corr = pad[2 * m + j - half + 2 * n] * pad[2 * m - j + half + 2 * n].conj()
    return dx / (2.0 * np.pi * eta) * corr.T @ _phase_kernel(grid.points, p_grid.points, eta)


def weyl_symbol_dense(op: OperatorMatrix) -> np.ndarray:
    """Weyl symbol with the lag integral as a dense phase matrix."""
    grid, eta = op.grid, op.eta
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, eta)
    fine = refine(refine(op.kernel, 2, axis=0), 2, axis=1)
    pad = np.zeros((4 * n, 4 * n), dtype=complex)
    pad[n : 3 * n, n : 3 * n] = fine
    j = np.arange(n)[:, None]
    m = np.arange(2 * n)[None, :]
    corr = pad[2 * j + m, 2 * j - m + 2 * n]
    y = (np.arange(2 * n) - n) * dx
    return dx * corr @ _phase_kernel(y, p_grid.points, eta)


def weyl_quantize_dense(a: PhaseSpaceFunction, eta: float | None = None) -> np.ndarray:
    """Quantizer kernel with the p integral as a dense matrix product."""
    eta_use = a.eta if eta is None else float(eta)
    n = a.x_grid.n
    dx = a.x_grid.dx
    af, p, dp = _p_oversampled(refine(a.values, 2, axis=0), a, eta_use, base=2)
    s = np.arange(2 * n)
    j = np.arange(n)
    ramp = p * dx / eta_use
    v = af * np.exp(-1j * np.outer(s, ramp))
    u = np.exp(2j * np.outer(j, ramp))
    w = v @ u.T  # w[s, j] = sum_l af[s, l] exp(i p_l (2j - s) dx / eta)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    return dp / (2.0 * np.pi * eta_use) * w[jj + kk, jj]


@dataclass
class SpectralData:
    """Eigenvalues (descending) and orthonormal eigenstates of a density."""

    eigenvalues: np.ndarray
    eigenvectors: list  # of GridFunction


def spectral_decompose(rho: DensityMatrix) -> SpectralData:
    """Hermitian eigendecomposition with the dx inner-product weighting."""
    op = rho.op
    if op.hermiticity_residue() > 1e-10:
        raise ValidationError("kernel is not Hermitian within tolerance")
    herm = 0.5 * (op.kernel + op.kernel.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = vals[::-1] * op.dx
    vecs = vecs[:, ::-1] / np.sqrt(op.dx)
    states = [GridFunction(op.grid, vecs[:, j], op.eta) for j in range(op.grid.n)]
    return SpectralData(vals, states)


def wigner_density_eigen(rho: DensityMatrix) -> np.ndarray:
    """Density Wigner function as the eigenvalue-weighted eigenstate sum."""
    data = spectral_decompose(rho)
    scale = float(np.max(np.abs(data.eigenvalues))) or 1.0
    total = np.zeros((rho.grid.n, rho.grid.n), dtype=complex)
    for lam, state in zip(data.eigenvalues, data.eigenvectors):
        if abs(lam) >= 1e-13 * scale:
            total += lam * cross_wigner_dense(state, state)
    return total


def quantize_via_reflections(a: PhaseSpaceFunction) -> OperatorMatrix:
    """Quantizer A = (pi eta)^-1 Int a(z0) Pi(z0) dz0.

    Reflection centers run over the half-step x grid (the only centers whose
    reflections map the grid onto itself); each center contributes one
    anti-diagonal of the kernel.  The phases carry twice the frequency of
    the direct quantizer, so the p axis is oversampled twice as much.
    """
    eta = a.eta
    n = a.x_grid.n
    dx = a.x_grid.dx
    x = a.x_grid.points
    af, p, dp = _p_oversampled(refine(a.values, 2, axis=0), a, eta, base=4)
    kernel = np.zeros((n, n), dtype=complex)
    weight = (dx / 2.0) * dp / (np.pi * eta) / dx  # dz0 quadrature x 1/dx kernel unit
    for t in range(2 * n):
        x0 = a.x_grid.x_min + 0.5 * t * dx
        j = np.arange(max(0, t - n + 1), min(t, n - 1) + 1)
        phases = np.exp(2j * np.outer(x[j] - x0, p) / eta)
        kernel[j, t - j] += weight * phases @ af[t]
    return OperatorMatrix(a.x_grid, kernel, eta)


def quantize_via_displacements(a: PhaseSpaceFunction) -> OperatorMatrix:
    """Quantizer A = (2 pi eta)^-1 Int a_sigma(z0) D(z0) dz0.

    Displacements are the grid offsets themselves (whole-step shifts), with
    the twisted symbol a_sigma sampled on the phase-space grid; shifts past
    the grid edge contribute zero.  Requires a centered x grid.
    """
    eta = a.eta
    if not a.x_grid.is_centered:
        raise ParameterError("displacement quantizer requires a centered x grid")
    n = a.x_grid.n
    x = a.x_grid.points
    asig, p, dp = _p_oversampled(symplectic_fourier(a).values, a, eta, base=2)
    kernel = np.zeros((n, n), dtype=complex)
    weight = dp / (2.0 * np.pi * eta)  # (2 pi eta)^-1 dx dp x 1/dx kernel unit
    for t in range(n):
        x0 = x[t]
        s = t - n // 2  # x0 / dx on the centered grid
        j = np.arange(max(0, s), min(n, n + s))
        phases = np.exp(1j * np.outer(x[j] - 0.5 * x0, p) / eta)
        kernel[j, j - s] += weight * phases @ asig[t]
    return OperatorMatrix(a.x_grid, kernel, eta)


def twisted_product_via_convolution(
    a: PhaseSpaceFunction, b: PhaseSpaceFunction
) -> PhaseSpaceFunction:
    """Reference twisted product through the twisted-symbol convolution.

    c_sigma(z) = (2 pi eta)^-1 Int exp(i sigma(z, z')/2 eta)
                 a_sigma(z - z') b_sigma(z') dz'

    evaluated as a literal quadrature over the phase-space grid (difference
    points outside the grid contribute zero).  Quadratic cost in the number
    of grid points.
    """
    a.require_compatible(b)
    eta = a.eta
    n = a.x_grid.n
    x = a.x_grid.points
    p = a.p_grid.points
    asig = symplectic_fourier(a).values
    bsig = symplectic_fourier(b).values
    weight = a.area_element / (2.0 * np.pi * eta)
    csig = np.zeros((n, n), dtype=complex)
    pad = np.zeros((2 * n, 2 * n), dtype=complex)
    pad[:n, :n] = asig
    half = n // 2  # grid index of the origin on the centered grids
    for i in range(n):
        di = i - np.arange(n) + half  # x-index of z - z'
        di = np.where((di >= 0) & (di < n), di, n)
        for k in range(n):
            dk = k - np.arange(n) + half
            dk = np.where((dk >= 0) & (dk < n), dk, n)
            adiff = pad[np.ix_(di, dk)]
            phase = np.exp(
                1j * (p[k] * x[:, None] - p[None, :] * x[i]) / (2.0 * eta)
            )
            csig[i, k] = weight * np.sum(adiff * phase * bsig)
    sig_fn = PhaseSpaceFunction(a.x_grid, a.p_grid, csig, eta, kind="generic")
    out = symplectic_fourier(sig_fn)
    return PhaseSpaceFunction(a.x_grid, a.p_grid, out.values, eta, kind="symbol")


def metaplectic_matrix(spec: MetaplecticSpec) -> np.ndarray:
    """The symplectic matrix of a spec: its steps' matrices, the last leftmost."""
    S = None
    for step in spec.word:
        M = _step(step)[0](*step[1:])
        S = M if S is None else M @ S
    return S


def metaplectic_free_dense(spec: MetaplecticSpec, psi: GridFunction) -> np.ndarray:
    """Quadratic Fourier transform as a dense N x FN phase matrix.

    The Riemann sum of (2 pi eta)^(-1/2) i^(m - 1/2) sqrt|Q|
    Int exp(i A(x, x')/eta) psi(x') dx' over the F-fold refined state, with
    the refine factor of the library's free path.
    """
    P, Q, R = (block[0, 0] for block in _free_blocks(metaplectic_matrix(spec)))
    eta, grid = psi.eta, psi.grid
    m = 0 if Q > 0 else 1
    band = (abs(Q) + abs(R)) * grid.length * grid.dx
    factor = 1 + int(np.ceil(band / (2.0 * np.pi * eta)))
    x = grid.points
    xf = grid.x_min + np.arange(factor * grid.n) * grid.dx / factor
    quad = 0.5 * P * x[:, None] ** 2 - Q * np.outer(x, xf) + 0.5 * R * xf[None, :] ** 2
    prefactor = (
        (2.0 * np.pi * eta) ** -0.5
        * np.exp(0.5j * np.pi * (m - 0.5))
        * np.sqrt(abs(Q))
        * grid.dx
        / factor
    )
    return prefactor * np.exp(1j * quad / eta) @ refine(psi.values, factor)


def radon_dense(W: PhaseSpaceFunction, angles) -> np.ndarray:
    """Tomograms as literal DFTs, one angle at a time.

    The ray spectrum W-hat(k cos t, k sin t) is the double sum over the (x, p)
    grid, masked where the sampled transform aliases, and each profile is
    its inverse DFT on the k grid k_m = (m - N/2) 2 pi / (N dx).
    """
    values = W.real_values()
    x, p = W.x_grid.points, W.p_grid.points
    n, dx, dp = W.x_grid.n, W.dx, W.dp
    dk = 2.0 * np.pi / (n * dx)
    k = (np.arange(n) - n // 2) * dk
    out = np.empty((len(angles), n))
    for row, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        along_x = np.exp(-1j * c * np.outer(k, x)) @ values
        spectrum = np.sum(along_x * np.exp(-1j * s * np.outer(k, p)), axis=1) * dx * dp
        valid = (np.abs(k * c) <= np.pi / dx + 1e-9) & (np.abs(k * s) <= np.pi / dp + 1e-9)
        spectrum = np.where(valid, spectrum, 0.0)
        out[row] = (np.exp(1j * np.outer(x, k)) @ spectrum * dk / (2.0 * np.pi)).real
    return out


def backprojection_support(tomo) -> np.ndarray:
    """The N x N mask of the points filtered backprojection keeps: at every
    angle, the projection x cos t + p sin t of a point within one cell of the
    outer extent of the tomogram's samples above ``SUPPORT_RTOL`` max |R|,
    tested on meshes of the whole grid."""
    grid = tomo.grid
    n, dx = grid.n, grid.dx
    p_grid = dual_grid(grid, tomo.eta)
    xx, pp = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    above = np.abs(tomo.values) > SUPPORT_RTOL * np.max(np.abs(tomo.values))
    lo = grid.points[np.argmax(above, axis=1)] - dx
    hi = grid.points[n - 1 - np.argmax(above[:, ::-1], axis=1)] + dx
    mask = np.ones((n, p_grid.n), dtype=bool)
    for row, theta in enumerate(tomo.angles):
        coords = xx * np.cos(theta) + pp * np.sin(theta)
        mask &= (coords >= lo[row]) & (coords <= hi[row])
    return mask


def klm_matrix_dense(a: PhaseSpaceFunction, points, eta: float) -> np.ndarray:
    """The KLM matrix exp(i sigma(z_j, z_k) / 2 eta) a_sigma(z_j - z_k),
    transformed at all M^2 differences, the diagonal and both triangles.

    Each difference gets its own phase vectors and a complex product with
    the samples; the result is symmetrized as (K + K^H) / 2.
    """
    points = np.asarray(points, dtype=float)
    m = len(points)
    diffs = (points[:, None, :] - points[None, :, :]).reshape(-1, 2)
    ex = np.exp(-1j * np.outer(diffs[:, 1], a.x_grid.points) / eta)
    ep = np.exp(1j * np.outer(diffs[:, 0], a.p_grid.points) / eta)
    asig = np.sum((ex @ a.values) * ep, axis=1).reshape(m, m)
    asig *= a.area_element / (2.0 * np.pi * eta)
    x, p = points[:, 0], points[:, 1]
    sig = np.outer(p, x) - np.outer(x, p)
    matrix = np.exp(0.5j * sig / eta) * asig
    return 0.5 * (matrix + matrix.conj().T)


def transform_dense(a: PhaseSpaceFunction, points, scale: float) -> np.ndarray:
    """sum over z' of exp(-i sigma(w, z') scale) a(z') dz' at points w, over
    the whole grid: one exp(-i sigma(w, z') scale) per (point, cell)."""
    xx, pp = a.meshes()
    # sigma(w, z') = w_p x' - w_x p'
    out = [np.sum(np.exp(-1j * scale * (w[1] * xx - w[0] * pp)) * a.values) for w in points]
    return np.array(out) * a.area_element


def sigma_riemann(W: PhaseSpaceFunction, rows, cols) -> np.ndarray:
    """F_sigma W at the points (x_i, p_k), i in ``rows`` and k in ``cols``, as
    the direct double Riemann sum over the grid: one phase matrix per axis."""
    x, p, eta = W.x_grid.points, W.p_grid.points, W.eta
    left = np.exp(-1j * np.outer(p[cols], x) / eta)
    right = np.exp(1j * np.outer(p, x[rows]) / eta)
    return (left @ W.values @ right).T * W.area_element / (2.0 * np.pi * eta)


def covariance_dense(W: PhaseSpaceFunction):
    """(mean, Sigma) of a normalized distribution as weighted sums over
    the N x N meshes of x and p."""
    values = W.values.real
    weight = 1.0 / np.sum(values)
    xx, pp = W.meshes()
    mx = np.sum(xx * values) * weight
    mp = np.sum(pp * values) * weight
    dzx, dzp = xx - mx, pp - mp
    sxx = np.sum(dzx * dzx * values) * weight
    sxp = np.sum(dzx * dzp * values) * weight
    spp = np.sum(dzp * dzp * values) * weight
    return np.array([mx, mp]), np.array([[sxx, sxp], [sxp, spp]])


def symplectic_eigenvalues_dense(sigma: np.ndarray) -> np.ndarray:
    """Williamson's lambda_j, ascending, as the moduli of the +-i lambda_j
    eigenvalue pairs of J Sigma from the general (non-Hermitian) eigensolver."""
    n = len(sigma) // 2
    vals = np.linalg.eigvals(j_matrix(n) @ sigma)
    if np.max(np.abs(vals.real)) > 1e-9 * np.max(np.abs(vals)):
        raise ValidationError("eigenvalues of J Sigma are not purely imaginary")
    paired = np.sort(np.abs(vals.imag)).reshape(n, 2)
    if np.max(np.abs(paired[:, 0] - paired[:, 1])) > 1e-9 * paired[-1, 1]:
        raise ValidationError("eigenvalues of J Sigma do not pair as +-i lambda")
    return paired[:, 0]


def wavepacket_wigner_closed(grid, eta: float, m: complex, x0: float = 0.0) -> np.ndarray:
    """Closed-form Wigner function of the wavepacket psi_M, M = X + iY,
    centred at x0: (pi eta)^-1 exp(-G (z - z0).(z - z0) / eta) with
    G = S^T S = [[X + Y^2 / X, Y / X], [Y / X, 1 / X]]."""
    x_pd, y_pd = m.real, m.imag
    G = np.array([[x_pd + y_pd**2 / x_pd, y_pd / x_pd], [y_pd / x_pd, 1.0 / x_pd]])
    p_grid = dual_grid(grid, eta)
    xx, pp = np.meshgrid(grid.points - x0, p_grid.points, indexing="ij")
    quad = G[0, 0] * xx**2 + 2.0 * G[0, 1] * xx * pp + G[1, 1] * pp**2
    return np.exp(-quad / eta) / (np.pi * eta)


def _trig_sum(grid, points) -> np.ndarray:
    """E[m, k] = exp(2 pi i f_k t_m) / n, the Nyquist term as a cosine."""
    n = grid.n
    t = (np.asarray(points, dtype=float) - grid.x_min) / grid.length
    out = np.exp(2j * np.pi * np.outer(t, np.fft.fftfreq(n, d=1.0 / n)))
    if n % 2 == 0:
        out[:, n // 2] = np.cos(np.pi * n * t)
    return out / n


def periodic_interp(values, grid, points, zero_outside: bool = False) -> np.ndarray:
    """Band-limited evaluation of grid samples at arbitrary points, a dense
    trigonometric sum along the last axis.

    With ``zero_outside`` the periodic interpolant reads zero at points
    outside ``[x_min, x_max)``, as for a decaying function.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.fft.fft(np.asarray(values, dtype=complex), axis=-1) @ _trig_sum(grid, points).T
    if zero_outside:
        out[..., (points < grid.x_min) | (points >= grid.x_max)] = 0.0
    return out


def tensor_interp(values, x_grid, p_grid, new_x, new_p, zero_outside: bool = True) -> np.ndarray:
    """Evaluate a 2-D grid function on the tensor grid new_x x new_p."""
    stage = periodic_interp(np.asarray(values).T, x_grid, new_x, zero_outside).T
    return periodic_interp(stage, p_grid, new_p, zero_outside)


def point_interp2d(values, x_grid, p_grid, x_points, p_points) -> np.ndarray:
    """Band-limited 2-D interpolant at arbitrary (x, p) pairs, zero off the grid.

    ``x_points`` and ``p_points`` are broadcast together, so sheared or
    rotated coordinates are fine.
    """
    values = np.asarray(values, dtype=complex)
    x_points, p_points = np.broadcast_arrays(
        np.asarray(x_points, dtype=float), np.asarray(p_points, dtype=float)
    )
    xf, pf = x_points.reshape(-1), p_points.reshape(-1)
    coeffs = np.fft.fft2(values)
    out = np.einsum("mk,kl,ml->m", _trig_sum(x_grid, xf), coeffs, _trig_sum(p_grid, pf))
    outside = (
        (xf < x_grid.x_min) | (xf >= x_grid.x_max) | (pf < p_grid.x_min) | (pf >= p_grid.x_max)
    )
    out[outside] = 0.0
    return out.reshape(x_points.shape)


def shear_interp(values, x_grid, p_grid, slope: float) -> np.ndarray:
    """Row-wise sheared evaluation: out[i, j] = f(x_i, p_j + slope * x_i)."""
    values = np.asarray(values, dtype=complex)
    out = np.empty_like(values)
    for i, x in enumerate(x_grid.points):
        out[i] = fourier_shift(values[i], p_grid, -slope * x)
    return out


def reflection_wigner_check(psi: GridFunction, z0) -> dict:
    """Residual of W psi(z0) = (pi eta)^-1 <psi | Pi(z0) psi>.

    The Wigner side is evaluated at z0 by band-limited interpolation, zero
    off the grid; the result notes whether z0 had to be interpolated off the
    sample lattice.
    """
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    W = wigner(psi)
    on_x = np.any(np.isclose(W.x_grid.points, x0, atol=1e-12))
    on_p = np.any(np.isclose(W.p_grid.points, p0, atol=1e-12))
    w_at = 0.0
    if W.x_grid.x_min <= x0 < W.x_grid.x_max and W.p_grid.x_min <= p0 < W.p_grid.x_max:
        # the interpolant's weights are a unit sample shifted to z0 (the
        # real, even Dirichlet kernel)
        unit = np.zeros(W.x_grid.n)
        unit[0] = 1.0
        wx = fourier_shift(unit, W.x_grid, x0 - W.x_grid.x_min)
        wp = fourier_shift(unit, W.p_grid, p0 - W.p_grid.x_min)
        w_at = wx @ W.values @ wp
    pairing = psi.inner(reflect(psi, (x0, p0)))
    residual = abs(w_at - pairing / (np.pi * eta))
    return {
        "residual": float(residual),
        "wigner_value": complex(w_at),
        "pairing_value": complex(pairing / (np.pi * eta)),
        "interpolated": not (on_x and on_p),
    }


def fock_narcowich_spectrum(n: int, eta: float, eta_prime: float, terms: int = 80) -> np.ndarray:
    """lambda_k = 2 pi eta' Int W_k^eta' W_n^eta dz for k = 0 .. terms - 1:
    the eigenvalues of 2 pi eta' Op_eta'(W_n^eta), which is diagonal in the
    eta'-Fock basis because the Wigner function W_n^eta of Fock state n is radial.

    With W_k^eta(z) = (-1)^k (pi eta)^-1 exp(-r^2/eta) L_k(2 r^2/eta),
    dz = pi d(r^2) and t = a r^2, a = 1/eta + 1/eta', each integral is

        2 (-1)^(k+n) / (a eta) Int_0^inf exp(-t) L_k(2t/(a eta')) L_n(2t/(a eta)) dt,

    a polynomial of degree k + n against exp(-t), which a Gauss-Laguerre
    rule of M nodes sums exactly for k + n <= 2M - 1.  M is the least such
    count: more nodes reach larger t, where L_k cancels to round-off.
    Beyond the last term the lambda_k fall off like
    ((eta - eta') / (eta + eta'))^k.
    """
    a = 1.0 / eta + 1.0 / eta_prime
    t, w = np.polynomial.laguerre.laggauss((terms + n) // 2 + 1)
    l_k = np.polynomial.laguerre.lagvander(2.0 * t / (a * eta_prime), terms - 1)
    l_n = np.polynomial.laguerre.lagval(2.0 * t / (a * eta), [0.0] * n + [1.0])
    signs = (-1.0) ** (np.arange(terms) + n)
    return 2.0 * signs / (a * eta) * ((w * l_n) @ l_k)
