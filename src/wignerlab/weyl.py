"""The Weyl correspondence: symbols, kernels, the ambiguity function and traces.

The correspondence between symbols a(x, p) and kernels K(x, y) is

    a(x, p) = Int exp(-i p y / eta) K(x + y/2, x - y/2) dy
    K(x, y) = (2 pi eta)^(-1) Int exp(i p (x - y) / eta) a((x + y)/2, p) dp

Both directions read the half-step correlation: lag d dx at midpoint x_r
(x_r - dx/2 for odd d).  Kernel entry (a, b) has lag a - b and midpoint row
(a + b + 1) >> 1, and the cells of each parity block K[a::2, b::2] are one
strided view of a lag table (:func:`_parity_views`).  On the centred dual p
grid of an even N every phase of the lag sum is exactly +-1 or an FFT root
of unity, and lags t and t - N share one, so the symbol of a kernel sums N
folded lags: :func:`_folded_correlation` adds each parity block, shifted
half a step in 2-D on its odd lags, straight into the cell (r, d mod N) of
one N x N table, which is then signed and transformed in place by one FFT.
Factors (U, V) of a kernel U V^H are sampled at half steps in one place,
:func:`_half_steps`: the correlation at midpoint x_h and lag s dx is
F[2h + s] G[2h - s]^T of U and conj V at their twofold refinement, padded
with zeros; a root (U, U), the one array twice, is refined once and G is
the conjugate of F.  Of rank r > 1 they fold into the same table, each
parity block a product of two row slices of those samples; of rank one,
the operator of a pair of states, they build no table, each of their lag
blocks one elementwise product of two strided views.  A Hermitian
operator's folded lags are a Hermitian sequence, so its real symbol is one
``irfft`` of lags 0 .. N/2, conjugated in place.  The ambiguity function
sums the central lags of |psi><psi| over their midpoints, one product laid
out lag by lag, of which it builds only the lags -N/2 .. 0, in the rows
0 .. N/2 that the conjugate-symmetric pass of :mod:`transforms` sums and
mirrors.  Off-grid arguments are treated as zero (kernels and symbols are
assumed negligible outside the grid).

In the quantizer the symbol's dtype picks the lag table and eta its fill,
and each table is as wide as the band of lags its kernel holds.  At the
symbol's own eta, where its p grid is dual to the x grid, the p sum is one
row FFT and reconstructs the lag band |x - y| < L/2 of a grid of length L,
at half weight at L/2 and zero beyond: the N lags a dual-grid symbol holds,
onto which :func:`weyl_symbol` folds any longer ones.  So a complex symbol
fills an N x (N + 1) table of the lags -N/2 .. N/2, and a real one, the
symbol of a self-adjoint operator, an N x (N/2 + 1) table of the lags
0 .. N/2, whose kernel is mirrored from its lower triangle.  A foreign eta'
sums each row's trigonometric interpolant over F-fold refined p samples in
closed form, for real samples only: each block's half spectrum, turned by
the Dirichlet phase of its row, sends its real and imaginary parts through
one real product each with two real Dirichlet factors, the factors, turns
and lag ramp held per grid, eta' and F as a plan (:func:`errors.plan`) that
the first call builds; its band stretches to about
|x - y| < (L/2) eta' / a.eta, with no sharp edge, so its table spans every
lag of the grid, the N x N table of the lags 0 .. N - 1.  A complex symbol
is quantized there as Op(Re a) + i Op(Im a), two real passes whose
Hermitian kernels are combined in place.  One read-out takes every kernel
from its table through the parity views, and clears the entries beyond a
narrower table's band.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError, plan, plan_buffer, refuse_overflow, require_memory
from .grid import (
    Grid, GridFunction, PhaseSpaceFunction, WignerResult, boundary_leak, dual_grid, peak_pairing
)
from .states import DensityMatrix, OperatorMatrix
from .transforms import conjugate_symmetric_pass, fourier_shift

__all__ = [
    "displace",
    "reflect",
    "weyl_quantize",
    "weyl_symbol",
    "ambiguity",
    "twisted_product",
    "expectation",
    "trace_from_symbol",
]


def _leak_warning(values: np.ndarray, what: str):
    leak = boundary_leak(values)
    if leak > 1e-3:
        warnings.warn(f"{what}: boundary leak {leak:.2e} exceeds 1e-3", stacklevel=3)
    return leak


def displace(psi: GridFunction, z0) -> GridFunction:
    """Weyl displacement D(z0) psi(x) = exp(i (p0 x - p0 x0 / 2)/eta) psi(x - x0)."""
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    shifted = fourier_shift(psi.values, psi.grid, x0)
    _leak_warning(shifted, "displace")
    x = psi.grid.points
    phase = np.exp(1j * (p0 * x - 0.5 * p0 * x0) / eta)
    return GridFunction(psi.grid, phase * shifted, eta)


def reflect(psi: GridFunction, z0) -> GridFunction:
    """Displaced parity Pi(z0) psi(x) = exp(2 i p0 (x - x0)/eta) psi(2 x0 - x)."""
    x0, p0 = float(z0[0]), float(z0[1])
    eta = psi.eta
    grid = psi.grid
    n = grid.n
    # reflect about the grid center, then translate the center to x0
    mirrored = psi.values[(-np.arange(n)) % n]
    shifted = fourier_shift(mirrored, grid, 2.0 * x0 - grid.x_min - grid.x_max)
    _leak_warning(shifted, "reflect")
    phase = np.exp(2j * p0 * (grid.points - x0) / eta)
    return GridFunction(grid, phase * shifted, eta)


def _require_even(n: int):
    """Refuse an odd N: the half-step correlation pairs the grid's samples
    two by two (:func:`_parity_views`)."""
    if n % 2:
        raise ParameterError(f"the half-step correlation needs an even N, got {n}")


def require_correlation_memory(n: int):
    """Refuse a Weyl-Wigner map at N grid points above the memory budget.

    A kernel peaks at about 48 N^2 bytes: the N x N kernel, its 2-D
    half-step shift and the (N + 1) x N table of its folded lags (16 N^2
    each), whose FFT runs in place (a Hermitian kernel's real part, 8 N^2,
    is copied out once the shift is freed).  Factors (U, V) of rank r build
    no N x N kernel and no shift: the table, their 4N x r half-step samples
    (128 N r) and a strip of ``_FOLD_TILE`` block rows of their products,
    then the real output of a Hermitian pair's ``irfft`` (8 N^2).  Rank-one
    factors build no table either: about 32 N^2 bytes, the N x N lags of a
    state pair (16 N^2) with a block of ``_ROW_CHUNK`` rows of partner lags
    and, for the ambiguity function, its N x N output, into which its lags
    -N/2 .. 0 are written, phased and summed in place and then mirrored;
    a Hermitian pair's N x (N/2 + 1) lags, conjugated in place, and the
    real output of its ``irfft`` take 16 N^2.  The 104 N^2 counted
    covers factors up to rank N/2 and what the allocator holds beyond them.
    Call it before the kernel or the table is built.
    """
    require_memory(104 * n * n, f"half-step correlation at N = {n}")


def _parity_views(corr: np.ndarray, zero: int) -> dict:
    """The cells of each parity block of the kernel, as views of ``corr``.

    ``corr`` is a C-contiguous N x w lag table, lag d of row h in column
    d + ``zero``.  Entry (2i + a, 2k + b) of an N x N kernel sits at flat
    offset i (w + 2) + k (w - 2) + h w + a - b + zero, h = (a + b + 1) >> 1,
    so the block K[a::2, b::2] is one strided N/2 x N/2 view per (a, b).
    A cell whose lag the table holds, -zero <= a - b < w - zero, is read in
    its row; one beyond it lands in a neighbouring row, at an offset still
    between 0 and N w wherever zero <= w - 2, as in every table here, and
    the caller clears it or never reads it.  On an N x N table (zero = 0),
    row h and lag d at flat offset h N + d, the cells of the lower triangle
    (lags a - b >= 0) are in place, at (h, d), and those of the strict upper
    triangle land one row up, at (h - 1, d + N); the same views of the table
    one row further on put them at (h, d + N), the cell of lag d mod N.  At
    N = 4m + 2 two entries m block rows and m + 1 block columns apart, one
    of each triangle, share an offset.  N must be even.
    """
    n, width = corr.shape
    _require_even(n)
    flat = corr.reshape(-1)  # a view: corr is C-contiguous
    strides = ((width + 2) * corr.itemsize, (width - 2) * corr.itemsize)
    return {
        (a, b): np.lib.stride_tricks.as_strided(
            flat[((a + b + 1) >> 1) * width + a - b + zero :], (n // 2, n // 2), strides
        )
        for a in (0, 1)
        for b in (0, 1)
    }


def _folded_correlation(source, grid: Grid, width: int) -> np.ndarray:
    """The half-step correlation C of a kernel folded onto its N lags: the
    N x N table of C[h, t] + C[h, t - N], lag t dx at midpoint x_h
    (x_h - dx/2 for odd t), complete for the lags t < ``width`` (the cells
    beyond may hold part of their sum).

    Both arguments of lag s sit at x_h +- s dx/2, on the grid for even s and
    half a step off it for odd s.  Even lags read K itself, odd lags the
    band-limited interpolant of K shifted by -dx/2 along both axes (the odd
    samples of a twofold refinement).  ``source`` is the N x N kernel,
    shifted in 2-D, or a pair (U, V) of N x r factors with K = U V^H, of any
    layout or real dtype, sampled at half steps (:func:`_half_steps`): each
    parity block is then the (N/2 x r)(r x N/2) product of two row slices of
    step 4 of those samples, even rows for even lags and odd rows for odd
    ones, so no N x N array and no copy of the factors is built.

    Lag s of midpoint h has its cell at (h, s mod N) of one zeroed
    (N + 1) x N table: each parity block is added through the views of
    :func:`_parity_views` on its first N rows, its lags s >= 0 (the lower
    triangle) in place and its lags s < 0 through the same views one row
    further on, which the spare last row keeps inside the buffer.  A block
    is added in strips of at most ``_FOLD_TILE`` block rows, each one
    product of the factors' samples, and only the diagonal tile of each
    strip is split, its negative lags by ``np.triu`` and the rest by
    ``np.tril``.  Each cell receives at most two terms, so it holds
    C[h, t] + C[h, t - N] bit for bit in either order, and cells whose
    arguments fall off the grid stay zero.  The table's first N rows are
    returned.  N must be even.
    """
    n = grid.n
    table = np.zeros((n + 1, n), dtype=complex)
    views = [_parity_views(table[:n], 0), _parity_views(table[1:], 0)]
    rows = n // 2
    # at N = 4m + 2 a view reaches one cell from two block entries m rows
    # and m + 1 columns apart, so its diagonal tiles stay narrower than that
    tile = min(_FOLD_TILE, rows if n % 4 == 0 else (n + 2) // 4)
    # strips of equal height: a lone last row would go to matmul as a vector
    # product, whose sums may round otherwise than the block's
    count = -(-rows // tile)
    edges = [rows * j // count for j in range(count + 1)]
    tile = -(-rows // count)
    factors = isinstance(source, tuple)
    if factors:
        f, g = _half_steps(source, grid)
        strip = np.empty((tile, rows), dtype=complex)
    else:
        shifted = fourier_shift(source, grid, -0.5 * grid.dx, axis=0)
        fourier_shift(shifted, grid, -0.5 * grid.dx, axis=1, out=shifted)
    for (a, b), positive in views[0].items():
        negative = views[1][a, b]
        # block entry (i, k) has lag 2 (i - k) + a - b: on the diagonal i = k
        # it is negative where a < b
        upper = 1 if a >= b else 0
        if factors:
            # odd lags (a != b) read the odd, shifted samples
            odd = int(a != b)
            left, right = f[n + 2 * a + odd : 3 * n : 4], g[n + 2 * b + odd : 3 * n : 4].T
        else:
            block = (source if a == b else shifted)[a::2, b::2]
        for i, end in zip(edges, edges[1:]):
            m = end - i
            # lags t < width take the lags s >= 0 of block columns from
            # i - width/2 on and the lags s < 0 from i + (N - width)/2 on
            lo, hi = max(0, i - width // 2), max(end, i + (n - width) // 2)
            if factors:
                terms = np.matmul(left[i:end], right, out=strip[:m])
            else:
                terms = block[i:end]
            positive[i:end, lo:i] += terms[:, lo:i]
            negative[i:end, hi:] += terms[:, hi:]
            # the diagonal tile in two parts, each zero where the other is
            # not: adding a zero leaves a cell as it was
            diagonal = terms[:, i:end]
            negative[i:end, i:end] += np.triu(diagonal, upper)
            positive[i:end, i:end] += np.tril(diagonal, upper - 1)
    return table[:n]


def _half_steps(factors: tuple, grid: Grid) -> tuple:
    """The samples F[N + k] = U(x_0 + k dx/2) and G[N + k] = conj V(x_0 + k dx/2),
    k = 0 .. 2N - 1, of the N x r factors (U, V) of a kernel U V^H, each
    4N x r and zero on the N rows beside the grid on either side.

    Even k read the factor, odd k its band-limited interpolant shifted by
    -dx/2, so the correlation entry at midpoint x_h and lag s dx is
    F[N + 2h + s] G[N + 2h - s]^T, zero off the grid: each parity block of
    :func:`_folded_correlation` is one product of two row slices of step
    4, and a state pair's lags (r = 1) are products of two strided views
    (:func:`_strided`).  A root (U, U), the one array twice, as of a state
    or a mixture, is sampled once and G is the conjugate of F; distinct
    factors are sampled each and G conjugated in place.  N must be even.
    """
    n = grid.n
    _require_even(n)
    u, v = factors
    samples = []
    for factor in (u,) if u is v else (u, v):
        padded = np.zeros((4 * n, factor.shape[1]), dtype=complex)
        padded[n : 3 * n : 2] = factor
        padded[n + 1 : 3 * n : 2] = fourier_shift(factor, grid, -0.5 * grid.dx, axis=0)
        samples.append(padded)
    f = samples[0]
    return f, f.conj() if u is v else np.conjugate(samples[1], out=samples[1])


def _strided(samples: np.ndarray, offset: int, shape: tuple, steps: tuple) -> np.ndarray:
    """The read-only view samples[offset + i steps[0] + j steps[1]] of ``shape``,
    indexing rows: the entries of a 4N x 1 column of :func:`_half_steps`."""
    return np.lib.stride_tricks.as_strided(
        samples[offset:], shape, tuple(s * samples.strides[0] for s in steps), writeable=False
    )


def _rank_one_lags(factors: tuple, grid: Grid, width: int) -> np.ndarray:
    """The folded lags t = 0 .. width - 1 of a rank-one kernel u v^H from
    its factors (u, v): C[h, t] + C[h, t - N] of its half-step correlation
    C, with no N x 2N table.

    Lag t is f[N + 2h + t] g[N + 2h - t] over the midpoint rows h
    (:func:`_half_steps`), one product of two strided views; the partner lag
    t - N reaches the grid only on the rows N - t <= 2h < N + t and is added
    there in place, ``_ROW_CHUNK`` rows at a time.
    """
    n = grid.n
    f, g = _half_steps(factors, grid)
    lags = _strided(f, n, (n, width), (2, 1)) * _strided(g, n, (n, width), (2, -1))
    lo, hi = (n - width + 2) // 2, (n + width) // 2
    for start in range(lo, hi, _ROW_CHUNK):
        shape = (min(_ROW_CHUNK, hi - start), width)
        lags[start : start + shape[0]] += _strided(f, 2 * start, shape, (2, 1)) * _strided(
            g, 2 * (n + start), shape, (2, -1)
        )
    return lags


#: block rows per strip of :func:`_folded_correlation`, whose diagonal tile
#: alone is split
_FOLD_TILE = 64

#: symbol rows per pass of the quantizer's lag fill (one row FFT, and at a
#: foreign eta its products: with the half spectra's real and imaginary
#: parts about 1 MiB at N = N_p = 256, and large enough for two BLAS threads
#: to share), table rows per pass of :func:`_dirichlet_sums`, and midpoint
#: rows per partner-lag product of :func:`_rank_one_lags`
_ROW_CHUNK = 128

#: tile edge of the mirror that makes a real symbol's kernel Hermitian, and
#: of the clearing of kernel entries beyond a lag table's band
_MIRROR_TILE = 64


def _p_oversampling(a: PhaseSpaceFunction, eta_use: float) -> int:
    """The quantizer's p oversampling factor F = 2 ceil(a.eta / eta_use).

    Sampling the p integral at spacing dp folds kernel entries separated by
    2 pi eta / dp in x - y back onto the grid; oversampling pushes the fold
    past the largest separation the grid can hold, and smaller eta values
    need proportionally more of it.  At a foreign eta, F defines the
    quadrature: each row's trigonometric interpolant is summed over F N_p p
    samples, in closed form (:func:`_dirichlet_table`), so no refined sample
    is stored and the working set does not grow with F.  The Dirichlet
    factors are a plan held per grid, eta and F under the 32 MiB cap of all
    plans (:func:`errors.plan`): the first call at a grid and eta builds
    them and counts them below, later ones read them.

    :func:`errors.require_memory` refuses the working set before anything is
    allocated: the lag table, filled one pass of ``_ROW_CHUNK`` rows at a
    time (a block's FFT and lags, or a block of Dirichlet rows; at a
    foreign eta the block's half spectra and their products)
    and at a foreign eta beside the two real (N_p/2 + 1) x N Dirichlet
    factors, then the kernel, read out once the table's odd-lag columns are
    shifted in place.  The count, 16 (N (3 N + N_p) + min(N, ``_ROW_CHUNK``)
    8 N) bytes, adds these as if they overlapped, with room for what the
    allocator holds, for the widest route: a complex symbol at a foreign
    eta, whose kernel of Re a is held while the N x N table and the kernel
    of Im a are built.  At the symbol's own eta a complex symbol's table is
    N x (N + 1) and a real one's N x (N/2 + 1); at a foreign eta each table
    is N x N.
    """
    factor = 2 * max(1, int(np.ceil(a.eta / eta_use)))
    n = a.x_grid.n
    require_memory(
        16 * (n * (3 * n + a.p_grid.n) + min(n, _ROW_CHUNK) * 8 * n),
        f"p oversampling by {factor} to quantize at eta = {eta_use} a symbol at eta = {a.eta}",
    )
    return factor


def weyl_quantize(a: PhaseSpaceFunction, eta: float | None = None) -> OperatorMatrix:
    """Operator kernel of a phase-space symbol.

    ``eta`` overrides the symbol's attached parameter: the p samples then act
    as a plain quadrature for the kernel integral at the new eta, which is
    what variable-Planck-constant scans need.

    The lag table corr[r, d + zero] holds lag d dx at midpoint x_r, the
    lags d >= 0 only (zero = 0) for real (float64) samples, and eta picks
    its fill and its width, the band of lags it holds: where the p grid is
    dual to the x grid (every symbol at its own eta), one FFT per block of
    rows (:func:`_native_lags`) fills the lags |d| <= N/2, the band
    |x - y| <= L/2 of a grid of length L, of a real or a complex symbol; at
    a foreign eta, the p sum over the rows refined F times
    (:func:`_p_oversampling`) in closed form (:func:`_foreign_lags`) fills
    the lags 0 <= d < N of real samples, since its band stretches to about
    |x - y| < (L/2) eta / a.eta, and a complex symbol is
    Op(Re a) + i Op(Im a), the kernels of its two real parts, each
    Hermitian, combined in place.  One read-out (:func:`_lag_kernel`) takes
    a kernel from its table, Hermitian bit for bit for real samples.  An
    odd x grid, and at a foreign eta an odd p grid, is refused before any
    work.
    """
    eta_use = a.eta if eta is None else float(eta)
    dual = dual_grid(a.x_grid, eta_use)  # the grid module's eta rule refuses a bad eta
    n = a.x_grid.n
    _require_even(n)
    native = a.p_grid.n == n and abs(a.p_grid.dx - dual.dx) <= 1e-12 * dual.dx
    if not native and a.p_grid.n % 2:
        # the Nyquist bin of the refined rows is split in half between +-N_p/2
        raise ParameterError(
            f"a foreign-eta p quadrature needs an even number of samples, got {a.p_grid.n}"
        )
    factor = _p_oversampling(a, eta_use)
    if native:
        return OperatorMatrix(a.x_grid, _lag_kernel(*_native_lags(a, eta_use), a.x_grid), eta_use)
    table = _dirichlet_table(a, eta_use, factor)
    samples = a.values
    # each table is freed once its kernel is read out, before the next fill
    kernel = _lag_kernel(_foreign_lags(samples.real, table), 0, a.x_grid)
    if np.iscomplexobj(samples):
        imag = _lag_kernel(_foreign_lags(samples.imag, table), 0, a.x_grid)
        kernel.real -= imag.imag
        kernel.imag += imag.real
    return OperatorMatrix(a.x_grid, kernel, eta_use)


def _native_lags(a: PhaseSpaceFunction, eta_use: float) -> tuple:
    """The lag table of a symbol whose p grid is dual to its x grid at ``eta_use``,
    and its lag-0 column: the N x (N + 1) table of the lags -N/2 .. N/2 of a
    complex symbol, or the N x (N/2 + 1) table of the lags 0 .. N/2 of a
    real one, every column written."""
    n = a.x_grid.n
    half = n // 2
    real = not np.iscomplexobj(a.values)
    # corr[r, d + zero] = (2 pi eta)^-1 dp sum_l a(x_r, p_l) exp(i p_l d dx / eta)
    # over the lags -zero <= d <= N/2; the weights carry dp, the lag phase of
    # p_min and the band edge, where the sum is half the DFT at d mod N
    zero = 0 if real else half
    d = np.arange(-zero, half + 1)
    dp = a.p_grid.dx
    weight = dp / (2.0 * np.pi * eta_use) * np.exp(1j * a.p_grid.x_min * d * a.x_grid.dx / eta_use)
    weight[np.abs(d) == half] *= 0.5
    corr = np.empty((n, d.size), dtype=complex)
    for start in range(0, n, _ROW_CHUNK):
        block = a.values[start : start + _ROW_CHUNK]
        rows = corr[start : start + _ROW_CHUNK]
        if real:
            sums = np.fft.rfft(block, axis=1)
            np.conjugate(sums, out=sums)
            np.multiply(sums, weight, out=rows)
            continue
        # lags -N/2 .. -1 are DFT bins N/2 .. N - 1, lags 0 .. N/2 bins 0 .. N/2
        sums = np.fft.ifft(block, axis=1, norm="forward")
        np.multiply(sums[:, half:], weight[:half], out=rows[:, :half])
        np.multiply(sums[:, : half + 1], weight[half:], out=rows[:, half:])
    return corr, zero


def _foreign_lags(values: np.ndarray, plan: tuple) -> np.ndarray:
    """The N x N lag table of the lags 0 .. N - 1 of real samples at a
    foreign eta.

    A block's half spectrum c_j, Nyquist bin halved, turned by the row turns
    e^(i theta_j) of the plan of :func:`_dirichlet_sums`, sends its real
    parts through one float64 product with total and its imaginary parts
    through one with diff: X + i Y, times the lag ramp, is the block's lags
    d >= 0 of a Hermitian kernel.
    """
    (total, diff), turns, ramp = plan
    n = values.shape[0]
    corr = np.empty((n, n), dtype=complex)
    for start in range(0, n, _ROW_CHUNK):
        lags = corr[start : start + _ROW_CHUNK]
        spectra = np.fft.rfft(values[start : start + _ROW_CHUNK], axis=1, norm="forward")
        spectra[:, -1] *= 0.5
        spectra *= turns
        x = np.ascontiguousarray(spectra.real) @ total
        y = np.ascontiguousarray(spectra.imag) @ diff
        del spectra  # freed before the lags are written
        lags.real, lags.imag = x, y
        lags *= ramp
    return corr


def _lag_kernel(corr: np.ndarray, zero: int, grid: Grid) -> np.ndarray:
    """The kernel held by a lag table whose lag 0 is column ``zero``.

    Odd lags have their midpoint at x_r - dx/2: the p sums commute with the
    half-step shift along x, taken in place on the strided odd-lag columns
    in one call.  The kernel is read through the four views of
    :func:`_parity_views`; a table narrower than the band |d| < N, as at the
    symbol's own eta, leaves the entries beyond its lags read from other
    rows, which are cleared tile by tile.
    A table with no negative lags (zero = 0) holds the lags d >= 0 of a
    Hermitian kernel, which is mirrored from them.
    """
    n = grid.n
    odd = corr[:, (zero + 1) % 2 :: 2]  # the odd lags, N being even
    fourier_shift(odd, grid, 0.5 * grid.dx, axis=0, out=odd)
    kernel = np.empty((n, n), dtype=complex)
    for (r, c), view in _parity_views(corr, zero).items():
        kernel[r::2, c::2] = view
    _clear_lower(kernel, corr.shape[1] - 1 - zero)
    if zero == 0:
        _mirror_lower(kernel)
    else:
        _clear_lower(kernel.T, zero)
    return kernel


def _clear_lower(kernel: np.ndarray, band: int):
    """Zero the entries (i, k) of a square kernel with i - k > ``band``, tile
    by tile; of its transpose, those with k - i > ``band``."""
    n = kernel.shape[0]
    tile = _MIRROR_TILE
    strict = np.tri(tile, k=-1, dtype=bool)
    for s in range(band + 1, n, tile):
        # rows s .. s + m - 1 clear the columns before s - band, and from
        # there the strict lower triangle of one m x m tile
        rows = kernel[s : s + tile]
        m, c = rows.shape[0], s - band
        rows[:, :c] = 0.0
        np.copyto(rows[:, c : c + m], 0.0, where=strict[:m, :m])


def _dirichlet_table(a: PhaseSpaceFunction, eta_use: float, factor: int) -> tuple:
    """The factors, turns and ramp of :func:`_dirichlet_sums` for ``a``'s
    grids, a plan (:func:`errors.plan`) held per grid, eta and F under the
    32 MiB cap of all plans.

    The plan depends on the symbol's grids (N, N_p, dx, dp and p_min, which
    enters the ramp alone), on eta and on F, never on its values, so a
    repeated grid and eta reads the held arrays, read-only and bit for bit
    the ones built; the first call pays the build.
    """
    x_grid, p_grid = a.x_grid, a.p_grid
    return plan(
        _dirichlet_sums, x_grid.n, p_grid.n, x_grid.dx, p_grid.dx, p_grid.x_min, eta_use, factor
    )


def _dirichlet_sums(
    n: int, n_p: int, dx: float, dp: float, p_min: float, eta_use: float, factor: int
) -> tuple:
    """The foreign-eta p sums of lags d = 0 .. N - 1 as two real factors, the
    row turns and the lag ramp.

    A row refined F times is the trigonometric interpolant of its spectrum
    c_j, j = -N_p/2 .. N_p/2 with the Nyquist bin split in half between
    +-N_p/2.  Its sum over the M = F N_p refined samples against
    exp(i m d step), step = dp dx / (F eta), is therefore
    sum_j c_j G(2 pi j / M + d step), with the Dirichlet kernel

        G(phi) = sum_{m < M} exp(i phi m) = exp(i (M - 1) phi / 2) sin(u) / sin(u / M),

    u = M phi / 2 = pi j + c d, c = M step / 2.  Both sines read the one
    argument u, so where they vanish together, as at rational eta / a.eta,
    their quotient tends to M rather than to a quotient of two round-offs;
    at u = 0 it is M.  The phase factors into the row turn exp(i theta_j),
    theta_j = (M - 1) pi j / M, and the ramp over d, which also carries the
    weight dp / (2 pi eta) exp(i p_min d dx / eta) of lag d.

    A real row has c_-j = conj c_j, so with G+ and G- the real quotients at
    +j and -j its sum is ramp_d sum_{j >= 0} Re(c_j e^(i theta_j)) total_j
    + i Im(c_j e^(i theta_j)) diff_j, total = G+ + G- (the j = 0 row halved,
    that term counted once) and diff = G+ - G-.  The plan is the
    (2, N_p/2 + 1, N) float64 array of total and diff, the N_p/2 + 1 turns
    and the N-entry ramp, built ``_ROW_CHUNK`` values of j at a time.
    """
    m = factor * n_p
    c = n_p * dp * dx / (2.0 * eta_use)
    d = np.arange(n)
    lag = c * d
    ramp = np.multiply(
        dp / factor / (2.0 * np.pi * eta_use),
        np.exp(1j * (p_min * d * dx / eta_use + (m - 1) / m * lag)),
        out=plan_buffer(n, complex),
    )
    rows = n_p // 2 + 1
    factors = plan_buffer((2, rows, n))
    for start in range(0, rows, _ROW_CHUNK):
        j = np.arange(start, min(start + _ROW_CHUNK, rows))
        plus, minus = (_dirichlet_ratio(np.add.outer(s * np.pi * j, lag), m) for s in (1, -1))
        block = slice(start, start + _ROW_CHUNK)
        np.add(plus, minus, out=factors[0, block])
        np.subtract(plus, minus, out=factors[1, block])
    factors[0, 0] *= 0.5
    turns = np.exp(1j * (m - 1) * np.pi / m * np.arange(rows), out=plan_buffer(rows, complex))
    return factors, turns, ramp


def _dirichlet_ratio(u: np.ndarray, m: int) -> np.ndarray:
    """sin(u) / sin(u / M) from the one argument u, M where sin(u / M) = 0."""
    ratio = np.sin(u)
    u /= m
    den = np.sin(u, out=u)
    zero = den == 0.0
    den[zero] = 1.0
    ratio[zero] = m
    ratio /= den
    return ratio


def _mirror_lower(kernel: np.ndarray):
    """Make a square kernel Hermitian in place from its lower triangle: the
    strict upper triangle becomes the conjugate transpose of the strict lower
    one, tile by tile, and the diagonal's imaginary part zero."""
    n = kernel.shape[0]
    tile = _MIRROR_TILE
    for s in range(0, n, tile):
        rows = slice(s, s + tile)
        for t in range(s + tile, n, tile):
            np.conjugate(kernel[t : t + tile, rows].T, out=kernel[rows, t : t + tile])
        block = kernel[rows, rows]
        upper = np.triu(np.ones(block.shape, dtype=bool), 1)
        np.copyto(block, block.conj().T, where=upper)
    np.fill_diagonal(kernel.imag, 0.0)


def correlation_symbol(source, grid, eta: float, kind: str = "symbol") -> PhaseSpaceFunction:
    """The phase-space function of the given ``kind`` of the kernel
    ``source``, or of a pair (U, V) of N x r factors of the kernel U V^H,
    read off its half-step correlation: its Weyl symbol for "symbol", the
    symbol over 2 pi eta for "generic" (a cross-Wigner transform) and for
    "wigner", the real symbol over 2 pi eta of a Hermitian operator as a
    :class:`grid.WignerResult`.

    The symbol is dx sum_s C[j, s] exp(-i p_l s dx / eta) over the 2N lags
    s = -N .. N - 1.  On the centred dual grid p_l = (l - N/2) dp of an even
    N, lags t dx and (t - N) dx share the phase (-1)^t exp(-2 pi i l t / N):
    the folded lag C(t) + C(t - N) is multiplied by (-1)^t scale dx in place
    and one FFT sums the N folded lags.  A kernel and factors of rank
    r > 1 fold into the N x N table of :func:`_folded_correlation`, which
    the FFT overwrites; factors of rank one, a pair of states, build their
    folded lags directly as products of strided views of the same half-step
    samples (:func:`_rank_one_lags`) and transform them in place.  The
    factor rank alone picks the route.  A Wigner operator is Hermitian,
    C(x, -y) = conj C(x, y), so its folded lags are a Hermitian sequence
    and its symbol is real: factors fold lags 0 .. N/2 only, conjugate them
    in place and take one ``irfft``, the ``hfft`` of the lags without its
    conjugate copy; a kernel, Hermitian only to round-off, keeps the real
    part of the full FFT.  Either way the values are float64.
    """
    n = grid.n
    require_correlation_memory(n)
    p_grid = dual_grid(grid, eta)
    factors = isinstance(source, tuple)
    hermitian = kind == "wigner"
    width = n // 2 + 1 if hermitian and factors else n
    scale = 1.0 if kind == "symbol" else 1.0 / (2.0 * np.pi * eta)
    with refuse_overflow(f"a phase-space function ({kind}) at eta = {eta:g}"):
        if factors and source[0].shape[1] == 1:
            lags = _rank_one_lags(source, grid, width)
        else:
            lags = _folded_correlation(source, grid, width)[:, :width]
        sign = np.full(width, scale * grid.dx)
        sign[1::2] *= -1.0
        lags *= sign
        if width < n:
            # hfft without its conjugate copy
            values = np.fft.irfft(np.conjugate(lags, out=lags), n, axis=1, norm="forward")
        elif hermitian:
            values = np.ascontiguousarray(np.fft.fft(lags, axis=1, out=lags).real)
        else:
            values = np.fft.fft(lags, axis=1, out=lags)
    function = WignerResult if hermitian else PhaseSpaceFunction
    return function(grid, p_grid, values, eta, kind=kind)


def density_wigner(rho: DensityMatrix) -> WignerResult:
    """The Wigner function of a density matrix, its real Weyl symbol over
    2 pi eta, from the factors :func:`states.mix` kept, else from its kernel."""
    source = rho.kernel if rho.factors is None else rho.factors
    return correlation_symbol(source, rho.grid, rho.eta, "wigner")


def weyl_symbol(op: OperatorMatrix) -> PhaseSpaceFunction:
    """Weyl symbol of an operator kernel (inverse of :func:`weyl_quantize`)."""
    return correlation_symbol(op.kernel, op.grid, op.eta)


def ambiguity(psi: GridFunction) -> PhaseSpaceFunction:
    """Ambiguity (auto-correlation) function of a state,

        Amb psi(x, p) = (2 pi eta)^-1 Int exp(-i p y/eta) psi(y + x/2) psi*(y - x/2) dy.

    Its x axis is the lag: the half-step correlation of |psi><psi| at the
    lags (j - N/2) dx, j = 0 .. N - 1, is built lag by lag as one product
    of two strided views of the state's half-step samples
    (:func:`_half_steps`), with no N x 2N table and no transpose, and its
    midpoints, which run over the state's grid, are summed against
    exp(-i p y / eta).  The operator |psi><psi| is Hermitian, so
    Amb(-z) = conj Amb(z): the product writes the lags -N/2 .. 0 into the
    rows 0 .. N/2 of the output, and :func:`transforms.conjugate_symmetric_pass`
    sums them in place and mirrors the lags s > 0.
    """
    grid, eta = psi.grid, psi.eta
    n = grid.n
    require_correlation_memory(n)
    p_grid = dual_grid(grid, eta)
    f, g = _half_steps((psi.values[:, None],) * 2, grid)
    half = n // 2
    scale = grid.dx / (2.0 * np.pi * eta)
    values = np.empty((n, n), dtype=complex)
    with refuse_overflow(f"a phase-space function (ambiguity) at eta = {eta:g}"):
        # row i, lag s = i - N/2, column h: f[N + 2h + s] g[N + 2h - s]
        shape = (half + 1, n)
        left, right = _strided(f, half, shape, (1, 2)), _strided(g, n + half, shape, (-1, 2))
        np.multiply(left, right, out=values[: half + 1])
        conjugate_symmetric_pass(values, grid, p_grid, eta, -1, scale)
    return PhaseSpaceFunction(dual_grid(p_grid, eta), p_grid, values, eta, kind="ambiguity")


def twisted_product(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """Symbol c with Op(c) = Op(a) Op(b), via quantize -> compose -> dequantize."""
    a.require_compatible(b)
    product = weyl_quantize(a).compose(weyl_quantize(b))
    return weyl_symbol(product)


def expectation(a: PhaseSpaceFunction, rho: DensityMatrix) -> float:
    """<A> = Int a(z) rho_W(z) dz of a real symbol ``a`` on the lattice and
    eta of rho_W, summed in the peak units of a and rho_W
    (:func:`grid.peak_pairing`), cross-checked against Tr(rho A) by callers."""
    rho_w = density_wigner(rho)
    a.require_compatible(rho_w)
    what = f"an expectation at eta = {a.eta:g}"
    return float(peak_pairing(a.real_values(), rho_w.values, a.area_element, what))


def trace_from_symbol(a: PhaseSpaceFunction) -> dict:
    """Trace and squared Hilbert-Schmidt norm read off the symbol, the norm
    summed in the peak unit of the symbol (:func:`grid.peak_pairing`)."""
    weight = a.area_element / (2.0 * np.pi * a.eta)
    what = f"a squared Hilbert-Schmidt norm at eta = {a.eta:g}"
    return {
        "trace": complex(np.sum(a.values) * weight),
        "hs_norm_squared": float(peak_pairing(a.values, a.values, weight, what).real),
        "leak": a.leak,
    }
