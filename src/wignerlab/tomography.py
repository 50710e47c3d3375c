"""Radon transform of phase-space distributions and its inversion.

A tomogram is the line integral of W along {x cos t + p sin t = X}.  The
forward transform uses the projection-slice theorem: the 1-D Fourier
transform of a projection is the 2-D Fourier transform of W along the ray
direction, which a chirp-z transform evaluates exactly on the anisotropic
(x, p) grid without any resampling, over the block of W above
SUPPORT_RTOL only.  Inversion is filtered backprojection with a ramp filter
and a raised-cosine rolloff, over the points the tomograms' support allows.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NormalizationError, ParameterError, require_memory
from .grid import Grid, GridFunction, PhaseSpaceFunction, dual_grid
from .states import DensityMatrix, OperatorMatrix, validate_density
from .transforms import chirp_z, oscillatory_sum
from .weyl import weyl_quantize

__all__ = [
    "TomogramSet",
    "radon",
    "inverse_radon",
    "reconstruct_density",
    "pauli_pair",
]

#: tomogram samples at or below this fraction of max |R| count as empty
SUPPORT_RTOL = 1e-12


@dataclass
class TomogramSet:
    """Marginal profiles R(X, theta), one row per angle."""

    angles: np.ndarray
    grid: Grid  # X grid shared by all angles
    values: np.ndarray  # (n_angles, N), real
    eta: float

    def __post_init__(self):
        self.angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.angles), self.grid.n):
            raise ParameterError("tomogram array shape does not match angles/grid")
        if not (np.all(np.isfinite(self.angles)) and np.all(np.isfinite(self.values))):
            raise ParameterError("tomograms contain non-finite angles or samples")

    def masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dx


def _support_box(values: np.ndarray, dx: float, dp: float) -> tuple[slice, slice]:
    """The rows and columns of W that can carry projection mass.

    The bounding box of the samples above SUPPORT_RTOL max |W|, widened on
    each side by the coarser grid step max(dx, dp) and clipped to the grid;
    a line that misses the box crosses only samples below the threshold
    (support theorem).  A ray at theta near 0 or pi/2 sums a whole dropped
    row or column, so the margin is a physical distance over which W decays,
    not one cell of the finer axis.  An all-zero W keeps the whole grid.
    """
    above = np.abs(values) > SUPPORT_RTOL * np.max(np.abs(values))
    step = max(dx, dp)
    box = []
    for hits, d in ((above.any(axis=1), dx), (above.any(axis=0), dp)):
        n, margin = hits.size, max(1, round(step / d))
        lo = max(int(np.argmax(hits)) - margin, 0)
        hi = min(n - int(np.argmax(hits[::-1])) + margin, n)
        box.append(slice(lo, hi))
    return box[0], box[1]


def _projection_spectra(values, x, p, k, angles, dx, dp):
    """FT of each theta-projection: W-hat(k cos t, k sin t) on the k grid.

    ``values`` is an n_x x n_p block of W on the points ``x`` and ``p``
    (the support box of :func:`radon`); ``k`` is the full k grid of n_k
    points.  The p-axis chirp-z depends on sin t alone, so angles whose
    sines agree to 1e-15 (t and pi - t) share one stage, run at the first
    one's sine.  The sampled transform aliases outside |k sin t| <= pi/dp,
    so each stage evaluates only that contiguous k band and the rest of the
    row stays zero; |k cos t| <= pi/dx holds on the whole k grid dual to
    the x grid.
    """
    n_x, n_k = len(x), len(k)
    dk = k[1] - k[0]
    i = np.arange(n_x)
    i_sq, m_sq = i * i, np.arange(n_k) ** 2
    lags = np.arange(1 - n_k, n_x)
    spectra = np.zeros((len(angles), n_k), dtype=complex)
    sines = np.sin(angles)
    order = np.argsort(sines, kind="stable")
    breaks = np.flatnonzero(np.diff(sines[order]) > 1e-15) + 1
    for group in np.split(order, breaks):
        s = sines[group[0]]
        band = np.flatnonzero(np.abs(k * s) <= np.pi / dp + 1e-9)
        m0, m1 = int(band[0]), int(band[-1]) + 1
        kb = k[m0:m1]
        # chirp-z along the p axis: stage[i, m] = sum_j W[i, j] exp(-i k_m p_j s)
        stage = chirp_z(values, m1 - m0, -dk * dp * s, -kb[0] * dp * s)
        stage *= np.exp(-1j * kb * p[0] * s)
        for row in group:
            # the x phase exp(-i c x_i k_m) couples i and m; i m = (i^2 + m^2 -
            # (i - m)^2)/2 splits it into two 1-D chirps and the n_x x n_k
            # Toeplitz chirp T[i, m] = t[i - m + n_k - 1]
            c = np.cos(angles[row])
            a = c * dx * dk
            toeplitz = sliding_window_view(np.exp(0.5j * a * (lags * lags)), n_x)[::-1].T
            rows = np.exp(-1j * (c * dx * k[0] * i + 0.5 * a * i_sq))
            cols = np.exp(-1j * (c * x[0] * kb + 0.5 * a * m_sq[m0:m1]))
            summed = np.einsum("im,im->m", stage * rows[:, None], toeplitz[:, m0:m1])
            spectra[row, m0:m1] = cols * summed * dx * dp
    return spectra


def require_radon_memory(n_angles: int, n: int):
    """Refuse, via :func:`errors.require_memory`, a :func:`radon` call over budget.

    Its working set is the real W (8 N^2 bytes), the ray spectra and the
    pre-phased copy the final sum transforms in place (2 x 16 bytes per
    angle and sample) and one p-axis chirp-z stage: its zero-padded buffer
    of under 4/3 of 2N samples per row, the N x N stage and the phased copy
    of it each angle sums, under 80 N^2 bytes, which the 128 N^2 counted
    bound with room.  The stage is counted for an uncropped W, so the count
    bounds every support box.
    """
    require_memory(
        136 * n * n + 32 * n_angles * n,
        f"ray spectra for {n_angles} angles at N = {n}",
    )


def radon(W, angles) -> TomogramSet:
    """Forward Radon transform of a real, unit-mass phase-space function.

    The X grid of the tomograms is the x grid of W; theta = 0 reproduces the
    position marginal and theta = pi/2 the momentum marginal.  Only the
    support box of W enters the transforms: the rows and columns holding a
    sample above SUPPORT_RTOL max |W| (the threshold :func:`inverse_radon`
    applies to the tomograms), widened by the coarser grid step.  A W that
    fills the grid keeps it whole, and the mass drift check compares the
    tomograms with the mass of the whole W.  The ray spectra of all angles
    sit on one k grid, dual to the X grid, so a single FFT finishes every
    profile.  The p-axis chirp-z of a ray spectrum depends on sin theta
    alone, so theta and pi - theta share one stage, and each stage evaluates
    only the k band |k sin theta| <= pi/dp, outside which the sampled
    transform aliases and the spectrum is zero.  A working set above the
    memory budget (:func:`require_radon_memory`) is refused before anything
    is allocated.
    """
    if hasattr(W, "W"):
        W = W.W
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0 or angles.ndim != 1:
        raise ParameterError(f"angles must be a non-empty 1-D list, got shape {angles.shape}")
    x_grid = W.x_grid
    require_radon_memory(angles.size, max(x_grid.n, W.p_grid.n))
    if not np.all(np.isfinite(angles)):
        raise ParameterError("angles must be finite")
    values = W.real_values(rtol=1e-6)
    # the drift check below compares against the mass of the whole W, so it
    # sees any mass the support box leaves out
    mass = float(values.sum() * W.area_element)
    rows, cols = _support_box(values, W.dx, W.dp)
    k_grid = dual_grid(x_grid, 1.0)
    x, p = x_grid.points[rows], W.p_grid.points[cols]
    # the spectra go in as a temporary, freed once the final FFT has phased them
    profiles = oscillatory_sum(
        _projection_spectra(values[rows, cols], x, p, k_grid.points, angles, W.dx, W.dp),
        k_grid, x_grid, 1.0, 1, scale=k_grid.dx / (2.0 * np.pi),
    )
    tomo = TomogramSet(angles, x_grid, profiles.real, W.eta)
    worst = float(np.max(np.abs(tomo.masses() - mass)))
    if worst > 1e-5 * max(1.0, abs(mass)):
        warnings.warn(f"tomogram mass drift {worst:.2e} exceeds 1e-5")
    return tomo


def _raised_cosine(k: np.ndarray, cut: float, kmax: float) -> np.ndarray:
    window = np.ones_like(k)
    high = k > cut
    window[high] = 0.5 * (1.0 + np.cos(np.pi * (k[high] - cut) / (kmax - cut)))
    window[k > kmax] = 0.0
    return window


def _cubic_cells(samples: np.ndarray):
    """Per-cell coefficients (c3, c2, c1, c0) of the four-point Lagrange cubic.

    Cell i runs from samples[i + 1] to samples[i + 2]; the cubic through
    samples[i .. i + 3] reads ((c3 f + c2) f + c1) f + c0 at offset f in
    [0, 1) of the cell.  There are len(samples) - 3 cells.
    """
    before, at, after, second = samples[:-3], samples[1:-2], samples[2:-1], samples[3:]
    c1 = after - before / 3.0 - at / 2.0 - second / 6.0
    c2 = (before + after) / 2.0 - at
    c3 = (second - before) / 6.0 + (at - after) / 2.0
    return c3, c2, c1, at


def inverse_radon(tomo: TomogramSet) -> PhaseSpaceFunction:
    """Filtered backprojection onto the (x, p) grid of the source.

    Each tomogram is ramp-filtered (raised-cosine rolloff above 70% of the
    sampling band) on a 4x zero-padded window, evaluated 4x finer by one
    inverse real FFT, and backprojected onto the p grid dual to its X grid
    by a four-point Lagrange cubic read of that refined profile
    (:func:`_cubic_cells`), whose error falls like h^4 where a linear read's
    falls like h^2.  Only points the data allows to carry mass are
    backprojected (support theorem): at every angle, the projection
    x cos t + p sin t must lie within one cell of the outer extent of that
    tomogram's samples above SUPPORT_RTOL max |R|.  The other points are
    zero, which keeps the filter's streaks off the empty part of phase
    space.  Fewer than 64 angles triggers a conditioning warning.
    """
    n_angles = len(tomo.angles)
    if n_angles < 64:
        warnings.warn(
            f"{n_angles} angles is below the 64 needed for a faithful inversion; "
            "expect smearing on the order of 1/angles"
        )
    grid = tomo.grid
    n = grid.n
    dx = grid.dx
    p_grid = dual_grid(grid, tomo.eta)
    pad = 4 * n
    offset = (pad - n) // 2
    k_fft = 2.0 * np.pi * np.fft.fftfreq(pad, d=dx)
    band = np.pi / dx  # Nyquist band of the tomogram sampling
    # discrete band-limited ramp (spatial-domain construction keeps the DC
    # response exact, where a plain |k| with a zeroed DC bin loses mass)
    m = np.fft.fftfreq(pad, d=1.0 / pad).astype(int)
    h = np.zeros(pad)
    h[0] = 1.0 / (4.0 * dx**2)
    odd = m % 2 != 0
    h[odd] = -1.0 / (np.pi**2 * m[odd].astype(float) ** 2 * dx**2)
    ramp = 2.0 * np.pi * np.fft.fft(h).real * dx
    ramp *= _raised_cosine(np.abs(k_fft), 0.7 * band, band)
    refine_by = 4
    # a point at x reads the refined profile at cell (x - start) / step
    start, step = grid.x_min - offset * dx, dx / refine_by
    xx, pp = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    xs, ps = xx.ravel(), pp.ravel()
    # support theorem: at every angle the projection must lie within the outer
    # extent [X_lo, X_hi] of the samples above threshold, widened by one cell
    # for the interpolation; gaps inside that extent may still hide signed mass
    above = np.abs(tomo.values) > SUPPORT_RTOL * np.max(np.abs(tomo.values))
    lo = grid.points[np.argmax(above, axis=1)] - dx
    hi = grid.points[n - 1 - np.argmax(above[:, ::-1], axis=1)] + dx
    inside = np.arange(xs.size)
    for row, theta in enumerate(tomo.angles):
        coords = xs[inside] * np.cos(theta) + ps[inside] * np.sin(theta)
        inside = inside[(coords >= lo[row]) & (coords <= hi[row])]
    xs, ps = xs[inside] / step, ps[inside] / step
    summed = np.zeros(inside.size)
    for row, theta in enumerate(tomo.angles):
        profile = np.zeros(pad)
        profile[offset : offset + n] = tomo.values[row]
        # the raised cosine zeroes the ramp at the Nyquist bin, so the filtered
        # spectrum zero-pads onto the finer grid without a Nyquist split
        spectrum = np.fft.rfft(profile) * ramp[: pad // 2 + 1]
        fine = refine_by * np.fft.irfft(spectrum, refine_by * pad)
        # the mask keeps the points of this angle in [lo, hi], far inside the
        # padded window: only those cells, with one to spare on each side for
        # round-off, get coefficients
        first = int((lo[row] - start) / step) - 1
        last = int((hi[row] - start) / step) + 1
        c3, c2, c1, c0 = _cubic_cells(fine[first - 1 : last + 3])
        cells = xs * np.cos(theta) + ps * np.sin(theta)
        cells -= start / step + first
        cell = cells.astype(np.intp)
        cells -= cell  # the offset f in [0, 1) within each cell
        read = c3[cell]
        for coefficient in (c2, c1, c0):
            read *= cells
            read += coefficient[cell]
        summed += read
    out = np.zeros((n, p_grid.n))
    out.flat[inside] = summed * np.pi / n_angles / (2.0 * np.pi)
    return PhaseSpaceFunction(grid, p_grid, out, tomo.eta, kind="wigner")


def reconstruct_density(tomo: TomogramSet, eta: float):
    """Density matrix from tomograms: invert the Radon data, then quantize.

    Returns (DensityMatrix or None, report dict); the report keeps the
    backprojected Wigner function as "reconstruction".  The trace is set to
    one (factor recorded); PSD violations are reported, never repaired.
    """
    masses = tomo.masses()
    if float(np.max(np.abs(masses - 1.0))) > 1e-3:
        raise NormalizationError(
            f"tomograms are not normalized (masses {masses.min():.4f}..{masses.max():.4f})"
        )
    rho_w = inverse_radon(tomo)
    symbol = PhaseSpaceFunction(
        rho_w.x_grid, rho_w.p_grid, 2.0 * np.pi * eta * rho_w.values, eta, kind="symbol"
    )
    op = weyl_quantize(symbol)
    trace = op.trace().real
    if trace <= 0.0:
        raise NormalizationError(f"reconstructed trace {trace} is not positive")
    op = OperatorMatrix(op.grid, op.kernel / trace, eta)
    # FBP ringing leaves small negative eigenvalues; allow up to 1e-4
    report = validate_density(op, psd_floor=1e-4)
    info = {
        "renormalization": float(trace),
        "min_eigenvalue": report.min_eigenvalue,
        "violations": list(report.violations),
        "reconstruction": rho_w,
    }
    density = DensityMatrix(op, report) if report.ok else None
    return density, info


def pauli_pair(alpha: complex, grid: Grid, eta: float):
    """The classic pair with equal position and momentum distributions.

    psi1 ~ exp(-alpha x^2) and psi2 ~ exp(-conj(alpha) x^2) share all
    quadrature marginals yet overlap with |<psi1|psi2>|^2 = Re(alpha)/|alpha|.
    """
    alpha = complex(alpha)
    if alpha.real <= 0.0:
        raise ParameterError("Re(alpha) must be positive")
    if alpha.imag == 0.0:
        raise ParameterError("Im(alpha) = 0 makes the two states identical")
    x = grid.points
    raw1 = np.exp(-alpha * x**2)
    raw2 = np.exp(-alpha.conjugate() * x**2)
    psi1 = GridFunction(grid, raw1, eta).normalized()
    psi2 = GridFunction(grid, raw2, eta).normalized()
    return psi1, psi2
