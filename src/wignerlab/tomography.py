"""Radon transform of phase-space distributions and its inversion.

A tomogram is the line integral of W along {x cos t + p sin t = X}.  The
forward transform uses the projection-slice theorem: the 1-D Fourier
transform of a projection is the 2-D Fourier transform of W along the ray
direction, which a chirp-z transform evaluates exactly on the anisotropic
(x, p) grid without any resampling, over the block of W above
SUPPORT_RTOL only.  W is real, so each ray spectrum is Hermitian: only its
k >= 0 half is computed, and one real inverse FFT turns it into the
profile.  Inversion is filtered backprojection with a ramp filter and a
raised-cosine rolloff, over the points the tomograms' support allows.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NormalizationError, ParameterError, refuse_overflow, require_memory
from .grid import Grid, GridFunction, PhaseSpaceFunction, dual_grid, support_box
from .states import DensityMatrix
from .transforms import chirp_z
from .wigner import quantized_density

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

    The box of :func:`grid.support_box` at SUPPORT_RTOL, widened on each
    side by the coarser grid step max(dx, dp) and clipped to the grid; a
    line that misses the box crosses only samples below the threshold
    (support theorem).  A ray at theta near 0 or pi/2 sums a whole dropped
    row or column, so the margin is a physical distance over which W decays,
    not one cell of the finer axis.  An all-zero W keeps the whole grid.
    """
    # a margin is at most its axis, so a step ratio beyond the float range rounds
    margins = [max(1, round(min(max(dx, dp) / d, n))) for d, n in zip((dx, dp), values.shape)]
    box = zip(support_box(values, SUPPORT_RTOL), margins, values.shape)
    return tuple(slice(max(k.start - m, 0), min(k.stop + m, n)) for k, m, n in box)


def _projection_spectra(values, x, p, k, angles, dx, dp):
    """Half of the FT of each theta-projection: W-hat(k cos t, k sin t) at
    the points ``k`` = 0, dk, .. of the k >= 0 half of the k grid.

    ``values`` is an n_x x n_p block of W on the points ``x`` and ``p``
    (the support box of :func:`radon`).  W is real, so the spectra at -k
    are the conjugates of these.  The p-axis chirp-z depends on sin t
    alone, so angles whose sines agree to 1e-15 (t and pi - t) share one
    stage, run at the first one's sine.  The sampled transform aliases
    outside |k sin t| <= pi/dp, so each stage evaluates only that band, the
    first m points, and the rest of the row stays zero; |k cos t| <= pi/dx
    holds on the whole k grid dual to the x grid.  Every chirp is indexed
    from k = 0, where its integer squares, and so its phase error, are
    smallest.
    """
    n_x = len(x)
    dk = k[1]
    i_sq = np.arange(n_x) ** 2
    spectra = np.zeros((len(angles), len(k)), dtype=complex)
    sines = np.sin(angles)
    order = np.argsort(sines, kind="stable")
    # each group is a run of the sort order, sliced when its turn comes: a
    # list of all the groups stayed resident in the heap with thousands of angles
    starts = np.flatnonzero(np.diff(sines[order], prepend=-2.0) > 1e-15)
    for start, stop in zip(starts, np.append(starts[1:], order.size)):
        group = order[start:stop]
        s = sines[group[0]]
        m = int(np.count_nonzero(np.abs(k * s) <= np.pi / dp * (1 + 1e-9)))
        kb, q_sq = k[:m], np.arange(m) ** 2
        lags = np.arange(1 - m, n_x)
        # chirp-z along the p axis: stage[i, q] = sum_j W[i, j] exp(-i k_q p_j s)
        stage = chirp_z(values, m, -dk * dp * s, 0.0)
        stage *= np.exp(-1j * kb * p[0] * s)
        for row in group:
            # the x phase exp(-i c x_i k_q) couples i and q; i q = (i^2 + q^2 -
            # (i - q)^2)/2 splits it into two 1-D chirps and the n_x x m
            # Toeplitz chirp T[i, q] = t[i - q + m - 1]
            c = np.cos(angles[row])
            a = c * dx * dk
            toeplitz = sliding_window_view(np.exp(0.5j * a * (lags * lags)), n_x)[::-1].T
            rows = np.exp(-0.5j * a * i_sq)
            cols = np.exp(-1j * (c * x[0] * kb + 0.5 * a * q_sq))
            summed = np.einsum("im,i,im->m", stage, rows, toeplitz)
            spectra[row, :m] = cols * summed * dx * dp
    return spectra


def require_radon_memory(n_angles: int, n: int):
    """Refuse, via :func:`errors.require_memory`, a :func:`radon` call over budget.

    Its working set is the real W (8 N^2 bytes); one p-axis chirp-z stage
    of the k >= 0 half (:func:`_projection_spectra`): its zero-padded
    buffer of under 4/3 of n + N/2 samples per row, under 32 N^2 bytes,
    and the N x (N/2 + 1) stage it returns, which each angle sums without
    a copy, under 48 N^2 bytes with W, counted as 64 N^2 for the heap the
    stages leave resident; and per angle the (angles, N/2 + 1) half
    spectra, the real profiles the inverse FFT writes and the sort of the
    sines, 16 (N + 4) bytes.  The stage is counted for an uncropped W, so
    the count bounds every support box.
    """
    require_memory(
        64 * n * n + 16 * n_angles * (n + 4),
        f"ray spectra for {n_angles} angles at N = {n}",
    )


def radon(W, angles) -> TomogramSet:
    """Forward Radon transform of a real, unit-mass phase-space function.

    The X grid of the tomograms is the x grid of W; theta = 0 reproduces the
    position marginal and theta = pi/2 the momentum marginal.  Only the
    support box of W enters the transforms: the rows and columns holding a
    sample above SUPPORT_RTOL max |W| (:func:`grid.support_box` at the
    threshold :func:`inverse_radon` applies to the tomograms), widened by
    the coarser grid step (:func:`_support_box`).  A W that
    fills the grid keeps it whole, and the mass drift check compares the
    tomograms with the mass of the whole W.  The ray spectra of all angles
    sit on one k grid, dual to the X grid, and each is Hermitian,
    R-hat(-k) = conj R-hat(k): only the points k = 0 .. +K/2 are computed
    (:func:`_projection_spectra`), N/2 + 1 per angle, and one ``irfft``
    finishes every real profile from them.  The p-axis chirp-z of a ray
    spectrum depends on sin theta alone, so theta and pi - theta share one
    stage, and each stage evaluates only the k band |k sin theta| <= pi/dp,
    outside which the sampled transform aliases and the spectrum is zero.
    A working set above the memory budget (:func:`require_radon_memory`) is
    refused before anything is allocated.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0 or angles.ndim != 1:
        raise ParameterError(f"angles must be a non-empty 1-D list, got shape {angles.shape}")
    x_grid = W.x_grid
    require_radon_memory(angles.size, max(x_grid.n, W.p_grid.n))
    if not np.all(np.isfinite(angles)):
        raise ParameterError("angles must be finite")
    values = W.real_values()
    # the drift check below compares against the mass of the whole W, so it
    # sees any mass the support box leaves out
    mass = float(values.sum() * W.area_element)
    rows, cols = _support_box(values, W.dx, W.dp)
    n, dk = x_grid.n, dual_grid(x_grid, 1.0).dx
    k = dk * np.arange(n // 2 + 1)
    x, p = x_grid.points[rows], W.p_grid.points[cols]
    # on a box so short that dk dp overflows, the chirp steps are not floats
    with refuse_overflow(f"the ray spectra of W at dx = {W.dx:g}, dp = {W.dp:g}"):
        half = _projection_spectra(values[rows, cols], x, p, k, angles, W.dx, W.dp)
        # at X_j = x_min + j dx the phase exp(i k_q X_j) is exp(i q dk x_min) times
        # the inverse DFT's exp(2 pi i q j / N); the conjugate half at -k is
        # implied, and the lone q = -N/2 term, the conjugate of the +K/2 column,
        # adds only that column's real part, as irfft reads it
        half *= np.exp(1j * x_grid.x_min * k) * (dk / (2.0 * np.pi))
    profiles = np.fft.irfft(half, n, norm="forward")
    del half  # freed before the tomograms are checked
    tomo = TomogramSet(angles, x_grid, profiles, W.eta)
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
    space.  The intersection over the angles runs on the box of rows and
    columns that the strips nearest theta = 0 and pi/2 can keep
    (:func:`_reach`), not on the whole grid.  Fewer than 64 angles triggers
    a conditioning warning.
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
    # support theorem: at every angle the projection must lie within the outer
    # extent [X_lo, X_hi] of the samples above threshold, widened by one cell
    # for the interpolation; gaps inside that extent may still hide signed mass
    above = np.abs(tomo.values) > SUPPORT_RTOL * np.max(np.abs(tomo.values))
    lo = grid.points[np.argmax(above, axis=1)] - dx
    hi = grid.points[n - 1 - np.argmax(above[:, ::-1], axis=1)] + dx
    # the intersection does not depend on the order of the strips; the ones
    # nearest theta = pi/2 and 0 go first, since they cut the most points,
    # and it starts from the box of the columns and rows they can keep
    angles = tomo.angles
    first = (np.argmin(np.abs(np.cos(angles))), np.argmin(np.abs(np.sin(angles))))
    x, p = grid.points, p_grid.points
    near_p, near_x = first  # their strips bound the columns and the rows
    box = (
        _reach(x * np.cos(angles[near_x]), p * np.sin(angles[near_x]), lo[near_x], hi[near_x]),
        _reach(p * np.sin(angles[near_p]), x * np.cos(angles[near_p]), lo[near_p], hi[near_p]),
    )
    xx, pp = np.meshgrid(x[box[0]], p[box[1]], indexing="ij")
    xs, ps = xx.ravel(), pp.ravel()
    inside = np.arange(xs.size)
    for row in dict.fromkeys([*map(int, first), *range(n_angles)]):
        theta = angles[row]
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
    out[box].flat[inside] = summed * np.pi / n_angles / (2.0 * np.pi)
    return PhaseSpaceFunction(grid, p_grid, out, tomo.eta, kind="wigner")


def _reach(own: np.ndarray, other: np.ndarray, lo: float, hi: float) -> slice:
    """The samples i of one axis whose projection own[i] + other[j] onto a
    strip's axis lies in [lo, hi] for some sample j of the other axis, as
    one slice widened by a cell on each side.

    Rounding is monotone, so own[i] + other[j] lies between own[i] plus the
    least and the greatest of ``other``: a sample the strip keeps at some j
    passes both tests, and the slice holds every sample the strip can keep.
    """
    reach = np.flatnonzero((own + other.max() >= lo) & (own + other.min() <= hi))
    if reach.size == 0:
        return slice(0, 0)
    return slice(max(reach[0] - 1, 0), reach[-1] + 2)


def reconstruct_density(tomo: TomogramSet, eta: float):
    """Density matrix from tomograms: invert the Radon data, then quantize.

    Returns (DensityMatrix or None, report dict); the report keeps the
    backprojected Wigner function as "reconstruction", quantized at ``eta``
    by :func:`wigner.quantized_density`: the trace is set to one (factor
    recorded); PSD violations are reported, never repaired.
    """
    masses = tomo.masses()
    if float(np.max(np.abs(masses - 1.0))) > 1e-3:
        raise NormalizationError(
            f"tomograms are not normalized (masses {masses.min():.4f}..{masses.max():.4f})"
        )
    rho_w = inverse_radon(tomo)
    # FBP ringing leaves small negative eigenvalues; allow up to 1e-4
    op, report, trace = quantized_density(rho_w, eta, 1e-4)
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
