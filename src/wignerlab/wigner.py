"""Wigner and cross-Wigner transforms with their identities.

    W(psi, phi)(x, p) = (2 pi eta)^-1 Int exp(-i p y/eta)
                        psi(x + y/2) phi*(x - y/2) dy

Every one of them is a Weyl symbol over 2 pi eta: W(psi, phi) is the
symbol of the rank-one operator |psi><phi|, and the Wigner function of a
state that of its density operator.  The rank-one maps and the Wigner
function of a mixture hand the symbol the factors of their operator,
(psi, phi), or (psi, psi) and the mixture's root (U, U) with the one array
twice, so no N x N kernel is read: a mixture's factors fold into one
N x N lag table, and a rank-one pair builds no table at all.  A density
matrix without factors (a tomographic reconstruction) is read through its
kernel.  Samples outside the grid are taken as zero.
:func:`quantized_density` goes back, from W to the validated density
2 pi eta Op_eta(W) / Tr at any eta.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, ParameterError
from .grid import GridFunction, PhaseSpaceFunction, WignerResult, peak_pairing
from .states import DensityMatrix, MixedStateSpec, mix, validate_density
from .transforms import fourier_shift
from .weyl import (
    correlation_symbol, density_wigner, reflect, require_correlation_memory, weyl_quantize
)

__all__ = [
    "wigner",
    "cross_wigner",
    "marginals",
    "moyal_overlap",
    "reflection_wigner_check",
]


def quantized_density(W: PhaseSpaceFunction, eta: float, psd_floor: float):
    """(rho, report, Tr): rho = 2 pi eta Op_eta(W) / Tr, Tr = Int W to round-off
    and refused unless positive, and the :func:`states.validate_density`
    report of rho at ``psd_floor``.  The inverse of :func:`wigner`: W keeps
    its own eta label, at which its p grid is dual, so the quantizer
    oversamples p by how far ``eta`` lies below it.
    """
    op = weyl_quantize(W, eta=eta)
    trace = 2.0 * np.pi * op.eta * op.trace().real
    if trace <= 0.0:
        raise NormalizationError(f"trace {trace} of 2 pi eta Op_eta(W) is not positive")
    op.kernel *= 2.0 * np.pi * op.eta / trace
    return op, validate_density(op, psd_floor=psd_floor), trace


def cross_wigner(psi: GridFunction, phi: GridFunction) -> PhaseSpaceFunction:
    """Cross-Wigner transform W(psi, phi); complex-valued in general.

    W(psi, phi) is the Weyl symbol over 2 pi eta of the rank-one operator
    |psi><phi|, whose kernel psi(x) phi*(y) has the factors (psi, phi).
    W(psi, psi) is the Wigner function of psi: its operator is Hermitian,
    and it is a :class:`grid.WignerResult` of float64 values.
    """
    psi.require_compatible(phi)
    same = psi is phi
    # one column twice for W(psi, psi), whose half-step samples are taken once
    factors = (psi.values[:, None],) * 2 if same else (psi.values[:, None], phi.values[:, None])
    return correlation_symbol(factors, psi.grid, psi.eta, "wigner" if same else "generic")


def wigner(source) -> WignerResult:
    """Wigner distribution of a pure state, a mixture spec, or a density matrix.

    Each is the Weyl symbol over 2 pi eta of its density operator, real
    (float64) since the operator is Hermitian; a pure state's operator is
    the rank-one |psi><psi|, and a mixture's symbol is read from the
    factors :func:`states.mix` keeps.
    """
    if isinstance(source, GridFunction):
        return cross_wigner(source, source)
    if isinstance(source, MixedStateSpec):
        require_correlation_memory(source.components[0][1].grid.n)
        source = mix(source)
    if not isinstance(source, DensityMatrix):
        raise ParameterError(f"cannot take a Wigner transform of {type(source).__name__}")
    return density_wigner(source)


def marginals(W: PhaseSpaceFunction) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum densities of a Wigner distribution."""
    values = W.real_values()
    return values.sum(axis=1) * W.dp, values.sum(axis=0) * W.dx


def moyal_overlap(W1: PhaseSpaceFunction, W2: PhaseSpaceFunction) -> complex:
    """Phase-space pairing <<W1 | W2>> = Int conj(W1) W2 dz, summed in the
    peak units of W1 and W2 (:func:`grid.peak_pairing`)."""
    W1.require_compatible(W2)
    what = f"the Moyal pairing at eta = {W1.eta:g}"
    return complex(peak_pairing(W1.values, W2.values, W1.area_element, what))


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
