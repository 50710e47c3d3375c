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
from .weyl import (
    correlation_symbol, density_wigner, require_correlation_memory, weyl_quantize
)

__all__ = [
    "wigner",
    "cross_wigner",
    "marginals",
    "moyal_overlap",
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

