"""CSV / JSON persistence for grids, phase-space functions and tomograms.

Grid-based CSV layout (shared by wavefunctions, phase-space functions and
operator kernels):

    N,x_min,dx,eta,kind
    256,-10.0,0.078125,1.0,wigner
    real,imag
    <one sample per row; 2-D data row-major>

Tomogram CSV:

    n_angles,N,x_min,dx,eta
    <values>
    angles,<theta_1>,...,<theta_T>
    <one row of N samples per angle>

JSON envelopes mirror the same metadata with a ``schema`` version; floats
are normalized to 17 significant digits so identical runs serialize to
identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, GridFunction, PhaseSpaceFunction, dual_grid, make_grid
from .states import OperatorMatrix
from .tomography import TomogramSet

__all__ = [
    "save_grid_function",
    "load_grid_function",
    "save_phase_space",
    "load_phase_space",
    "save_kernel",
    "load_kernel",
    "save_tomograms",
    "load_tomograms",
    "dump_json",
    "json_ready",
]

_FLOAT_FMT = "%.17g"

#: table entries formatted at once when a CSV is written: bounds the Python
#: floats and the text held, where one ``%`` over an N = 512 phase-space
#: table holds half a million floats and 12 MB of text
_CSV_BLOCK = 2**14


def _format(value: float) -> str:
    return _FLOAT_FMT % float(value)


def _write_rows(handle, table: np.ndarray):
    """Write one line of comma-separated ``_FLOAT_FMT`` fields per row of a
    2-D table, formatted by one ``%`` per block of rows that holds at most
    ``_CSV_BLOCK`` entries (at least one row)."""
    line = ",".join([_FLOAT_FMT] * table.shape[1]) + "\n"
    rows = max(1, _CSV_BLOCK // table.shape[1])
    for start in range(0, table.shape[0], rows):
        block = table[start : start + rows]
        handle.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_grid_csv(path, grid: Grid, eta: float, kind: str, flat: np.ndarray):
    with open(path, "w") as handle:
        handle.write("N,x_min,dx,eta,kind\n")
        handle.write(
            f"{grid.n},{_format(grid.x_min)},{_format(grid.dx)},{_format(eta)},{kind}\n"
        )
        handle.write("real,imag\n")
        # the real and imaginary parts of a complex array, interleaved: a view
        _write_rows(handle, np.ascontiguousarray(flat, dtype=complex).view(float).reshape(-1, 2))


def _read_lines(path):
    """Non-blank stripped lines of a text file; unreadable files are
    configuration errors."""
    try:
        with open(path) as handle:
            return [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _parse_rows(path, lines, width: int) -> np.ndarray:
    """Comma-separated float rows of exactly ``width`` columns.

    A missing or blank row is malformed (``np.loadtxt`` would skip it).
    """
    if not lines or not all(lines):
        raise ConfigurationError(f"{path}: blank or missing data row")
    try:
        data = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed data row: {exc}") from exc
    if data.shape[1] != width:
        raise ConfigurationError(f"{path}: data rows must have {width} columns")
    return data


def _read_grid_csv(path):
    lines = _read_lines(path)
    if len(lines) < 3 or lines[0] != "N,x_min,dx,eta,kind":
        raise ConfigurationError(f"{path}: not a grid CSV")
    try:
        n_str, x_min, dx, eta, kind = lines[1].split(",")
        n = int(n_str)
        x_min, dx, eta = float(x_min), float(dx), float(eta)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed grid header: {exc}") from exc
    grid = make_grid(x_min, x_min + n * dx, n)
    data = _parse_rows(path, lines[3:], 2)
    flat = data[:, 0] + 1j * data[:, 1]
    return grid, eta, kind, flat


def save_grid_function(psi: GridFunction, path):
    _write_grid_csv(path, psi.grid, psi.eta, "wavefunction", psi.values)


def load_grid_function(path) -> GridFunction:
    grid, eta, kind, flat = _read_grid_csv(path)
    if kind != "wavefunction" or flat.shape != (grid.n,):
        raise ConfigurationError(f"{path}: not a wavefunction CSV")
    return GridFunction(grid, flat, eta)


def save_phase_space(a: PhaseSpaceFunction, path):
    _write_grid_csv(path, a.x_grid, a.eta, a.kind, a.values.reshape(-1))


def load_phase_space(path) -> PhaseSpaceFunction:
    grid, eta, kind, flat = _read_grid_csv(path)
    if kind not in PhaseSpaceFunction.KINDS or flat.shape != (grid.n**2,):
        raise ConfigurationError(f"{path}: not a phase-space CSV")
    values = flat.reshape(grid.n, grid.n)
    return PhaseSpaceFunction(grid, dual_grid(grid, eta), values, eta, kind=kind)


def save_kernel(op: OperatorMatrix, path):
    _write_grid_csv(path, op.grid, op.eta, "kernel", op.kernel.reshape(-1))


def load_kernel(path) -> OperatorMatrix:
    grid, eta, kind, flat = _read_grid_csv(path)
    if kind != "kernel" or flat.shape != (grid.n**2,):
        raise ConfigurationError(f"{path}: not a kernel CSV")
    return OperatorMatrix(grid, flat.reshape(grid.n, grid.n), eta)


def save_tomograms(tomo: TomogramSet, path):
    grid = tomo.grid
    with open(path, "w") as handle:
        handle.write("n_angles,N,x_min,dx,eta\n")
        handle.write(
            f"{len(tomo.angles)},{grid.n},{_format(grid.x_min)},"
            f"{_format(grid.dx)},{_format(tomo.eta)}\n"
        )
        handle.write("angles," + ",".join(_format(t) for t in tomo.angles) + "\n")
        _write_rows(handle, tomo.values)


def load_tomograms(path) -> TomogramSet:
    lines = _read_lines(path)
    if len(lines) < 3 or lines[0] != "n_angles,N,x_min,dx,eta":
        raise ConfigurationError(f"{path}: not a tomogram CSV")
    try:
        n_angles, n, x_min, dx, eta = lines[1].split(",")
        n_angles, n = int(n_angles), int(n)
        x_min, dx, eta = float(x_min), float(dx), float(eta)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed tomogram header: {exc}") from exc
    grid = make_grid(x_min, x_min + n * dx, n)
    angle_parts = lines[2].split(",")
    if angle_parts[0] != "angles" or len(angle_parts) != n_angles + 1:
        raise ConfigurationError(f"{path}: malformed angle row")
    angles = _parse_rows(path, [",".join(angle_parts[1:])], n_angles)[0]
    values = _parse_rows(path, lines[3:], n)
    return TomogramSet(angles, grid, values, eta)


def json_ready(obj):
    """Recursively convert arrays/complex/floats into JSON-stable structures."""
    if isinstance(obj, dict):
        return {str(key): json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"real": json_ready(obj.real), "imag": json_ready(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        return float(_FLOAT_FMT % float(obj))
    return obj


def dump_json(obj, path):
    with open(path, "w") as handle:
        json.dump(json_ready(obj), handle, indent=2, sort_keys=True)
        handle.write("\n")
