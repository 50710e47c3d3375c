import json

import numpy as np
import pytest

from wignerlab import (
    ConfigurationError,
    PhaseSpaceFunction,
    TomogramSet,
    coherent_state,
    dual_grid,
    dump_json,
    hermite_state,
    json_ready,
    load_grid_function,
    load_kernel,
    load_phase_space,
    load_tomograms,
    make_grid,
    pure_density,
    radon,
    save_grid_function,
    save_kernel,
    save_phase_space,
    save_tomograms,
    wigner,
)
from wignerlab import serialize

ETA = 1.0


@pytest.fixture
def grid():
    return make_grid(-8.0, 8.0, 32)


def test_grid_function_round_trip(tmp_path, grid):
    psi = hermite_state(grid, ETA, 2)
    path = tmp_path / "psi.csv"
    save_grid_function(psi, path)
    back = load_grid_function(path)
    assert back.grid.matches(psi.grid)
    assert back.eta == psi.eta
    assert np.array_equal(back.values, psi.values)


def test_phase_space_round_trip(tmp_path, grid):
    W = wigner(coherent_state(grid, ETA, 0.3, -0.2))
    path = tmp_path / "wigner.csv"
    save_phase_space(W, path)
    back = load_phase_space(path)
    assert back.kind == "wigner"
    assert back.x_grid.matches(W.x_grid)
    assert back.p_grid.matches(W.p_grid)
    assert np.array_equal(back.values, W.values)


def test_real_phase_space_writes_a_zero_imaginary_column(tmp_path, grid):
    # a Wigner function is float64: each data row is its %.17g value and 0,
    # and loading the file gives the same values back
    W = wigner(coherent_state(grid, ETA, 0.3, -0.2))
    assert W.values.dtype == np.float64
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0, -np.pi, 1e-5, 2.0**60]
    W.values.reshape(-1)[: len(special)] = special
    path = tmp_path / "wigner.csv"
    save_phase_space(W, path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[2] == "real,imag" and lines[-1] == ""
    rows = [line.split(",") for line in lines[3:-1]]
    assert [row[1] for row in rows] == ["0"] * grid.n**2
    assert [row[0] for row in rows] == ["%.17g" % value for value in W.values.reshape(-1)]
    assert np.array_equal(load_phase_space(path).values, W.values)


def test_zero_imaginary_column_loads_as_float64(tmp_path, grid, monkeypatch):
    # the loader decides realness at the file boundary: an imaginary column of
    # zeros gives a C-contiguous float64 copy of the real column, which holds
    # no view of the parsed table; any nonzero field keeps the values complex
    tables = []

    def parse(*args):
        tables.append(parse_rows(*args))
        return tables[-1]

    parse_rows = serialize._parse_rows
    monkeypatch.setattr(serialize, "_parse_rows", parse)
    W = wigner(coherent_state(grid, ETA, 0.3, -0.2))
    path = tmp_path / "wigner.csv"
    save_phase_space(W, path)
    back = load_phase_space(path)
    assert back.values.dtype == np.float64 and back.values.flags.c_contiguous
    assert not np.shares_memory(back.values, tables[-1])
    assert np.array_equal(back.values, W.values)
    lines = path.read_text().split("\n")
    lines[3] = lines[3].split(",")[0] + ",1e-77"
    path.write_text("\n".join(lines))
    back = load_phase_space(path)
    assert back.values.dtype == np.complex128
    assert back.values.reshape(-1)[0] == W.values.reshape(-1)[0] + 1e-77j


def test_kernel_round_trip(tmp_path, grid):
    op = pure_density(coherent_state(grid, ETA)).op
    path = tmp_path / "kernel.csv"
    save_kernel(op, path)
    back = load_kernel(path)
    assert np.array_equal(back.kernel, op.kernel)
    assert back.eta == op.eta


def test_tomogram_round_trip(tmp_path, grid):
    W = wigner(coherent_state(grid, ETA))
    tomo = radon(W, np.linspace(0.0, np.pi, 8, endpoint=False))
    path = tmp_path / "tomo.csv"
    save_tomograms(tomo, path)
    back = load_tomograms(path)
    assert np.array_equal(back.angles, tomo.angles)
    assert np.array_equal(back.values, tomo.values)
    assert back.grid.matches(tomo.grid)


def test_csv_writers_match_per_value_formatting(tmp_path):
    # the bulk writers must give the bytes of a plain per-value %.17g loop
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0, -np.pi, 1e-5, 2.0**60]
    rng = np.random.default_rng(3)
    values = np.empty(256, dtype=complex)
    values.real = np.concatenate([special, rng.normal(size=246)])
    values.imag = np.concatenate([special[::-1], rng.normal(size=246) * 1e-200])
    grid = make_grid(-8.0, 8.0, 16)
    a = PhaseSpaceFunction(grid, dual_grid(grid, ETA), values.reshape(16, 16), ETA)

    def fmt(value):
        return "%.17g" % float(value)

    path = tmp_path / "a.csv"
    save_phase_space(a, path)
    expected = "N,x_min,dx,eta,kind\n"
    expected += f"16,{fmt(grid.x_min)},{fmt(grid.dx)},{fmt(ETA)},generic\nreal,imag\n"
    for value in values:
        expected += f"{fmt(value.real)},{fmt(value.imag)}\n"
    assert path.read_bytes() == expected.encode()

    tomo = TomogramSet([0.0, 1.0], grid, np.stack([values.real[:16], values.imag[:16]]), ETA)
    save_tomograms(tomo, path)
    expected = f"n_angles,N,x_min,dx,eta\n2,16,{fmt(grid.x_min)},{fmt(grid.dx)},{fmt(ETA)}\n"
    expected += "angles,0,1\n"
    for row in tomo.values:
        expected += ",".join(fmt(v) for v in row) + "\n"
    assert path.read_bytes() == expected.encode()


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nonsense\n1,2,3\n")
    with pytest.raises(ConfigurationError):
        load_grid_function(path)
    with pytest.raises(ConfigurationError):
        load_tomograms(path)


def test_load_rejects_unreadable_and_malformed_files(tmp_path, grid):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_phase_space(tmp_path / "missing.csv")
    path = tmp_path / "bad.csv"
    path.write_text("N,x_min,dx,eta,kind\n32,-8,0.5,1,wavefunction\nreal,imag\n1\n")
    with pytest.raises(ConfigurationError, match="2 columns"):
        load_grid_function(path)
    path.write_text("N,x_min,dx,eta,kind\n32,-8,zero,1,wavefunction\nreal,imag\n1,0\n")
    with pytest.raises(ConfigurationError, match="header"):
        load_grid_function(path)
    path.write_text("n_angles,N,x_min,dx,eta\n1,32,-8,0.5,1\nangles,0\n1,2\n")
    with pytest.raises(ConfigurationError, match="32 columns"):
        load_tomograms(path)


def test_load_rejects_kind_mismatch(tmp_path, grid):
    psi = coherent_state(grid, ETA)
    path = tmp_path / "psi.csv"
    save_grid_function(psi, path)
    with pytest.raises(ConfigurationError):
        load_phase_space(path)
    with pytest.raises(ConfigurationError):
        load_kernel(path)


def test_json_ready_normalizes_types():
    payload = json_ready(
        {
            "arr": np.arange(3.0),
            "z": 1.0 + 2.0j,
            "flag": np.bool_(True),
            "count": np.int64(4),
        }
    )
    assert payload["arr"] == [0.0, 1.0, 2.0]
    assert payload["z"] == {"real": 1.0, "imag": 2.0}
    assert payload["flag"] is True
    assert payload["count"] == 4


def test_json_ready_returns_each_double_bit_for_bit():
    # json writes a float's shortest round-trip repr: no rounding on the way
    rng = np.random.default_rng(5)
    doubles = np.concatenate(
        [
            [5e-324, -5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0.0), -0.0, 0.0],
            [np.finfo(float).max, -np.finfo(float).max, 1.0 / 3.0, 0.1, np.pi],
            rng.uniform(-1.0, 1.0, 200) * 2.0 ** rng.integers(-1074, 1024, 200),
        ]
    )
    ready = json_ready(doubles)
    assert all(type(x) is float for x in ready)
    assert np.array_equal(np.array(ready).view(np.uint64), doubles.view(np.uint64))
    assert json_ready(np.float32(0.1)) == float(np.float32(0.1))


def test_dump_json_is_deterministic(tmp_path):
    obj = {"b": np.pi, "a": [1.0 / 3.0, 2.0 + 0.5j]}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(obj, p1)
    dump_json(obj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["b"] == pytest.approx(np.pi)
