"""The plan store: arrays that depend only on a grid and eta, held across calls.

``errors.plan`` holds the quantizer's foreign-eta Dirichlet table per grid,
eta and F, and the range sketch of ``validate_density`` per (N, r): read-only,
bit for bit the array a fresh build gives, and at most
``errors._PLAN_LIMIT_BYTES`` in all, the least recently used dropped first.
"""

import sys
import threading

import numpy as np
import pytest

from wignerlab import PhaseSpaceFunction, coherent_state, dual_grid, make_grid, wigner
from wignerlab import errors, states, weyl


@pytest.fixture(autouse=True)
def empty_store():
    errors._plans.clear()
    yield
    errors._plans.clear()


def _held_bytes():
    return sum(plan.nbytes for plan in errors._plans.values())


def test_a_held_plan_is_the_fresh_build_and_read_only():
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 128), 1.0))
    table = weyl._dirichlet_table(W, 0.5, 4)
    assert weyl._dirichlet_table(W, 0.5, 4) is table
    fresh = weyl._dirichlet_sums(128, 128, W.x_grid.dx, W.p_grid.dx, W.p_grid.x_min, 0.5, 4)
    assert [part.tobytes() for part in table] == [part.tobytes() for part in fresh]
    sketch = states._sketch(128, 32)
    assert states._sketch(128, 32) is sketch
    assert sketch.tobytes() == states._splitmix_phases(128, 32).tobytes()
    for plan in (*table, sketch):
        with pytest.raises(ValueError, match="read-only"):
            plan[(0,) * plan.ndim] = 1.0


def test_a_held_dirichlet_plan_is_two_real_factors_a_turn_and_a_ramp():
    # total and diff, (N_p/2 + 1) x N float64 each, the N_p/2 + 1 row turns
    # and the N-entry lag ramp: 136,208 bytes at N = N_p = 128, where an
    # (N_p + 2) x N complex table of A_j and B_j held 266,240
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 128), 1.0))
    weyl._dirichlet_table(W, 0.5, 4)
    (held,) = errors._plans.values()
    n = n_p = 128
    assert _held_bytes() == held.nbytes <= (n_p // 2 + 1) * n * 16 + 64 * n


def test_grids_that_differ_in_one_parameter_get_different_tables():
    # the table reads N, N_p, dx, dp, p_min, eta and F, and each of the last
    # five alone must change it
    x_grid = make_grid(-10.0, 10.0, 32)
    p_grid = dual_grid(x_grid, 1.0)

    def table(x=x_grid, p=p_grid, eta=0.5, factor=4):
        symbol = PhaseSpaceFunction(x, p, np.zeros((32, 32)), 1.0)
        return weyl._dirichlet_table(symbol, eta, factor)

    base = table()
    others = [
        table(x=make_grid(-10.0, 11.0, 32)),
        table(p=make_grid(p_grid.x_min, p_grid.x_min + 1.1 * p_grid.length, 32)),
        table(p=make_grid(p_grid.x_min + 0.3, p_grid.x_max + 0.3, 32)),
        table(eta=0.6),
        table(factor=6),
    ]
    for other in others:
        assert not all(np.array_equal(part, held) for part, held in zip(other, base))
    assert len(errors._plans) == 6
    # x_min enters no sum: a shifted x grid of the same dx reads the held table
    assert table(x=make_grid(-9.0, 11.0, 32)) is base


def test_the_store_holds_at_most_its_cap(monkeypatch):
    # sketches of 32 and 64 KiB under a 100 KiB cap
    monkeypatch.setattr(errors, "_PLAN_LIMIT_BYTES", 100 * 1024)
    small, large = states._sketch(64, 32), states._sketch(128, 32)
    assert _held_bytes() == 96 * 1024
    assert states._sketch(64, 32) is small  # now the most recently used
    states._sketch(64, 16)
    assert _held_bytes() <= 100 * 1024
    build = states._splitmix_phases
    assert list(errors._plans) == [(build, 64, 32), (build, 64, 16)]
    assert states._sketch(128, 32) is not large
    assert _held_bytes() <= 100 * 1024
    # a plan above the cap is built on every call, never held, and evicts nothing
    held = list(errors._plans)
    oversized = states._sketch(256, 32)
    assert states._sketch(256, 32) is not oversized
    assert list(errors._plans) == held


def test_threads_sharing_the_store_keep_it_under_its_cap(monkeypatch):
    # four threads on two cores read eight sketches through a store that
    # holds three; every read must be the fresh build and the cap must hold
    monkeypatch.setattr(errors, "_PLAN_LIMIT_BYTES", 3 * 64 * 32 * 16)
    expected = {r: states._splitmix_phases(64, r) for r in range(25, 33)}
    errors._plans.clear()
    failures = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for r in rng.integers(25, 33, size=1000):
                sketch = states._sketch(64, int(r))
                if not np.array_equal(sketch, expected[int(r)]):
                    failures.append(("wrong sketch", int(r)))
                with errors._plans_lock:
                    if _held_bytes() > errors._PLAN_LIMIT_BYTES:
                        failures.append(("over the cap", _held_bytes()))
        except Exception as error:  # reported by the test, not lost in the thread
            failures.append(("raised", repr(error)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
