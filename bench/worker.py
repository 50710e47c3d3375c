"""One benchmark process for the in-process workloads.

    python bench/worker.py --mode setup|run|layers --workload W --seed S
                           --seconds T --trace 0|1 --out DIR

The process imports wignerlab, builds the workload's inputs and prints
``READY``; ``run.py`` times that as set-up.  ``setup`` mode exits there.
``run`` mode then runs whole rounds of the workload's operations until their
summed time reaches ``--seconds`` and, with ``--trace 1``, one round of
every other in-process operation list so that each layer is timed.
``layers`` mode runs only that second part.  The references the outputs are
checked against are computed after ``READY``, so set-up times only the import
and the inputs.  The last line of standard output is a JSON object with the
counts, the wall times and the check failures.
"""

import wignerlab  # noqa: F401  (first, so WIGNERLAB_THREADS reaches the BLAS libraries)

import argparse
import json
import resource
import sys
import time

import checks as ck
import ops

# name: (inputs from seed and output directory, operation blocks from inputs)
OPERATION_LISTS = {
    "calculus": (lambda seed, out_dir: ops.CalculusInputs(seed), ops.calculus_blocks),
    "admissibility": (lambda seed, out_dir: ops.AdmissibilityInputs(seed), ops.admissibility_blocks),
    "tomography": (lambda seed, out_dir: out_dir, ops.tomography_blocks),
}


class Runner:
    """Runs operation blocks, checks every output and keeps the counts."""

    def __init__(self, spans):
        self.spans = spans  # list to record (layer, n, start, end) into, or None
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.wrong = []  # (op, check, residual, tolerance) of outputs that failed a check
        self.faults = []  # (op, message) of operations that raised

    def run_block(self, block, counted=True):
        state = {}
        for op in block:
            self.run_op(op, state, counted)

    def run_op(self, op, state, counted=True):
        error = None
        start = time.perf_counter()
        try:
            out = op.call(state)
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            error = exc
        end = time.perf_counter()
        if self.spans is not None:
            self.spans.append((op.layer, op.n, start, end))
        if counted:
            self.attempted += 1
            self.failed += error is not None
            self.busy += end - start
        if error is not None:
            self.faults.append((f"{op.layer}[{op.n}]", f"{type(error).__name__}: {error}"))
            return
        state[op.name] = out
        for name, residual, tol in op.check(out, state):
            if not ck.passed([(name, residual, tol)]):
                self.wrong.append((f"{op.layer}[{op.n}]", name, float(residual), float(tol)))


def _record_cost(repeats=10000) -> float:
    """Seconds one span record costs, measured on a scratch list."""
    scratch = []
    start = time.perf_counter()
    for _ in range(repeats):
        t0 = time.perf_counter()
        t1 = time.perf_counter()
        scratch.append(("layer", 0, t0, t1))
    return (time.perf_counter() - start) / repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "run", "layers"], required=True)
    parser.add_argument("--workload", choices=["calculus", "admissibility", "cli"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    own = args.workload if args.mode != "layers" else None
    if own:
        make_inputs, make_blocks = OPERATION_LISTS[own]
        inputs = make_inputs(args.seed, args.out)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    spans = [] if args.trace else None
    runner = Runner(spans)
    rates = []  # completed operations per second of summed operation wall time, per round
    if own:
        blocks = make_blocks(inputs)
        runner.run_op(blocks[0][0], {}, counted=False)  # warm-up
        while runner.busy < args.seconds:
            completed, busy = runner.attempted - runner.failed, runner.busy
            for block in blocks:
                runner.run_block(block)
            rates.append((runner.attempted - runner.failed - completed) / (runner.busy - busy))
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "busy_s": runner.busy,
        "round_rates": rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        others = Runner(spans)
        for name, (make_inputs, make_blocks) in OPERATION_LISTS.items():
            if name != own:
                for block in make_blocks(make_inputs(args.seed, args.out)):
                    others.run_block(block, counted=False)
        runner.wrong += others.wrong
        runner.faults += others.faults
        result["record_cost_s"] = _record_cost()
        result["spans"] = spans
    result["wrong"] = runner.wrong
    result["faults"] = runner.faults
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
