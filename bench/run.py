"""wignerlab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload calculus|admissibility|cli --seed N
                         --seconds T --trace 0|1

Run it from the root of a source checkout; it imports wignerlab from
``src/`` and fails (exit 2) when that is missing.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks as ck

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calculus", "admissibility", "cli")
SETUP_REPEATS = 7  # set-up is the median of this many fresh interpreters
IMPORT_REPEATS = 3
CHILD_TIMEOUT = 170.0
PY = sys.executable

# name, arguments (with {out} and {seed}), expected exit code
CLI_COMMANDS = (
    ("wigner", ["wigner", "--N", "256", "--out", "{out}/wigner"], 0),
    ("moyal", ["moyal", "--N", "256", "--seed", "{seed}", "--out", "{out}/moyal"], 0),
    # default seed: the experiment's own draws fail its unitarity check on
    # some seeds (seed 7), which a seeded workload cannot keep
    ("metaplectic", ["metaplectic", "--N", "256", "--out", "{out}/metaplectic"], 0),
    ("klm", ["klm", "--N", "256", "--seed", "{seed}", "--out", "{out}/klm"], 0),
    ("gaussian", ["gaussian", "--N", "256", "--seed", "{seed}", "--out", "{out}/gaussian"], 0),
    ("eta-scan", ["eta-scan", "--N", "256", "--out", "{out}/eta-scan"], 0),
    ("tomography", ["tomography", "--N", "256", "--out", "{out}/tomography"], 0),
    ("pauli", ["pauli", "--N", "256", "--out", "{out}/pauli"], 0),
    # a pure state at eta = 1 is not admissible at eta = 1.5: the KLM check
    # must find the violation, which the command reports with exit code 1
    ("klm_input", ["klm", "--input", "{out}/wigner/wigner.csv", "--eta", "1.5",
                   "--samples", "40", "--seed", "7", "--out", "{out}/klm_input"], 1),
    ("tomography_n512", ["tomography", "--N", "512", "--out", "{out}/tomography_n512"], 0),
)
# command: the exit code it gives on every run today because of a fault in
# wignerlab; that exit is a failed operation, not a wrong output
KNOWN_FAULTS = {"tomography_n512": 1}

SIZED_LAYERS = (
    "wigner.cross_wigner", "wigner.wigner_pure", "wigner.ambiguity", "wigner.wigner_density",
    "weyl.weyl_symbol", "weyl.weyl_quantize", "weyl.twisted_product",
    "transforms.symplectic_fourier", "symplectic.metaplectic_free", "symplectic.metaplectic_word",
    "states.mix", "tomography.radon", "tomography.inverse_radon", "tomography.reconstruct_density",
)
SIZES = (256, 512)
UNSIZED_LAYERS = (
    "quantumness.klm_test", "quantumness.eta_scan", "quantumness.gaussian_admissible",
    "symplectic.williamson", "serialize.save_phase_space", "serialize.load_phase_space",
    "serialize.save_tomograms",
)
MODULES = ("wigner", "weyl", "transforms", "symplectic", "states", "quantumness",
           "tomography", "serialize", "cli")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in SIZED_LAYERS:
        for n in SIZES:
            units[f"{layer}.n{n}_s"] = "s"
    for layer in UNSIZED_LAYERS:
        units[f"{layer}_s"] = "s"
    units["serialize.csv_mb"] = "MB"
    for name, _, _ in CLI_COMMANDS:
        units[f"cli.{name}_s"] = "s"
    units["import.wignerlab_s"] = "s"
    units["import.scipy_signal_s"] = "s"
    for module in MODULES:
        units[f"{module}.busy_s"] = "s"
        units[f"{module}.calls"] = "count"
    units["trace.ops_per_s"] = "1/s"
    units["trace.overhead_frac"] = "fraction"
    return units


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, root, seed, seconds, trace):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        threads = os.environ.get("WIGNERLAB_THREADS") or str(min(2, os.cpu_count() or 1))
        for var in ("WIGNERLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        self.out = tempfile.mkdtemp(prefix="run_", dir=os.path.join(BENCH, "out"))
        self.wrong = []
        self.spans = []  # (layer, n, seconds)

    # --- processes ---------------------------------------------------------

    def _worker(self, mode, workload):
        """Start a worker; return (seconds until READY, its result or None)."""
        cmd = [PY, os.path.join(BENCH, "worker.py"), "--mode", mode, "--workload", workload,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--trace", str(int(self.trace)), "--out", self.out]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            if line.strip() != "READY":
                raise BenchError(f"worker {mode} {workload} did not start")
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} {workload} exited {proc.returncode}")
        lines = rest.strip().splitlines()
        return ready, (json.loads(lines[-1]) if lines else None)

    def setup_seconds(self, start_one):
        """setup_s: the median wall time of SETUP_REPEATS start-ups."""
        return statistics.median(start_one() for _ in range(SETUP_REPEATS))

    def _fill(self, template, out_dir):
        return [a.format(out=out_dir, seed=self.seed % 2**31) for a in template]

    def _cli(self, args):
        cmd = [PY, "-m", "wignerlab.cli"] + list(args)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        return time.perf_counter() - start, proc

    def import_times(self):
        """import.*_s: cumulative -X importtime of wignerlab and scipy.signal."""
        samples = {"wignerlab": [], "scipy.signal": []}
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([PY, "-X", "importtime", "-c", "import wignerlab"],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
            found = {}
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
                if m and m.group(2) in samples:
                    found[m.group(2)] = int(m.group(1)) * 1e-6
            if "wignerlab" not in found:
                raise BenchError("import wignerlab failed")
            for name in samples:
                samples[name].append(found.get(name, 0.0))  # 0 when not imported at all
        return {
            "import.wignerlab_s": statistics.median(samples["wignerlab"]),
            "import.scipy_signal_s": statistics.median(samples["scipy.signal"]),
        }

    # --- the command-line workload ----------------------------------------

    def cli_round(self):
        """Run the ten commands once; return (attempted, failed, seconds)."""
        out_dir = tempfile.mkdtemp(prefix="cli_", dir=self.out)
        attempted = failed = 0
        busy = 0.0
        for name, template, expected in CLI_COMMANDS:
            args = self._fill(template, out_dir)
            seconds, proc = self._cli(args)
            self.spans.append((f"cli.{name}", None, seconds))
            attempted += 1
            busy += seconds
            rows = None
            if KNOWN_FAULTS.get(name) != proc.returncode:
                rows = judge_command(name, args, out_dir, proc.returncode, expected)
            if rows is None:
                failed += 1
                why = "known fault" if name in KNOWN_FAULTS else "no summary.json"
                sys.stderr.write(f"cli {name}: exit {proc.returncode}, failed ({why})\n")
                continue
            for check, residual, tol in rows:
                if not ck.passed([(check, residual, tol)]):
                    self.wrong.append((f"cli.{name}", check, residual, tol))
        shutil.rmtree(out_dir, ignore_errors=True)
        return attempted, failed, busy

    def run_cli(self):
        result = {}
        if not self.trace:
            result["setup_s"] = self.setup_seconds(lambda: self._cli(["--version"])[0])
            self._cli(["pauli", "--N", "256", "--out", os.path.join(self.out, "warmup")])
        attempted = failed = 0
        busy = 0.0
        rates = []
        while busy < self.seconds:
            a, f, b = self.cli_round()
            attempted, failed, busy = attempted + a, failed + f, busy + b
            rates.append((a - f) / b)
        result.update(attempted=attempted, failed=failed, busy_s=busy, round_rates=rates,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        if self.trace:
            _, others = self._worker("layers", "cli")
            self._absorb(others)
            result["record_cost_s"] = others["record_cost_s"]
        return result

    # --- the in-process workloads ------------------------------------------

    def run_in_process(self, workload):
        setup = None
        if not self.trace:
            setup = self.setup_seconds(lambda: self._worker("setup", workload)[0])
        _, result = self._worker("run", workload)
        result["setup_s"] = setup
        self._absorb(result)
        if self.trace:
            self.cli_round()
        return result

    def _absorb(self, worker_result):
        self.wrong += worker_result["wrong"]
        for op, message in worker_result["faults"]:
            sys.stderr.write(f"{op}: {message}\n")
        for layer, n, start, end in worker_result.get("spans", []):
            self.spans.append((layer, n, end - start))

    # --- metrics -----------------------------------------------------------

    def layer_metrics(self, result):
        metrics = {}
        by_key = {}
        for layer, n, seconds in self.spans:
            by_key.setdefault(f"{layer}.n{n}_s" if n else f"{layer}_s", []).append(seconds)
            module = layer.split(".")[0]
            metrics[f"{module}.busy_s"] = metrics.get(f"{module}.busy_s", 0.0) + seconds
            metrics[f"{module}.calls"] = metrics.get(f"{module}.calls", 0) + 1
        for key, values in by_key.items():
            metrics[key] = statistics.median(values)
        metrics["serialize.csv_mb"] = os.path.getsize(os.path.join(self.out, "wigner.csv")) / 1e6
        metrics.update(self.import_times())
        metrics["trace.ops_per_s"] = statistics.median(result["round_rates"])
        metrics["trace.overhead_frac"] = (
            result["record_cost_s"] * result["attempted"] / result["busy_s"]
        )
        return metrics

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


def judge_command(name, args, out_dir, returncode, expected):
    """The checks of one finished command, or None when it wrote no result.

    A command that wrote its ``summary.json`` is judged on its outputs and on
    its exit code: an unexpected code is a wrong output, since the command
    exits 1 when its own checks fail.  Only a command that wrote no summary
    (a traceback, say) is a failed operation.
    """
    if not os.path.isfile(os.path.join(out_dir, name, "summary.json")):
        return None
    try:
        rows = check_command(name, args, out_dir)
    except (OSError, KeyError, ValueError, IndexError, TypeError):
        rows = [ck.verdict("outputs_readable", False)]
    return rows + [ck.verdict("exit_code", returncode == expected)]


def check_command(name, args, out_dir):
    """Checks of one command's outputs: (check, residual, tolerance) triples.

    ``args`` are the command's arguments with ``{out}`` and ``{seed}`` filled in.
    """
    folder = os.path.join(out_dir, name)

    def load(filename):
        with open(os.path.join(folder, filename)) as handle:
            return json.load(handle)

    if name == "klm_input":  # the expected violation fails the command's own check
        return [ck.verdict("klm_verdict", load("klm_report.json")["verdict"] == "violation")]
    doc = load("summary.json")
    rows = [ck.verdict("summary_passed", doc["passed"] is True)]
    for flag, key in (("--N", "N"), ("--seed", "seed")):
        if flag in args:
            rows.append(ck.verdict(f"config_{key}", doc["config"][key] == int(args[args.index(flag) + 1])))
    rows += [(check["name"], check["residual"], check["tolerance"]) for check in doc["checks"]]
    if name == "wigner":
        rows += ck.check_wigner_csv(os.path.join(folder, "wigner.csv"))
    elif name == "klm":
        rows.append(ck.verdict("klm_verdict", load("klm_report.json")["verdict"] == "no violation found"))
    elif name == "eta-scan":
        entries = load("eta_scan.json")["entries"]
        rows.append(ck.verdict("eta_scan_verdicts",
                               [e["verdict"] for e in entries] == ["mixed", "pure", "inadmissible"]))
    elif name.startswith("tomography"):
        rows += ck.check_tomogram_csv(os.path.join(folder, "tomograms.csv"))
    elif name == "pauli":
        rows += ck.check_pauli_csv(os.path.join(folder, "pauli_psi1.csv"),
                                   os.path.join(folder, "pauli_psi2.csv"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wignerlab", "__init__.py")):
        print("bench: run from the root of a wignerlab checkout (src/wignerlab is missing)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "cli":
            result = bench.run_cli()
        else:
            result = bench.run_in_process(args.workload)
        if args.trace:
            values = bench.layer_metrics(result)
            units = per_layer_units()
            missing = sorted(set(units) - set(values))
            if missing:
                raise BenchError(f"traced run produced no value for {missing}")
            trace_file = os.path.join(BENCH, "out", f"trace_{args.workload}_{args.seed}.json")
            with open(trace_file, "w") as handle:
                json.dump({"spans": bench.spans, "metrics": values}, handle)
        else:
            values = {"setup_s": result["setup_s"],
                      "ops_per_s": statistics.median(result["round_rates"]),
                      "peak_rss_mb": result["peak_rss_mb"]}
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    for op, check, residual, tol in bench.wrong:
        print(f"bench: wrong output {op} {check}: residual {residual:.3e} > {tol:.3e}",
              file=sys.stderr)
    correct = not bench.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
