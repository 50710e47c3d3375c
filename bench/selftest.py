"""Quick self-test of the benchmark's checkers, at small grids.

    python3 bench/selftest.py        (from the root of a wignerlab checkout)

Every operation of the calculus, admissibility and tomography lists runs at
N = 128; its true output must pass its check and a corrupted copy must fail
it (a Wigner function scaled by 1 + 1e-3, a flipped KLM verdict, one altered
CSV value, ...).  The same is done for the files each command of the cli
workload writes, and for an unexpected exit code.  Last, BENCHMARK.json
must name exactly the workloads and metrics run.py produces.  Exits 1 if
anything does not hold.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import wignerlab as wl  # noqa: E402  (before NumPy, as in the benchmark)

import copy  # noqa: E402
import json  # noqa: E402

import checks as ck  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

N = 128
SCALE = 1.0 + 1e-3
COARSE = 0.95  # for the checks with a 2e-2 tolerance
COARSE_LAYERS = ("tomography.inverse_radon", "tomography.reconstruct_density")
WRITTEN = {"save": "wigner.csv", "save_tomo": "tomograms.csv"}
FLIPPED = {"violation": "no violation found", "no violation found": "violation",
           "mixed": "pure", "pure": "mixed", "inadmissible": "pure"}


def scale_values(out, factor):
    """A copy of an operation's output, scaled or with its verdict flipped."""
    bad = copy.deepcopy(out)
    if isinstance(bad, wl.KLMReport):
        bad.verdict = FLIPPED[bad.verdict]
    elif isinstance(bad, wl.EtaScanResult):
        bad.entries[0]["verdict"] = FLIPPED[bad.entries[0]["verdict"]]
    elif isinstance(bad, dict):
        bad["admissible"] = not bad["admissible"]
    elif isinstance(bad, wl.WilliamsonData):
        bad.S = bad.S * factor
    elif isinstance(bad, wl.WignerResult):
        bad.W.values = bad.W.values * factor
    elif isinstance(bad, wl.DensityMatrix):
        bad.op.kernel = bad.op.kernel * factor
    elif isinstance(bad, wl.OperatorMatrix):
        bad.kernel = bad.kernel * factor
    else:  # grid functions, phase-space functions, tomograms
        bad.values = bad.values * factor
    return bad


def alter_csv(path):
    """Scale the largest number of a CSV by 1 + 1e-3; return the original text."""
    with open(path) as handle:
        text = handle.read()
    lines = text.splitlines()
    best, where = -1.0, None
    for i, line in enumerate(lines):
        for j, field in enumerate(line.split(",")):
            try:
                value = abs(float(field))
            except ValueError:
                continue
            if i >= 3 and value > best:
                best, where = value, (i, j)
    i, j = where
    fields = lines[i].split(",")
    fields[j] = "%.17g" % (float(fields[j]) * SCALE)
    lines[i] = ",".join(fields)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return text


def alter_json(path, edit):
    """Apply ``edit`` to a JSON file; return the original text."""
    with open(path) as handle:
        text = handle.read()
    doc = json.loads(text)
    edit(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return text


class Tally:
    def __init__(self):
        self.bad = 0

    def expect(self, what, ok):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        self.bad += not ok


def test_operations(tally, out_dir):
    blocks = (
        ops.calculus_blocks(ops.CalculusInputs(0, sizes=(N,)))
        + ops.admissibility_blocks(ops.AdmissibilityInputs(0, n=N))
        + ops.tomography_blocks(out_dir, sizes=(N,))
    )
    for block in blocks:
        state = {}
        for op in block:
            label = f"{op.layer}[{op.n}]"
            try:
                out = op.call(state)
            except ops.KnownFault as exc:
                print(f"SKIP {label}: {exc}")
                continue
            tally.expect(f"{label} true output accepted", ck.passed(op.check(out, state)))
            if op.name in WRITTEN:
                path = os.path.join(out_dir, WRITTEN[op.name])
                original = alter_csv(path)
                rejected = not ck.passed(op.check(out, state))
                with open(path, "w") as handle:
                    handle.write(original)
            else:
                factor = COARSE if op.layer in COARSE_LAYERS else SCALE
                rejected = not ck.passed(op.check(scale_values(out, factor), state))
            tally.expect(f"{label} corrupted output rejected", rejected)
            state[op.name] = out


def _flip_verdict(doc):
    doc["verdict"] = FLIPPED[doc["verdict"]]


def _flip_first_scan(doc):
    doc["entries"][0]["verdict"] = FLIPPED[doc["entries"][0]["verdict"]]


def _fail_summary(doc):
    doc["passed"] = False


CORRUPTIONS = {
    "wigner": ("wigner.csv", None),
    "moyal": ("summary.json", _fail_summary),
    "metaplectic": ("summary.json", _fail_summary),
    "klm": ("klm_report.json", _flip_verdict),
    "gaussian": ("summary.json", _fail_summary),
    "eta-scan": ("eta_scan.json", _flip_first_scan),
    "tomography": ("tomograms.csv", None),
    "pauli": ("pauli_psi2.csv", None),
    "klm_input": ("klm_report.json", _flip_verdict),
}


def small(args):
    """The command at N = 128 with 8 KLM samples."""
    args = ["128" if a == "256" else a for a in args]
    if args[0] == "klm":
        args = [a for a in args if a not in ("--samples", "40")] + ["--samples", "8"]
    return args


def test_commands(tally, bench, out_dir):
    for name, template, expected in run.CLI_COMMANDS:
        if name not in CORRUPTIONS:
            continue  # tomography_n512: the same checks as tomography
        args = small(bench._fill(template, out_dir))
        _, proc = bench._cli(args)

        def judge(returncode=proc.returncode):
            return run.judge_command(name, args, out_dir, returncode, expected)

        tally.expect(f"cli {name} exit {expected}", proc.returncode == expected)
        tally.expect(f"cli {name} true output accepted", ck.passed(judge()))
        # the command's own checks failed: exit 1 (0 for klm_input) is a wrong output
        tally.expect(f"cli {name} unexpected exit code rejected", not ck.passed(judge(1 - expected)))
        filename, edit = CORRUPTIONS[name]
        path = os.path.join(out_dir, name, filename)
        original = alter_csv(path) if edit is None else alter_json(path, edit)
        tally.expect(f"cli {name} corrupted output rejected", not ck.passed(judge()))
        with open(path, "w") as handle:
            handle.write(original)  # klm_input reads wigner.csv later
    os.remove(os.path.join(out_dir, "moyal", "summary.json"))
    tally.expect("cli command without summary.json is a failed operation",
                 run.judge_command("moyal", [], out_dir, 1, 0) is None)


def test_benchmark_json(tally):
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    tally.expect("BENCHMARK.json workloads",
                 [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    tally.expect("BENCHMARK.json end_to_end",
                 {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
    tally.expect("BENCHMARK.json per_layer",
                 {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units())


def main() -> int:
    tally = Tally()
    bench = run.Bench(os.getcwd(), seed=0, seconds=0, trace=False)
    try:
        test_operations(tally, bench.out)
        test_commands(tally, bench, bench.out)
        test_benchmark_json(tally)
    finally:
        bench.close()
    print(f"{tally.bad} failure(s)")
    return 1 if tally.bad else 0


if __name__ == "__main__":
    sys.exit(main())
