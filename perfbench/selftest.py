"""Self-tests of the pcqed benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke: every workload at the shortest run length (--seconds 1, which
   still makes two runs), with --trace 0 and --trace 1. The last line must be
   the result object carrying every metric of BENCHMARK.json for that trace
   setting, by name and unit, with correct = true.
2. The correctness checks fire on corrupted outputs: a flipped verdict in the
   paper summary and a truncated spectral-fit result; the output digest
   changes with each of them.
3. Without the pcqed sources (only BENCHMARK.json and perfbench/ present),
   run.py exits non-zero and prints no result.

Takes about four minutes on two cores; exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SELFTEST = run.WORK_ROOT / "selftest"


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(run.ROOT, "--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert isinstance(result["failed"], int)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            for name, metric in result["metrics"].items():
                assert set(metric) == {"value", "unit"}, name
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok: smoke {workload} --trace {trace}")


def flip_verdict(out: Path) -> None:
    summary = out / "summary.txt"
    lines = summary.read_text().splitlines()
    lines = [ln.removesuffix(": FAIL") + ": PASS" if run.Paper.KNOWN_FAIL in ln else ln
             for ln in lines]
    summary.write_text("\n".join(lines) + "\n")


def truncate_spectral_fit(out: Path) -> None:
    path = out / "scan0" / "scan_fit" / "fit_scan.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def corrupted_outputs() -> None:
    for workload, corrupt in ((run.Paper(), flip_verdict),
                              (run.LifetimeScan(), truncate_spectral_fit)):
        work = SELFTEST / workload.name
        inputs, out = work / "inputs", work / "out"
        inputs.mkdir(parents=True)
        workload.prepare(inputs, 1)
        result = run.run_iteration(workload, run.Runner(work), inputs, out)
        assert not result["problems"], result["problems"]
        digest, _ = run.tree_digest(out)
        assert digest == result["digest"]
        corrupt(out)
        problems = workload.check(out, result["exits"])
        assert problems, f"{workload.name}: check missed {corrupt.__name__}"
        assert run.tree_digest(out)[0] != digest, f"{workload.name}: digest missed the change"
        print(f"ok: {workload.name} check fires on {corrupt.__name__}: {problems[0][1]}")


def without_sources() -> None:
    bare = SELFTEST / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "paper", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok: exit {proc.returncode} without sources: {proc.stderr.strip()}")


def main() -> int:
    shutil.rmtree(SELFTEST, ignore_errors=True)
    try:
        without_sources()
        corrupted_outputs()
        smoke()
    finally:
        shutil.rmtree(SELFTEST, ignore_errors=True)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
