"""Self-test of the correctness gate and of BENCHMARK.json's metric lists.

    python3 perfbench/selftest.py

Runs the design-search workload (about 1 s a pass) and checks that a
corrupted reference value, a malformed output, a nonzero exit code and a
rerun with different bytes each count as a failed command, so each shows in
fail_ratio; that an oracle-check table with a FAIL row is rejected; and that
a check whose deviation is exactly 0 gets a finite margin of at most 2**52.
Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import sys

import gate
import run
from workloads import WORKLOADS, Command


def _checker(cli, gate, reference, out_dir):
    jobs = [run.Job(cli, command, out_dir) for command in WORKLOADS["design-search"][0](0)]
    return jobs, run.Checker(gate, jobs, reference)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import optomech.cli as cli

    results = []

    def expect(name, checker, failed):
        ok = checker.failed == failed
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {checker.failed} of {checker.attempted} failed, expected {failed}")

    out_dir = run.OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = run.load_reference("design-search", 0)
    if reference is None:
        print("FAIL no stored design-search reference for seed 0")
        return 1

    jobs, checker = _checker(cli, gate, reference, out_dir)
    result = run.run_pass(cli, jobs)
    checker(result)
    expect("intact reference", checker, 0)

    corrupted = dict(reference)
    column = corrupted["design/ratio_at_eval_finesse"].copy()
    column[0] *= 1.0 + 1e-9
    corrupted["design/ratio_at_eval_finesse"] = column
    jobs, checker = _checker(cli, gate, corrupted, out_dir)
    checker(run.run_pass(cli, jobs))
    expect("one reference value off by 1e-9 relative", checker, 1)

    jobs, checker = _checker(cli, gate, reference, out_dir)
    checker(run.run_pass(cli, jobs))
    good = jobs[0].csv.read_bytes()
    jobs[0].csv.write_bytes(good.rsplit(b"\r\n", 2)[0] + b"\r\n")
    checker({"codes": [0]})
    expect("rerun whose CSV lost its last row", checker, 1)

    for name, data, code in (
        ("output that is not a CSV table", b"not,a\r\ntable\r\n", 0),
        ("correct output with exit code 2", good, 2),
    ):
        jobs, checker = _checker(cli, gate, reference, out_dir)
        jobs[0].csv.write_bytes(data)
        checker({"codes": [code]})
        expect(name, checker, 1)

    table = "# config_json: {}\r\ncheck,max_deviation,tolerance,status\r\n" + "".join(
        f"{check},{1e-20 if i else 2e-15!r},1e-15,{'PASS' if i else 'FAIL'}\r\n"
        for i, check in enumerate(run.ORACLE_CHECKS)
    )
    problems = gate.check(Command("oracle-check", "oracle-check"), {"csv": table.encode()}, None)
    ok = bool(problems)
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} oracle-check table with one FAIL row: {gate.format_problems(problems)}")

    exact = table.replace("2e-15,1e-15,FAIL", "0.0,1e-15,PASS")
    margin = gate.oracle_margins(gate.Output(exact.encode()))[run.ORACLE_CHECKS[0]]
    ok = 1.0 <= margin <= 2.0 ** 52
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} a deviation of exactly 0 gives a margin of at most 2**52: {margin!r}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units()) and {
        m["name"] for m in spec["end_to_end"]
    } == {name for name, _ in run.END_TO_END} and [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the workloads and metrics run.py reports")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
