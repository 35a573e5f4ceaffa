#!/usr/bin/env bash
# Smoke self-test: all four workloads, both modes, at 60 nodes x 1 day with
# one repetition, then check what was printed against BENCHMARK.json:
# every end-to-end (untraced) and per-layer (traced) metric appears exactly
# once per workload as a `metric` line with a finite value and its declared
# unit, the result line carries the same values, and the declaration itself
# stays within the contract's limits.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$here/out"
log=$here/out/selftest.log

"$here/run.sh" --smoke >"$log"

python3 - "$here/../BENCHMARK.json" "$log" <<'EOF'
import json, math, re, sys

bench = json.load(open(sys.argv[1]))
name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
assert 2 <= len(bench["workloads"]) <= 8
assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
names = [m["name"] for ms in declared.values() for m in ms] + [w["name"] for w in bench["workloads"]]
assert len(names) == len(set(names)), "a name is used twice"
for m in bench["end_to_end"]:
    assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
for m in bench["per_layer"]:
    assert set(m) == {"name", "unit", "better"}, m
for m in declared[0] + declared[1]:
    assert name_re.match(m["name"]) and unit_re.match(m["unit"]), m
    assert m["better"] in ("higher", "lower"), m
for w in bench["workloads"]:
    assert set(w) == {"name", "why"} and name_re.match(w["name"]), w
    assert len(w["why"]) <= 200 and "\n" not in w["why"], w
assert any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
           for m in bench["end_to_end"]), "setup_s missing"

# Split the log into runs at their header lines.
runs, current = {}, None
for line in open(sys.argv[2]).read().splitlines():
    head = re.match(r"^# workload (\S+) seed \d+ trace ([01]) ", line)
    if head:
        current = (head.group(1), int(head.group(2)))
        assert current not in runs, f"{current} ran twice"
        runs[current] = []
    elif current:
        runs[current].append(line)

for w in bench["workloads"]:
    for mode in (0, 1):
        lines = runs.get((w["name"], mode))
        assert lines, f"{w['name']} trace {mode} did not run"
        printed = {}
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit = line.split()
                assert name not in printed, f"{name} printed twice"
                printed[name] = (float(value), unit)
        want = {m["name"]: m["unit"] for m in declared[mode]}
        assert set(printed) == set(want), (
            f"{w['name']} trace {mode}: missing {sorted(set(want) - set(printed))}, "
            f"undeclared {sorted(set(printed) - set(want))}")
        for name, (value, unit) in printed.items():
            assert math.isfinite(value), f"{name} = {value}"
            assert unit == want[name], f"{name}: unit {unit}, declared {want[name]}"
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, (w["name"], mode, result["failed"])
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()} == printed
print(f"selftest: {len(runs)} runs, {len(declared[0])} end-to-end and {len(declared[1])} per-layer metrics: ok")
EOF
