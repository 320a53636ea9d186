#!/usr/bin/env bash
# Tier-1 gate plus the parallel-determinism smoke tests.
#
#   tools/check.sh            build, run the test suite, then verify that
#                             --jobs 1 and --jobs 4 produce byte-identical
#                             output for the experiment grid (the fig19
#                             and fig20 CSVs and stdout, and the
#                             motivation table, which runs the
#                             out-of-order model),
#                             the fault-injection campaign (resilience
#                             table), and the telemetry timeline export
#                             (turnpike-cli trace), which must also be
#                             well-formed JSON. Also asserts that
#                             snapshot-forked campaigns are byte-identical
#                             to from-scratch replays (libquan, mcf@2017
#                             and the chase kernel mcf@2006, whose
#                             forensic export is compared too), that --ci
#                             stopping is deterministic at any job count
#                             (in the CLI and in the bench table), that the
#                             incremental per-pass lint report is
#                             byte-identical to the forced full re-check,
#                             that forensic lifecycle exports are
#                             byte-identical at any job count and across
#                             fork vs scratch replay (and that the report
#                             subcommand convicts a planted compiler bug),
#                             that the design-space explorer
#                             (turnpike-cli explore) writes byte-identical
#                             CSVs and stdout at any job count (also with
#                             --forensics) and re-validates its frontier,
#                             that out-of-range campaign and numeric flags
#                             (an empty campaign or table included)
#                             exit 2 and an uncreatable --csv directory or
#                             unwritable export path exits 1, never with
#                             an uncaught exception, that static
#                             vulnerability tables are byte-identical at
#                             any job count, that .tk kernel compiles and
#                             campaigns are byte-identical at any job
#                             count, that a bad --pipeline spec exits 1
#                             with a diagnostic, that bench/main.exe
#                             rejects a malformed --scale, an unknown
#                             flag and an empty campaign (--faults 0)
#                             with exit 2 and an uncreatable --csv
#                             directory with exit 1 before any work,
#                             naming the path, that every command block
#                             in docs/TUTORIAL.md runs verbatim, and
#                             (advisorily) that the odoc docs build.
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== determinism smoke: fig19, fig20, motivation at --jobs 1 vs --jobs 4 =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/csv1" "$tmp/csv4"
dune exec --no-build bench/main.exe -- fig19 fig20 motivation --scale 1 \
  --fuel 20000 --jobs 1 --csv "$tmp/csv1" > "$tmp/figs_j1.txt"
dune exec --no-build bench/main.exe -- fig19 fig20 motivation --scale 1 \
  --fuel 20000 --jobs 4 --csv "$tmp/csv4" > "$tmp/figs_j4.txt"
diff -r "$tmp/csv1" "$tmp/csv4"
# The "[csv written to ...]" lines name the (different) temp dirs; every
# other stdout byte must match, the motivation table's OoO overheads
# included.
diff <(grep -v '^\[csv written' "$tmp/figs_j1.txt") \
     <(grep -v '^\[csv written' "$tmp/figs_j4.txt")

echo "== determinism smoke: injection campaign at --jobs 1 vs --jobs 4 =="
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 8 --seed 3 --jobs 1 > "$tmp/camp_j1.txt"
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 8 --seed 3 --jobs 4 > "$tmp/camp_j4.txt"
diff "$tmp/camp_j1.txt" "$tmp/camp_j4.txt"
# The same table under a stopping rule: identical stopping points and
# intervals at any job count.
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 32 --seed 3 --ci 0.1 --batch 8 --jobs 1 > "$tmp/camp_ci_j1.txt"
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 32 --seed 3 --ci 0.1 --batch 8 --jobs 4 > "$tmp/camp_ci_j4.txt"
diff "$tmp/camp_ci_j1.txt" "$tmp/camp_ci_j4.txt"
grep -q 'stop target' "$tmp/camp_ci_j1.txt"

echo "== campaign smoke: snapshot-forked vs from-scratch parity =="
# The snapshot/fork replay path (default) must produce a report
# byte-identical to replaying every fault from step 0. mcf@2017 has the
# largest data segment, so its forks share the most memory pages;
# mcf@2006 chases pointers, so its forks replay long suffixes before they
# reconverge and are judged against the pilot's final memory.
for b in libquan mcf@2017 mcf@2006; do
  dune exec --no-build bin/turnpike_cli.exe -- inject -b "$b" --scale 2 \
    -n 16 --seed 3 --jobs 2 > "$tmp/inject_snap.txt"
  dune exec --no-build bin/turnpike_cli.exe -- inject -b "$b" --scale 2 \
    -n 16 --seed 3 --jobs 2 --scratch > "$tmp/inject_scratch.txt"
  diff "$tmp/inject_snap.txt" "$tmp/inject_scratch.txt"
done

echo "== campaign smoke: --ci stopping deterministic at --jobs 1 vs --jobs 4 =="
# Same seed and CI target => identical stopping point and report at any
# job count.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 200 --seed 3 --ci 0.05 --batch 16 --jobs 1 > "$tmp/inject_ci_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 200 --seed 3 --ci 0.05 --batch 16 --jobs 4 > "$tmp/inject_ci_j4.txt"
diff "$tmp/inject_ci_j1.txt" "$tmp/inject_ci_j4.txt"
grep -q 'confidence' "$tmp/inject_ci_j1.txt"

echo "== forensics smoke: lifecycle export at --jobs 1 vs --jobs 4 =="
# Per-fault lifecycle traces (strike, detect, rollback, reexec,
# reconverge, outcome) must export byte-identically at any job count.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 1 --forensics --jsonl "$tmp/forensics_j1.jsonl" \
  > "$tmp/forensics_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 4 --forensics --jsonl "$tmp/forensics_j4.jsonl" \
  > "$tmp/forensics_j4.txt"
diff "$tmp/forensics_j1.jsonl" "$tmp/forensics_j4.jsonl"
diff "$tmp/forensics_j1.txt" "$tmp/forensics_j4.txt"
grep -q '"name":"strike"' "$tmp/forensics_j1.jsonl"

echo "== forensics smoke: fork vs scratch lifecycle parity =="
# Snapshot-forked and from-scratch replays must trace identical
# lifecycles, byte for byte.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 2 --scratch --jsonl "$tmp/forensics_scratch.jsonl" \
  > /dev/null
diff "$tmp/forensics_j1.jsonl" "$tmp/forensics_scratch.jsonl"
# The same on a chase kernel's long replay suffixes, report included.
dune exec --no-build bin/turnpike_cli.exe -- inject -b mcf@2006 --scale 2 \
  -n 16 --seed 3 --jobs 2 --forensics --jsonl "$tmp/forensics_mcf_snap.jsonl" \
  > "$tmp/forensics_mcf_snap.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b mcf@2006 --scale 2 \
  -n 16 --seed 3 --jobs 2 --forensics --scratch \
  --jsonl "$tmp/forensics_mcf_scratch.jsonl" > "$tmp/forensics_mcf_scratch.txt"
diff "$tmp/forensics_mcf_snap.jsonl" "$tmp/forensics_mcf_scratch.jsonl"
diff "$tmp/forensics_mcf_snap.txt" "$tmp/forensics_mcf_scratch.txt"
grep -q '"name":"strike"' "$tmp/forensics_mcf_snap.jsonl"

echo "== forensics smoke: report convicts the drop-ckpt mutant =="
# The vulnerability ranking must localize a planted compiler bug: the
# top-ranked region is one that lost its live-in checkpoint (the command
# exits non-zero otherwise).
dune exec --no-build bin/turnpike_cli.exe -- report -b mcf --scale 2 -n 40 \
  --seed 11 --jobs 2 --mutant drop-ckpt > "$tmp/report_mutant.txt"
grep -q 'CONVICTED' "$tmp/report_mutant.txt"

echo "== telemetry smoke: timeline export at --jobs 1 vs --jobs 4 =="
dune exec --no-build bin/turnpike_cli.exe -- trace -b libquan --scale 1 \
  --jobs 1 --timeline "$tmp/trace_j1.json" --jsonl "$tmp/trace_j1.jsonl" \
  > "$tmp/trace_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- trace -b libquan --scale 1 \
  --jobs 4 --timeline "$tmp/trace_j4.json" --jsonl "$tmp/trace_j4.jsonl" \
  > "$tmp/trace_j4.txt"
test -s "$tmp/trace_j1.json"
grep -q '"traceEvents"' "$tmp/trace_j1.json"
grep -q '"verify_window"' "$tmp/trace_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/trace_j1.json" > /dev/null
else
  echo "(python3 not found; skipping JSON syntax validation)"
fi
diff "$tmp/trace_j1.json" "$tmp/trace_j4.json"
diff "$tmp/trace_j1.jsonl" "$tmp/trace_j4.jsonl"
diff "$tmp/trace_j1.txt" "$tmp/trace_j4.txt"

echo "== lint smoke: static soundness checks over every workload =="
# Clean exit (0) is asserted by set -e; every ladder rung of every
# benchmark must produce zero Error diagnostics in per-pass mode.
dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --scale 2 \
  --jobs 1 --json > "$tmp/lint_j1.json"
grep -q '"errors":0' "$tmp/lint_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/lint_j1.json" > /dev/null
fi
# Byte-identical report at any job count.
dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --scale 2 \
  --jobs 4 --json > "$tmp/lint_j4.json"
diff "$tmp/lint_j1.json" "$tmp/lint_j4.json"
# The failure path exits non-zero (unknown scheme).
if dune exec --no-build bin/turnpike_cli.exe -- lint -s no-such-scheme \
     > /dev/null 2>&1; then
  echo "lint should have failed on an unknown scheme" >&2
  exit 1
fi

echo "== lint smoke: incremental vs full re-check byte parity =="
# The incremental per-pass engine (facet invalidation) must produce a
# report byte-identical to the forced non-incremental oracle.
for b in mcf radix; do
  dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass -b "$b" \
    --scale 2 --jobs 1 --json > "$tmp/lint_${b}_inc.json"
  dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --full-recheck \
    -b "$b" --scale 2 --jobs 1 --json > "$tmp/lint_${b}_full.json"
  diff "$tmp/lint_${b}_inc.json" "$tmp/lint_${b}_full.json"
done

echo "== explore smoke: tiny design grid at --jobs 1 vs --jobs 4 =="
# The design-space explorer (every point scored once at full scale, then
# the Pareto frontier) must emit byte-identical CSV artifacts and stdout
# at any job count, and its frontier must re-validate at full scale
# (non-zero exit otherwise). Both turnpike points are on the tiny grid's
# frontier; the out-of-order one has the lowest overhead.
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 1 --csv "$tmp/explore1" > "$tmp/explore_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 4 --csv "$tmp/explore4" > "$tmp/explore_j4.txt"
diff -r "$tmp/explore1" "$tmp/explore4"
diff <(grep -v '^\[csv written' "$tmp/explore_j1.txt") \
     <(grep -v '^\[csv written' "$tmp/explore_j4.txt")
grep -q 're-validation at full scale: ok' "$tmp/explore_j1.txt"
grep -q 'ooo/sb4/clq2/cb2/s300/turnpike' "$tmp/explore_j1.txt"
test -s "$tmp/explore1/explore_grid.csv"
test -s "$tmp/explore1/explore_pareto.csv"
# With --forensics the campaigns record lifecycles on pool workers; the
# per-point rollups must print identically at any job count.
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 1 --forensics > "$tmp/explore_forensics_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 4 --forensics > "$tmp/explore_forensics_j4.txt"
diff "$tmp/explore_forensics_j1.txt" "$tmp/explore_forensics_j4.txt"
grep -q 'forensics\[turnpike\]' "$tmp/explore_forensics_j1.txt"

echo "== CLI smoke: bad flags exit 2, unwritable output paths exit 1 =="
# Each row: expected exit code | text stderr must contain | arguments.
# Out-of-range flags and missing output directories are rejected before
# any work; none may end in an uncaught exception.
while IFS='|' read -r want needle args; do
  status=0
  # shellcheck disable=SC2086  # $args is a word list on purpose
  dune exec --no-build bin/turnpike_cli.exe -- $args < /dev/null > /dev/null \
    2> "$tmp/bad_flag.err" || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "turnpike-cli $args: exit $status, expected $want" >&2
    cat "$tmp/bad_flag.err" >&2
    exit 1
  fi
  grep -q -- "$needle" "$tmp/bad_flag.err"
  if grep -q 'uncaught exception' "$tmp/bad_flag.err"; then
    echo "turnpike-cli $args: uncaught exception" >&2
    exit 1
  fi
done <<'EOF'
2|--ci|explore --grid tiny --scale 1 --ci 0
2|--ci|inject -b libquan --scale 1 --ci 0
2|--batch|inject -b libquan --scale 1 --batch 0 --ci 0.1
2|--confidence|inject -b libquan --scale 1 --confidence 2 --ci 0.1
2|--faults|inject -b libquan --scale 1 -n 0
2|--faults|report -b mcf --scale 1 -n 0
2|--top|report -b mcf --scale 1 --top 0
2|--top|report -b mcf --scale 1 --top=-1
2|--faults|explore --grid tiny --scale 1 -n 0
1|/nonexistent/dir/x|explore --grid tiny --scale 1 --csv /nonexistent/dir/x
2|--sb|run -b mcf --sb 0
2|--sb|run -b mcf --sb=-3
2|--sb|lint -b lbm --sb 0
2|--scale|run -b mcf --scale 0
2|--wcdl|run -b mcf --wcdl=-5
2|--sensors|wcdl --sensors 0
2|--ghz|wcdl --ghz 0
1|/nonexistent/dir/x.json|trace -b lbm --scale 1 --timeline /nonexistent/dir/x.json
1|/nonexistent/dir/x.jsonl|trace -b lbm --scale 1 --jsonl /nonexistent/dir/x.jsonl
1|/nonexistent/dir/x.jsonl|inject -b libquan --scale 1 -n 4 --jsonl /nonexistent/dir/x.jsonl
1|/nonexistent/dir/x.json|inject -b libquan --scale 1 -n 4 --trace /nonexistent/dir/x.json
EOF

echo "== vuln smoke: static ACE/AVF tables at --jobs 1 vs --jobs 4 =="
# The static vulnerability report must be byte-identical at any job
# count, rank at least one region, and never inject a fault.
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 1 --json > "$tmp/vuln_j1.json"
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 4 --json > "$tmp/vuln_j4.json"
diff "$tmp/vuln_j1.json" "$tmp/vuln_j4.json"
grep -q '"predicted_avf"' "$tmp/vuln_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/vuln_j1.json" > /dev/null
fi
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 1 --csv "$tmp/vulncsv" > /dev/null
test -s "$tmp/vulncsv/vuln_by_region.csv"
test -s "$tmp/vulncsv/vuln_by_register.csv"
test -s "$tmp/vulncsv/vuln_by_site.csv"
# The static ranking must be comparable against a real campaign's
# forensics tables from the report CLI.
dune exec --no-build bin/turnpike_cli.exe -- report -b mcf --scale 2 -n 40 \
  --seed 11 --compare-static > "$tmp/vuln_compare.txt"
grep -q 'static-vs-dynamic rank agreement' "$tmp/vuln_compare.txt"

echo "== .tk smoke: compile + campaign byte-identical at --jobs 1 vs --jobs 4 =="
# The .tk frontend feeds the same deterministic machinery: the compile
# listing and a fault campaign on a user kernel must not depend on the
# worker count.
dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
  --scale 2 --jobs 1 --pipeline=default > "$tmp/tk_compile_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
  --scale 2 --jobs 4 --pipeline=default > "$tmp/tk_compile_j4.txt"
diff "$tmp/tk_compile_j1.txt" "$tmp/tk_compile_j4.txt"
grep -q 'passes:' "$tmp/tk_compile_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --jobs 1 > "$tmp/tk_inject_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --jobs 4 > "$tmp/tk_inject_j4.txt"
diff "$tmp/tk_inject_j1.txt" "$tmp/tk_inject_j4.txt"
grep -q 'triad@tk' "$tmp/tk_inject_j1.txt"

echo "== .tk smoke: bad --pipeline specs exit 1 with a diagnostic =="
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=nope > /dev/null 2> "$tmp/pipe_unknown.err"; then
  echo "compile should have rejected an unknown pass" >&2
  exit 1
fi
grep -q "unknown pass \`nope'" "$tmp/pipe_unknown.err"
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=-regalloc > /dev/null 2> "$tmp/pipe_mandatory.err"; then
  echo "compile should have rejected dropping a mandatory pass" >&2
  exit 1
fi
grep -q 'mandatory' "$tmp/pipe_mandatory.err"
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=regalloc,livm,partition_and_checkpoint,region_metadata \
     > /dev/null 2> "$tmp/pipe_order.err"; then
  echo "compile should have rejected an unsound pass order" >&2
  exit 1
fi
grep -q 'must run before' "$tmp/pipe_order.err"

echo "== bench smoke: bad arguments exit 2, an uncreatable --csv dir exits 1 =="
# bench/main.exe parses its own arguments: a malformed number and a flag
# it does not know must each exit 2 with the flag named on stderr.
status=0
dune exec --no-build bench/main.exe -- --scale abc table1 > /dev/null \
  2> "$tmp/bench_scale.err" || status=$?
test "$status" -eq 2
grep -q -- '--scale expects a number, got abc' "$tmp/bench_scale.err"
status=0
dune exec --no-build bench/main.exe -- --forensics table1 > /dev/null \
  2> "$tmp/bench_forensics.err" || status=$?
test "$status" -eq 2
grep -q -- 'unknown argument --forensics' "$tmp/bench_forensics.err"
# An empty campaign is a vacuous pass of the SDC-freedom claim, not a
# result: --faults 0 must be refused before any work.
status=0
dune exec --no-build bench/main.exe -- resilience --faults 0 > /dev/null \
  2> "$tmp/bench_faults.err" || status=$?
test "$status" -eq 2
grep -q -- '--faults expects a positive count, got 0' "$tmp/bench_faults.err"
# A --csv directory that cannot be created is refused when the flag is
# parsed: exit 1 naming the path, not an exception after the table.
status=0
dune exec --no-build bench/main.exe -- fig18 --csv /nonexistent/dir/x > /dev/null \
  2> "$tmp/bench_csv.err" || status=$?
test "$status" -eq 1
grep -q -- 'cannot create directory /nonexistent/dir/x' "$tmp/bench_csv.err"
if grep -qE 'Fatal error|uncaught exception' "$tmp/bench_csv.err"; then
  echo "bench/main.exe --csv /nonexistent/dir/x: uncaught exception" >&2
  exit 1
fi

echo "== tutorial smoke: docs/TUTORIAL.md command blocks run verbatim =="
# Every ```sh block in the tutorial executes in a scratch directory with
# turnpike-cli shimmed to the freshly built binary.
repo="$PWD"
mkdir -p "$tmp/shim" "$tmp/tutorial"
printf '#!/usr/bin/env bash\nexec "%s/_build/default/bin/turnpike_cli.exe" "$@"\n' \
  "$repo" > "$tmp/shim/turnpike-cli"
chmod +x "$tmp/shim/turnpike-cli"
awk '/^```sh$/ { run = 1; next } /^```$/ { run = 0 } run' docs/TUTORIAL.md \
  > "$tmp/tutorial/script.sh"
grep -q 'turnpike-cli report' "$tmp/tutorial/script.sh"
(cd "$tmp/tutorial" && PATH="$tmp/shim:$PATH" bash -euo pipefail script.sh \
  > tutorial.log)
test -s "$tmp/tutorial/vuln.json"
grep -q 'confidence' "$tmp/tutorial/tutorial.log"

echo "== docs smoke: odoc build (advisory) =="
if command -v odoc > /dev/null 2>&1; then
  if ! dune build @doc > "$tmp/odoc.log" 2>&1; then
    echo "(advisory) dune build @doc failed:" >&2
    cat "$tmp/odoc.log" >&2
  fi
else
  echo "(odoc not found; skipping doc build)"
fi

echo "check.sh: OK"
