#!/usr/bin/env bash
# CI gate: formatting, lints, build, tier-1 tests, and a metrics smoke
# check that a real `eitc --metrics` run emits a parseable document.
#
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# Intra-doc links must resolve: a link to a deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release

echo "== cargo test (tier-1)"
cargo test -q

echo "== metrics smoke: eitc matmul --metrics"
out="$(mktemp /tmp/eit-metrics.XXXXXX.json)"
trap 'rm -f "$out"' EXIT
./target/release/eitc matmul --metrics "$out" >/dev/null

# The round-trip parser lives in eit-bench; its integration test is the
# authoritative validation. Here we assert the emitted file looks like a
# versioned document and re-run that test against the tree.
grep -q '"schema": "eit-run-metrics/1"' "$out"
cargo test -q -p eit-bench --test metrics_roundtrip

echo "== engine equivalence: event-driven vs FIFO baseline, incremental Diff2 vs full rescan, constant-extent Diff2 vs general"
cargo test -q --release -p eit-cp --test differential event_engine
cargo test -q --release -p eit-cp --test differential diff2_incremental_matches_full_rescan
cargo test -q --release -p eit-cp --test differential diff2_fixed_extents_match_the_general_path
cargo test -q --release -p eit-cp --test differential diff2_over_a_root_propagated_origin_keeps_the_general_path

echo "== run-based channelling vs its per-value oracle: ModChannel, SlotGeometry, x+c=y"
# Seeded random domains of up to ~1000 values with holes, near both ends
# of the i32 range, moduli up to 128, aliased arguments, empty supports.
cargo test -q --release -p eit-cp --lib per_value_oracle
# The same draws (and offset views) against the routine the kept-buffer
# propagators replaced: outcome, domains, event log and change count.
cargo test -q --release -p eit-cp --lib reference_events
# No heap allocation in a run at a fixpoint or a run narrowing bitsets.
cargo test -q --release -p eit-cp --test channel_allocs
# The propagator runs and probe searches the channelling drives.
cargo test -q --release -p eit-bench --test propagation_counts --test probe_counts

echo "== listing pins: six table kernels × {plain, --modulo, --modulo --backend sat, --modulo incl, --emit gantt, --emit vcd, --overlap 4}"
cargo test -q --release -p eit-bench --test listings table_kernel_listings_are_pinned
# The straight-line search behind the plain listings, per kernel.
cargo test -q --release -p eit-bench --test search_counts

echo "== parallel sweep determinism: --jobs 1 vs --jobs 4 on the table 3 smoke models (cp incl, sat)"
# The determinism contract of the speculative II sweep: the emitted
# schedule (stdout) must be byte-identical, and the metrics must be
# byte-identical after stripping the fields that are nondeterministic by
# design — wall-clock (*_us), the jobs count itself, and the per-worker
# attribution block.
normalize_metrics() {
  sed -E -e 's/"[a-z_]*_us": [0-9]+/"_us": 0/' \
         -e 's/"jobs": [0-9]+/"jobs": 0/' \
         -e '/"workers": \[/,/^    \]$/d' "$1"
}
# jobs_gate KERNEL LABEL EITC-ARGS...: run both worker counts, diff both outputs.
jobs_gate() {
  local k="$1" label="$2"; shift 2
  local s1 m1 s4 m4
  s1="$(mktemp /tmp/eit-mod1.XXXXXX)"; m1="$(mktemp /tmp/eit-mod1m.XXXXXX.json)"
  s4="$(mktemp /tmp/eit-mod4.XXXXXX)"; m4="$(mktemp /tmp/eit-mod4m.XXXXXX.json)"
  ./target/release/eitc "$k" "$@" --timeout 60 --jobs 1 --metrics "$m1" > "$s1"
  ./target/release/eitc "$k" "$@" --timeout 60 --jobs 4 --metrics "$m4" > "$s4"
  diff "$s1" "$s4" || { echo "FAIL: $label --jobs 4 schedule differs from sequential"; exit 1; }
  diff <(normalize_metrics "$m1") <(normalize_metrics "$m4") \
    || { echo "FAIL: $label --jobs 4 metrics differ from sequential"; exit 1; }
  rm -f "$s1" "$s4" "$m1" "$m4"
  echo "   $label: schedules and normalized metrics byte-identical"
}
for k in matmul fir qrd; do
  jobs_gate "$k" "$k" --modulo incl
done
# The SAT sweep runs on the same driver and makes the same promise; its
# solver counters are summed up to the winner, so they must match too.
for k in matmul fir qrd; do
  jobs_gate "$k" "$k sat" --modulo --backend sat
done

echo "== differential fuzz smoke: 200 fixed-seed cases (hybrid bitset domains on)"
# Deterministic: same seed, same graphs, same verdicts on every machine.
# Each case cross-checks XML round-trips, the list/CP/modulo schedulers,
# both independent verifiers, and the simulator's execution of the stream
# against the reference interpreter (~30s ceiling; typically well under). The solver runs with the hybrid
# bitset representation enabled (the Store default), so the corpus also
# exercises promotion and the bitset fast paths on every case.
./target/release/fuzz --seed 5 --cases 200 --out /tmp/eit-fuzz-failures

echo "== arch-fuzz smoke: 100 fixed-seed architecture×kernel cases"
# Each case draws a generated machine (always validate()-clean) before
# the kernel; the full differential stack must agree on every pair.
./target/release/fuzz --seed 7 --cases 100 --arch-fuzz --out /tmp/eit-arch-fuzz-failures

echo "== backend-fuzz smoke: 200 fixed-seed cases, CP vs SAT vs race"
# Wherever CP finds a modulo schedule, the SAT sweep and the CP/SAT race
# must land on the same II, each with a schedule clean under both
# verifiers.
./target/release/fuzz --seed 5 --cases 200 --backend-fuzz --out /tmp/eit-backend-fuzz-failures

echo "== parametric arch gate: preset → XML → reload is byte-identical"
# The eit-arch/1 contract: a dumped preset is a parse/render fixpoint,
# reloading it compiles every table kernel byte-identical to the builtin
# path, and invalid descriptions are rejected with named attributes.
archdir="$(mktemp -d /tmp/eit-arch.XXXXXX)"
./target/release/eitc --dump-arch eit  > "$archdir/eit.xml"
./target/release/eitc --dump-arch wide > "$archdir/wide.xml"
./target/release/eitc --dump-arch "$archdir/eit.xml"  | cmp - "$archdir/eit.xml" \
  || { echo "FAIL: eit.xml is not a dump fixpoint"; exit 1; }
./target/release/eitc --dump-arch "$archdir/wide.xml" | cmp - "$archdir/wide.xml" \
  || { echo "FAIL: wide.xml is not a dump fixpoint"; exit 1; }
for k in qrd arf matmul fir detector blockmm; do
  ./target/release/eitc "$k" > "$archdir/builtin_$k.txt"
  ./target/release/eitc "$k" --arch "$archdir/eit.xml" > "$archdir/reloaded_$k.txt"
  cmp "$archdir/builtin_$k.txt" "$archdir/reloaded_$k.txt" \
    || { echo "FAIL: $k --arch eit.xml differs from the builtin path"; exit 1; }
  echo "   $k: reloaded-preset listing byte-identical to builtin"
done
# Validation-on-load: a parseable but impossible machine is refused.
sed 's/page_size="4"/page_size="32"/' "$archdir/eit.xml" > "$archdir/bad.xml"
if ./target/release/eitc qrd --arch "$archdir/bad.xml" >/dev/null 2>"$archdir/bad.err"; then
  echo "FAIL: invalid arch description was accepted"; exit 1
fi
grep -q 'page_size="32"' "$archdir/bad.err" \
  || { echo "FAIL: arch rejection did not name the attribute"; exit 1; }
echo "   invalid description rejected with the attribute named"
# A matrix op narrower than the vector core is refused too: both
# schedulers assume a matrix op fills every lane.
sed 's/class="matrix" \(.*\) width="0"/class="matrix" \1 width="2"/' "$archdir/eit.xml" > "$archdir/narrow.xml"
grep -q 'class="matrix" .* width="2"' "$archdir/narrow.xml" \
  || { echo "FAIL: narrow-matrix edit did not apply"; exit 1; }
if ./target/release/eitc qrd --arch "$archdir/narrow.xml" >/dev/null 2>"$archdir/narrow.err"; then
  echo "FAIL: narrow matrix width was accepted"; exit 1
fi
grep -q 'width="2"' "$archdir/narrow.err" \
  || { echo "FAIL: narrow-matrix rejection did not name width=\"2\""; exit 1; }
echo "   narrow matrix width rejected with the attribute named"
# A vector op that holds the core past its issue cycle is refused too:
# the core issues an op in one cycle.
sed 's/class="vector" \(.*\) occupancy="1"/class="vector" \1 occupancy="2"/' "$archdir/eit.xml" > "$archdir/occ2.xml"
grep -q 'class="vector" .* occupancy="2"' "$archdir/occ2.xml" \
  || { echo "FAIL: vector-occupancy edit did not apply"; exit 1; }
if ./target/release/eitc fir --arch "$archdir/occ2.xml" --modulo --verify >/dev/null 2>"$archdir/occ2.err"; then
  echo "FAIL: vector occupancy 2 was accepted"; exit 1
fi
grep -q 'occupancy' "$archdir/occ2.err" \
  || { echo "FAIL: vector-occupancy rejection did not name occupancy"; exit 1; }
echo "   vector occupancy 2 rejected with the attribute named"
# Two accelerators and two index/merge units: a cycle can issue two ops
# of one unit, and the listing must still print every one of them.
sed 's/count="1"/count="2"/' "$archdir/eit.xml" > "$archdir/rep.xml"
[ "$(grep -c 'count="2"' "$archdir/rep.xml")" = 2 ] \
  || { echo "FAIL: replication edit did not apply"; exit 1; }
entries() { (grep -o "$1" "$2" || true) | wc -l; }
for k in qrd arf matmul fir detector blockmm; do
  ./target/release/eitc "$k" --arch "$archdir/rep.xml" --verify > "$archdir/rep_$k.txt"
  for e in 'ACC\[' 'IDX/MRG\['; do
    [ "$(entries "$e" "$archdir/rep_$k.txt")" = "$(entries "$e" "$archdir/builtin_$k.txt")" ] \
      || { echo "FAIL: $k --arch rep.xml lists a different number of $e entries"; exit 1; }
  done
  echo "   $k: replicated-unit listing verified, every ACC/IDX/MRG entry present"
done
# The Gantt draws one row per accelerator replica: every ACC[ entry of
# the listing is one 's' issue mark on those rows.
acc_marks="$(./target/release/eitc qrd --arch "$archdir/rep.xml" --emit gantt \
  | grep '^scalar-accel' | sed 's/^[^|]*|//' | tr -cd 's' | wc -c)"
[ "$acc_marks" = "$(entries 'ACC\[' "$archdir/rep_qrd.txt")" ] \
  || { echo "FAIL: qrd --arch rep.xml Gantt shows $acc_marks accelerator marks"; exit 1; }
echo "   qrd --arch rep.xml: Gantt shows one accelerator mark per ACC entry"
./target/release/eitc qrd --arch "$archdir/rep.xml" --overlap 4 --verify >/dev/null
echo "   qrd --arch rep.xml --overlap 4: verified clean"
./target/release/table2 --arch "$archdir/rep.xml" >/dev/null
echo "   table2 --arch rep.xml: overlap rows validate"

echo "== independent verification of the table 1/2/3 reference schedules"
# Every paper kernel, straight-line at its table slot budget, must pass
# the solver-independent verifier AND the simulator's structural rules
# with zero violations ('; verify: ... clean' + exit 0).
for k in qrd arf matmul fir detector blockmm; do
  ./target/release/eitc "$k" --timeout 120 --verify >/dev/null
  echo "   $k: verified clean"
done
./target/release/eitc qrd --slots 16 --timeout 120 --verify >/dev/null
echo "   qrd --slots 16: verified clean"
for k in matmul fir; do
  ./target/release/eitc "$k" --modulo --timeout 60 --verify >/dev/null
  echo "   $k --modulo: verified clean"
done

echo "== SAT-vs-CP race gate: both modulo backends agree and verify clean"
# The CDCL/CNF sweep (eit-sat) is an independently implemented decision
# procedure for the same modulo model: raced against CP it must land on
# the same minimum II (sweeps are bottom-up, so the winner's II is
# backend-independent), the winning schedule must pass both verifiers,
# and the metrics must attribute a winner. The race also runs with four
# workers and must keep its II. All six table kernels run (SAT sweeps
# take milliseconds); qrd is pinned to its known minimum II of 22.
satdir="$(mktemp -d /tmp/eit-sat.XXXXXX)"
for k in qrd arf matmul fir detector blockmm; do
  cp_m="$satdir/$k.cp.json"; sat_m="$satdir/$k.sat.json"; race_m="$satdir/$k.race.json"
  ./target/release/eitc "$k" --modulo --backend sat --timeout 60 --verify --metrics "$sat_m" >/dev/null
  ./target/release/eitc "$k" --modulo --backend race --timeout 60 --verify --metrics "$race_m" >/dev/null
  race4_m="$satdir/$k.race4.json"
  ./target/release/eitc "$k" --modulo --backend race --jobs 4 --timeout 60 --verify --metrics "$race4_m" >/dev/null
  ./target/release/eitc "$k" --modulo --backend cp --timeout 60 --verify --metrics "$cp_m" >/dev/null
  ii_cp="$(grep -o '"ii_issue": *[0-9]*' "$cp_m" | head -1 | grep -o '[0-9]*$')"
  ii_sat="$(grep -o '"ii_issue": *[0-9]*' "$sat_m" | head -1 | grep -o '[0-9]*$')"
  ii_race="$(grep -o '"ii_issue": *[0-9]*' "$race_m" | head -1 | grep -o '[0-9]*$')"
  ii_race4="$(grep -o '"ii_issue": *[0-9]*' "$race4_m" | head -1 | grep -o '[0-9]*$')"
  [ "$ii_cp" = "$ii_sat" ] && [ "$ii_cp" = "$ii_race" ] \
    || { echo "FAIL: $k backend II mismatch (cp $ii_cp, sat $ii_sat, race $ii_race)"; exit 1; }
  # The race runs per candidate inside the worker pool: four workers
  # must land on the same II as one (winner attribution may differ).
  [ "$ii_race" = "$ii_race4" ] \
    || { echo "FAIL: $k race II differs between --jobs 1 ($ii_race) and --jobs 4 ($ii_race4)"; exit 1; }
  [ "$k" != qrd ] || [ "$ii_cp" = 22 ] \
    || { echo "FAIL: qrd modulo II is $ii_cp, expected 22"; exit 1; }
  grep -q '"backend": *"sat"' "$sat_m" \
    || { echo "FAIL: $k --backend sat metrics not attributed to sat"; exit 1; }
  grep -qE '"backend": *"(cp|sat)"' "$race_m" \
    || { echo "FAIL: $k --backend race metrics carry no winner attribution"; exit 1; }
  grep -q '"sat": *{' "$sat_m" \
    || { echo "FAIL: $k --backend sat metrics carry no solver counters"; exit 1; }
  winner="$(grep -o '"backend": *"[a-z]*"' "$race_m" | head -1 | grep -o '"[a-z]*"$')"
  echo "   $k: cp/sat/race (jobs 1 and 4) agree on II $ii_cp; race winner $winner"
done
# The CNF encoding is deterministic: the same model, the same bytes
# (detector has the most configuration-selector residues).
for k in qrd detector; do
  ./target/release/eitc "$k" --modulo --emit cnf > "$satdir/${k}1.cnf"
  ./target/release/eitc "$k" --modulo --emit cnf > "$satdir/${k}2.cnf"
  cmp "$satdir/${k}1.cnf" "$satdir/${k}2.cnf" \
    || { echo "FAIL: two $k --emit cnf runs differ"; exit 1; }
  echo "   $k --emit cnf: two runs byte-identical"
done
rm -rf "$satdir"

echo "== deadline-overflow smoke: a timeout too large for a deadline runs unbounded"
# u64::MAX seconds cannot be added to the clock; it must mean "no
# deadline" and yield the same listing as the default budget.
dldir="$(mktemp -d /tmp/eit-dl.XXXXXX)"
for mode in "" "--modulo --backend sat"; do
  # shellcheck disable=SC2086 # $mode is a flag list
  ./target/release/eitc matmul $mode > "$dldir/default.txt"
  # shellcheck disable=SC2086
  ./target/release/eitc matmul $mode --timeout 18446744073709551615 > "$dldir/huge.txt" \
    || { echo "FAIL: matmul $mode --timeout u64::MAX exited non-zero"; exit 1; }
  cmp "$dldir/default.txt" "$dldir/huge.txt" \
    || { echo "FAIL: matmul $mode listing differs under --timeout u64::MAX"; exit 1; }
  echo "   matmul ${mode:-(straight-line)}: u64::MAX timeout exits 0, listing byte-identical"
done
rm -rf "$dldir"

echo "== replay smoke: record then strict-replay, and trace-hash determinism across runs and --jobs"
# The record/replay contract: a recorded solve must strict-replay clean
# without re-searching, two recordings of one solve must be
# byte-identical (events carry no timestamps), and the recorded modulo
# trace must be byte-identical (same fnv64 file hash) whether the sweep
# ran on 1 or 4 workers — the merged stream is jobs-independent by
# construction.
t1="$(mktemp /tmp/eit-rec1.XXXXXX.trace)"
t4="$(mktemp /tmp/eit-rec4.XXXXXX.trace)"
./target/release/eitc qrd --timeout 120 --record "$t1" >/dev/null
./target/release/eitc qrd --timeout 120 --record "$t4" >/dev/null
cmp "$t1" "$t4" || { echo "FAIL: two qrd recordings differ"; exit 1; }
./target/release/eitc qrd --timeout 120 --replay "$t1" >/dev/null
echo "   qrd: two recordings byte-identical, strict-replayed clean"
./target/release/eitc matmul --modulo --timeout 60 --jobs 1 --record "$t1" >/dev/null
./target/release/eitc matmul --modulo --timeout 60 --jobs 4 --record "$t4" >/dev/null
cmp "$t1" "$t4" || { echo "FAIL: matmul --modulo trace differs between --jobs 1 and --jobs 4"; exit 1; }
./target/release/eitc matmul --modulo --timeout 60 --replay "$t1" >/dev/null
echo "   matmul --modulo: jobs-1/jobs-4 traces byte-identical, strict replay clean"
# A trace pins the machine, not its spelling: the dumped eit.xml is the
# default machine and replays the recording; another kernel is refused.
./target/release/eitc matmul --modulo --timeout 60 --arch "$archdir/eit.xml" --replay "$t1" >/dev/null \
  || { echo "FAIL: matmul --modulo trace refused under --arch eit.xml"; exit 1; }
rc=0; err="$(./target/release/eitc fir --modulo --timeout 60 --replay "$t1" 2>&1 >/dev/null)" || rc=$?
[ "$rc" = 1 ] && grep -q 'different IR' <<<"$err" \
  || { echo "FAIL: matmul trace replayed as fir: exit $rc, expected 1 ($err)"; exit 1; }
echo "   matmul --modulo: replays under --arch eit.xml, refused as fir"
# Replay re-runs the whole sweep, so a recording must be the sweep's
# trace. Two independent vector ops with different configurations: II 1
# is refuted at the root and II 2 wins, so the trace holds two streams.
# A header-only copy (line 1 of the eit-trace/2 file) claims a sweep
# with no candidates and must fail.
two="$(mktemp /tmp/eit-two.XXXXXX.xml)"
cat > "$two" <<'XML'
<graph name="two-configs">
  <node id="0" kind="data" data="vector" name="a"/>
  <node id="1" kind="data" data="vector" name="b"/>
  <node id="2" kind="op" category="vector_op" core="add" name="v_add"/>
  <node id="3" kind="data" data="vector" name="v_add.out"/>
  <node id="4" kind="op" category="vector_op" core="mul" name="v_mul"/>
  <node id="5" kind="data" data="vector" name="v_mul.out"/>
  <edge from="0" to="2"/>
  <edge from="1" to="2"/>
  <edge from="2" to="3"/>
  <edge from="0" to="4"/>
  <edge from="1" to="4"/>
  <edge from="4" to="5"/>
</graph>
XML
./target/release/eitc "$two" --modulo --timeout 60 --record "$t1" >/dev/null
out="$(./target/release/eitc "$two" --modulo --timeout 60 --replay "$t1")"
grep -q ' 2 stream(s)' <<<"$out" \
  || { echo "FAIL: two-candidate sweep did not strict-replay as 2 streams: $out"; exit 1; }
head -n 1 "$t1" > "$t4"
rc=0; ./target/release/eitc "$two" --modulo --timeout 60 --replay "$t4" >/dev/null 2>&1 || rc=$?
[ "$rc" = 1 ] || { echo "FAIL: header-only modulo trace replayed with exit $rc, expected 1"; exit 1; }
echo "   two-candidate sweep: 2 streams strict-replayed clean, header-only copy refused"
# A failed sweep still leaves its recording: with no budget qrd probes
# nothing and exits 1, and the trace it flushed strict-replays clean.
rc=0; ./target/release/eitc qrd --modulo --timeout 0 --record "$t1" >/dev/null 2>&1 || rc=$?
[ "$rc" = 1 ] || { echo "FAIL: qrd --modulo --timeout 0 exited $rc, expected 1"; exit 1; }
./target/release/eitc qrd --modulo --timeout 0 --replay "$t1" >/dev/null \
  || { echo "FAIL: the failed qrd --modulo sweep's recording did not replay"; exit 1; }
echo "   qrd --modulo --timeout 0: exits 1, its recording strict-replays clean"
rm -f "$t1" "$t4" "$two"

echo "== serve smoke: daemon survives faults, hot kernels hit the cache byte-identically"
# The eit-serve acceptance gate, in one daemon session:
#   1. a malformed request, a panicking solve, and a deadline-missed
#      request all come back as structured responses (server stays up);
#   2. all 6 table kernels submitted twice — the second pass must be all
#      cache hits and every response byte-identical to one-shot eitc;
#   3. clean shutdown with the aggregated metrics showing 12 hits.
servedir="$(mktemp -d /tmp/eit-serve.XXXXXX)"
SERVE_ADDR=127.0.0.1:17871
./target/release/eitc --serve "$SERVE_ADDR" --jobs 4 --metrics "$servedir/metrics.json" \
  > "$servedir/daemon.log" 2>&1 &
serve_pid=$!
client() { ./target/release/eit_client --addr "$SERVE_ADDR" "$@"; }
client --retry 50 ping | grep -q '"pong":true'
client raw 'this is not json'            | grep -q '"kind":"bad-request"'
client panic                             | grep -q '"kind":"panic"'
client compile qrd --deadline-ms 0       | grep -q '"status":"deadline"'
for k in qrd arf matmul fir detector blockmm; do
  client compile "$k" --out "$servedir/serve_$k.txt" | grep -q '"cached":false' \
    || { echo "FAIL: $k pass 1 was not a cold compile"; exit 1; }
done
for k in qrd arf matmul fir detector blockmm; do
  client compile "$k" --out "$servedir/serve2_$k.txt" | grep -q '"cached":true' \
    || { echo "FAIL: $k pass 2 was not a cache hit"; exit 1; }
  ./target/release/eitc "$k" > "$servedir/oneshot_$k.txt" 2>/dev/null
  cmp "$servedir/serve_$k.txt"  "$servedir/oneshot_$k.txt" \
    || { echo "FAIL: $k served listing differs from one-shot eitc"; exit 1; }
  cmp "$servedir/serve2_$k.txt" "$servedir/oneshot_$k.txt" \
    || { echo "FAIL: $k cached listing differs from one-shot eitc"; exit 1; }
done
# Arch-threading through the daemon: an inline reloaded-preset arch must
# serve every kernel byte-identical to the one-shot builtin path (these
# are cache hits — the arch hash keys the machine, not its spelling, so
# hits reach 12), and a bad arch value comes back as a structured
# bad-request.
for k in qrd arf matmul fir detector blockmm; do
  client compile "$k" --arch "$archdir/eit.xml" --out "$servedir/arch_$k.txt" \
    | grep -q '"cached":true' || { echo "FAIL: $k --arch eit.xml via serve was not a cache hit"; exit 1; }
  cmp "$servedir/arch_$k.txt" "$servedir/oneshot_$k.txt" \
    || { echo "FAIL: $k served --arch listing differs from one-shot eitc"; exit 1; }
done
client compile qrd --arch not-a-preset | grep -q '"kind":"bad-request"' \
  || { echo "FAIL: bad arch value not rejected as bad-request"; exit 1; }
echo "   6/6 kernels served byte-identically under --arch; bad arch → bad-request"
client stats | grep -q '"hits":12'
client shutdown | grep -q '"shutting_down":true'
wait "$serve_pid" || { echo "FAIL: daemon exited non-zero"; exit 1; }
grep -q '"schema": "eit-run-metrics/1"' "$servedir/metrics.json"
rm -rf "$servedir" "$archdir"
echo "   daemon survived malformed/panic/deadline; 6/6 kernels cache-hit byte-identically"

echo "== trace overhead"
cargo bench -p eit-bench --bench trace_overhead

echo "CI OK"
