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

echo "== engine equivalence: event-driven vs FIFO baseline, incremental Diff2 vs full rescan"
cargo test -q --release -p eit-cp --test differential event_engine
cargo test -q --release -p eit-cp --test differential diff2_incremental_matches_full_rescan

echo "== run-based channelling vs its per-value oracle: ModChannel, SlotGeometry, x+c=y"
# Seeded random domains of up to ~1000 values with holes, near both ends
# of the i32 range, moduli up to 128, aliased arguments, empty supports.
cargo test -q --release -p eit-cp --lib per_value_oracle

echo "== listing pins: six table kernels × {plain, --modulo, --modulo --backend sat, --modulo incl}"
cargo test -q --release -p eit-bench --test listings table_kernel_listings_are_pinned

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
# both independent verifiers, persistence, and functional replay
# (~30s ceiling; typically well under). The solver runs with the hybrid
# bitset representation enabled (the Store default), so the corpus also
# exercises promotion and the bitset fast paths on every case.
./target/release/fuzz --seed 5 --cases 200 --out /tmp/eit-fuzz-failures

echo "== arch-fuzz smoke: 100 fixed-seed architecture×kernel cases"
# Each case draws a generated machine (always validate()-clean) before
# the kernel; the full differential stack must agree on every pair.
./target/release/fuzz --seed 7 --cases 100 --arch-fuzz --out /tmp/eit-arch-fuzz-failures

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
# workers and must keep its II. qrd is pinned to its known
# minimum II of 22.
satdir="$(mktemp -d /tmp/eit-sat.XXXXXX)"
for k in matmul fir qrd; do
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
# The CNF encoding is deterministic: the same model, the same bytes.
./target/release/eitc qrd --modulo --emit cnf > "$satdir/qrd1.cnf"
./target/release/eitc qrd --modulo --emit cnf > "$satdir/qrd2.cnf"
cmp "$satdir/qrd1.cnf" "$satdir/qrd2.cnf" \
  || { echo "FAIL: two qrd --emit cnf runs differ"; exit 1; }
echo "   qrd --emit cnf: two runs byte-identical"
rm -rf "$satdir"

echo "== ablation gate: restarts A/B on all six table kernels"
# The default restart policy may not change the emitted schedule or
# explore more nodes (on these fail-free instances it must be a strict
# no-op). The bitset domain representation is pinned by the
# crates/bench/tests/domain_reps.rs test, which compares full event
# streams rather than listings and node counts.
abdir="$(mktemp -d /tmp/eit-ab.XXXXXX)"
nodes_of() { grep -o '"nodes": [0-9]*' "$1" | head -1 | grep -o '[0-9]*'; }
for k in qrd arf matmul fir detector blockmm; do
  ./target/release/eitc "$k" --timeout 120 --metrics "$abdir/base.json" > "$abdir/base.txt"
  ./target/release/eitc "$k" --timeout 120 --restarts --metrics "$abdir/rs.json" > "$abdir/rs.txt"
  cmp "$abdir/base.txt" "$abdir/rs.txt" \
    || { echo "FAIL: $k --restarts schedule differs from baseline"; exit 1; }
  nb="$(nodes_of "$abdir/base.json")"
  nr="$(nodes_of "$abdir/rs.json")"
  [ "$nr" -le "$nb" ] || { echo "FAIL: $k --restarts explored more nodes ($nr > $nb)"; exit 1; }
  echo "   $k: restarts schedule byte-identical; nodes $nr (restarts) <= $nb (baseline)"
done
rm -rf "$abdir"

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

echo "== replay smoke: record then strict-replay, and trace-hash determinism across --jobs"
# The record/replay contract: a recorded solve must strict-replay clean
# without re-searching, and the recorded modulo trace must be
# byte-identical (same fnv64 file hash) whether the sweep ran on 1 or 4
# workers — the merged stream is jobs-independent by construction.
t1="$(mktemp /tmp/eit-rec1.XXXXXX.trace)"
t4="$(mktemp /tmp/eit-rec4.XXXXXX.trace)"
./target/release/eitc qrd --timeout 120 --record "$t1" >/dev/null
./target/release/eitc qrd --timeout 120 --replay "$t1" --strict >/dev/null
echo "   qrd: recorded and strict-replayed clean"
./target/release/eitc matmul --modulo --timeout 60 --jobs 1 --record "$t1" >/dev/null
./target/release/eitc matmul --modulo --timeout 60 --jobs 4 --record "$t4" >/dev/null
cmp "$t1" "$t4" || { echo "FAIL: matmul --modulo trace differs between --jobs 1 and --jobs 4"; exit 1; }
./target/release/eitc matmul --modulo --timeout 60 --replay "$t1" --strict >/dev/null
echo "   matmul --modulo: jobs-1/jobs-4 traces byte-identical, strict replay clean"
# Replay re-runs the whole sweep, so a recording must be the sweep's
# trace. Two independent vector ops with different configurations: II 1
# is refuted at the root and II 2 wins, so the trace holds two streams.
# A header-only copy (the u32 config length sits at byte 36 of the
# eit-trace/1 header) claims a sweep with no candidates and must fail.
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
out="$(./target/release/eitc "$two" --modulo --timeout 60 --replay "$t1" --strict)"
grep -q ' 2 stream(s)' <<<"$out" \
  || { echo "FAIL: two-candidate sweep did not strict-replay as 2 streams: $out"; exit 1; }
cfg_len="$(od -An -tu4 -j36 -N4 "$t1" | tr -d ' ')"
head -c "$((40 + cfg_len))" "$t1" > "$t4"
rc=0; ./target/release/eitc "$two" --modulo --timeout 60 --replay "$t4" >/dev/null 2>&1 || rc=$?
[ "$rc" = 1 ] || { echo "FAIL: header-only modulo trace replayed with exit $rc, expected 1"; exit 1; }
echo "   two-candidate sweep: 2 streams strict-replayed clean, header-only copy refused"
rm -f "$t1" "$t4" "$two"

echo "== serve smoke: daemon survives faults, hot kernels hit the cache byte-identically"
# The eit-serve acceptance gate, in one daemon session:
#   1. a malformed request, a panicking solve, and a deadline-missed
#      request all come back as structured responses (server stays up);
#   2. all 6 table kernels submitted twice — the second pass must be all
#      cache hits and every response byte-identical to one-shot eitc;
#   3. clean shutdown with the aggregated metrics showing 6 hits.
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
# are cold misses — the arch hash keys the cache — so hits stay at 6),
# and a bad arch value comes back as a structured bad-request.
for k in qrd arf matmul fir detector blockmm; do
  client compile "$k" --arch "$archdir/eit.xml" --out "$servedir/arch_$k.txt" \
    | grep -q '"status":"ok"' || { echo "FAIL: $k --arch via serve errored"; exit 1; }
  cmp "$servedir/arch_$k.txt" "$servedir/oneshot_$k.txt" \
    || { echo "FAIL: $k served --arch listing differs from one-shot eitc"; exit 1; }
done
client compile qrd --arch not-a-preset | grep -q '"kind":"bad-request"' \
  || { echo "FAIL: bad arch value not rejected as bad-request"; exit 1; }
echo "   6/6 kernels served byte-identically under --arch; bad arch → bad-request"
client stats | grep -q '"hits":6'
client shutdown | grep -q '"shutting_down":true'
wait "$serve_pid" || { echo "FAIL: daemon exited non-zero"; exit 1; }
grep -q '"schema": "eit-run-metrics/1"' "$servedir/metrics.json"
rm -rf "$servedir" "$archdir"
echo "   daemon survived malformed/panic/deadline; 6/6 kernels cache-hit byte-identically"

echo "== trace overhead"
cargo bench -p eit-bench --bench trace_overhead

echo "CI OK"
