#!/usr/bin/env bash
# Tier-1 verify in one command (see ROADMAP.md): configure, build, run the
# full test suite, then smoke-test the whole novac pipeline, check that
# repeated compiles print the same allocated program, and run the soak,
# chip, checkpoint, benchmark and sanitizer stages below.
#
#   scripts/tier1.sh                 # uses ./build
#   BUILD_DIR=/tmp/b scripts/tier1.sh
#
# Also available as a build target once configured:
#   cmake --build build --target tier1
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Every --json file this script writes must parse as JSON.
json_ok() {
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$1"; then
    echo "JSON check FAILED: $1 does not parse" >&2
    exit 1
  fi
}

# The 2000-packet seed-7 6-ME nat chip smoke replays one recorded event
# sequence in both exec modes: its trace hash and its kernel event count
# (every event processed, held ME runs included) must not move.
chip_smoke_pinned() {
  python3 - "$1" <<'PY'
import json, sys
C = json.load(open(sys.argv[1]))[0]["chip"]
got = (C["trace_hash"], C["kernel"]["events"])
want = ("912c8b0039ce3695", 3611999)
if got != want:
    sys.exit(f"chip smoke pin FAILED: {sys.argv[1]}: trace_hash, "
             f"kernel.events = {got}, expected {want}")
PY
}

cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j"$JOBS"
(cd "$BUILD" && ctest --output-on-failure -j"$JOBS")

# MIP smoke solve: a small Nova program through parse -> CPS -> isel ->
# branch & bound -> verifier, failing on any verifier violation.
SMOKE="$(mktemp --suffix .nova)"
ODD_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE"; rm -rf "$ODD_DIR"' EXIT
cat > "$SMOKE" <<'EOF'
fun main(base : word, n : word) {
  let sum = 0;
  let i = 0;
  while (i < n) {
    let (w0, w1) = sram(base + (i << 1));
    sum = sum + ((w0 >> 16) + (w0 & 0xFFFF));
    sum = sum + ((w1 >> 16) + (w1 & 0xFFFF));
    i = i + 1;
  }
  (sum & 0xFFFF) + (sum >> 16)
}
EOF
echo "== MIP smoke solve =="
"$BUILD/src/driver/novac" --stats "$SMOKE"

# novac --json end to end: a file name with a quote and a backslash must
# come back out of the report intact, and a --json path that cannot be
# written must fail the run with exit 4.
echo "== novac --json (hostile file name, unwritable path) =="
ODD="$ODD_DIR/we\"ird\\name.nova"
cp "$ROOT/apps/nat.nova" "$ODD"
"$BUILD/src/driver/novac" --json "$ODD_DIR/odd.json" "$ODD" > /dev/null
json_ok "$ODD_DIR/odd.json"
python3 -c 'import json,sys; assert json.load(open(sys.argv[1]))["file"] == sys.argv[2]' \
  "$ODD_DIR/odd.json" "$ODD"
NOVAC_RC=0
"$BUILD/src/driver/novac" --json "$ODD_DIR/no/such/dir.json" "$ODD" \
  > /dev/null 2>&1 || NOVAC_RC=$?
if [ "$NOVAC_RC" -ne 4 ]; then
  echo "novac --json FAILED: unwritable path exited $NOVAC_RC, expected 4" >&2
  exit 1
fi

# Reproducibility gate: the branch & bound search is a pure function of
# the model, so five default compiles of NAT (the one app with a real
# search tree) must print the same allocated program, byte for byte, and
# it must be the pinned one (AppAlloc.PrintedCodeIsPinned hashes the same
# text).
echo "== NAT allocation reproducibility (5 runs, pinned md5) =="
NAT_WANT=c035dbe8f8a9316cdca42e2ce505a603
for RUN in 1 2 3 4 5; do
  NAT_GOT="$("$BUILD/src/driver/novac" --dump-alloc "$ROOT/apps/nat.nova" |
    md5sum | cut -d' ' -f1)"
  if [ "$NAT_GOT" != "$NAT_WANT" ]; then
    echo "NAT reproducibility FAILED: run $RUN printed md5 $NAT_GOT," \
         "expected $NAT_WANT" >&2
    exit 1
  fi
done

# Time-boxed solver smoke on the real NAT model: the root relaxation
# objective is a deterministic property of the model + LP engine, so any
# drift fails the run. NAT is the smallest of the three apps (~60s was
# the pre-sparse-LU budget; the sparse engine solves it in well under a
# second, so 120s only guards against a hang).
echo "== NAT solver smoke (root objective check) =="
timeout 120 "$BUILD/bench/fig7_solver" --only NAT \
  --json "$BUILD/BENCH_smoke.json" --expect-root 2.2381627
json_ok "$BUILD/BENCH_smoke.json"

# Bench flags are parsed strictly (support/ArgParser.h): a malformed
# number is a usage error before any work, never a silent zero, and no
# BENCH file is written.
echo "== bench flag parsing (malformed --packets must be rejected) =="
FLAG_DIR="$ODD_DIR/flags"
mkdir "$FLAG_DIR"
BENCH_RC=0
(cd "$FLAG_DIR" && "$BUILD/bench/chip_scaling" --packets abc) \
  > /dev/null 2>&1 || BENCH_RC=$?
if [ "$BENCH_RC" -eq 0 ] || [ -n "$(ls -A "$FLAG_DIR")" ]; then
  echo "bench flag check FAILED: chip_scaling --packets abc exited" \
       "$BENCH_RC and left: $(ls -A "$FLAG_DIR")" >&2
  exit 1
fi

# Fault specs are checked against the one fault-kind table
# (support/FaultInjection): a kind outside the flag's domain, or a
# magnitude outside the kind's range, is a usage error (exit 2) before
# any compile or packet, never a silent no-op. "No work" means nothing
# on stdout and no --json file.
echo "== fault-spec negative controls (bad specs must exit 2, no work) =="
expect_usage_error() { # expect_usage_error <json> <cmd...>
  local JSON="$1" RC=0 OUT
  shift
  OUT="$("$@" --json "$JSON" 2>/dev/null)" || RC=$?
  if [ "$RC" -ne 2 ] || [ -n "$OUT" ] || [ -e "$JSON" ]; then
    echo "fault-spec negative control FAILED: '$*' exited $RC" \
         "(expected 2), printed ${#OUT} bytes, json left: $([ -e "$JSON" ] &&
         echo yes || echo no)" >&2
    exit 1
  fi
}
expect_usage_error "$FLAG_DIR/novac.json" \
  "$BUILD/src/driver/novac" --inject-fault mem-jitter "$ROOT/apps/nat.nova"
expect_usage_error "$FLAG_DIR/novasoak.json" \
  "$BUILD/tools/novasoak" --chip --app nat --packets 100 \
  --fault-schedule 'ctx-lockup@5~1e30'

# Adversarial soak smoke: fixed seed, all three apps, the differential
# oracle (allocated vs functional vs CPS evaluator) on every packet. Any
# divergence exits 1 and fails the run. Time-boxed well above the ~10s
# it takes so only a hang trips the timeout.
echo "== adversarial soak smoke (oracle on every packet) =="
timeout 120 "$BUILD/tools/novasoak" --packets 2000 --seed 7 \
  --json "$BUILD/BENCH_soak_smoke.json"
json_ok "$BUILD/BENCH_soak_smoke.json"

# Whole-chip smoke: 2k packets through the 3-engine chip model with the
# sampled three-way oracle, trap=>drop accounting, and the chip-vs-
# standalone outcome cross-check. Any divergence or deadlock exits 1.
echo "== whole-chip soak smoke (6 MEs x 4 contexts, sampled oracle) =="
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --json "$BUILD/BENCH_chip_smoke.json"
json_ok "$BUILD/BENCH_chip_smoke.json"
chip_smoke_pinned "$BUILD/BENCH_chip_smoke.json"

# Negative control: an injected ALU bit flip in the allocated simulator
# must be *caught* by the oracle (exit 1, with a shrunk reproducer). A
# clean exit here means the oracle is blind — fail loudly.
echo "== soak negative control (injected bit flip must be caught) =="
SOAK_RC=0
timeout 120 "$BUILD/tools/novasoak" --app nat --packets 50 --seed 3 \
  --inject-fault sim-bitflip@40 --fail-fast --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "soak negative control FAILED: expected exit 1 (divergence caught)," \
       "got $SOAK_RC" >&2
  exit 1
fi

# Threaded (translating fast path) soak smoke: the same adversarial
# stream executed by fastpath::Engine with every 10th packet re-run on
# the interpreter + functional + CPS oracles. The fast path must stay
# bit-identical to the interpreter; any mismatch exits 1.
echo "== threaded soak smoke (fast path, sampled oracle) =="
timeout 120 "$BUILD/tools/novasoak" --packets 2000 --seed 7 \
  --exec threaded --oracle-rate 10 \
  --json "$BUILD/BENCH_soak_threaded_smoke.json"
json_ok "$BUILD/BENCH_soak_threaded_smoke.json"

# Threaded negative control: the bit flip fires inside fastpath::Engine
# too (it shares the injector), and the sampled interpreter re-run must
# catch it. Oracle every packet so the 50-packet window always samples.
echo "== threaded negative control (bit flip must be caught on the fast path) =="
SOAK_RC=0
timeout 120 "$BUILD/tools/novasoak" --app nat --packets 50 --seed 3 \
  --exec threaded --oracle-rate 1 \
  --inject-fault sim-bitflip@40 --fail-fast --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "threaded negative control FAILED: expected exit 1 (divergence" \
       "caught), got $SOAK_RC" >&2
  exit 1
fi

# Chip-threaded smoke: the same 6-ME chip stream, but every context
# executes on the segmented fast path (superblocks + resumable
# segments). The schedule — and therefore the trace hash, stall
# counters, and drop taxonomy — must stay bit-identical to the
# interpreted chip; chip_test locks the whole-report equality, this
# smoke proves the oracle stays clean end-to-end through the CLI.
echo "== whole-chip threaded smoke (segmented fast path, sampled oracle) =="
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --exec threaded --packets 2000 --seed 7 \
  --json "$BUILD/BENCH_chip_threaded_smoke.json"
json_ok "$BUILD/BENCH_chip_threaded_smoke.json"
chip_smoke_pinned "$BUILD/BENCH_chip_threaded_smoke.json"

# Chip-threaded negative control: arming the injector pins both the
# chip contexts and the oracle re-runs to the interpreter-exact slow
# tier, and the x1 budget spends the flip before the retire-time
# re-run — so the oracle must catch it (exit 1).
echo "== chip-threaded negative control (bit flip must be caught) =="
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --exec threaded --packets 500 --seed 42 --oracle-rate 1 \
  --inject-fault 'sim-bitflip@1000x1' --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "chip-threaded negative control FAILED: expected exit 1" \
       "(divergence caught), got $SOAK_RC" >&2
  exit 1
fi

# Chip fault smoke: the acceptance schedule (context lockups + an SDRAM
# brownout) through both execution models. The supervisor must recover
# every fault (exit 0, zero divergences), the ledger must balance, and
# both runs must report at least one recovery — a zero here means the
# schedule silently stopped firing.
echo "== chip fault smoke (supervisor recovery, interp + threaded) =="
for EXEC in interp threaded; do
  timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
    --exec "$EXEC" --packets 2000 --seed 42 \
    --fault-schedule 'ctx-lockup@500,chan-brownout@1000~4' \
    --json "$BUILD/BENCH_chip_fault_${EXEC}.json"
  json_ok "$BUILD/BENCH_chip_fault_${EXEC}.json"
  if ! grep -q '"packets_recovered":[1-9]' \
      "$BUILD/BENCH_chip_fault_${EXEC}.json"; then
    echo "chip fault smoke FAILED ($EXEC): no recoveries recorded" >&2
    exit 1
  fi
  if ! grep -q '"all_accounted":true' \
      "$BUILD/BENCH_chip_fault_${EXEC}.json"; then
    echo "chip fault smoke FAILED ($EXEC): recovery ledger unbalanced" >&2
    exit 1
  fi
done

# Chip fault negative control: sdram-bitflip is the one chip fault the
# supervisor cannot see (post-DMA corruption). The sampled retire-time
# oracle must catch it — exit 1. A clean exit means the oracle went
# blind to chip-level corruption.
echo "== chip fault negative control (sdram-bitflip must be caught) =="
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 2 --app nat \
  --packets 400 --seed 42 --oracle-rate 1 \
  --fault-schedule 'sdram-bitflip@10' --quiet || SOAK_RC=$?
if [ "$SOAK_RC" -ne 1 ]; then
  echo "chip fault negative control FAILED: expected exit 1 (corruption" \
       "caught), got $SOAK_RC" >&2
  exit 1
fi

# Checkpoint kill/resume smoke: snapshot every 500 packets, SIGKILL the
# run mid-stream at ~1k retired, resume from the newest snapshot, and
# require the finished stable JSON — trace hash included — to be
# byte-identical to an uninterrupted run.
echo "== checkpoint kill/resume smoke (byte-identical resumed report) =="
CKPT_DIR="$BUILD/ckpt-smoke"
rm -rf "$CKPT_DIR"
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --stable-json \
  --json "$BUILD/BENCH_ckpt_ref.json"
json_ok "$BUILD/BENCH_ckpt_ref.json"
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet \
  --checkpoint-every 500 --checkpoint-dir "$CKPT_DIR" \
  --kill-after 1000 || SOAK_RC=$?
if [ "$SOAK_RC" -ne 137 ]; then
  echo "checkpoint smoke FAILED: expected SIGKILL (exit 137), got $SOAK_RC" >&2
  exit 1
fi
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --stable-json \
  --resume "$CKPT_DIR" --checkpoint-every 500 \
  --json "$BUILD/BENCH_ckpt_resumed.json"
json_ok "$BUILD/BENCH_ckpt_resumed.json"
if ! cmp -s "$BUILD/BENCH_ckpt_ref.json" "$BUILD/BENCH_ckpt_resumed.json"; then
  echo "checkpoint smoke FAILED: resumed report differs from" \
       "uninterrupted run" >&2
  exit 1
fi

# Checkpoint negative control: corrupt every snapshot; --resume must
# fail with the typed checkpoint exit code (5), never start fresh and
# silently report success.
echo "== checkpoint negative control (corrupt snapshots must be rejected) =="
for F in "$CKPT_DIR"/ckpt-*.nova-ckpt; do
  printf '\xff\xff' | dd of="$F" bs=1 seek=64 conv=notrunc 2>/dev/null
done
SOAK_RC=0
timeout 300 "$BUILD/tools/novasoak" --chip --me-count 6 --app nat \
  --packets 2000 --seed 7 --quiet --resume "$CKPT_DIR" || SOAK_RC=$?
if [ "$SOAK_RC" -ne 5 ]; then
  echo "checkpoint negative control FAILED: expected exit 5" \
       "(CheckpointCorrupt), got $SOAK_RC" >&2
  exit 1
fi

# Benchmark correctness gate: a short chip-nat pass of the repository
# benchmark at its held-out seed. Every exact field it records — the
# chip trace hash, the SDRAM image hash, checkpoint.bytes, cycle and
# stall counts — must match perfbench/spec.json, and a mid-run snapshot
# must restore and re-save byte-identically; any drift exits nonzero.
echo "== perfbench chip-nat correctness gate (seed 7, 5 s) =="
(cd "$ROOT" && CARGO_TARGET_DIR="$BUILD/bench" timeout 900 \
  python3 perfbench/run.py --workload chip-nat --seed 7 --seconds 5 --trace 0)

# Compile-side gate at the same held-out seed: AES, Kasumi and NAT from
# source to verified allocated code, then seeded packets through the
# three-way oracle. It locks the objectives, ILP sizes and instruction
# counts of freshly compiled code; any drift exits nonzero.
echo "== perfbench compile correctness gate (seed 7, 5 s) =="
(cd "$ROOT" && CARGO_TARGET_DIR="$BUILD/bench" timeout 900 \
  python3 perfbench/run.py --workload compile --seed 7 --seconds 5 --trace 0)

# Standalone fast-path gate at the same held-out seed: soak-fast is the
# only workload that runs fastpath::Engine (the flat instantiation of
# the stream loop, with the interpreter's step as its slow tier on
# watchdog packets). Its exact fields — instruction counts, drop
# taxonomy, cycle quantiles — must match perfbench/spec.json.
echo "== perfbench soak-fast correctness gate (seed 7, 5 s) =="
(cd "$ROOT" && CARGO_TARGET_DIR="$BUILD/bench" timeout 900 \
  python3 perfbench/run.py --workload soak-fast --seed 7 --seconds 5 --trace 0)

# ASan+UBSan pass over the degradation ladder and the support layer: the
# fault-injection paths (LU repair, refactorize-on-drift, incumbent
# salvage, baseline fallback) are exactly where stale pointers and
# overflow bugs would hide. Time-boxed so a hung rung fails CI fast
# instead of stalling it; the ladder's own watchdog deadlines keep each
# rung well under this ceiling.
SAN_BUILD="${SAN_BUILD_DIR:-$ROOT/build-asan}"
echo "== ASan+UBSan degradation tests =="
cmake -B "$SAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build "$SAN_BUILD" -j"$JOBS" --target degradation_test support_test \
  chip_fault_test checkpoint_test event_queue_test alloc_test \
  ilp_simplex_test ilp_mip_test fastpath_test chip_test cps_test soak_test \
  sim_test apps_test
timeout 900 "$SAN_BUILD/tests/degradation_test"
timeout 120 "$SAN_BUILD/tests/support_test"
# The CPS evaluator lowers each program to flat code whose operands are
# (hops, slot) addresses and indexes its own tables with them: ASan and
# UBSan cover the lowering and those tables on the apps and the hostile
# programs. Its frames come from a per-run arena that ASan cannot see
# inside, so slot bounds and frame counts are the evaluator's own
# assertions, live in the build-assert stage below.
timeout 300 "$SAN_BUILD/tests/cps_test"
# The LU keeps its active-submatrix workspace across rebuilds, finds
# pivot-row entries through position hints, and walks step bitmaps and
# the L-step list in the solves: index arithmetic that must stay in
# bounds through re-setups, singular bases and copied bases.
timeout 300 "$SAN_BUILD/tests/ilp_simplex_test"
timeout 600 "$SAN_BUILD/tests/ilp_mip_test"
# Register assignment buckets stays by residency key and walks adjacency
# lists: index arithmetic that must stay in bounds on every program.
timeout 900 "$SAN_BUILD/tests/alloc_test"
# The event wheel's bucket lists, free list, and overflow migration are
# index arithmetic over pooled nodes: out-of-bounds or stale-node reuse
# shows up here first.
timeout 300 "$SAN_BUILD/tests/event_queue_test"
# The supervisor's abort/restart path frees and rebuilds per-packet
# state (slot scrub, re-DMA, spill-window erase) — exactly where
# use-after-free would hide.
timeout 300 "$SAN_BUILD/tests/chip_fault_test"
# Resume restores standalone and chip soaks from snapshot files, and the
# restore path indexes register frames, rings, wait queues and in-flight
# records straight from file bytes: its read-side checks must reject a
# bad index before anything dereferences it.
timeout 900 "$SAN_BUILD/tests/checkpoint_test"
# One stream loop (both instantiations) and the interpreter's step index
# the register frame, the operand pool and the cold data: an off-by-one
# there reads or writes a neighbouring slot instead of failing a test.
timeout 900 "$SAN_BUILD/tests/fastpath_test"
timeout 300 "$SAN_BUILD/tests/chip_test"
# The functional simulator and the interpreter share the entry checks and
# the trap formatters (sim/SimUtil.h): every trap path of both runs here,
# and so do the decoder (sim/Decoded.h) on hostile programs and the
# interpreter's pinned runs of the three apps.
timeout 120 "$SAN_BUILD/tests/sim_test"
# The only suite that checks runAllocated on the three real apps against
# the independent AES and Kasumi reference implementations: the decoded
# operand pools of real programs, under the sanitizers.
timeout 600 "$SAN_BUILD/tests/apps_test"
# The soak runner's one packet loop: both executors, the oracle's image
# compares, the shrinker's candidate packets and the chip retire hook.
timeout 300 "$SAN_BUILD/tests/soak_test"

# TSan pass over the chip scheduler: the discrete-event kernel is
# single-threaded by design, so a clean TSan run plus deterministic
# double-run hashes (asserted inside chip_test) is the evidence that no
# hidden shared-state races or iteration-order dependences crept in.
TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
echo "== TSan chip scheduler tests =="
cmake -B "$TSAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build "$TSAN_BUILD" -j"$JOBS" --target chip_test chip_fault_test \
  novasoak
timeout 300 "$TSAN_BUILD/tests/chip_test"
timeout 300 "$TSAN_BUILD/tests/chip_fault_test"

# TSan soak over the batched generator + segmented fast path: the
# template cache and reused packet buffers are single-threaded by
# design; a clean run here plus the byte-identity tests is the evidence
# nothing aliases across packets.
echo "== TSan threaded soak (batched generator path) =="
timeout 300 "$TSAN_BUILD/tools/novasoak" --app nat --packets 500 \
  --exec threaded --oracle-rate 10 --quiet

# Assertion stage: every build above defines NDEBUG, so this one (Debug
# with -O2) is the only stage that checks the asserts in src/ -- the
# event wheel's, the chip's phase and held-run checks, the supervisor's
# fresh-start deadlock check, the fault-kind table's range checks. It
# runs the whole suite, then every chip fault kind the supervisor can
# see (sdram-bitflip has its negative control above) on a 6-ME chip in
# both exec modes: exit 0, every fault recovered or typed, the ledger
# balanced, the oracle clean.
ASSERT_BUILD="${ASSERT_BUILD_DIR:-$ROOT/build-assert}"
echo "== assertion build: ctest + chip fault sweep with asserts on =="
cmake -B "$ASSERT_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O2 -g"
cmake --build "$ASSERT_BUILD" -j"$JOBS"
(cd "$ASSERT_BUILD" && ctest --output-on-failure -j"$JOBS")
SWEEP='ctx-lockup@150~2,ring-stall@200~400,chan-brownout@300~4,dma-drop@170~2'
for EXEC in interp threaded; do
  timeout 300 "$ASSERT_BUILD/tools/novasoak" --chip --me-count 6 --app nat \
    --exec "$EXEC" --packets 1000 --seed 42 --quiet --fault-schedule "$SWEEP" \
    --json "$ASSERT_BUILD/BENCH_chip_fault_sweep_${EXEC}.json"
  json_ok "$ASSERT_BUILD/BENCH_chip_fault_sweep_${EXEC}.json"
  if ! grep -q '"all_accounted":true' \
      "$ASSERT_BUILD/BENCH_chip_fault_sweep_${EXEC}.json"; then
    echo "assertion-build fault sweep FAILED ($EXEC): ledger unbalanced" >&2
    exit 1
  fi
done
echo "tier-1 verify: OK"
