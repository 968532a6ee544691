#!/usr/bin/env bash
# Tier-1 CI gate. Run from anywhere; everything happens in the repo root.
#
# Offline-friendly by construction: every external dependency is vendored
# as a path crate under vendor/ (see Cargo.toml [workspace.dependencies]),
# so no step below touches a registry or the network. Do not add
# registry-resolved dependencies; extend vendor/ instead.

set -euo pipefail
cd "$(dirname "$0")"

echo "== format check =="
cargo fmt --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken links and missing docs are errors) =="
# First-party crates only: the vendored path crates under vendor/ are
# workspace members too, and their upstream docs are not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p sthreads -p mta-sim -p smp-sim -p autopar -p c3i -p c3i-fuzz \
  -p eval-core -p bench -p repro -p tera-c3i

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test -q --workspace

echo "== one-CPU behaviour of the pool handoff (taskset -c 0) =="
# The pool's workers and its region caller *watch* for each other before
# they park (crates/sthreads/src/pool.rs). On one CPU a wait that only
# pauses starves the thread it is waiting for until the scheduler's
# quantum runs out — a tenfold slowdown of every region, not a hang — so
# the ceiling is generous on purpose: these take a few seconds once built
# (the build runs unpinned, outside the ceiling).
if command -v taskset > /dev/null; then
  cargo test -q --release --no-run -p sthreads -p c3i
  timeout 120 taskset -c 0 cargo test -q --release -p sthreads
  timeout 120 taskset -c 0 cargo test -q --release -p c3i fine
else
  echo "taskset not found: skipping the pinned run"
fi

echo "== kernels bench smoke (quick scale) =="
# One pass over the per-kernel Criterion group at reduced sizes: proves
# the bench target builds and runs; the paper-scale numbers live in
# EXPERIMENTS.md.
KERNELS_BENCH_QUICK=1 cargo bench -p bench --bench kernels > /dev/null

echo "== kernels data-layout ratio (release-only assertion) =="
# The run-based arena kernels vs the pinned scalar baseline on the
# terrain pipeline, one thread each, so core count cannot flip it: bit
# identity in every profile, and >= 1.5x only with optimizations on —
# which is why this one test also runs here under --release. Every
# other timing is produced and bounded by benchmark/ (see its README).
cargo test -q --release -p eval-core measured_kernels_phase_clears_the_gate

# The tier-1 release build above only covers the root package (the
# workspace root is itself a package), so build the harness CLI
# explicitly before invoking it.
cargo build --release -p repro

echo "== paper tables (13 CSVs byte-identical to results/) =="
# The whole pipeline at paper scale, cold: every CSV `repro all` writes
# must equal its pinned copy. Nothing else in the workspace compares the
# twelve paper tables byte for byte (benchmark/ does, as a side effect of
# its paper-cold workload); this makes it a gate.
TABLES_DIR=$(mktemp -d)
./target/release/repro --no-cache all --csv "$TABLES_DIR" > /dev/null
diff -r results "$TABLES_DIR"
rm -rf "$TABLES_DIR"

echo "== paper-scale workload: counted == recorded (release-only) =="
# `Workload::build` counts its op profiles; the recorded programs under
# an OpRecorder are the oracle. tier-1 holds the identity at Reduced;
# the paper-scale arm is ignored unoptimized, so it runs here (1/2/8
# workers against one recorded assembly).
cargo test -q --release --test parallel_oracle built_workload_equals_recorded_workload

echo "== differential fuzz smoke (fixed seed) =="
# A short fixed-seed campaign: 25 reduced-size generated scenarios, each
# run sequential-oracle × {coarse,fine,chunked} × {1,2,8} workers with
# bit-identical comparison, plus the op counters against the recorded
# programs. The fixed
# seed makes this a deterministic regression check, not a flaky lottery;
# broaden locally with `repro --fuzz 200 --fuzz-seed $RANDOM`.
./target/release/repro --reduced --fuzz 25 --fuzz-seed 1

echo "== autopar oracle + soundness suites =="
# The dataflow pass's contract, by name (see docs/AUTOPAR.md): the
# liveness the bitset worklist solves equals a naive round-robin
# fixpoint over BTreeSet<String> that shares no code with it, on random
# three-level loop nests and the five benchmark loops (liveness_oracle);
# every PARALLEL verdict also *executes* bit-identically — random loop
# bodies interpreted sequentially vs uneven workers under adversarial
# iteration orders, privatized temps poisoned (exec_soundness);
# brute-force soundness plus dataflow-subsumes-conservative on random
# affine loops (soundness); and the pinned provenance-carrying report
# text (report_snapshot). All also part of `cargo test`; explicit so a
# verdict regression is named in CI output.
cargo test -q -p autopar --test soundness --test liveness_oracle \
  --test exec_soundness --test report_snapshot

echo "== table-auto smoke (auto-vs-manual comparison, pinned CSV) =="
# Regenerates the living comparison table behind docs/AUTOPAR.md:
# verdicts for both passes, cleared obstacles, residual blockers,
# emitted schedules, and the execution checks (the auto-parallelized
# Threat Analysis structure run through the real c3i chunked kernel,
# bit-identical to sequential). Every cell is deterministic text — no
# timings — so the CSV must match the pinned copy byte for byte.
TABLE_AUTO_DIR=$(mktemp -d)
./target/release/repro --reduced table-auto --csv "$TABLE_AUTO_DIR" > /dev/null
diff -u results/table_auto.csv "$TABLE_AUTO_DIR/table_auto.csv"
rm -rf "$TABLE_AUTO_DIR"

echo "== vendored RNG stand-ins (every fixture hangs off these) =="
# `rand` and `rand_chacha` under vendor/ are this repo's own code, and
# every scenario, digest and pinned table is drawn from their streams;
# `ChaCha8Rng::set_word_pos` (what `terrain::generate_threats` seeks
# with) is held equal to discarded draws here. Also part of
# `cargo test --workspace`; named so a stream change is named in CI output.
cargo test -q -p rand_chacha -p rand

echo "== simulator pinned digests (single driver) =="
# The mta-sim regression gate: Machine::run must reproduce the pinned
# FNV-1a digest of every run in the matrix (RunResult, SimStats, fault
# order, final memory words and full/empty bits) — the kernel corpus,
# lookahead, timeout, soft-spawn, deadlock and fault programs, and the
# fixed-seed random programs. Also part of `cargo test`; kept explicit so
# a simulator behaviour change is named in CI output. With it, what the
# digests leave free — the cycle a timeout, a completion or a deadlock is
# reported at, split runs, the order of streams due in the cycle under
# way (run_boundaries) — and the scheduler's own proof: the calendar
# hands slots out as the binary heap it replaced would. All three in a
# debug build, so `promote`'s one-entry-per-slot `debug_assert!` is live.
cargo test -q -p mta-sim --test pinned_digests --test run_boundaries
cargo test -q -p mta-sim --lib calendar_hands_out_what_the_heap_would

echo "== deleted paths stay deleted =="
# The parallel tick, its barrier, and its env knob are gone; the only
# remaining matches are unrelated functions of the same name.
if grep -rn 'run_parallel\|SpinBarrier\|MTA_WINDOW_STATS' \
  crates docs README.md EXPERIMENTS.md |
  grep -v '^crates/autopar/tests/exec_soundness.rs:\|^crates/core/src/validate.rs:'; then
  echo "deleted simulator paths are referenced again" >&2
  exit 1
fi
# So are the third schedule, its deque, its seed knob and the kernel
# forks that took a schedule.
if grep -rn 'Stealing\|StealDeque\|set_steal_seed\|_host_sched' \
  crates src tests examples docs README.md EXPERIMENTS.md; then
  echo "the deleted work-stealing schedule is referenced again" >&2
  exit 1
fi
# So is repro's own timing pipeline: the two reports, their schemas and
# the flags that wrote and gated them (benchmark/ is the one place a
# timing is produced). docs/LAYERS.md names the deleted files on purpose,
# in its history rows.
if grep -rn 'HarnessReport\|ServiceReport\|harness_timing\|BENCH_harness\|BENCH_service\|SERVICE_SCHEMA' \
  crates src tests examples docs README.md EXPERIMENTS.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted repro timing pipeline is referenced again" >&2
  exit 1
fi
# So is the second dataflow schedule with its worker knob, reaching
# definitions, and the conservative pass's stance switch.
if grep -rni 'scc\|n_workers\|reach_in\|gen_rd\|AnalysisOptions' \
  crates/autopar crates/core/src; then
  echo "the deleted autopar dataflow paths are referenced again" >&2
  exit 1
fi
# So is the surface no root reached (docs/LAYERS.md, the reachability
# table): the host futures and full/empty variables, the route planner,
# the engagement scheduler, the ASCII renderer and the JSON file format.
if grep -rn 'SyncVar\|sthreads::Future\|fork_join\|plan_route\|schedule_greedy\|render_masking\|load_masking' \
  crates src tests examples docs README.md |
  grep -v '^docs/LAYERS.md:'; then
  echo "a deleted unreachable module is referenced again" >&2
  exit 1
fi
# sthreads keeps one line of `unsafe` (the pool's lifetime erasure);
# the crate denies unsafe_code everywhere else.
if [ "$(grep -rhw 'unsafe' crates/sthreads/src | grep -vc '^ *//')" -ne 1 ]; then
  echo "crates/sthreads/src must hold exactly one line of unsafe code" >&2
  exit 1
fi

echo "== pinned regression corpus replay =="
# Every minimized failure ever pinned under tests/corpus/ replays through
# the same differential matrix (also part of `cargo test`; kept explicit
# here so a corpus regression is named in CI output).
cargo test -q --test corpus_replay

echo "== service smoke (serve + load replay) =="
# Starts the scenario-evaluation server on a unix socket, replays a
# fixed-seed fuzzer-generated request mix through it over 4 concurrent
# connections, and verifies every served response is bit-identical to a
# direct sequential evaluation. `repro --load` exits non-zero on any
# mismatch or incomplete request, and `set -e` fails the step on it.
SERVICE_SOCK=target/c3i-serve.sock
rm -f "$SERVICE_SOCK"
./target/release/repro --serve "$SERVICE_SOCK" --reduced &
SERVICE_PID=$!
trap 'kill "$SERVICE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 150); do
  [ -S "$SERVICE_SOCK" ] && break
  sleep 0.2
done
if ! [ -S "$SERVICE_SOCK" ]; then
  echo "service smoke: server never bound $SERVICE_SOCK" >&2
  exit 1
fi
./target/release/repro --load "$SERVICE_SOCK" --reduced \
  --requests 40 --mix-seed 1 --conns 4 --stop-server
wait "$SERVICE_PID"
trap - EXIT

echo "CI OK"
