#!/usr/bin/env bash
# Tier-1 CI gate. Run from anywhere; everything happens in the repo root.
#
# Offline-friendly by construction: every external dependency is vendored
# as a path crate under vendor/ (see Cargo.toml [workspace.dependencies]),
# so no step below touches a registry or the network. Do not add
# registry-resolved dependencies; extend vendor/ instead.

set -euo pipefail
cd "$(dirname "$0")"

# Run a `cargo test` that selects its tests by a name filter, and fail
# the step if its runs passed no test: a filter that matches nothing
# (a renamed test) exits 0 and would leave the step empty.
filtered() {
  local log
  log=$(mktemp)
  "$@" | tee "$log"
  if ! grep -q '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    rm -f "$log"
    echo "no test matched: $*" >&2
    exit 1
  fi
  rm -f "$log"
}

echo "== format check =="
cargo fmt --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken links and missing docs are errors) =="
# First-party crates only: the vendored path crates under vendor/ are
# workspace members too, and their upstream docs are not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p sthreads -p mta-sim -p smp-sim -p autopar -p c3i -p c3i-fuzz \
  -p eval-core -p repro -p tera-c3i

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test -q --workspace

echo "== examples (each asserts the paper claims it prints) =="
# `cargo test` compiles the examples and runs none of them. Each one
# turns the claims it prints into assertions on the values it computed,
# so running it is its test.
for example in examples/*.rs; do
  cargo run -q --release --example "$(basename "$example" .rs)" > /dev/null
done

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
  filtered timeout 120 taskset -c 0 cargo test -q --release -p c3i fine
else
  echo "taskset not found: skipping the pinned run"
fi

echo "== kernels data-layout ratio (release-only assertion) =="
# The run-based arena kernels vs the pinned scalar baseline on the
# terrain pipeline, one thread each, so core count cannot flip it: bit
# identity in every profile, and >= 1.5x only with optimizations on —
# which is why this one test also runs here under --release. Every
# other timing is produced and bounded by benchmark/ (see its README).
filtered cargo test -q --release -p eval-core measured_kernels_phase_clears_the_gate

echo "== LOS sweep == per-cell recurrence, optimized =="
# The release build packs the ring sweep's parent fill into vector
# divisions and selects, so the bit-identity proofs also run on the code
# the benchmark times, not only on tier-1's debug build: every sweep
# against `raw_alt_for_cell` (region_props); the one blocking value
# against the benchmark's two slopes and their `max`, a child against
# either zero of a tied parent, and a sweep over slopes that underflow
# to zeros of opposite signs, which must give `raw_alt_for_cell`'s
# pinned `+0`. Every program on a ground of `−0` under a `+0` sensor
# must keep the ground's zero, in the build whose `max` codegen once
# decided it.
cargo test -q --release -p c3i --test region_props
for proof in blocking_is_the_two_slope_form children_ignore_which_zero \
  sweeps_and_the_oracle_pin_the_zero; do
  filtered cargo test -q --release -p c3i --lib "$proof"
done
filtered cargo test -q --release -p c3i --test props a_ground_of_negative_zeros

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
# `Workload::build` counts its op profiles; the recorded programs (each
# logical thread recording into an `OpCounts`) are the oracle. tier-1
# holds the identity at Reduced; the paper-scale arm is ignored
# unoptimized, so it runs here (1/2/8 workers against one recorded
# assembly).
filtered cargo test -q --release --test parallel_oracle built_workload_equals_recorded_workload

echo "== single-parent cells: closed form == per-cell oracle (release-only) =="
# The ring counter takes a cell's single parent from geometry alone (only
# the radar's own coordinate has one). Every ring k <= 1100 around every
# coordinate c < 1100, the paper grid, cell by cell against the
# recurrence's own f64 test (ignored unoptimized, like the arm above).
filtered cargo test -q --release -p c3i --lib closed_form_equals_the_oracle_on_every_paper_ring

echo "== paper-scale Tera folds == their oracle loops (release-only) =="
# `tm_tera(1..=1024)` and a grid of `ta_tera` up to 100 000 chunks and
# 65 536 processors, bit for bit against the per-phase and per-chunk
# loops the folds replace (ignored unoptimized, like the arm above).
filtered cargo test -q --release -p eval-core --test tera_folds paper_scale_entry_points_equal_the_oracles

echo "== paper-scale served projections == their direct calls (release-only) =="
# `Scalability` lists and Tera `TerrainModel` requests, first and second
# call on one `Evaluator`, byte for byte against `scalability_projection`
# and `tm_tera` (ignored unoptimized, like the arm above).
filtered cargo test -q --release -p eval-core --lib paper_scale_projections_equal_their_direct_calls

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
# scalars the first-touch scan (`LoopNest::live_at_entry`) calls live at
# the body's entry are exactly the entry set of a naive round-robin
# fixpoint over BTreeSet<String> that shares no code with it, on random
# nests up to four levels deep and the five benchmark loops
# (liveness_oracle);
# every PARALLEL verdict also *executes* bit-identically — random loop
# bodies interpreted sequentially vs uneven workers under adversarial
# iteration orders, privatized temps poisoned (exec_soundness);
# brute-force soundness on random affine loops (soundness); the
# dataflow pass's residual reasons a subsequence of the 1998 pass's
# (outside a statement that stores to a compacted array twice), every
# reason it drops named by one of its clearings, on random nests mixing
# every ingredient its recognizers read (residual_reasons); and the
# pinned provenance-carrying report text (report_snapshot). All also
# part of `cargo test`; explicit so a verdict regression is named in CI
# output.
cargo test -q -p autopar --test soundness --test liveness_oracle \
  --test exec_soundness --test residual_reasons --test report_snapshot

# The dataflow pass clears obstacles and then runs the 1998 pass's
# dependence test (`deps::blocking_reasons`); it does not grow its own
# conflict scan again.
if sed '/^#\[cfg(test)\]/,$d' crates/autopar/src/reduction.rs |
  grep -n 'refs_may_conflict\|Reason::at\|seen_pairs'; then
  echo "reduction.rs carries its own dependence test again" >&2
  exit 1
fi

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
# timeout, soft-spawn, deadlock and fault programs, and the fixed-seed
# random programs. Also part of `cargo test`; kept explicit so
# a simulator behaviour change is named in CI output. With it, what the
# digests leave free — the cycle a timeout, a completion or a deadlock is
# reported at, split runs, the order of streams due in the cycle under
# way (run_boundaries) — and the scheduler's own proof, every
# `processor::tests` case: the calendar hands slots out as the binary heap
# it replaced would, across the wheel's edge and through its lazy link of
# far entries. All in a debug build, so `promote`'s one-entry-per-slot
# `debug_assert!` is live. `memory_model` holds `Memory` to a flat model
# (one value and one full bit per word): `interp::run_reference` shares
# `Memory`, so the reference test cannot see a fault in it.
cargo test -q -p mta-sim --test pinned_digests --test run_boundaries --test memory_model
filtered cargo test -q -p mta-sim --lib processor::tests

# Memory maps a page on the first write to it; a machine's `mem_words` is
# an address bound, not an up-front allocation.
if sed '/^#\[cfg(test)\]/,$d' crates/mta-sim/src/memory.rs |
  grep -n 'vec!\[[^]]*; *[a-z_.]*words\]'; then
  echo "memory.rs allocates every word up front again" >&2
  exit 1
fi

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
# So is the bitset worklist liveness solver with its CFG: liveness at the
# body's entry is `LoopNest::live_at_entry`, a first-touch scan.
if grep -rn 'autopar::dataflow\|dataflow::solve\|\<BitSet\>\|Cfg::from_loop\|pub mod dataflow' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted liveness solver is referenced again" >&2
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
# So is the second Threat Analysis pair scan (the structure-of-arrays
# batch, its block size, the stepwise twin it was dispatched against) and
# the Criterion group that compared the two.
if grep -rn 'intervals_for_pair_batch\|intervals_for_pair_stepwise\|SCAN_BLOCK\|soa_batch\|engagement_scan' \
  crates src tests examples docs README.md EXPERIMENTS.md |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted batch pair scan is referenced again" >&2
  exit 1
fi
# So are the second and third timers — the Criterion suite with its
# quick-scale knob, and the sthreads nano-timing tier — and ParFor's
# cutoff switch: benchmark/ times every layer. `\<` keeps names that
# merely end in `serial_cutoff(` out of the match.
if grep -rn 'set_timing\|timing_enabled\|last_region_worker_busy\|KERNELS_BENCH_QUICK\|criterion\|\<serial_cutoff(' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "a deleted timer or the ParFor cutoff switch is referenced again" >&2
  exit 1
fi
# So is par_map's measured sequential cutoff: the dispatch floor it timed
# once per process, the decision that weighed a probed task against it,
# that decision's margin and host-width cap, and the counter's recorder.
# `par_map` runs inline exactly when its caller asks for one thread or
# one task.
if grep -rn 'dispatch_floor_ns\|should_serialize\|CUTOFF_MARGIN\|record_serial_cutoff\|host_parallelism' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted par_map cutoff is referenced again" >&2
  exit 1
fi
# So is the service's batch worker with its thread, its queue and its two
# knobs: each request is evaluated on its connection's thread. The
# sthreads pool's own `worker_loop` is a different function.
if grep -rn 'worker_loop\|batch_max\|c3i-evaluator\|queue_len' \
  crates src tests examples docs README.md EXPERIMENTS.md |
  grep -v '^docs/LAYERS.md:\|^crates/sthreads/src/pool.rs:'; then
  echo "the deleted service batch worker is referenced again" >&2
  exit 1
fi
# So are the recorded Programs 2 and 4 and the recorded fine Threat
# Analysis (the workload assembles Programs 2 and 4 from per-threat
# counts), the recorder helpers only they called, and the static index
# schedule with `sthreads`' `Schedule` (the label lives in `autopar::emit`,
# and autopar does not depend on sthreads). `\<…\>` keeps the `_host`
# kernels out of the match.
if grep -rn '\<threat_analysis_chunked\>\|\<threat_analysis_fine\>\|\<terrain_masking_coarse\>\|worker_instructions\|run_static\|sthreads::Schedule' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "a deleted recorded program or the static index schedule is referenced again" >&2
  exit 1
fi
if grep -n 'sthreads' crates/autopar/Cargo.toml; then
  echo "autopar depends on sthreads again" >&2
  exit 1
fi
# So is the op-count format's second home: `OpCounts` lives in
# `c3i::counts` and is its own recorder, so the `sthreads` newtype around
# it, the per-thread wrapper and the module that held them are gone, and
# `sthreads` (the threading runtime alone) serializes nothing.
if grep -rn 'OpRecorder\|ThreadCounts\|sthreads::counting\|sthreads::OpCounts' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted sthreads op-count wrappers are referenced again" >&2
  exit 1
fi
if grep -n 'serde' crates/sthreads/Cargo.toml; then
  echo "sthreads depends on serde again" >&2
  exit 1
fi
# Every `[dependencies]` entry is named in its crate's code (`-` read as
# `_`): under `src/`, and for the root package under src, tests and
# examples. The two greps above forbid a dependency even when it is used.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  if [ "$dir" = . ]; then code="src tests examples"; else code="$dir/src"; fi
  for dep in $(sed -n '/^\[dependencies\]/,/^\[/s/^\([A-Za-z0-9_-]\+\)[. =].*/\1/p' "$manifest"); do
    if ! grep -rqw "${dep//-/_}" $code; then
      echo "$manifest lists $dep, which nothing under $code names" >&2
      exit 1
    fi
  done
done
# So is mta-sim's second issue rule — the lookahead mode with its
# register scoreboard — and the two instructions no assembler emitted.
# mta-run's exit-code test keeps one row that the deleted flag is refused.
if grep -rn 'lookahead\|src_regs\|dst_reg\|reg_ready_at\|\<FLt\>\|\<FToI\>' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:\|^crates/mta-sim/tests/mta_run_cli.rs:'; then
  echo "the deleted lookahead mode or FLt / FToI is referenced again" >&2
  exit 1
fi
# So is the cache's second bypass (`--no-cache` is the one), and the
# item-level surface no root reached (docs/LAYERS.md, the PR 33
# reachability table) where its names are specific; the compiler guards
# the rest. `\<…\>` keeps `load_or_measure_in` out of the match.
if grep -rn 'C3I_NO_CACHE\|cache_disabled\|\<load_or_measure\>\|\<DataflowOptions\>\|dataflow_improves\|auto_parallel_count\|any_auto_parallel\|max_thread_instructions\|n_logical_threads' \
  crates src tests examples docs README.md EXPERIMENTS.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "an item no root reached is referenced again" >&2
  exit 1
fi
# So are the second and third statements of the paper's numbers: the
# calibration anchors and the sequential cells the scaling tables restated.
# Every published number lives in crates/core/src/paper.rs.
if grep -rn 'PaperAnchors\|TABLE3_SEQ\|TABLE4_SEQ\|TABLE9_SEQ\|TABLE10_SEQ' \
  crates src tests examples docs README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "a second statement of the paper's numbers is referenced again" >&2
  exit 1
fi
# So is every pool but the process-wide one: explicit pools with their
# width option and their shutdown-and-join lifecycle, the shared core
# they held, and the `scope_threads` alias. `ThreadPool::global()` is the
# pool and `run_width` its one region entry.
if grep -rn 'ThreadPool::new\|ThreadPool::host\|scope_threads\|PoolShared' \
  crates src tests examples README.md EXPERIMENTS.md DESIGN.md docs .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "an explicit pool or scope_threads is referenced again" >&2
  exit 1
fi
# So is the vendored lock crate: `sthreads` states its synchronisation
# with `std::sync` alone (the notify skip is two `PoolState` fields read
# under the state lock), and so do `c3i`'s two lock sites.
if grep -rn 'parking_lot' \
  crates src tests examples docs Cargo.toml Cargo.lock README.md EXPERIMENTS.md DESIGN.md .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted parking_lot stand-in is referenced again" >&2
  exit 1
fi
# So are the `repro` sections and the Criterion targets that the design's
# experiment index once named (`repro table1` … `repro table12`, the
# `bench tNN_*` targets), and a `machine_model` crate that never existed:
# every paper table is a row of `repro tables`, and the models are
# `eval_core::models`.
if grep -rn 'repro table[0-9]\|bench `t[0-9]\|machine[_-]model' \
  README.md DESIGN.md EXPERIMENTS.md docs |
  grep -v '^docs/LAYERS.md:'; then
  echo "a nonexistent repro section, bench target or machine_model is named again" >&2
  exit 1
fi
# So is the ring sweep's second blocking-value path (one division, two
# divisions, the zero scan that chose between them) and `clamp_alt`: a
# parent's blocking value is `los::blocking` and a merged cell
# `los::merged`, both on one select that says which zero a tie gives.
if grep -rn 'one_division\|two_divisions\|clamp_alt\|contains(&0\.0)' \
  crates src tests examples README.md EXPERIMENTS.md DESIGN.md docs .claude |
  grep -v '^docs/LAYERS.md:'; then
  echo "the deleted two-division blocking path is referenced again" >&2
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
# 257 is the smallest request count at which mix seed 1 holds each of the
# 17 parameterless requests (12 tables, 4 figures, Sensitivity) at least
# twice, so every stored body is served both when it is computed and
# after.
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
  --requests 257 --mix-seed 1 --conns 4 --stop-server
wait "$SERVICE_PID"
trap - EXIT

echo "== service smoke over TCP =="
# The same replay over 127.0.0.1 on an OS-assigned port, one connection.
# A round trip that waits on Nagle's algorithm for a delayed ACK costs
# ≈ 88 ms, so 257 sequential requests would take ≈ 22 s; the timeout
# fails the step long before that (the replay itself takes well under
# a second).
SERVICE_OUT=target/c3i-serve-tcp.out
rm -f "$SERVICE_OUT"
./target/release/repro --serve 127.0.0.1:0 --reduced >"$SERVICE_OUT" &
SERVICE_PID=$!
trap 'kill "$SERVICE_PID" 2>/dev/null || true' EXIT
SERVICE_ADDR=
for _ in $(seq 1 150); do
  SERVICE_ADDR=$(sed -n 's/^serving on //p' "$SERVICE_OUT")
  [ -n "$SERVICE_ADDR" ] && break
  sleep 0.2
done
if [ -z "$SERVICE_ADDR" ]; then
  echo "service smoke: TCP server never reported its address" >&2
  exit 1
fi
timeout 10 ./target/release/repro --load "$SERVICE_ADDR" --reduced \
  --requests 257 --mix-seed 1 --conns 1 --stop-server
wait "$SERVICE_PID"
trap - EXIT

echo "CI OK"
