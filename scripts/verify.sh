#!/usr/bin/env bash
# Tier-1 verification, hermetic edition: everything runs --offline so a
# clean checkout with no network and no registry cache must pass. Any
# compiler warning is an error (the tree stays warning-clean).
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings"

# Module-size gate: the plane refactor split the Router god object;
# no source module may grow back past 900 lines.
oversize="$(find crates -path '*/src/*' -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 900 { print $2 " (" $1 " lines)" }')"
if [ -n "$oversize" ]; then
    echo "ERROR: module(s) over the 900-line limit:" >&2
    echo "$oversize" >&2
    exit 1
fi

# The tracked numbers (ROADMAP "Quality of design"): source lines, the
# public items of crates/core (printed, not gated) and the width of the
# public structs every caller touches. The three config
# counts and the Report's are ceilings, not reports: a knob cannot come
# back without raising one in the same diff. `sed` cuts each struct's body, `grep`
# counts its `pub name: Type` lines (names may carry digits).
pub_fields() {
    sed -n "/^pub struct $1 {/,/^}/p" "$2" | grep -Ec '^    pub [a-z_][a-z0-9_]*:'
}
src_loc="$(find crates -path '*/src/*' -name '*.rs' -exec cat {} + | wc -l)"
core_pub="$(grep -rhE '^ *pub (fn|struct|enum|trait|type|const) ' crates/core/src | wc -l)"
cfg_fields="$(pub_fields RouterConfig crates/core/src/config.rs)"
chip_fields="$(pub_fields ChipConfig crates/ixp/src/params.rs)"
rep_fields="$(pub_fields Report crates/core/src/report.rs)"
fab_fields="$(pub_fields FabricConfig crates/fabric/src/topology.rs)"
bench_fmt="$(grep -rnE 'format!|push_str' crates/bench/src | wc -l)"
echo "tracked: crates/*/src ${src_loc} lines, crates/core ${core_pub} pub items, RouterConfig ${cfg_fields} pub fields, ChipConfig ${chip_fields} pub fields, FabricConfig ${fab_fields} pub fields, Report ${rep_fields} pub fields, crates/bench ${bench_fmt} format!/push_str sites"
if [ "$cfg_fields" -gt 28 ]; then
    echo "ERROR: RouterConfig has ${cfg_fields} pub fields (ceiling 28): make the new knob a constant, or raise the ceiling here with the caller that varies it" >&2
    exit 1
fi
if [ "$chip_fields" -gt 5 ]; then
    echo "ERROR: ChipConfig has ${chip_fields} pub fields (ceiling 5): make the new figure a constant in crates/ixp/src/params.rs, or raise the ceiling here with the caller that varies it" >&2
    exit 1
fi
if [ "$fab_fields" -gt 3 ]; then
    echo "ERROR: FabricConfig has ${fab_fields} pub fields (ceiling 3): make the new figure a constant in crates/fabric/src/topology.rs, or raise the ceiling here with the caller that varies it" >&2
    exit 1
fi
if [ "$rep_fields" -gt 41 ]; then
    echo "ERROR: Report has ${rep_fields} pub fields (ceiling 41): add a field only with a reader, or raise the ceiling here with it" >&2
    exit 1
fi
# Statistics are lifetime totals and a window is a difference
# (DESIGN.md §13, marking invariance): nothing may zero one again.
if grep -rn "fn reset_stats" crates/*/src; then
    echo "ERROR: a reset_stats path is back: keep the statistic a lifetime total and let Router::mark() snapshot it" >&2
    exit 1
fi
# The slow-path watchdog is said once (DESIGN.md §11): one Policer
# serves the StrongARM and the Pentium, and an escalated packet's
# forwarder travels in its staging queue, not in a side map.
if [ "$(grep -rn "fn police\b" crates/*/src | wc -l)" -gt 1 ]; then
    grep -rn "fn police\b" crates/*/src >&2
    echo "ERROR: fn police is defined more than once: police through health::Policer" >&2
    exit 1
fi
if grep -n "escalations:" crates/core/src/world.rs; then
    echo "ERROR: an escalations map is back in RouterWorld: tag the staging-queue entry instead" >&2
    exit 1
fi
# One way into the output queue (DESIGN.md §16): outside the unit-test
# modules, only RouterWorld::enqueue_out puts a descriptor in a ring
# (`queues.enqueue(`) or a flow queue (`qm.enqueue(`).
stray_enqueue="$(awk '
    FNR == 1 { cur = ""; tests = 0 }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    /^ *(pub(\(crate\))? )?fn [a-z_0-9]+/ {
        cur = $0
        sub(/^ *(pub(\(crate\))? )?fn /, "", cur)
        sub(/[^a-z_0-9].*/, "", cur)
    }
    !tests && /(queues|qm)\.enqueue\(/ && cur != "enqueue_out" { print FILENAME ":" FNR ":" $0 }
' crates/core/src/*.rs)"
if [ -n "$stray_enqueue" ]; then
    echo "$stray_enqueue" >&2
    echo "ERROR: a packet enters an output queue outside RouterWorld::enqueue_out" >&2
    exit 1
fi
# Planes reach the chip through a narrow port (DESIGN.md §5): `Bus`
# holds no `Ixp`, and only the composition root's `CtlApply` arm
# freezes an engine (`freeze_me` inside `Router::apply_ctl`, which is
# called on the `PlaneEvent::CtlApply` line alone). Idle-ring jumps
# rely on it.
if sed -n '/^pub struct Bus<.*> {/,/^}/p' crates/core/src/plane.rs | grep -nE '^ *(pub(\(crate\))? )?ixp:|Ixp<'; then
    echo "ERROR: Bus hands planes the IXP machine: go through the Chip port" >&2
    exit 1
fi
stray_freeze="$(awk '
    FNR == 1 { cur = ""; tests = 0 }
    /^#\[cfg\(test\)\]/ { tests = 1 }
    /^ *(pub(\(crate\))? )?fn [a-z_0-9]+/ {
        cur = $0
        sub(/^ *(pub(\(crate\))? )?fn /, "", cur)
        sub(/[^a-z_0-9].*/, "", cur)
    }
    !tests && /freeze_me\(/ && cur != "apply_ctl" { print FILENAME ":" FNR ":" $0 }
    !tests && /apply_ctl\(/ && !/fn apply_ctl\(/ && !/PlaneEvent::CtlApply/ { print FILENAME ":" FNR ":" $0 }
' crates/core/src/*.rs)"
if [ -n "$stray_freeze" ]; then
    echo "$stray_freeze" >&2
    echo "ERROR: an engine is frozen outside the CtlApply arm of Router::dispatch" >&2
    exit 1
fi
# Every BENCH file goes through the one writer, npr_check::json
# (DESIGN.md, hermetic build): a quoted key in a Rust string literal is
# a hand-rolled JSON writer coming back.
if grep -rnE '\\"[a-z_0-9]+\\": ' crates/bench/src; then
    echo "ERROR: hand-rolled JSON in crates/bench: build an npr_check::json::Value instead" >&2
    exit 1
fi

# Tier-1: release build + full test suite.
cargo build --release --offline
cargo test -q --offline

# Keep every example compiling (they are not run by `cargo test`, so
# build them explicitly).
cargo build --release --offline --examples

# A gate is a test suite that must pass *and* must have executed at
# least one test: a filtered-out or skipped suite fails, not just a red
# one. `gate <label> <cargo test args...>`.
gate() {
    local label="$1" out
    shift
    out="$(cargo test -q --offline "$@" 2>&1)" || {
        echo "$out"
        echo "ERROR: $label failed" >&2
        exit 1
    }
    echo "$out"
    if ! echo "$out" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
        echo "ERROR: $label ran zero tests" >&2
        exit 1
    fi
}

# The differential-oracle suite is the scheduler's correctness gate.
gate "differential-oracle suite" -p npr-sim --test differential

# The VRP backend differential suite is the compiled tier's correctness
# gate: the interpreter is the semantic oracle, and the compiled block
# machine must match it bit-for-bit (results, cycles, MP and flow-state
# mutations) over the shared fuzz corpus.
gate "VRP backend differential suite" -p npr-vrp --test differential

# Same gate one layer up: the full router must produce identical packet
# digests, drop accounting, and health decisions on both backends
# across the fault corpus (release, so the full seeded sweeps run).
gate "router backend differential suite" --release -p npr-core --test backend_differential

# Idle-rotation compression against its stepping oracle (DESIGN.md §5):
# the router that skips whole rotations of an idle input ring must show
# the same fingerprint, report, ledger, reg_cycles and next event as the
# one that dispatches every event, at every cut of the seeded scenarios
# — and must have skipped something. Release, for the full case counts.
gate "spin differential suite" --release -p npr-core --test spin_differential

# The parallel-delivery differential gates: the conservative parallel
# engine must match the lock-step sequential oracle bit-for-bit, first
# at the engine level (npr-sim: seeded scenario generator plus the
# fault corpus, threads 2/4/8), then at the router level (npr-core:
# real fabrics under the full 8-class corpus, plus scatter sweeps).
# Release, so the full proptest case counts run.
gate "engine parallel differential suite" --release -p npr-sim --test parallel_differential
gate "router parallel differential suite" --release -p npr-core --test parallel_differential

# The fabric gates: the multi-chassis topology crate must (a) keep its
# pinned fingerprints and the lockstep engine thread-invariant on
# every topology (differential suite), (b) give the same outcome
# however a run is cut into `run_lockstep` calls, at every thread count
# (slicing suite), (c) contain every fault class to the armed chassis
# and survive link failure, drain, and re-join with whole-fabric
# conservation (fault suite), and (d) replay whole clusters bit-for-bit
# under the parallel engine across the fault corpus (parallel
# differential). Release.
for suite in differential slicing faults parallel_differential; do
    gate "fabric $suite suite" --release -p npr-fabric --test "$suite"
done

# Record the scheduler perf baseline: events/sec (calendar vs oracle,
# on a large and on a router-shaped population; golden scenario end to
# end) and per-experiment wall-clock, plus the VRP backend axis (service
# corpus + forwarder-heavy throughput on both tiers and the compiled
# speedup), and the parallel `threads` axis (fault-sweep wall-clock at
# 1/2/4/8 worker threads). simbench exits nonzero if the calendar
# queue diverges from the oracle, if the VRP backends diverge on its
# fuzz sweep, if the parallel fault sweep is not bit-identical to the
# sequential one, if the calendar loses to the heap on the
# router-shaped population, or if a host with 4+ cores sees under 2x
# from the parallel sweep; it prints the tracked (ungated, host-clock)
# golden_scenario and idle_line_rate costs.
cargo run --release --offline --bin simbench -- --quick --out BENCH_sim.json

# The health suite at full size: the overrun ladder, trap storms,
# wedge resets, and a fixed quarantine order (so a fixed fingerprint)
# for forwarders that offend in lockstep, across 16 fresh routers.
gate "health suite" --release -p npr-core --test health

# Marking invariance: `Router::mark()` at any instants, any number of
# times, leaves fingerprint, ledger, drain and health decisions alone.
# Release, so the full case counts run.
gate "marking-invariance suite" --release -p npr-core --test mark_invariance

# The fault-injection suite is the robustness gate: release, so the
# full 64-seeded-scenarios-per-class sweep executes (debug builds
# shrink it to 4).
gate "fault-injection suite" --release -p npr-core --test faults

# The per-flow queue-manager suite is the overload-isolation gate:
# release, so the wheel-vs-oracle property suite and the AQM
# thread-invariance sweep execute at full case counts.
gate "queue-manager suite" --release -p npr-core --test qm

# Chaos-soak gate: one long seeded run with every fault class armed at
# once; conservation must hold, no StrongARM stall may outlive the
# health watchdog's detection bound, and the whole run is capped on
# wall clock. Release, so the full 20 ms horizon executes. The suite
# runs twice — once under the sequential oracle and once at the host's
# thread ceiling (capped at 8) — so the fabric soak exercises the
# parallel engine too; when threaded it checks itself against the
# oracle fingerprint in-process.
soak_threads="$(nproc 2>/dev/null || echo 1)"
[ "$soak_threads" -le 8 ] || soak_threads=8
soak_counts="1"
[ "$soak_threads" -eq 1 ] || soak_counts="1 $soak_threads"
for nt in $soak_counts; do
    for pkg in npr-core npr-fabric; do
        NPR_SIM_THREADS=$nt gate "chaos-soak gate ($pkg) at NPR_SIM_THREADS=$nt" \
            --release -p $pkg --test soak
    done
done

# Record the graceful-degradation curves (Mpps vs fault rate per
# injector class; seed-fixed, so the file is reproducible).
cargo run --release --offline -p npr-bench --bin experiments -- faults --out BENCH_faults.json

# Record the control-storm result: install/route-update churn must
# leave fast-path Mpps within noise of the no-churn baseline.
cargo run --release --offline -p npr-bench --bin experiments -- control --out BENCH_control.json

# Record the recovery episodes: for each fault class the health monitor
# must detect, recover, and return throughput to within 1% of the
# fault-free baseline.
cargo run --release --offline -p npr-bench --bin experiments -- recovery --out BENCH_recovery.json

# The route suite is the internet-scale gate: release, so the
# million-prefix build/teardown smoke test and the interleaved-churn
# property test execute at full size.
gate "route suite" --release -p npr-route

# Record the internet-scale routing sweeps (lookup scaling, Zipf cache
# hit rate, churn storms). Gates (exit nonzero): the Zipf alpha=1.0 hit
# rate keeps the 4096-slot cache at least half warm, and the 1 M-prefix
# trie holds at most 24 MiB.
cargo run --release --offline -p npr-bench --bin experiments -- route --out BENCH_route.json

# Record the multi-chassis scaling sweeps (aggregate Mpps vs chassis
# count per topology) and the compound-fault conservation soak. Gate:
# every soak conserves packets across the whole fabric.
cargo run --release --offline -p npr-bench --bin experiments -- fabric --out BENCH_fabric.json

# Record the QoS sweeps: sojourn distribution per AQM discipline at the
# standard bufferbloat overload, plus the elephant-ramp isolation
# curve. Gates: CoDel's p99 sojourn is at most half of drop-tail's, and
# every victim flow keeps >= 90% goodput.
cargo run --release --offline -p npr-bench --bin experiments -- qos --out BENCH_qos.json

# The benchmark is a workspace of its own (benchmark/Cargo.toml), so
# the tier-1 `cargo test` never builds it: its smoke test holds
# BENCHMARK.json equal to the spec tables and runs every workload once
# at `--quick` size against the crates as they are now.
gate "benchmark smoke" --release --manifest-path benchmark/Cargo.toml

# Hermetic-build gate: the dependency graph may contain only workspace
# crates. Check both the resolved tree and the lockfile.
if cargo tree --offline --workspace --edges normal,dev,build --prefix none \
        | grep -v "^npr-" | grep -v "^$"; then
    echo "ERROR: non-workspace dependency in the tree" >&2
    exit 1
fi
if grep '^name = ' Cargo.lock | grep -v '^name = "npr-'; then
    echo "ERROR: non-workspace package in Cargo.lock" >&2
    exit 1
fi

# bash counts SECONDS from the start of the script: the wall time of
# this gate is the third tracked host number (ROADMAP north star).
echo "verify: OK in ${SECONDS}s"
