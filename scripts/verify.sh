#!/usr/bin/env bash
# Tier-1 verification, hermetic edition: everything runs --offline so a
# clean checkout with no network and no registry cache must pass. Any
# compiler warning is an error (the tree stays warning-clean).
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings"

# `step <label> <command...>` runs one step and prints its wall
# seconds, so the total on the last line decomposes.
step() {
    local label="$1" t0=$SECONDS
    shift
    "$@"
    echo "step $label: $((SECONDS - t0))s"
}

source_gates() {
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
    # A fabric member shard shares nothing (DESIGN.md §15): it owns its
    # router, its inboxes and its half of the switch, so the fabric
    # crate needs no lock, shared pointer, atomic or interior mutability.
    if grep -rnE 'Arc|Mutex|RwLock|RefCell|Cell<|Atomic' crates/fabric/src; then
        echo "ERROR: crates/fabric/src shares state between shards: a member shard owns everything it touches" >&2
        exit 1
    fi
    # Every BENCH file goes through the one writer, npr_check::json
    # (DESIGN.md, hermetic build): a quoted key in a Rust string literal is
    # a hand-rolled JSON writer coming back.
    if grep -rnE '\\"[a-z_0-9]+\\": ' crates/bench/src; then
        echo "ERROR: hand-rolled JSON in crates/bench: build an npr_check::json::Value instead" >&2
        exit 1
    fi
    # One size per test (DESIGN.md, tests): tier-1 runs every suite at
    # the dev profile's opt-level 1, so no count may fork on the build.
    if grep -rn 'cfg!(debug_assertions)' crates; then
        echo "ERROR: a cfg!(debug_assertions) fork is back: give the test one size" >&2
        exit 1
    fi
}
step "source gates" source_gates

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

# The oracle suites, by package and target. Tier-1 is their one run,
# and each must execute at least one test in it:
# - npr-sim, npr-vrp: the scheduler's and the VRP backends'
#   differentials (the interpreter is the compiled tier's oracle), and
#   the parallel engine against the lock-step sequential oracle;
# - npr-core: the router on both VRP backends across the fault corpus,
#   idle-rotation compression against its stepping oracle (DESIGN.md
#   §5), the scatter differential, the health ladder, marking
#   invariance (§13), the 64-scenarios-per-class fault corpus, the
#   queue manager, and the 20 ms chaos soak;
# - npr-fabric: the pinned fingerprints, slicing, per-chassis fault
#   containment, the parallel differential and the fabric chaos soak
#   (sequential and threaded in one run);
# - npr-route: the trie oracles and the million-prefix table.
declare -A oracle_suites=(
    [npr-sim]="tests/differential.rs tests/parallel_differential.rs"
    [npr-vrp]="tests/differential.rs"
    [npr-core]="tests/backend_differential.rs tests/spin_differential.rs tests/parallel_differential.rs tests/health.rs tests/mark_invariance.rs tests/faults.rs tests/qm.rs tests/soak.rs"
    [npr-fabric]="tests/differential.rs tests/slicing.rs tests/faults.rs tests/parallel_differential.rs tests/soak.rs"
    [npr-route]="src/lib.rs tests/scale.rs"
)

# Tier-1's `cargo test`, run once per workspace package so that each
# target's block (`Running tests/<suite>.rs` ... `test result:`) can be
# told apart: suite names repeat across packages.
tier1_tests() {
    local manifest pkg out target checked=0
    for manifest in crates/*/Cargo.toml; do
        pkg="$(awk -F'"' '/^name = / { print $2; exit }' "$manifest")"
        out="$(cargo test --offline -p "$pkg" 2>&1)" || {
            echo "$out"
            echo "ERROR: tier-1 tests of $pkg failed" >&2
            exit 1
        }
        echo "$out" | grep -E '^ *(Running|Doc-tests) |^test result:' || true
        for target in ${oracle_suites[$pkg]:-}; do
            if ! echo "$out" | awk -v t="$target" '
                $1 == "Running" { on = ($2 == t || ($2 == "unittests" && $3 == t)); next }
                on && /^test result:/ { found = 1; ok = / [1-9][0-9]* passed/; on = 0 }
                END { exit !(found && ok) }'; then
                echo "ERROR: $pkg $target ran zero tests" >&2
                exit 1
            fi
            checked=$((checked + 1))
        done
    done
    if [ "$checked" -ne "$(echo "${oracle_suites[@]}" | wc -w)" ]; then
        echo "ERROR: $checked oracle suites checked: a package in oracle_suites is missing" >&2
        exit 1
    fi
}

# Tier-1: release build + full test suite (the dev profile is at
# opt-level 1, so the test binaries are not a second release build).
step "release build" cargo build --release --offline
step "tier-1 tests" tier1_tests

# Keep every example compiling (they are not run by `cargo test`, so
# build them explicitly).
step "examples build" cargo build --release --offline --examples

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
step simbench cargo run --release --offline --bin simbench -- --quick --out BENCH_sim.json

# Regenerate every BENCH file; each experiment gates its own numbers:
# - faults: the graceful-degradation curves (Mpps vs fault rate per
#   injector class; seed-fixed, so the file is reproducible);
# - control: install/route-update churn leaves fast-path Mpps within
#   noise of the no-churn baseline;
# - recovery: for each fault class the health monitor detects,
#   recovers, and returns throughput to within 1% of the fault-free
#   baseline;
# - route: the internet-scale sweeps (lookup scaling, Zipf cache hit
#   rate, churn storms); the Zipf alpha=1.0 hit rate keeps the
#   4096-slot cache at least half warm, and the 1 M-prefix trie holds
#   at most 24 MiB;
# - fabric: aggregate Mpps vs chassis count per topology, and the
#   compound-fault soak conserves packets across the whole fabric;
# - qos: sojourn per AQM discipline at the standard bufferbloat
#   overload and the elephant-ramp isolation curve; CoDel's p99
#   sojourn is at most half of drop-tail's, and every victim flow
#   keeps >= 90% goodput.
for exp in faults control recovery route fabric qos; do
    step "experiments $exp" \
        cargo run --release --offline -p npr-bench --bin experiments -- "$exp" --out "BENCH_$exp.json"
done

# The benchmark is a workspace of its own (benchmark/Cargo.toml), so
# the tier-1 `cargo test` never builds it: its smoke test holds
# BENCHMARK.json equal to the spec tables and runs every workload once
# at `--quick` size against the crates as they are now.
step "benchmark smoke" gate "benchmark smoke" --release --manifest-path benchmark/Cargo.toml

# Hermetic-build gate: the dependency graph may contain only workspace
# crates. Check both the resolved tree and the lockfile.
hermetic() {
    if cargo tree --offline --workspace --edges normal,dev,build --prefix none \
            | grep -v "^npr-" | grep -v "^$"; then
        echo "ERROR: non-workspace dependency in the tree" >&2
        exit 1
    fi
    if grep '^name = ' Cargo.lock | grep -v '^name = "npr-'; then
        echo "ERROR: non-workspace package in Cargo.lock" >&2
        exit 1
    fi
}
step "hermetic check" hermetic

# bash counts SECONDS from the start of the script: the wall time of
# this gate is the third tracked host number (ROADMAP north star).
echo "verify: OK in ${SECONDS}s"
