//! Backend differential suite: the interpreter is the semantic oracle,
//! and the compile-on-verify tier must be indistinguishable from it —
//! same `RunResult` bit for bit (action, queue override, cycles with
//! branch delays, SRAM/hash counts), same MP and flow-state mutation,
//! and the same dynamic `RunError`s on programs that never verified.
//!
//! This is the compilation tier's admission gate, in the same spirit as
//! the calendar-queue/oracle differential suite in `npr-sim`:
//! `scripts/verify.sh` fails if tier-1's run of it executes zero tests.

use npr_vrp::{
    analyze, compile, gen, run, Executable, RunError, RunResult, VrpBackend, VrpProgram,
};

/// Executes `prog` through both tiers on identical inputs; requires
/// identical results and identical memory effects. Returns the result
/// for further checks.
fn lockstep(prog: &VrpProgram, fill: u8) -> Result<RunResult, RunError> {
    let sb = usize::from(prog.state_bytes);
    let mut mp_i = [fill; 64];
    let mut st_i = vec![fill; sb];
    let oracle = run(prog, &mut mp_i, &mut st_i);

    // Executable with the Compiled knob: takes the chain when the
    // program verifies, falls back to the interpreter when it doesn't —
    // either way it must match the oracle exactly.
    let exe = Executable::new(prog.clone(), VrpBackend::Compiled);
    let mut mp_c = [fill; 64];
    let mut st_c = vec![fill; sb];
    let got = exe.run(&mut mp_c, &mut st_c);

    assert_eq!(oracle, got, "result diverged for {}", prog.name);
    assert_eq!(mp_i, mp_c, "MP mutation diverged for {}", prog.name);
    assert_eq!(st_i, st_c, "state mutation diverged for {}", prog.name);
    got
}

#[test]
fn valid_corpus_runs_lock_step() {
    // Every structurally valid corpus program compiles, runs through
    // both tiers, and agrees bit for bit — across several MP fills so
    // data-dependent branches take different paths.
    let mut compiled = 0;
    for seed in 0..1024u64 {
        let prog = gen::random_program(seed);
        assert!(analyze(&prog).is_ok());
        assert!(compile(&prog).is_ok(), "verified program failed to compile");
        compiled += 1;
        for fill in [0x00, 0x01, 0x5A, 0xFF] {
            lockstep(&prog, fill).expect("verified program cannot error");
        }
    }
    assert_eq!(compiled, 1024);
}

#[test]
fn raw_corpus_has_run_error_parity() {
    // Arbitrary raw programs: most never verify, so the Executable
    // falls back to the interpreter and must reproduce its exact
    // dynamic error (or its exact success, for the seeds that happen
    // to be well-formed). Count both verdicts so the property is
    // never vacuous.
    let (mut ok, mut err) = (0u32, 0u32);
    for seed in 0..2048u64 {
        let prog = gen::random_raw_program(seed);
        match lockstep(&prog, 0x3C) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 0, "raw corpus never ran successfully");
    assert!(err > 0, "raw corpus never produced a dynamic error");
}

#[test]
fn verified_raw_programs_compile_and_agree() {
    // The subset of the raw corpus that *does* verify must take the
    // compiled tier (not the fallback) and still agree with the oracle.
    let mut through_chain = 0;
    for seed in 0..2048u64 {
        let prog = gen::random_raw_program(seed);
        if analyze(&prog).is_ok() {
            let exe = Executable::new(prog.clone(), VrpBackend::Compiled);
            assert!(exe.is_compiled(), "{} verified but did not compile", seed);
            lockstep(&prog, 0x77).expect("verified program cannot error");
            through_chain += 1;
        }
    }
    assert!(through_chain > 0, "no raw seed verified — gate is vacuous");
}

#[test]
fn interp_knob_matches_compiled_knob() {
    // The backend selector itself must not change observable behavior:
    // an Interp-knob Executable and a Compiled-knob Executable agree on
    // the whole valid corpus.
    for seed in 0..256u64 {
        let prog = gen::random_program(seed);
        let sb = usize::from(prog.state_bytes);
        let ei = Executable::new(prog.clone(), VrpBackend::Interp);
        let ec = Executable::new(prog, VrpBackend::Compiled);
        assert!(!ei.is_compiled());
        assert!(ec.is_compiled());
        let (mut mp_a, mut mp_b) = ([0xA5u8; 64], [0xA5u8; 64]);
        let (mut st_a, mut st_b) = (vec![0u8; sb], vec![0u8; sb]);
        assert_eq!(
            ei.run(&mut mp_a, &mut st_a),
            ec.run(&mut mp_b, &mut st_b)
        );
        assert_eq!(mp_a, mp_b);
        assert_eq!(st_a, st_b);
    }
}
