//! Differential testing: the cycle-level machine and the timing-free
//! reference interpreter must compute identical results on randomly
//! generated programs — under every timing configuration (few or many
//! banks), since timing must never change semantics.

use mta_sim::interp::{run_reference, RefOutcome};
use mta_sim::ir::{Instr, Program};
use mta_sim::{Machine, MtaConfig};
use proptest::prelude::*;

const MEM_WORDS: usize = 1 << 10;

/// Strategy: random straight-line-ish programs. All memory addresses are
/// generated in-range; branch targets only jump forward (so programs
/// terminate); no Fork (the reference is single-stream).
fn arb_instr(len: usize, at: usize) -> impl Strategy<Value = Instr> {
    let reg = 1u8..16; // r0 excluded as destination; sources may use 0
    let src = 0u8..16;
    let addr_imm = 0i64..(MEM_WORDS as i64 - 1);
    let fwd = (at + 1)..(len + 1).max(at + 2);
    prop_oneof![
        (reg.clone(), -100i64..100).prop_map(|(rd, imm)| Instr::Li { rd, imm }),
        (reg.clone(), src.clone()).prop_map(|(rd, rs)| Instr::Mov { rd, rs }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::Add { rd, ra, rb }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::Sub { rd, ra, rb }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::Mul { rd, ra, rb }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::Slt { rd, ra, rb }),
        (reg.clone(), src.clone(), -50i64..50).prop_map(|(rd, ra, imm)| Instr::Addi {
            rd,
            ra,
            imm
        }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::FAdd { rd, ra, rb }),
        (reg.clone(), src.clone(), src.clone()).prop_map(|(rd, ra, rb)| Instr::FMax { rd, ra, rb }),
        (reg.clone(), src.clone()).prop_map(|(rd, rs)| Instr::IToF { rd, rs }),
        // Memory at literal addresses via r0 base (always in range).
        (reg.clone(), addr_imm.clone()).prop_map(|(rd, offset)| Instr::Load {
            rd,
            base: 0,
            offset
        }),
        (src.clone(), addr_imm.clone()).prop_map(|(rs, offset)| Instr::Store {
            rs,
            base: 0,
            offset
        }),
        (src.clone(), addr_imm.clone()).prop_map(|(rs, offset)| Instr::Put {
            rs,
            base: 0,
            offset
        }),
        (reg.clone(), addr_imm.clone(), src.clone()).prop_map(|(rd, offset, rs)| Instr::FetchAdd {
            rd,
            base: 0,
            offset,
            rs
        }),
        // Forward-only branches terminate by construction.
        (src.clone(), src.clone(), fwd.clone()).prop_map(|(ra, rb, target)| Instr::Beq {
            ra,
            rb,
            target
        }),
        (src, 0u8..16, fwd).prop_map(|(ra, rb, target)| Instr::Blt { ra, rb, target }),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    (4usize..40).prop_flat_map(|len| {
        let instrs: Vec<_> = (0..len).map(|at| arb_instr(len, at)).collect();
        instrs.prop_map(move |mut code| {
            code.push(Instr::Halt);
            // Clamp forward targets to the halt instruction.
            let last = code.len() - 1;
            for i in &mut code {
                match i {
                    Instr::Beq { target, .. }
                    | Instr::Bne { target, .. }
                    | Instr::Blt { target, .. }
                    | Instr::Bge { target, .. }
                    | Instr::Jmp { target } => *target = (*target).min(last),
                    _ => {}
                }
            }
            Program::new(code)
        })
    })
}

fn machine_outcome(program: &Program, cfg: MtaConfig, arg: u64) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut m = Machine::new(cfg, program.clone()).ok()?;
    m.spawn(0, arg).ok()?;
    let r = m.run(50_000_000);
    if !r.completed || !r.faults.is_empty() {
        return None;
    }
    let mem: Vec<u64> = (0..MEM_WORDS).map(|a| m.memory().load(a)).collect();
    // Registers are gone once the stream halts; compare memory plus the
    // halting guarantee.
    Some((mem, vec![]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Machine memory state equals reference memory state for every
    /// timing configuration.
    #[test]
    fn machine_matches_reference(program in arb_program(), arg in 0u64..100) {
        prop_assume!(program.validate().is_ok());
        let mut ref_mem = mta_sim::Memory::new(MEM_WORDS, 16, 1);
        let ref_out = run_reference(&program, &mut ref_mem, arg, 1_000_000);
        // Only compare halting runs (blocking programs deadlock the
        // machine, faulting ones fault it — both are separately tested).
        prop_assume!(matches!(ref_out, RefOutcome::Halted { .. }));
        let expected: Vec<u64> = (0..MEM_WORDS).map(|a| ref_mem.load(a)).collect();

        for (label, cfg) in [
            ("blocking", MtaConfig { mem_words: MEM_WORDS, ..MtaConfig::tera(1) }),
            (
                "two_banks",
                MtaConfig { mem_words: MEM_WORDS, n_banks: 2, ..MtaConfig::tera(1) },
            ),
        ] {
            let got = machine_outcome(&program, cfg, arg);
            prop_assert!(got.is_some(), "{label}: machine did not complete");
            let (mem, _) = got.unwrap();
            prop_assert_eq!(&mem, &expected, "{} memory state diverged", label);
        }
    }

    /// Programs that block in the reference deadlock the machine (timing
    /// must not let them slip through).
    #[test]
    fn blocked_reference_means_machine_deadlock(offset in 0i64..64) {
        let program = Program::new(vec![
            Instr::Load { rd: 2, base: 0, offset },
            Instr::LoadSync { rd: 3, base: 0, offset },
            Instr::LoadSync { rd: 4, base: 0, offset }, // now empty: blocks
            Instr::Halt,
        ]);
        let mut ref_mem = mta_sim::Memory::new(MEM_WORDS, 16, 1);
        let ref_out = run_reference(&program, &mut ref_mem, 0, 10_000);
        prop_assert_eq!(ref_out, RefOutcome::Blocked { at: 2 });

        let mut m = Machine::new(
            MtaConfig { mem_words: MEM_WORDS, ..MtaConfig::tera(1) },
            program,
        ).unwrap();
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        prop_assert!(r.deadlocked);
    }
}

/// A base plus offset past `i64::MAX` wraps to a negative address, which
/// both sides report as a fault; neither panics.
#[test]
fn an_overflowing_address_faults_on_both_sides() {
    let program =
        mta_sim::asm_text::assemble_text("li r2, 9223372036854775807\nload r3, 1(r2)\nhalt\n")
            .unwrap();
    let msg = "negative address -9223372036854775808";
    let mut ref_mem = mta_sim::Memory::new(MEM_WORDS, 16, 1);
    let ref_out = run_reference(&program, &mut ref_mem, 0, 10);
    assert_eq!(ref_out, RefOutcome::Fault { msg: msg.into() });

    let cfg = MtaConfig {
        mem_words: MEM_WORDS,
        ..MtaConfig::tera(1)
    };
    let mut m = Machine::new(cfg, program).unwrap();
    m.spawn(0, 0).unwrap();
    let r = m.run(10_000);
    assert_eq!(r.faults.len(), 1);
    assert!(r.faults[0].ends_with(msg), "{:?}", r.faults);
}
