//! `mta-run` — assemble and execute a text assembly program on the
//! simulated Tera MTA.
//!
//! ```text
//! mta-run PROG.asm [--procs N] [--streams N] [--arg V]
//!                  [--empty ADDR]... [--dump ADDR..ADDR]
//! ```
//!
//! Exit status: 0 when the program completed or deadlocked, 1 when it
//! failed to assemble, 2 on a usage or configuration error (an unknown
//! flag, a second program, an empty `--dump` range among them) or when
//! the cycle budget ran out.

use mta_sim::asm_text::assemble_text;
use mta_sim::{Machine, MtaConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: mta-run PROG.asm [--procs N] [--streams N] [--arg V] \
                     [--empty ADDR]... [--dump A..B]";

/// The parsed operand of `flag`, or a message saying what is wrong with it.
fn operand<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut cfg = MtaConfig::tera(1);
    let mut arg_val = 0u64;
    let mut empties: Vec<usize> = Vec::new();
    let mut dump = 0..0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--procs" => cfg.n_processors = operand(&mut args, &a)?,
            "--streams" => cfg.streams_per_processor = operand(&mut args, &a)?,
            "--arg" => arg_val = operand(&mut args, &a)?,
            "--empty" => empties.push(operand(&mut args, &a)?),
            "--dump" => {
                let spec: String = operand(&mut args, &a)?;
                let bounds = spec.split_once("..").and_then(|(from, to)| {
                    Some(from.parse::<usize>().ok()?..to.parse::<usize>().ok()?)
                });
                dump = bounds.ok_or_else(|| format!("--dump: '{spec}' is not A..B"))?;
                if dump.is_empty() {
                    return Err(format!("--dump: '{spec}' is empty (B must exceed A)").into());
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'").into()),
            p if path.is_some() => return Err(format!("a second program '{p}'").into()),
            p => path = Some(p.to_string()),
        }
    }
    let path = path.ok_or("no program given")?;
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let program = match assemble_text(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}:{e}");
            return Ok(ExitCode::from(1));
        }
    };
    let mut m = Machine::new(cfg.clone(), program)?;
    for a in empties {
        m.memory().check(a).map_err(|e| format!("--empty: {e}"))?;
        m.memory_mut().set_empty(a);
    }
    if let Some(last) = dump.end.checked_sub(1) {
        m.memory().check(last).map_err(|e| format!("--dump: {e}"))?;
    }
    m.spawn(0, arg_val)?;
    let r = m.run(10_000_000_000);
    let secs = r.seconds(cfg.clock_mhz)?;
    println!(
        "cycles {} ({:.6} s at {} MHz) | instructions {} | utilization {:.1}% | forks {} | sync blocks {}",
        r.cycles,
        secs,
        cfg.clock_mhz,
        r.stats.instructions(),
        100.0 * r.utilization(),
        r.stats.threads.forks,
        r.stats.sync.blocked,
    );
    if r.deadlocked {
        println!("DEADLOCK: all live streams blocked on full/empty bits");
    }
    for f in &r.faults {
        println!("FAULT: {f}");
    }
    for addr in dump {
        println!(
            "mem[{addr}] = {} (f64 {:e})",
            m.memory().load(addr),
            m.memory().load_f64(addr)
        );
    }
    Ok(if r.completed || r.deadlocked {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("mta-run: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}
