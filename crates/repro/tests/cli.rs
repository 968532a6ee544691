//! The `repro` binary from the outside: what it prints and how it exits
//! on the command lines a unit test of the parser cannot reach.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `--help` prints the usage on stdout and exits 0, and the usage is the
/// parser's own table: every `[--flag]` it shows is a flag the parser
/// knows, with the arity shown.
#[test]
fn help_exits_zero_and_every_flag_it_names_is_accepted() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", stderr(&out));
    let usage = String::from_utf8(out.stdout).unwrap();
    assert!(usage.starts_with("usage: repro ["), "{usage}");
    assert_eq!(repro(&["-h"]).stdout, usage.as_bytes());

    // "[--csv DIR]" -> ("--csv", true); "[--reduced]" -> ("--reduced", false).
    let flags: Vec<(&str, bool)> = usage
        .split('[')
        .filter(|group| group.starts_with("--"))
        .map(|group| {
            let inner = group.split(']').next().unwrap();
            (inner.split(' ').next().unwrap(), inner.contains(' '))
        })
        .collect();
    assert_eq!(flags.len(), 13, "{flags:?}");
    for (flag, takes_operand) in flags {
        // The parser reads left to right, so an error about what follows
        // the flag shows the flag itself was accepted.
        let out = repro(&[flag, "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let expected = if takes_operand {
            format!("{flag} requires")
        } else {
            "unknown flag '--bogus'".to_string()
        };
        assert!(stderr(&out).contains(&expected), "{flag}: {}", stderr(&out));
    }
    for section in [
        "tables",
        "figures",
        "utilization",
        "autopar",
        "table-auto",
        "scalability",
        "sensitivity",
        "all",
    ] {
        assert!(usage.contains(section), "usage must name {section}");
    }
}

/// An unreachable server is a failed smoke, not a crash: exit 1, one
/// `load:` line saying why, no panic message.
#[test]
fn load_against_a_dead_address_exits_one_without_panicking() {
    let sock =
        std::env::temp_dir().join(format!("repro-cli-no-server-{}.sock", std::process::id()));
    let out = repro(&[
        "--reduced",
        "--no-cache",
        "--load",
        sock.to_str().unwrap(),
        "--requests",
        "8",
        "--conns",
        "2",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let failed: Vec<&str> = err.lines().filter(|l| l.contains("cannot reach")).collect();
    assert_eq!(failed.len(), 1, "{err}");
    assert!(failed[0].starts_with("load: 8 of 8 requests not completed; first failure: "));
}

/// `--profile` appends the pool counters and a simulator run's machine
/// counters, and no timing. `--threads N` reaches table generation: with
/// `--threads 1` the tables run inline, so the one pool region left is
/// the workload build, which `Evaluator::load` runs at the pool's width —
/// one region on a host with two or more CPUs, none on one CPU.
#[test]
fn profile_reports_counters_and_no_timing() {
    let out = repro(&[
        "--reduced",
        "--no-cache",
        "--threads",
        "1",
        "--profile",
        "tables",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    let report = &text[text.find("Observability profile").expect("profile header")..];
    let pool = report
        .lines()
        .find(|l| l.trim_start().starts_with("pool regions"))
        .expect("pool regions line");
    let regions: u64 = pool.split_whitespace().nth(2).unwrap().parse().unwrap();
    let multi_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    assert_eq!(regions, u64::from(multi_cpu), "{pool}");
    assert!(report.contains("\nSimulator machine counters"), "{report}");
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("cycles / instructions"))
        .expect("cycles line");
    let counts: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .take(2)
        .collect();
    assert!(counts.len() == 2 && counts.iter().all(|&n| n > 0), "{line}");
    assert!(!report.contains("dispatch / imbalance"), "{report}");
    assert!(!report.contains("busy / idle"), "{report}");
}

/// The snapshot cache as `repro` uses it, in a directory of its own
/// (`C3I_CACHE_DIR`): a cold run measures and writes the snapshot, a warm
/// run loads it, and `--no-cache` neither reads nor writes the directory.
#[test]
fn cache_misses_then_hits_and_no_cache_leaves_the_dir_alone() {
    let base = std::env::temp_dir().join(format!("repro-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = |dir: &std::path::Path, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("C3I_CACHE_DIR", dir)
            .args(["--reduced"].iter().chain(extra).chain(&["tables"]))
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        stderr(&out)
    };
    let warm = base.join("warm");
    assert!(run(&warm, &[]).contains("workload: Miss"));
    assert!(warm.join("workload_reduced.json").is_file());
    assert!(run(&warm, &[]).contains("workload: Hit"));
    let off = base.join("off");
    assert!(run(&off, &["--no-cache"]).contains("workload: Disabled"));
    assert!(!off.exists(), "--no-cache must not create {off:?}");
    let _ = std::fs::remove_dir_all(&base);
}

/// A `--csv DIR` that cannot be created is a failed run, not a crash:
/// exit 1, the path and the error on stderr, no panic message. (`f/sub`
/// with `f` a regular file: `create_dir_all` fails on any host.)
#[test]
fn an_unwritable_csv_dir_exits_one_naming_the_path() {
    let base = std::env::temp_dir().join(format!("repro-cli-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let file = base.join("f");
    std::fs::write(&file, "not a directory").unwrap();
    let dir = file.join("sub");
    let out = repro(&["--reduced", "--csv", dir.to_str().unwrap(), "table-auto"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        err.contains(&format!("repro: cannot write {}: ", dir.display())),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
