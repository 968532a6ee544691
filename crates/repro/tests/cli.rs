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
    assert_eq!(flags.len(), 15, "{flags:?}");
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

/// `--json FILE` is written by the `tables` section only; asking for it
/// without that section used to exit 0 having written nothing.
#[test]
fn json_without_the_tables_section_is_a_usage_error() {
    let file = std::env::temp_dir().join(format!("repro-cli-{}.json", std::process::id()));
    let out = repro(&["--reduced", "--json", file.to_str().unwrap(), "table-auto"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--json"), "{}", stderr(&out));
    assert!(out.stdout.is_empty());
    assert!(!file.exists());
}
