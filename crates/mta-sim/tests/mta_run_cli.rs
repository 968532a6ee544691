//! `mta-run` reports bad invocations on stderr with its usage and exits
//! 2; it never panics on them, and never runs a command line it did not
//! understand.

use std::process::Command;

/// Stands for the path of a valid program in a row's arguments.
const P: &str = "<prog>";

#[test]
fn bad_invocations_exit_2_with_a_message_and_good_ones_run() {
    let prog = std::env::temp_dir().join(format!("mta-run-cli-{}.asm", std::process::id()));
    std::fs::write(&prog, "halt\n").expect("write program");
    let prog = prog.to_str().expect("temp path is UTF-8");
    for (args, code, needle) in [
        (&[P, "--procs"][..], 2, "--procs needs a value"),
        (&[P, "--arg", "x"], 2, "cannot parse 'x'"),
        (&[P, "--procs", "0"], 2, "n_processors must be positive"),
        (
            &[P, "--streams", "0"],
            2,
            "streams_per_processor must be positive",
        ),
        (&[P, "--dump", "7"], 2, "is not A..B"),
        (
            &[P, "--dump", "0..4194305"],
            2,
            "--dump: address 4194304 out of range",
        ),
        (
            &[P, "--empty", "4194304"],
            2,
            "--empty: address 4194304 out of range",
        ),
        (&[P, "--dump", "10..5"], 2, "--dump: '10..5' is empty"),
        (&["--bogus", P], 2, "unknown flag '--bogus'"),
        (&["--lookahead", "4", P], 2, "unknown flag '--lookahead'"),
        (&["missing.asm", P], 2, "a second program"),
        (&[P, "--procs", "2", "--dump", "0..2"], 0, "mem[1] = 0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mta-run"))
            .args(args.iter().map(|&a| if a == P { prog } else { a }))
            .output()
            .expect("spawn mta-run");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
        let usage = text.contains("usage: mta-run");
        assert_eq!(usage, code == 2, "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_file(prog);
}
