//! `mta-run` reports bad invocations on stderr and exits 2; it never
//! panics on them.

use std::process::Command;

#[test]
fn bad_invocations_exit_2_with_a_message_and_good_ones_run() {
    let prog = std::env::temp_dir().join(format!("mta-run-cli-{}.asm", std::process::id()));
    std::fs::write(&prog, "halt\n").expect("write program");
    for (args, code, needle) in [
        (&["--procs"][..], 2, "--procs needs a value"),
        (&["--arg", "x"], 2, "cannot parse 'x'"),
        (&["--procs", "0"], 2, "n_processors must be positive"),
        (
            &["--streams", "0"],
            2,
            "streams_per_processor must be positive",
        ),
        (&["--dump", "7"], 2, "is not A..B"),
        (
            &["--dump", "0..4194305"],
            2,
            "--dump: address 4194304 out of range",
        ),
        (
            &["--empty", "4194304"],
            2,
            "--empty: address 4194304 out of range",
        ),
        (&["--procs", "2", "--dump", "0..2"], 0, "mem[1] = 0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mta-run"))
            .arg(&prog)
            .args(args)
            .output()
            .expect("spawn mta-run");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_file(&prog);
}
