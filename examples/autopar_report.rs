//! The automatic-parallelization experiment: run the modeled
//! Tera/Exemplar compiler over the paper's four benchmark loop nests and
//! over loops it *can* handle, print canal-style feedback, then run the
//! dataflow pass (reduction recognition, privatization, compaction,
//! purity summaries) over the same loops and show what it clears — the
//! living comparison lives in `docs/AUTOPAR.md`.
//!
//! ```text
//! cargo run --example autopar_report
//! ```

use tera_c3i::autopar::programs;
use tera_c3i::autopar::{analyze_loop, emit_plan, Expr, LoopNest, Stmt};

fn main() {
    println!("== the paper's benchmark loop nests (no pragmas) ==\n");
    let report = programs::benchmark_report();
    print!("{report}");
    println!(
        "\n-> as in the paper: no practical opportunity for parallelization found in\n\
         either benchmark; only the dense affine control loop parallelizes.\n"
    );

    println!("== the manually transformed programs still need the pragma ==\n");
    for (name, without, with) in [
        (
            "Program 2 (chunked Threat Analysis)",
            analyze_loop(&programs::program2_threat_chunked(false)),
            analyze_loop(&programs::program2_threat_chunked(true)),
        ),
        (
            "Program 4 (coarse Terrain Masking)",
            analyze_loop(&programs::program4_terrain_coarse(false)),
            analyze_loop(&programs::program4_terrain_coarse(true)),
        ),
    ] {
        println!("{name}:");
        print!("  without pragma: {without}");
        print!("  with pragma:    {with}");
    }

    println!("\n== what the analyzer CAN prove (so the rejections are not vacuous) ==\n");
    // A stencil with a distance-2 dependence — rejected with a precise
    // reason.
    let stencil = LoopNest::new("for i (a[i] = a[i-2] + b[i])", "i").stmt(
        Stmt::new("a[i]=a[i-2]+b[i]")
            .array("a", vec![Expr::var("i")], true)
            .array(
                "a",
                vec![Expr::Affine {
                    var: "i".into(),
                    scale: 1,
                    offset: -2,
                }],
                false,
            )
            .array("b", vec![Expr::var("i")], false),
    );
    print!("{}", analyze_loop(&stencil));

    // Odd/even split — the GCD test proves independence.
    let odd_even = LoopNest::new("for i (a[2i] = a[2i+1])", "i").stmt(
        Stmt::new("a[2i]=a[2i+1]")
            .array(
                "a",
                vec![Expr::Affine {
                    var: "i".into(),
                    scale: 2,
                    offset: 0,
                }],
                true,
            )
            .array(
                "a",
                vec![Expr::Affine {
                    var: "i".into(),
                    scale: 2,
                    offset: 1,
                }],
                false,
            ),
    );
    print!("{}", analyze_loop(&odd_even));

    // Privatizable temporary — fine.
    let private_tmp = LoopNest::new("for i (t = f(b[i]); a[i] = t)", "i")
        .private(&["t"])
        .stmt(
            Stmt::new("t=...; a[i]=t")
                .writes(&["t"])
                .reads(&["t"])
                .array("a", vec![Expr::var("i")], true)
                .array("b", vec![Expr::var("i")], false),
        );
    print!("{}", analyze_loop(&private_tmp));

    println!("\n== the dataflow pass: what a stronger compiler clears ==\n");
    let df = programs::dataflow_report();
    print!("{df}");
    println!("\n-> emitted schedules for the loops it proved parallel:\n");
    for (l, v) in programs::benchmark_loops().iter().zip(&df.verdicts) {
        if let Some(p) = emit_plan(l, v) {
            println!("  {}: schedule({})", l.label, p.schedule);
        }
    }
}
