//! The paper's published facts, stated once: Table 1's machines, the two
//! §2 Tera constants the models take as given, and every measured second
//! of Tables 2–11.
//!
//! [`crate::calibrate()`] fits its free constants to some of these cells and
//! [`crate::experiments`] prints every one of them beside the model's
//! number; neither writes a published number of its own. Tables 7 and 12
//! repeat cells of the detail tables, so they have no constants here.
//! Calibration reads its anchors from this file, which is why
//! `cache::MEASUREMENT_SOURCES` embeds it.

/// One platform of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// The platform's row label in Tables 2 and 8.
    pub name: &'static str,
    /// The machine, as Table 1 names it.
    pub machine: &'static str,
    /// Processor count.
    pub processors: usize,
    /// Processor clock rate.
    pub clock_mhz: f64,
    /// Processor model.
    pub cpu: &'static str,
    /// Operating system.
    pub os: &'static str,
}

/// Table 1, in the column order of Tables 2 and 8.
pub const MACHINES: [Machine; 4] = [
    Machine {
        name: "Alpha",
        machine: "Digital AlphaStation",
        processors: 1,
        clock_mhz: 500.0,
        cpu: "Alpha 21164A",
        os: "Digital Unix 4.0C",
    },
    Machine {
        name: "Pentium Pro",
        machine: "NeTpower Sparta",
        processors: 4,
        clock_mhz: 200.0,
        cpu: "Pentium Pro",
        os: "Windows NT 4.0",
    },
    Machine {
        name: "Exemplar",
        machine: "Hewlett-Packard Exemplar",
        processors: 16,
        clock_mhz: 180.0,
        cpu: "PA-8000",
        os: "SPP-UX 5.3",
    },
    Machine {
        name: "Tera",
        machine: "Tera MTA",
        processors: 2,
        clock_mhz: 255.0,
        cpu: "MTA-1",
        os: "Carlos",
    },
];

/// Index of the DEC AlphaStation in [`MACHINES`], [`TABLE2`] and [`TABLE8`].
pub const ALPHA: usize = 0;
/// Index of the quad Pentium Pro.
pub const PPRO: usize = 1;
/// Index of the 16-processor Exemplar.
pub const EXEMPLAR: usize = 2;
/// Index of the Tera MTA.
pub const TERA: usize = 3;

/// §2: cycles between two instructions of one Tera stream.
pub const TERA_ISSUE_CYCLES: f64 = 21.0;
/// §2: hardware streams per Tera processor.
pub const TERA_STREAMS: usize = 128;

/// Table 2: sequential Threat Analysis seconds, in [`MACHINES`] order.
pub const TABLE2: [f64; 4] = [187.0, 458.0, 343.0, 2584.0];

/// Table 3: chunked Threat Analysis on the quad Pentium Pro,
/// `(processors, seconds)`.
pub const TABLE3: [(usize, f64); 4] = [(1, 466.0), (2, 233.0), (3, 157.0), (4, 117.0)];

/// Table 4: chunked Threat Analysis on the 16-processor Exemplar.
pub const TABLE4: [(usize, f64); 16] = [
    (1, 343.0),
    (2, 172.0),
    (3, 115.0),
    (4, 87.0),
    (5, 69.0),
    (6, 58.0),
    (7, 50.0),
    (8, 43.0),
    (9, 39.0),
    (10, 35.0),
    (11, 32.0),
    (12, 29.0),
    (13, 27.0),
    (14, 26.0),
    (15, 24.0),
    (16, 22.0),
];

/// Table 5: chunked Threat Analysis on the Tera MTA, `(processors,
/// seconds)` at [`TABLE5_CHUNKS`] chunks.
pub const TABLE5: [(usize, f64); 2] = [(1, 82.0), (2, 46.0)];
/// The chunk count of Table 5.
pub const TABLE5_CHUNKS: usize = 256;

/// Table 6: Threat Analysis on the 2-processor Tera, `(chunks, seconds)`.
pub const TABLE6: [(usize, f64); 6] = [
    (8, 386.0),
    (16, 197.0),
    (32, 104.0),
    (64, 61.0),
    (128, 46.0),
    (256, 46.0),
];

/// Table 8: sequential Terrain Masking seconds, in [`MACHINES`] order.
pub const TABLE8: [f64; 4] = [158.0, 197.0, 228.0, 978.0];

/// Table 9: coarse Terrain Masking on the quad Pentium Pro.
pub const TABLE9: [(usize, f64); 4] = [(1, 172.0), (2, 97.0), (3, 74.0), (4, 65.0)];

/// Table 10: coarse Terrain Masking on the 16-processor Exemplar.
pub const TABLE10: [(usize, f64); 16] = [
    (1, 228.0),
    (2, 102.0),
    (3, 90.0),
    (4, 59.0),
    (5, 62.0),
    (6, 43.0),
    (7, 51.0),
    (8, 37.0),
    (9, 49.0),
    (10, 34.0),
    (11, 41.0),
    (12, 34.0),
    (13, 32.0),
    (14, 40.0),
    (15, 41.0),
    (16, 37.0),
];

/// Table 11: fine-grained Terrain Masking on the Tera MTA.
pub const TABLE11: [(usize, f64); 2] = [(1, 48.0), (2, 34.0)];

/// The published seconds in `table`'s row for `n` processors.
pub fn at(table: &[(usize, f64)], n: usize) -> f64 {
    match table.iter().find(|&&(k, _)| k == n) {
        Some(&(_, secs)) => secs,
        None => panic!("no published row for {n} processors"),
    }
}
