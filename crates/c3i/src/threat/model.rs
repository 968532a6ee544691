//! Physical model: ballistic threats, interceptor weapons, and the
//! time-stepped interception predicate.
//!
//! The C3IPBS distribution (and its classified input data) is not publicly
//! available, so this module defines a physically plausible model with the
//! same computational structure as the benchmark: each (threat, weapon)
//! pair is examined by a time-stepped simulation of threat and interceptor
//! positions, and the interception predicate is a conjunction of envelope
//! constraints that switches on and off as the threat flies, producing
//! zero, one, or more maximal interception intervals per pair.

use crate::counts::Rec;
use sthreads::{OpCounts, OpRecorder};

/// Simulation time step in seconds. The benchmark scans interception
/// feasibility at integer multiples of this step.
pub const TIME_STEP: f64 = 1.0;

/// An incoming ballistic threat on a parabolic trajectory from `launch` to
/// `impact` (ground coordinates in meters).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Threat {
    /// Ground launch point (m).
    pub launch: (f64, f64),
    /// Ground impact point (m).
    pub impact: (f64, f64),
    /// Absolute launch time (s).
    pub launch_time: f64,
    /// Time of flight from launch to impact (s).
    pub flight_time: f64,
    /// Apex altitude of the trajectory (m).
    pub apex_height: f64,
    /// Delay after launch until radar detection (s).
    pub detect_delay: f64,
}

impl Threat {
    /// Absolute time at which the threat strikes the ground.
    pub fn impact_time(&self) -> f64 {
        self.launch_time + self.flight_time
    }

    /// Absolute time at which the threat is first detected. Interception
    /// cannot be planned before this.
    pub fn detect_time(&self) -> f64 {
        self.launch_time + self.detect_delay
    }

    /// First integer time step at which interception may be considered.
    pub fn first_step(&self) -> u32 {
        (self.detect_time() / TIME_STEP).ceil().max(0.0) as u32
    }

    /// Last integer time step before impact.
    pub fn last_step(&self) -> u32 {
        (self.impact_time() / TIME_STEP).floor().max(0.0) as u32
    }

    /// Position of the threat at absolute time `t`, or `None` if the threat
    /// is not in flight. Horizontal motion is uniform from launch to
    /// impact; vertical motion is the parabola `z(τ) = 4·H·τ·(1−τ)` with
    /// `τ` the flight fraction — the standard drag-free ballistic shape.
    pub fn position(&self, t: f64) -> Option<(f64, f64, f64)> {
        if t < self.launch_time || t > self.impact_time() {
            return None;
        }
        let tau = (t - self.launch_time) / self.flight_time;
        let x = self.launch.0 + (self.impact.0 - self.launch.0) * tau;
        let y = self.launch.1 + (self.impact.1 - self.launch.1) * tau;
        let z = 4.0 * self.apex_height * tau * (1.0 - tau);
        Some((x, y, z))
    }
}

/// A ground-based interceptor battery.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Weapon {
    /// Battery ground position (m).
    pub pos: (f64, f64),
    /// Interceptor fly-out speed (m/s).
    pub interceptor_speed: f64,
    /// Maximum slant range of an engagement (m).
    pub max_range: f64,
    /// Lowest altitude at which an intercept is allowed (m).
    pub min_alt: f64,
    /// Highest altitude the interceptor can reach (m).
    pub max_alt: f64,
    /// Command/launch reaction delay after threat detection (s).
    pub reaction_time: f64,
}

/// One maximal interception interval: `weapon` can intercept `threat` at
/// every integer time step in `t_start..=t_end`, and at neither
/// `t_start − 1` nor `t_end + 1`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Interval {
    /// Index of the threat in the scenario.
    pub threat: u32,
    /// Index of the weapon in the scenario.
    pub weapon: u32,
    /// First feasible time step (inclusive).
    pub t_start: u32,
    /// Last feasible time step (inclusive).
    pub t_end: u32,
}

/// Which of the interception predicate's five exits a time step takes.
/// The predicate is a chain of early-outs, so the exit fixes exactly what
/// one evaluation costs ([`Exit::cost`]): that is what lets
/// [`pair_counts`] count a scan from a histogram of exits instead of
/// recording it call by call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Before detection plus reaction delay, or after impact.
    Timing,
    /// Past the timing test but the threat is not in flight.
    NotInFlight,
    /// Altitude outside the weapon's `[min_alt, max_alt]` envelope.
    Envelope,
    /// Slant range beyond `max_range`.
    Range,
    /// Every envelope conjunct held and the fly-out time was compared —
    /// the only exit that can report an intercept.
    FlyOut,
}

/// Operations one predicate evaluation performs, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitCost {
    /// Integer ALU operations.
    pub int: u64,
    /// Floating-point operations.
    pub fp: u64,
    /// Loads of the (cache-resident) threat and weapon records.
    pub load: u64,
}

impl Exit {
    /// Every exit, in the order the predicate tests them.
    pub const ALL: [Exit; 5] = [
        Exit::Timing,
        Exit::NotInFlight,
        Exit::Envelope,
        Exit::Range,
        Exit::FlyOut,
    ];

    /// What an evaluation leaving through this exit costs, as
    /// `(int, fp, load)`; each stage adds to the one before it. The
    /// trajectory record is mostly register-resident across the scan loop,
    /// which is why the loads stay this small.
    pub const fn cost(self) -> ExitCost {
        let (int, fp, load) = match self {
            // step -> time and loop bookkeeping (int 2); the detection +
            // reaction / impact window test (fp 2, load 2).
            Exit::Timing => (2, 2, 2),
            // + the trajectory's in-flight window test (fp 2, load 2).
            Exit::NotInFlight => (2, 4, 4),
            // + interpolation and parabola (fp 10, load 2: endpoints +
            // apex), then the envelope bounds test (fp 2, load 2).
            Exit::Envelope => (2, 16, 8),
            // + slant range (fp 7, load 2) and squaring `max_range` on the
            // way out (fp 1).
            Exit::Range => (2, 24, 10),
            // + slant range (fp 7, load 2), then sqrt, divide and the
            // fly-out compare (fp 3) against the interceptor speed (load 1).
            Exit::FlyOut => (2, 26, 11),
        };
        ExitCost { int, fp, load }
    }
}

/// The interception predicate without a recorder: which exit `step` takes,
/// and whether `weapon` can intercept `threat` there (only ever true at
/// [`Exit::FlyOut`]). True when, at `t = step·TIME_STEP`:
///
/// 1. the threat is in flight and already detected (plus the weapon's
///    reaction delay),
/// 2. the threat's altitude lies inside the weapon's engagement envelope
///    `[min_alt, max_alt]`,
/// 3. the slant range from the battery to the threat does not exceed
///    `max_range`, and
/// 4. an interceptor launched at `detect_time + reaction_time` flying at
///    `interceptor_speed` can reach the threat's position by `t`.
///
/// Each evaluation performs a fixed small amount of floating-point work —
/// the time-stepped inner simulation the paper calls "not amenable to
/// parallelization".
pub fn exit_class(weapon: &Weapon, threat: &Threat, step: u32) -> (Exit, bool) {
    let t = step as f64 * TIME_STEP;

    let earliest = threat.detect_time() + weapon.reaction_time;
    if t < earliest || t > threat.impact_time() {
        return (Exit::Timing, false);
    }

    let Some((x, y, z)) = threat.position(t) else {
        return (Exit::NotInFlight, false);
    };

    if z < weapon.min_alt || z > weapon.max_alt {
        return (Exit::Envelope, false);
    }

    let dx = x - weapon.pos.0;
    let dy = y - weapon.pos.1;
    let slant2 = dx * dx + dy * dy + z * z;
    if slant2 > weapon.max_range * weapon.max_range {
        return (Exit::Range, false);
    }

    let flyout = slant2.sqrt() / weapon.interceptor_speed;
    (Exit::FlyOut, flyout <= t - earliest)
}

/// The interception predicate: can `weapon` intercept `threat` at time step
/// `step`? [`exit_class`] decides; `r` is charged that exit's
/// [`Exit::cost`].
pub fn can_intercept<R: Rec>(weapon: &Weapon, threat: &Threat, step: u32, r: &mut R) -> bool {
    let (exit, feasible) = exit_class(weapon, threat, step);
    let cost = exit.cost();
    r.int(cost.int);
    r.fp(cost.fp);
    r.load(cost.load);
    feasible
}

/// Scan the time-stepped simulation for one (threat, weapon) pair and emit
/// every maximal interception interval, in increasing time order.
///
/// Counting recorders (`R::COUNTING`) take the historical stepwise scan so
/// recorded operation totals stay pinned; the no-op recorder takes the
/// structure-of-arrays batch scan, which emits bit-identical intervals.
pub fn intervals_for_pair<R: Rec>(
    threat_idx: u32,
    weapon_idx: u32,
    threat: &Threat,
    weapon: &Weapon,
    r: &mut R,
    emit: impl FnMut(Interval),
) {
    if R::COUNTING {
        intervals_for_pair_stepwise(threat_idx, weapon_idx, threat, weapon, r, emit);
    } else {
        intervals_for_pair_batch(threat_idx, weapon_idx, threat, weapon, emit);
    }
}

/// The pinned stepwise scan — the `while` loop body of Programs 1 and 2:
/// find the first feasible step `t1 ≥ t0`, extend it to the last
/// consecutive feasible step `t2`, emit `[t1, t2]`, continue from `t2 + 1`.
/// This is the baseline side of the `engagement_scan` kernel bench and the
/// path every counting recorder observes.
pub fn intervals_for_pair_stepwise<R: Rec>(
    threat_idx: u32,
    weapon_idx: u32,
    threat: &Threat,
    weapon: &Weapon,
    r: &mut R,
    mut emit: impl FnMut(Interval),
) {
    let first = threat.first_step();
    let last = threat.last_step();
    r.load(2);
    r.int(2);
    if first > last {
        return;
    }

    let mut t0 = first;
    while t0 <= last {
        // t1 = first time after t0 that weapon can intercept threat.
        let mut t1 = t0;
        while t1 <= last && !can_intercept(weapon, threat, t1, r) {
            t1 += 1;
            r.int(2);
        }
        if t1 > last {
            return;
        }
        // t2 = last consecutive time after t1 that weapon can intercept.
        let mut t2 = t1;
        while t2 < last && can_intercept(weapon, threat, t2 + 1, r) {
            t2 += 1;
            r.int(2);
        }
        emit(Interval {
            threat: threat_idx,
            weapon: weapon_idx,
            t_start: t1,
            t_end: t2,
        });
        r.sstore(4); // interval tuple written to the output array
        r.int(2); // counter increment + t0 update
        t0 = t2 + 1;
    }
}

/// What [`intervals_for_pair_stepwise`] records for one pair under an
/// [`OpRecorder`], counted instead of recorded: one recorder-free pass over
/// the scan window builds a histogram of predicate exits, and the loop's
/// own bookkeeping follows from how the feasible steps group into runs.
///
/// The stepwise loop evaluates every step of the window once, and the step
/// after each interval that ends before the window does once more (the
/// extension loop stops on it, then the search loop restarts on it). It
/// charges `int 2` per infeasible step and per step that extends an
/// interval, and `sstore 4, int 2` per interval emitted. Like the stepwise
/// loop — and unlike the batch scan — nothing is pruned: a pair that can
/// never come within range still pays for every step.
pub fn pair_counts(threat: &Threat, weapon: &Weapon) -> OpCounts {
    let mut r = OpRecorder::new();
    let first = threat.first_step();
    let last = threat.last_step();
    r.load(2);
    r.int(2);
    if first > last {
        return r.counts();
    }

    let mut evaluations = [0u64; Exit::ALL.len()];
    let (mut infeasible, mut extending, mut intervals) = (0u64, 0u64, 0u64);
    let mut in_run = false;
    for step in first..=last {
        let (exit, feasible) = exit_class(weapon, threat, step);
        evaluations[exit as usize] += if in_run && !feasible { 2 } else { 1 };
        if !feasible {
            infeasible += 1;
        } else if in_run {
            extending += 1;
        } else {
            intervals += 1;
        }
        in_run = feasible;
    }

    for exit in Exit::ALL {
        let (n, cost) = (evaluations[exit as usize], exit.cost());
        r.int(n * cost.int);
        r.fp(n * cost.fp);
        r.load(n * cost.load);
    }
    r.int(2 * (infeasible + extending + intervals));
    r.sstore(4 * intervals);
    r.counts()
}

/// Number of time steps evaluated per structure-of-arrays block in the
/// batch scan. Three parallel `f64`/`bool` arrays of this length live on
/// the stack (~5 KiB), small enough to stay cache- and allocation-free.
const SCAN_BLOCK: usize = 256;

/// Batch form of the pair scan: evaluate the interception predicate over a
/// structure-of-arrays timeline block — kinematics in one straight-line
/// pass over parallel arrays, the envelope conjunction in a second — then
/// extract maximal feasible runs, carrying an open interval across block
/// boundaries. Every comparison keeps `can_intercept`'s polarity and
/// operand expressions, so the emitted intervals are identical (a NaN
/// flight fraction fails the fly-out comparison exactly as it does in the
/// stepwise scan).
/// Squared minimum ground distance from `weapon` to the threat's ground
/// track (point-to-segment). A lower bound on every step's slant range,
/// used to skip pairs that can never come within weapon range.
fn min_ground_dist2(threat: &Threat, weapon: &Weapon) -> f64 {
    let (ax, ay) = threat.launch;
    let (bx, by) = threat.impact;
    let (px, py) = weapon.pos;
    let abx = bx - ax;
    let aby = by - ay;
    let len2 = abx * abx + aby * aby;
    let t = if len2 > 0.0 {
        (((px - ax) * abx + (py - ay) * aby) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let dx = ax + t * abx - px;
    let dy = ay + t * aby - py;
    dx * dx + dy * dy
}

fn intervals_for_pair_batch(
    threat_idx: u32,
    weapon_idx: u32,
    threat: &Threat,
    weapon: &Weapon,
    mut emit: impl FnMut(Interval),
) {
    let first = threat.first_step();
    let last = threat.last_step();
    if first > last {
        return;
    }

    // Pair-invariant quantities, hoisted out of the timeline: the same
    // expressions `can_intercept` rebuilds per step.
    let launch = threat.launch_time;
    let impact = threat.impact_time();
    let earliest = threat.detect_time() + weapon.reaction_time;
    let mr2 = weapon.max_range * weapon.max_range;

    // Pair-level range prune: every step's slant² is at least the squared
    // ground distance to the track, which is at least `min_ground_dist2`
    // up to rounding. The 1% margin dwarfs any accumulated float error
    // (relative ~1e-15), so a pair is only skipped when every step's
    // `in_range` conjunct is certainly false; NaN geometry fails the `>`
    // and falls through to the full scan.
    if min_ground_dist2(threat, weapon) > mr2 * 1.01 {
        return;
    }

    let mut zs = [0.0_f64; SCAN_BLOCK];
    let mut slant2 = [0.0_f64; SCAN_BLOCK];
    let mut feasible = [false; SCAN_BLOCK];

    let mut open: Option<u32> = None;
    // Steps with `t < earliest` fail the timing conjunct; they form a
    // prefix of the scan window (t is increasing), so skipping them moves
    // no interval boundary.
    let mut base = first;
    while base <= last && (base as f64) * TIME_STEP < earliest {
        base += 1;
    }
    if base > last {
        return;
    }
    loop {
        let n = ((last - base) as usize + 1).min(SCAN_BLOCK);

        // Pass 1: trajectory kinematics and slant geometry for the block.
        for i in 0..n {
            let t = (base + i as u32) as f64 * TIME_STEP;
            let tau = (t - launch) / threat.flight_time;
            let x = threat.launch.0 + (threat.impact.0 - threat.launch.0) * tau;
            let y = threat.launch.1 + (threat.impact.1 - threat.launch.1) * tau;
            let z = 4.0 * threat.apex_height * tau * (1.0 - tau);
            let dx = x - weapon.pos.0;
            let dy = y - weapon.pos.1;
            zs[i] = z;
            slant2[i] = dx * dx + dy * dy + z * z;
        }

        // Pass 2: the cheap envelope conjuncts over the parallel arrays.
        for i in 0..n {
            let t = (base + i as u32) as f64 * TIME_STEP;
            let timed = !(t < earliest || t > impact);
            let in_flight = !(t < launch || t > impact);
            let envelope = !(zs[i] < weapon.min_alt || zs[i] > weapon.max_alt);
            // Written as `!(x > mr2)`, not `x <= mr2`: a NaN slant (the
            // degenerate flight_time case) must pass this conjunct with
            // exactly the stepwise predicate's polarity.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let in_range = !(slant2[i] > mr2);
            feasible[i] = timed && in_flight && envelope && in_range;
        }

        // Pass 3: the fly-out test, only where the cheap conjuncts hold —
        // the same steps the stepwise predicate pays the sqrt on. Where
        // `feasible` is already false the conjunction's value is fixed, so
        // skipping the comparison cannot change the result.
        for i in 0..n {
            if feasible[i] {
                let t = (base + i as u32) as f64 * TIME_STEP;
                feasible[i] = slant2[i].sqrt() / weapon.interceptor_speed <= t - earliest;
            }
        }

        // Maximal-run extraction, carrying any open run into the next block.
        for (i, &f) in feasible.iter().take(n).enumerate() {
            let s = base + i as u32;
            if f {
                if open.is_none() {
                    open = Some(s);
                }
            } else if let Some(t1) = open.take() {
                emit(Interval {
                    threat: threat_idx,
                    weapon: weapon_idx,
                    t_start: t1,
                    t_end: s - 1,
                });
            }
        }

        match base.checked_add(n as u32) {
            Some(next) if next <= last => base = next,
            _ => break,
        }
    }
    if let Some(t1) = open {
        emit(Interval {
            threat: threat_idx,
            weapon: weapon_idx,
            t_start: t1,
            t_end: last,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::NoRec;

    fn test_threat() -> Threat {
        Threat {
            launch: (0.0, 0.0),
            impact: (100_000.0, 0.0),
            launch_time: 10.0,
            flight_time: 200.0,
            apex_height: 80_000.0,
            detect_delay: 5.0,
        }
    }

    fn test_weapon() -> Weapon {
        Weapon {
            pos: (90_000.0, 0.0),
            interceptor_speed: 3000.0,
            max_range: 60_000.0,
            min_alt: 1_000.0,
            max_alt: 30_000.0,
            reaction_time: 3.0,
        }
    }

    #[test]
    fn trajectory_endpoints_are_on_the_ground() {
        let th = test_threat();
        let (x0, y0, z0) = th.position(th.launch_time).unwrap();
        assert_eq!((x0, y0), th.launch);
        assert!(z0.abs() < 1e-9);
        let (x1, y1, z1) = th.position(th.impact_time()).unwrap();
        assert_eq!((x1, y1), th.impact);
        assert!(z1.abs() < 1e-9);
    }

    #[test]
    fn trajectory_apex_is_at_midcourse() {
        let th = test_threat();
        let tm = th.launch_time + th.flight_time / 2.0;
        let (_, _, z) = th.position(tm).unwrap();
        assert!((z - th.apex_height).abs() < 1e-6);
        // Slightly before/after midcourse must be lower.
        let (_, _, zb) = th.position(tm - 5.0).unwrap();
        let (_, _, za) = th.position(tm + 5.0).unwrap();
        assert!(zb < z && za < z);
    }

    #[test]
    fn position_is_none_outside_flight_window() {
        let th = test_threat();
        assert!(th.position(th.launch_time - 1.0).is_none());
        assert!(th.position(th.impact_time() + 1.0).is_none());
    }

    #[test]
    fn step_window_brackets_flight() {
        let th = test_threat();
        assert_eq!(th.first_step(), 15); // launch 10 + detect 5
        assert_eq!(th.last_step(), 210); // impact at 210.0
    }

    #[test]
    fn intercept_requires_detection_plus_reaction() {
        let th = test_threat();
        let w = test_weapon();
        // Before detection + reaction no intercept regardless of geometry.
        assert!(!can_intercept(&w, &th, 15, &mut NoRec)); // t=15 < 10+5+3
                                                          // Impossible after impact.
        assert!(!can_intercept(&w, &th, 211, &mut NoRec));
    }

    #[test]
    fn intercept_respects_altitude_envelope() {
        let th = test_threat();
        let w = test_weapon();
        // At midcourse the threat is at 80 km, far above max_alt 30 km.
        assert!(!can_intercept(&w, &th, 110, &mut NoRec));
    }

    #[test]
    fn descending_threat_is_interceptable_near_the_battery() {
        let th = test_threat();
        let w = test_weapon();
        // Late in the descent the threat is near (90 km, 0) and low.
        let feasible = (15..=210)
            .filter(|&s| can_intercept(&w, &th, s, &mut NoRec))
            .count();
        assert!(
            feasible > 0,
            "the canonical test geometry must admit an intercept"
        );
    }

    #[test]
    fn pair_scan_emits_maximal_disjoint_intervals() {
        let th = test_threat();
        let w = test_weapon();
        let mut got = Vec::new();
        intervals_for_pair(3, 4, &th, &w, &mut NoRec, |iv| got.push(iv));
        assert!(!got.is_empty());
        for iv in &got {
            assert_eq!(iv.threat, 3);
            assert_eq!(iv.weapon, 4);
            assert!(iv.t_start <= iv.t_end);
            // Every step inside is feasible.
            for s in iv.t_start..=iv.t_end {
                assert!(
                    can_intercept(&w, &th, s, &mut NoRec),
                    "gap inside interval at {s}"
                );
            }
            // Maximality on both sides (within the scan window).
            if iv.t_start > th.first_step() {
                assert!(!can_intercept(&w, &th, iv.t_start - 1, &mut NoRec));
            }
            if iv.t_end < th.last_step() {
                assert!(!can_intercept(&w, &th, iv.t_end + 1, &mut NoRec));
            }
        }
        // Intervals are ordered and disjoint.
        for pair in got.windows(2) {
            assert!(pair[0].t_end + 1 < pair[1].t_start);
        }
    }

    #[test]
    fn out_of_range_weapon_yields_no_intervals() {
        let th = test_threat();
        let mut w = test_weapon();
        w.pos = (1.0e7, 1.0e7); // far away
        let mut got = Vec::new();
        intervals_for_pair(0, 0, &th, &w, &mut NoRec, |iv| got.push(iv));
        assert!(got.is_empty());
    }

    #[test]
    fn altitude_window_on_ascent_and_descent_gives_two_intervals() {
        // A weapon directly under the trajectory midpoint with a narrow
        // altitude band sees the threat pass through the band twice.
        let th = Threat {
            launch: (0.0, 0.0),
            impact: (100_000.0, 0.0),
            launch_time: 0.0,
            flight_time: 400.0,
            apex_height: 50_000.0,
            detect_delay: 0.0,
        };
        let w = Weapon {
            pos: (50_000.0, 0.0),
            interceptor_speed: 10_000.0,
            max_range: 100_000.0,
            min_alt: 20_000.0,
            max_alt: 40_000.0,
            reaction_time: 0.0,
        };
        let mut got = Vec::new();
        intervals_for_pair(0, 0, &th, &w, &mut NoRec, |iv| got.push(iv));
        assert_eq!(got.len(), 2, "ascent and descent crossings: {got:?}");
    }

    fn stepwise_intervals(th: &Threat, w: &Weapon) -> Vec<Interval> {
        let mut got = Vec::new();
        intervals_for_pair_stepwise(7, 9, th, w, &mut NoRec, |iv| got.push(iv));
        got
    }

    fn batch_intervals(th: &Threat, w: &Weapon) -> Vec<Interval> {
        let mut got = Vec::new();
        // NoRec has COUNTING = false, so the public entry dispatches to the
        // structure-of-arrays batch scan.
        intervals_for_pair(7, 9, th, w, &mut NoRec, |iv| got.push(iv));
        got
    }

    #[test]
    fn batch_scan_matches_stepwise_on_edge_pairs() {
        let base_t = test_threat();
        let base_w = test_weapon();
        let mut cases: Vec<(Threat, Weapon)> = vec![(base_t, base_w)];
        // Narrow altitude band: two intervals (ascent + descent).
        cases.push((
            Threat {
                launch: (0.0, 0.0),
                impact: (100_000.0, 0.0),
                launch_time: 0.0,
                flight_time: 400.0,
                apex_height: 50_000.0,
                detect_delay: 0.0,
            },
            Weapon {
                pos: (50_000.0, 0.0),
                interceptor_speed: 10_000.0,
                max_range: 100_000.0,
                min_alt: 20_000.0,
                max_alt: 40_000.0,
                reaction_time: 0.0,
            },
        ));
        // Out of range: no intervals.
        let mut far = base_w;
        far.pos = (1.0e7, 1.0e7);
        cases.push((base_t, far));
        // Detection after impact: first_step > last_step, empty window.
        let mut late = base_t;
        late.detect_delay = late.flight_time + 50.0;
        cases.push((late, base_w));
        // Degenerate zero-length flight: tau is 0/0 = NaN; both scans must
        // agree (no intercepts, no panic).
        let mut point = base_t;
        point.flight_time = 0.0;
        cases.push((point, base_w));
        // Feasible exactly at the last step: interval closed by the
        // end-of-timeline flush rather than an infeasible successor.
        let mut tail = base_w;
        tail.min_alt = 0.0;
        cases.push((base_t, tail));
        for (i, (th, w)) in cases.iter().enumerate() {
            assert_eq!(
                batch_intervals(th, w),
                stepwise_intervals(th, w),
                "case {i} diverged"
            );
        }
    }

    #[test]
    fn batch_scan_carries_runs_across_block_boundaries() {
        // A ~990-step feasible run spanning three SCAN_BLOCK boundaries.
        let th = Threat {
            launch: (0.0, 0.0),
            impact: (100_000.0, 0.0),
            launch_time: 0.0,
            flight_time: 1000.0,
            apex_height: 25_000.0,
            detect_delay: 0.0,
        };
        let w = Weapon {
            pos: (50_000.0, 0.0),
            interceptor_speed: 10_000.0,
            max_range: 200_000.0,
            min_alt: 0.0,
            max_alt: 30_000.0,
            reaction_time: 0.0,
        };
        let step = stepwise_intervals(&th, &w);
        let batch = batch_intervals(&th, &w);
        assert_eq!(batch, step);
        let longest = step
            .iter()
            .map(|iv| iv.t_end - iv.t_start + 1)
            .max()
            .unwrap_or(0);
        assert!(
            longest as usize > super::SCAN_BLOCK,
            "test must exercise the cross-block carry: longest run {longest}"
        );
    }

    #[test]
    fn counting_path_emits_the_same_intervals_as_the_batch_path() {
        let th = test_threat();
        let w = test_weapon();
        let mut counted = Vec::new();
        let mut r = sthreads::OpRecorder::new();
        intervals_for_pair(7, 9, &th, &w, &mut r, |iv| counted.push(iv));
        assert_eq!(counted, batch_intervals(&th, &w));
        assert!(r.counts().fp_ops > 0, "counting path must record work");
    }

    #[test]
    fn exit_costs_are_the_recorded_per_step_charges() {
        // Every op-count table is a multiple of these five rows.
        let table: Vec<(u64, u64, u64)> = Exit::ALL
            .iter()
            .map(|e| {
                let c = e.cost();
                (c.int, c.fp, c.load)
            })
            .collect();
        assert_eq!(
            table,
            [(2, 2, 2), (2, 4, 4), (2, 16, 8), (2, 24, 10), (2, 26, 11)]
        );
    }

    #[test]
    fn predicate_charges_the_cost_of_the_exit_it_takes() {
        let th = test_threat();
        let w = test_weapon();
        let mut far = w;
        far.pos = (1.0e7, 1.0e7);
        far.max_alt = 1.0e6;
        // (weapon, step, exit): before reaction, at the apex, out of
        // range, and a step late in the descent that reaches the fly-out.
        for (weapon, step, exit) in [
            (&w, 15, Exit::Timing),
            (&w, 110, Exit::Envelope),
            (&far, 110, Exit::Range),
            (&w, 205, Exit::FlyOut),
        ] {
            assert_eq!(exit_class(weapon, &th, step).0, exit, "step {step}");
            let mut r = sthreads::OpRecorder::new();
            let feasible = can_intercept(weapon, &th, step, &mut r);
            assert_eq!(feasible, exit_class(weapon, &th, step).1);
            let (c, cost) = (r.counts(), exit.cost());
            assert_eq!(
                (c.int_ops, c.fp_ops, c.loads),
                (cost.int, cost.fp, cost.load)
            );
            assert_eq!(c.instructions(), cost.int + cost.fp + cost.load);
        }
    }

    #[test]
    fn recorder_sees_fp_work_per_predicate_call() {
        let th = test_threat();
        let w = test_weapon();
        let mut r = sthreads::OpRecorder::new();
        can_intercept(&w, &th, 150, &mut r);
        let c = r.counts();
        assert!(c.fp_ops > 0, "predicate must record floating-point work");
        assert!(c.loads > 0);
    }
}
