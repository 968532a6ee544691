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

use crate::counts::{OpCounts, Rec};

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
/// recording it call by call. Most steps of a pair leave at
/// [`Exit::Timing`] or [`Exit::Envelope`]; [`pair_counts`] counts those in
/// bulk wherever the altitude parabola shows which exit they take, and
/// classifies only the rest.
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
/// every maximal interception interval, in increasing time order — the
/// `while` loop body of Programs 1 and 2: find the first feasible step
/// `t1 ≥ t0`, extend it to the last consecutive feasible step `t2`, emit
/// `[t1, t2]`, continue from `t2 + 1`.
///
/// A recorder that does not count (`!R::COUNTING`: the host-timed
/// programs) skips what it can show has no feasible step. First a pair
/// whose ground track never comes within range (`out_of_range`, a
/// private function of this module, with a 1 % margin). Then it scans
/// only the runs of the pair's altitude window (`altitude_window`, a
/// private function of this module), whose edges are infeasible, so no
/// interval crosses one. A counting recorder sees every step, which is
/// what [`pair_counts`] counts.
pub fn intervals_for_pair<R: Rec>(
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
    if first > last || (!R::COUNTING && out_of_range(threat, weapon)) {
        return;
    }

    let window = if R::COUNTING {
        None
    } else {
        altitude_window(threat, weapon, first, last)
    };
    for (lo, hi) in window.unwrap_or([(first, last), NO_RUN]) {
        let mut t0 = lo;
        while t0 <= hi {
            // t1 = first time after t0 that weapon can intercept threat.
            let mut t1 = t0;
            while t1 <= hi && !can_intercept(weapon, threat, t1, r) {
                t1 += 1;
                r.int(2);
            }
            if t1 > hi {
                break;
            }
            // t2 = last consecutive time after t1 that weapon can intercept.
            let mut t2 = t1;
            while t2 < hi && can_intercept(weapon, threat, t2 + 1, r) {
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
}

/// What [`intervals_for_pair`] records for one pair into an
/// [`OpCounts`], counted instead of recorded: a histogram of predicate
/// exits over the scan window, and the loop's own bookkeeping, which
/// follows from how the feasible steps group into runs.
///
/// The loop evaluates every step of the window once, and the step after
/// each interval that ends before the window does once more (the
/// extension loop stops on it, then the search loop restarts on it). It
/// charges `int 2` per infeasible step and per step that extends an
/// interval, and `sstore 4, int 2` per interval emitted. A counting
/// recorder takes no range prune, so a pair that can never come within
/// range is charged for every step, as the recorder would be.
///
/// Only the steps inside the runs of the pair's altitude window
/// (`altitude_window`) go through [`exit_class`], in one recorder-free
/// pass. Every other step is one infeasible evaluation, counted in bulk:
/// [`Exit::Timing`] before the reaction step, [`Exit::Envelope`] after it.
/// A run's edges are infeasible, so no step outside a run follows a
/// feasible one and none is evaluated twice. Where no window is shown,
/// the pass covers every step. A pair the host's range prune rules out
/// has no feasible step, so inside a run every step exits at the altitude
/// or the range test; a run's middle, where the altitude is shown to lie
/// inside the band, is counted in bulk as [`Exit::Range`]
/// (`out_of_range_run`), and only its ends are classified.
pub fn pair_counts(threat: &Threat, weapon: &Weapon) -> OpCounts {
    let mut r = OpCounts::default();
    let first = threat.first_step();
    let last = threat.last_step();
    r.load(2);
    r.int(2);
    if first > last {
        return r;
    }

    let mut evaluations = [0u64; Exit::ALL.len()];
    let (mut infeasible, mut extending, mut intervals) = (0u64, 0u64, 0u64);
    let window = altitude_window(threat, weapon, first, last);
    let pruned = window.is_some() && out_of_range(threat, weapon);
    let mut in_run = false;
    for (lo, hi) in window.unwrap_or([(first, last), NO_RUN]) {
        if pruned {
            infeasible += out_of_range_run(threat, weapon, lo, hi, &mut evaluations);
            continue;
        }
        for step in lo..=hi {
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
    }
    if window.is_some() {
        let outside = u64::from(last - first) + 1 - (infeasible + extending + intervals);
        let timing = u64::from(reaction_step(threat, weapon).clamp(first, last + 1) - first);
        evaluations[Exit::Timing as usize] += timing;
        evaluations[Exit::Envelope as usize] += outside - timing;
        infeasible += outside;
    }

    for exit in Exit::ALL {
        let (n, cost) = (evaluations[exit as usize], exit.cost());
        r.int(n * cost.int);
        r.fp(n * cost.fp);
        r.load(n * cost.load);
    }
    r.int(2 * (infeasible + extending + intervals));
    r.sstore(4 * intervals);
    r
}

/// Up to two inclusive runs of time steps, in increasing order; a run with
/// `lo > hi` ([`NO_RUN`]) is empty.
type Runs = [(u32, u32); 2];

/// The empty run.
const NO_RUN: (u32, u32) = (1, 0);

/// How far a run edge's altitude must clear the band, as a fraction of the
/// apex height. `z` is `4·H·τ·(1−τ)` after a handful of roundings, each
/// within 2⁻⁵³ relative, so it is off by a few ulps of `H` (~1e-15 of it)
/// at most; this bound dwarfs that.
const ALT_MARGIN: f64 = 1e-9;

/// The first step at which `t ≥ detect_time + reaction_time`: every step
/// before it exits at [`Exit::Timing`]. (`TIME_STEP` is 1 s, so a step is
/// its own time.)
fn reaction_step(threat: &Threat, weapon: &Weapon) -> u32 {
    ((threat.detect_time() + weapon.reaction_time) / TIME_STEP).ceil() as u32
}

/// The steps of `first..=last` where `threat`'s altitude can lie inside
/// `weapon`'s band `[min_alt, max_alt]`, as at most two runs. Every step
/// outside them exits at [`Exit::Timing`] (before [`reaction_step`]) or
/// [`Exit::Envelope`], and so does a run's first or last step unless it is
/// the reaction step or `last`. No run reaches before the reaction step.
/// `None` when that is not shown; the caller then scans the whole window.
///
/// The runs come from the parabola's roots ([`band_runs`]), and
/// [`clears_the_band`] checks them with the arithmetic [`exit_class`] uses,
/// so the roots' rounding does not matter. Also `None` for non-finite
/// inputs, a flight without time or height, a reaction before launch
/// (`detect_delay + reaction_time < 0`, where [`Exit::NotInFlight`] can
/// occur), a timeline outside `0..u32::MAX` s (where `last` can lie past
/// impact and exit at the timing test), an inverted band, `min_alt`
/// within the margin of the ground or at or above the apex, and `max_alt`
/// within the margin of the apex.
fn altitude_window(threat: &Threat, weapon: &Weapon, first: u32, last: u32) -> Option<Runs> {
    let (launch, flight, apex) = (threat.launch_time, threat.flight_time, threat.apex_height);
    let (min_alt, max_alt) = (weapon.min_alt, weapon.max_alt);
    let margin = ALT_MARGIN * apex;
    let earliest = threat.detect_time() + weapon.reaction_time;
    let shown = [launch, flight, apex, earliest, min_alt, max_alt]
        .iter()
        .all(|v| v.is_finite())
        && flight > 0.0
        && apex > 0.0
        && 0.0 <= launch
        && launch <= earliest
        && threat.impact_time() < u32::MAX as f64
        && margin < min_alt
        && min_alt <= max_alt
        && min_alt < apex - margin
        && (max_alt - apex).abs() > margin;
    if !shown {
        return None;
    }
    let (lo, hi) = (
        i64::from(first.max(reaction_step(threat, weapon))),
        i64::from(last),
    );
    if lo > hi {
        return Some([NO_RUN; 2]);
    }
    let runs = band_runs(threat, weapon);
    clears_the_band(threat, weapon, runs, lo, hi).then(|| {
        runs.map(|(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            if a <= b {
                (a as u32, b as u32)
            } else {
                NO_RUN
            }
        })
    })
}

/// [`altitude_window`]'s runs before clamping. `z(τ) = 4Hτ(1−τ)` is a
/// parabola in `t`, so the band's steps lie between the roots of
/// `z = min_alt` and `z = max_alt`: one run on the ascent and one on the
/// descent, or one over the apex when `max_alt` is above it. Each run is
/// widened to the step past each root, so its edges lie outside the band,
/// and the two are merged when they touch (the second is then `(1, 0)`).
/// Needs `0 < min_alt < apex_height` and `max_alt ≠ apex_height`.
fn band_runs(threat: &Threat, weapon: &Weapon) -> [(i64, i64); 2] {
    let (launch, flight, apex) = (threat.launch_time, threat.flight_time, threat.apex_height);
    // The time at which z = alt on the ascent (-1) or descent (+1).
    let root =
        |alt: f64, side: f64| launch + flight * (1.0 + side * (1.0 - alt / apex).sqrt()) / 2.0;
    // The ascent enters the band after `up_lo` and the descent leaves it
    // before `down_hi`; with `max_alt` under the apex, the ascent leaves it
    // before `up_hi` and the descent re-enters after `down_lo`.
    let up_lo = root(weapon.min_alt, -1.0).floor() as i64 - 1;
    let down_hi = root(weapon.min_alt, 1.0).ceil() as i64 + 1;
    if weapon.max_alt < apex {
        let up_hi = root(weapon.max_alt, -1.0).ceil() as i64 + 1;
        let down_lo = root(weapon.max_alt, 1.0).floor() as i64 - 1;
        if up_hi + 1 < down_lo {
            return [(up_lo, up_hi), (down_lo, down_hi)];
        }
    }
    [(up_lo, down_hi), (1, 0)]
}

/// The margin check: whether every step of `lo..=hi` outside `runs` (from
/// [`band_runs`]) exits at [`Exit::Envelope`], and so does each run's edge
/// step where steps lie beyond it. It looks at `z` only at the step on
/// each side of each gap nearest the band, computed by
/// [`Threat::position`] as [`exit_class`] computes it, and asks that it
/// clear the band by `ALT_MARGIN · H`. That covers every step beyond it.
/// The true `z` rises until the apex and falls after it, and the ascent's
/// root is no later than the computed apex time, so an edge a step before
/// it lies before the true apex (and symmetrically on the descent).
/// Between the runs, `z` is at least its smaller value at the two ends,
/// the parabola being concave.
fn clears_the_band(
    threat: &Threat,
    weapon: &Weapon,
    runs: [(i64, i64); 2],
    lo: i64,
    hi: i64,
) -> bool {
    let margin = ALT_MARGIN * threat.apex_height;
    let z = |step: i64| {
        let t = step as f64 * TIME_STEP;
        threat.position(t).map_or(f64::NAN, |p| p.2)
    };
    let below = |step: i64| z(step) < weapon.min_alt - margin;
    let above = |step: i64| z(step) > weapon.max_alt + margin;
    let [(up_lo, up_hi), (down_lo, down_hi)] = runs;
    let split = down_lo <= down_hi;
    let end = if split { down_hi } else { up_hi };
    // Before the first run, on the ascent, and after the last, on the
    // descent: below the band.
    let ascent = lo >= up_lo || below(up_lo.min(hi));
    let descent = end >= hi || below(end.max(lo));
    // Between the runs, over the apex: above the band.
    let over = !split
        || (up_hi + 1).max(lo) > (down_lo - 1).min(hi)
        || (above(up_hi.max(lo)) && above(down_lo.min(hi)));
    ascent && descent && over
}

/// [`pair_counts`] over one run `lo..=hi` of the window of a pair that
/// [`out_of_range`] rules out: adds each step's exit to `evaluations` and
/// returns how many steps the run has (every one infeasible). Every step
/// exits at [`Exit::Envelope`] or [`Exit::Range`]: the window puts the run
/// past the reaction step and inside the flight, and no step is within
/// range. The steps are classified from each end until one lies inside
/// the band by the margin; the steps between those two are then inside
/// the band too, so they exit at [`Exit::Range`] and are counted in bulk,
/// when either
/// - `max_alt` clears the apex by the margin: no `z` reaches it, and the
///   parabola is concave in the flight fraction `τ`, so between the two
///   ends `z` is at least the smaller of theirs; or
/// - the two ends' `τ`, computed as [`Threat::position`] computes it, lie
///   on one side of ½: `τ` is monotone in the step, so `z` is monotone
///   between the ends and lies between their values.
///
/// Either way, the computed `z` is off the true parabola at the computed
/// `τ` by a few ulps of the apex height, which the margin dwarfs.
/// Otherwise (the band's top under the apex, the run spanning it) the
/// middle is classified step by step.
fn out_of_range_run(
    threat: &Threat,
    weapon: &Weapon,
    lo: u32,
    hi: u32,
    evaluations: &mut [u64; Exit::ALL.len()],
) -> u64 {
    if lo > hi {
        return 0;
    }
    let margin = ALT_MARGIN * threat.apex_height;
    let tau = |step: u32| (step as f64 * TIME_STEP - threat.launch_time) / threat.flight_time;
    let inside = |step: u32| {
        let z = threat
            .position(step as f64 * TIME_STEP)
            .map_or(f64::NAN, |p| p.2);
        weapon.min_alt + margin <= z && z <= weapon.max_alt - margin
    };
    let mut classify = |step: u32| {
        let (exit, feasible) = exit_class(weapon, threat, step);
        debug_assert!(!feasible && matches!(exit, Exit::Envelope | Exit::Range));
        evaluations[exit as usize] += 1;
    };
    // The first step inside the band, from below, and the last, from
    // above; each end's steps up to it are classified.
    let mut a = lo;
    classify(a);
    while a < hi && !inside(a) {
        a += 1;
        classify(a);
    }
    let mut b = hi;
    if b > a {
        classify(b);
        while b > a + 1 && !inside(b) {
            b -= 1;
            classify(b);
        }
    }
    // Steps strictly between: none unless both ends are inside the band.
    let middle = (a + 1)..b;
    if !middle.is_empty() {
        let bounded =
            weapon.max_alt > threat.apex_height + margin || tau(b) <= 0.5 || tau(a) >= 0.5;
        if bounded {
            evaluations[Exit::Range as usize] += u64::from(b - a - 1);
        } else {
            middle.for_each(classify);
        }
    }
    u64::from(hi - lo) + 1
}

/// The host's range prune: whether the threat's ground track never comes
/// within `max_range` of `weapon`, with a 1 % margin. Every step's slant²
/// is at least [`min_ground_dist2`] up to rounding, and the margin dwarfs
/// any accumulated float error (relative ~1e-15), so no step of such a
/// pair is feasible, and none passes the range test. NaN geometry fails
/// the `>`: such a pair is not ruled out.
fn out_of_range(threat: &Threat, weapon: &Weapon) -> bool {
    min_ground_dist2(threat, weapon) > weapon.max_range * weapon.max_range * 1.01
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::NoRec;
    use proptest::prelude::*;

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

    /// The pair scan under `NoRec`, which may skip a pair the range prune
    /// rules out, and into an `OpCounts`, which evaluates every step.
    fn pruned_and_unpruned(th: &Threat, w: &Weapon) -> (Vec<Interval>, Vec<Interval>) {
        let (mut pruned, mut unpruned) = (Vec::new(), Vec::new());
        intervals_for_pair(7, 9, th, w, &mut NoRec, |iv| pruned.push(iv));
        let mut r = OpCounts::default();
        intervals_for_pair(7, 9, th, w, &mut r, |iv| unpruned.push(iv));
        assert!(r.int_ops > 0, "nothing recorded");
        (pruned, unpruned)
    }

    #[test]
    fn pruned_scan_matches_the_unpruned_scan_on_edge_pairs() {
        let (base_t, base_w) = (test_threat(), test_weapon());
        // Ascent and descent through a narrow altitude band.
        let crossing_t = Threat {
            launch_time: 0.0,
            flight_time: 400.0,
            apex_height: 50_000.0,
            detect_delay: 0.0,
            ..base_t
        };
        let crossing_w = Weapon {
            pos: (50_000.0, 0.0),
            interceptor_speed: 10_000.0,
            max_range: 100_000.0,
            min_alt: 20_000.0,
            max_alt: 40_000.0,
            reaction_time: 0.0,
        };
        let mut far = base_w;
        far.pos = (1.0e7, 1.0e7);
        let mut late = base_t;
        late.detect_delay = late.flight_time + 50.0;
        // Zero flight time, detected and reacted to at launch: step 10 is
        // the whole window and its flight fraction is 0/0.
        let mut point = base_t;
        (point.flight_time, point.detect_delay) = (0.0, 0.0);
        let mut instant_w = base_w;
        instant_w.reaction_time = 0.0;
        let mut tail = base_w;
        tail.min_alt = 0.0;
        // One feasible run of ~990 steps.
        let long_t = Threat {
            launch_time: 0.0,
            flight_time: 1000.0,
            apex_height: 25_000.0,
            detect_delay: 0.0,
            ..base_t
        };
        let long_w = Weapon {
            max_range: 200_000.0,
            min_alt: 0.0,
            ..crossing_w
        };

        let cases = [
            ("base", base_t, base_w),
            ("two crossings", crossing_t, crossing_w),
            ("out of range", base_t, far),
            ("detected after impact", late, base_w),
            ("zero flight time", point, instant_w),
            ("feasible at the last step", base_t, tail),
            ("a run over 256 steps", long_t, long_w),
        ];
        let mut scans = Vec::new();
        for (name, th, w) in cases {
            let (pruned, unpruned) = pruned_and_unpruned(&th, &w);
            assert_eq!(pruned, unpruned, "{name}");
            scans.push(unpruned);
        }

        // The cases reach what they are named for.
        assert_eq!(scans[1].len(), 2, "two crossings: {:?}", scans[1]);
        assert!(min_ground_dist2(&base_t, &far) > far.max_range * far.max_range * 1.01);
        assert!(scans[2].is_empty() && scans[3].is_empty());
        assert!(late.first_step() > late.last_step());
        assert_eq!(
            exit_class(&instant_w, &point, 10),
            (Exit::FlyOut, false),
            "the NaN fraction reaches the fly-out compare"
        );
        assert_eq!(scans[5].last().map(|iv| iv.t_end), Some(base_t.last_step()));
        let longest = scans[6].iter().map(|iv| iv.t_end - iv.t_start + 1).max();
        assert!(longest > Some(256), "longest run {longest:?}");
    }

    /// Where one end of a weapon's altitude band goes.
    #[derive(Debug, Clone, Copy)]
    enum BandEdge {
        /// `z` at the step `at` of the way through the pair's window,
        /// moved by `k · ε` with `ε = rise · 2^-j` (never under one ulp of
        /// `z`), `rise` being the altitude the threat gains or loses over
        /// that step.
        Step { at: f64, k: i32, j: i32 },
        /// Exactly the apex height.
        Apex,
        /// Exactly the ground.
        Ground,
        /// Half again the apex height: no step reaches it.
        AboveApex,
        /// Where the weapon strategy drew it.
        Drawn,
    }

    fn arb_band_edge() -> impl Strategy<Value = BandEdge> {
        prop_oneof![
            6 => (0.0..1.0f64, -3i32..=3, 0i32..=60)
                .prop_map(|(at, k, j)| BandEdge::Step { at, k, j }),
            1 => Just(BandEdge::Apex),
            1 => Just(BandEdge::Ground),
            1 => Just(BandEdge::AboveApex),
            3 => Just(BandEdge::Drawn),
        ]
    }

    fn place_band_edge(th: &Threat, edge: BandEdge, drawn: f64) -> f64 {
        let z_at = |step: u32| th.position(step as f64 * TIME_STEP).map(|p| p.2);
        match edge {
            BandEdge::Step { at, k, j } => {
                let (first, last) = (th.first_step(), th.last_step());
                let step = first + (at * last.saturating_sub(first) as f64).round() as u32;
                let z = z_at(step).unwrap_or(0.0);
                let rise = z_at(step + 1)
                    .or(step.checked_sub(1).and_then(z_at))
                    .map_or(4.0 * th.apex_height / th.flight_time, |n| (n - z).abs());
                let eps = (rise * 2f64.powi(-j)).max(z.next_up() - z);
                z + f64::from(k) * eps
            }
            BandEdge::Apex => th.apex_height,
            BandEdge::Ground => 0.0,
            BandEdge::AboveApex => 1.5 * th.apex_height,
            BandEdge::Drawn => drawn,
        }
    }

    /// Pairs whose weapon range lies within 3 % of the threat's closest
    /// ground approach, so both sides of the prune's 1 % margin come up.
    /// The battery sits near the impact point, where the threat is low,
    /// so an unpruned pair often has feasible steps. Each end of the
    /// altitude band is either as drawn or placed on the threat's own
    /// altitudes ([`place_band_edge`]): at a step's `z` give or take a
    /// fraction of its rise down to one ulp, the apex, the ground, or
    /// above the apex.
    fn arb_pair_at_the_prune_margin() -> impl Strategy<Value = (Threat, Weapon)> {
        let threat = (
            (0.0..300_000.0f64, 0.0..300_000.0f64),
            (0.0..300_000.0f64, 0.0..300_000.0f64),
            0.0..600.0f64,
            prop_oneof![1 => Just(0.0), 1 => 1.0..40.0f64, 6 => 100.0..1200.0f64],
            5_000.0..150_000.0f64,
            prop_oneof![1 => Just(0.0), 6 => 0.0..0.8f64, 1 => 1.0..1.5f64],
        )
            .prop_map(
                |(launch, impact, launch_time, flight_time, apex_height, detect_frac)| Threat {
                    launch,
                    impact,
                    launch_time,
                    flight_time,
                    apex_height,
                    detect_delay: detect_frac * flight_time,
                },
            );
        let weapon = (
            (-60_000.0..60_000.0f64, -60_000.0..60_000.0f64),
            500.0..10_000.0f64,
            prop_oneof![3 => Just(0.0), 1 => 100.0..3_000.0f64],
            5_000.0..100_000.0f64,
            0.0..15.0f64,
            0.97..1.03f64,
        );
        (threat, weapon, (arb_band_edge(), arb_band_edge())).prop_map(
            |(th, (offset, interceptor_speed, min_alt, max_alt, reaction_time, margin), band)| {
                let mut w = Weapon {
                    pos: (th.impact.0 + offset.0, th.impact.1 + offset.1),
                    interceptor_speed,
                    max_range: 0.0,
                    min_alt: place_band_edge(&th, band.0, min_alt),
                    max_alt: place_band_edge(&th, band.1, max_alt),
                    reaction_time,
                };
                if w.min_alt > w.max_alt {
                    (w.min_alt, w.max_alt) = (w.max_alt, w.min_alt);
                }
                w.max_range = margin * min_ground_dist2(&th, &w).sqrt();
                (th, w)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn pruned_scan_matches_the_unpruned_scan_at_the_margin(
            (th, w) in arb_pair_at_the_prune_margin()
        ) {
            let (pruned, unpruned) = pruned_and_unpruned(&th, &w);
            prop_assert_eq!(pruned, unpruned);
        }
    }

    #[test]
    fn altitude_window_brackets_the_band_and_falls_back_where_unshown() {
        let (th, w) = (test_threat(), test_weapon());
        let (first, last) = (th.first_step(), th.last_step());
        // z = 30 km at t ≈ 30.9 and 189.1, z = 1 km at t ≈ 10.6 and 209.4;
        // the reaction step is 18 and the last step 210.
        assert_eq!(
            altitude_window(&th, &w, first, last),
            Some([(18, 32), (188, 210)])
        );
        // `max_alt` above the apex: one run over it.
        let over = Weapon {
            max_alt: 90_000.0,
            ..w
        };
        assert_eq!(
            altitude_window(&th, &over, first, last),
            Some([(18, 210), NO_RUN])
        );
        // Detected after impact and reacted to before launch.
        let mut late = w;
        late.reaction_time = 300.0;
        assert_eq!(altitude_window(&th, &late, first, last), Some([NO_RUN; 2]));
        for (name, bad) in [
            (
                "max_alt at the apex",
                Weapon {
                    max_alt: th.apex_height,
                    ..w
                },
            ),
            ("min_alt on the ground", Weapon { min_alt: 0.0, ..w }),
            (
                "inverted band",
                Weapon {
                    min_alt: 40_000.0,
                    ..w
                },
            ),
            (
                "reaction before launch",
                Weapon {
                    reaction_time: -6.0,
                    ..w
                },
            ),
            (
                "non-finite band",
                Weapon {
                    max_alt: f64::INFINITY,
                    ..w
                },
            ),
        ] {
            assert_eq!(altitude_window(&th, &bad, first, last), None, "{name}");
        }
    }

    #[test]
    fn the_margin_check_rejects_runs_that_leave_band_steps_outside() {
        let (th, w) = (test_threat(), test_weapon());
        let runs = band_runs(&th, &w);
        assert_eq!(runs, [(9, 32), (188, 211)]);
        let (lo, hi) = (18, 210);
        assert!(clears_the_band(&th, &w, runs, lo, hi));
        // An edge moved into the band leaves band steps outside the runs.
        for moved in [
            [(25, 32), (188, 211)],
            [(9, 28), (188, 211)],
            [(9, 32), (192, 211)],
            [(9, 32), (188, 205)],
        ] {
            assert!(!clears_the_band(&th, &w, moved, lo, hi), "{moved:?}");
        }
        // Clearing the band is not enough: the edge must clear it by the
        // margin, on both sides.
        let margin = ALT_MARGIN * th.apex_height;
        let z = |t: f64| th.position(t).unwrap().2;
        let top = z(32.0).min(z(188.0));
        for (max_alt, clears) in [(top - margin / 2.0, false), (top - 2.0 * margin, true)] {
            let w = Weapon { max_alt, ..w };
            assert_eq!(clears_the_band(&th, &w, runs, lo, hi), clears, "{max_alt}");
        }
        let short = [(9, 32), (188, 209)];
        for (min_alt, clears) in [
            (z(209.0) + margin / 2.0, false),
            (z(209.0) + 2.0 * margin, true),
        ] {
            let w = Weapon { min_alt, ..w };
            assert_eq!(clears_the_band(&th, &w, short, lo, hi), clears, "{min_alt}");
        }
    }

    /// The window is what makes counting cheap: on the first paper
    /// scenario every pair has one, and fewer than one step in five of the
    /// pairs' windows goes through `exit_class`.
    #[test]
    fn altitude_window_covers_every_paper_pair_with_a_fifth_of_its_steps() {
        let s = crate::threat::generate(crate::threat::benchmark_params().next().unwrap());
        let (mut classified, mut steps) = (0u64, 0u64);
        for (ti, th) in s.threats.iter().enumerate() {
            for (wi, w) in s.weapons.iter().enumerate() {
                let (first, last) = (th.first_step(), th.last_step());
                let runs = altitude_window(th, w, first, last)
                    .unwrap_or_else(|| panic!("threat {ti}, weapon {wi}: no window"));
                steps += u64::from(last - first) + 1;
                classified += runs
                    .iter()
                    .map(|&(lo, hi)| (u64::from(hi) + 1).saturating_sub(u64::from(lo)))
                    .sum::<u64>();
            }
        }
        assert!(
            classified * 5 < steps,
            "classified {classified} of {steps} steps"
        );
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
            let mut c = OpCounts::default();
            let feasible = can_intercept(weapon, &th, step, &mut c);
            assert_eq!(feasible, exit_class(weapon, &th, step).1);
            let cost = exit.cost();
            assert_eq!(
                (c.int_ops, c.fp_ops, c.loads),
                (cost.int, cost.fp, cost.load)
            );
            assert_eq!(c.instructions(), cost.int + cost.fp + cost.load);
        }
    }
}
