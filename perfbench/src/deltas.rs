//! Seeded what-if question streams.
//!
//! A stream is the sequence of [`ScenarioDelta`]s an analyst asks of
//! one evaluated parent: the structural edits the workload allows, each
//! once, at seeded positions near the front, then parameter edits. No
//! child repeats within a stream, so every question is a genuinely new
//! scenario for the what-if path.
//!
//! The parameter edits come in blocks: every block holds one fault
//! window from each of eight length strata and each eighth of the
//! horizon, drawn from the seed, and, when the stream has recall nudges,
//! every other block also holds one nudge from each of eight equal
//! recall strata. The seed orders each block and places the structural
//! edits; the parameter values are the same for every seed.
//!
//! Where the repository models a parameter, the stream follows it.
//! Recall spans the range `fig15_recall` sweeps (Fig. 15, 0.1 to 1.0).
//! Window starts are uniform over the horizon, and lengths follow the
//! exponential law of `FaultPlan::monte_carlo` with the transient mean
//! of `FaultScenario::none()` (600 s), in eight equal-probability
//! strata.
//!
//! A question's cost depends on its exact values, so seeded values made
//! a run's latencies measure the draw rather than the program. The
//! cost of a recall child swings about 40x with the recall (a cold
//! Ships 8x1 takes 0.08 s at 0.9 and 1.9 s at 0.48, where its ILPs take
//! six times the simplex pivots); seeded recalls moved the what-if rate
//! by an IQR/median of 0.78 across five seeds. A window's cost follows
//! the frames with targets it covers; seeded windows moved the
//! `fig11_cold` what-if tail by 0.24 while its cold evaluations moved
//! by 0.12. So the `b`-th block of nudges puts each at the same point
//! of its stratum, the `b + 1`-th of a van der Corput sequence, and the
//! windows are drawn from a fixed stream that a caller may vary (each
//! round of a cell workload asks new windows), not from the seed.
//!
//! The rest is a synthetic choice, as no record of what analysts ask
//! exists: one nudge for every two windows, so both paths (a recall
//! change re-detects every frame, a window dirties only the frames
//! inside it) are sampled while the seconds-long nudges do not take up
//! the whole session (at one to one they took about 75 % of its
//! what-if time on Ships 8x1); the six fault kinds in turn, as the
//! fault model gives no kind precedence; derate factors uniform in
//! 0.05..=0.95 around the model's default of 0.5; and outages of
//! follower 0, the only follower of the one-follower parents asked here
//! (a no-op on swath organizations).

use eagleeye_core::coverage::ScenarioDelta;
use eagleeye_rng::SplitMix64;
use eagleeye_sim::{FaultKind, FaultScenario};
use std::collections::HashSet;

/// Structural edits are placed among this many leading positions.
const STRUCTURAL_WINDOW: usize = 10;

/// Frame cadence the fault-window starts align to, seconds.
const FRAME_S: f64 = 15.0;

/// The first `len` questions of the stream for `seed` over a horizon of
/// `duration_s` seconds. `structural` edits appear exactly once each
/// (when `len` leaves room), in seeded order and positions. The
/// parameter edits are the `draw`-th set, whatever the seed. Without
/// `nudges` they are fault windows only.
pub fn stream(
    seed: u64,
    draw: u64,
    structural: &[ScenarioDelta],
    nudges: bool,
    len: usize,
    duration_s: f64,
) -> Vec<ScenarioDelta> {
    let mut rng = SplitMix64::new(seed);
    let window = STRUCTURAL_WINDOW.max(structural.len()).min(len);
    let mut slots: Vec<usize> = (0..window).collect();
    shuffle(&mut slots, &mut rng);
    let mut order: Vec<&ScenarioDelta> = structural.iter().collect();
    shuffle(&mut order, &mut rng);
    let mut placed: Vec<Option<ScenarioDelta>> = vec![None; len];
    for (slot, delta) in slots.into_iter().zip(order) {
        placed[slot] = Some(delta.clone());
    }

    let mut seen: HashSet<String> = placed.iter().flatten().map(key).collect();
    let mut edits = Edits {
        rng,
        draw: SplitMix64::new(draw ^ 0xD1A5),
        duration_s,
        nudges,
        blocks: 0,
        pending: Vec::new(),
    };
    placed
        .into_iter()
        .map(|fixed| {
            fixed.unwrap_or_else(|| loop {
                let d = edits.next();
                if seen.insert(key(&d)) {
                    break d;
                }
            })
        })
        .collect()
}

/// The metric-name stem of a delta's kind.
pub fn kind(delta: &ScenarioDelta) -> &'static str {
    match delta {
        ScenarioDelta::AddGroup => "add_group",
        ScenarioDelta::RemoveGroup => "remove_group",
        ScenarioDelta::AddFollower => "add_follower",
        ScenarioDelta::RemoveFollower => "remove_follower",
        ScenarioDelta::NudgeRecall(_) => "nudge_recall",
        ScenarioDelta::NudgeRecapture(_) => "nudge_recapture",
        ScenarioDelta::FaultWindow { .. } => "fault_window",
    }
}

fn key(delta: &ScenarioDelta) -> String {
    format!("{delta:?}")
}

/// Strata per block, for recall and for window length and start alike.
const STRATA: usize = 8;
/// One block in this many holds recall nudges (when the stream has any).
const NUDGE_EVERY: usize = 2;
/// Recall nudges span `[RECALL_LO, RECALL_HI)`, Fig. 15's recall range.
const RECALL_LO: f64 = 0.1;
const RECALL_HI: f64 = 1.0;

/// Mean fault-window length, seconds: the transient mean of the
/// repository's Monte-Carlo fault model.
fn mean_window_s() -> f64 {
    FaultScenario::none().transient_duration_s
}

/// Position `u` in `[0, 1)` of stratum `j`: clear of the stratum's
/// edges, so rounding (recall to four decimals, lengths to whole
/// seconds) never crosses into a neighbour.
fn in_stratum(j: usize, u: f64) -> f64 {
    (j as f64 + 0.01 + 0.98 * u) / STRATA as f64
}

/// The `i`-th van der Corput number in base 2, in `[0, 1)`: a sequence
/// that fills the interval evenly from its start.
fn radical_inverse(mut i: usize) -> f64 {
    let (mut r, mut f) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            r += f;
        }
        i >>= 1;
        f *= 0.5;
    }
    r
}

/// The stratified parameter-edit generator.
struct Edits {
    /// Orders each block.
    rng: SplitMix64,
    /// Draws the windows' parameters.
    draw: SplitMix64,
    duration_s: f64,
    nudges: bool,
    blocks: usize,
    pending: Vec<ScenarioDelta>,
}

impl Edits {
    fn next(&mut self) -> ScenarioDelta {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop().expect("a refilled block is not empty")
    }

    /// One block: a fault window in each length stratum (and, in every
    /// `NUDGE_EVERY`-th block, a recall nudge in each recall stratum),
    /// in seeded order. Fault kinds rotate across blocks.
    fn refill(&mut self) {
        let rng = &mut self.draw;
        let frames = (self.duration_s / FRAME_S).floor().max(1.0) as usize;
        // Window starts are stratified too: the j-th window starts in
        // the `starts[j]`-th eighth of the horizon.
        let mut starts: Vec<usize> = (0..STRATA).collect();
        shuffle(&mut starts, rng);
        let nudge = self.nudges && self.blocks.is_multiple_of(NUDGE_EVERY);
        let recall_u = radical_inverse(self.blocks / NUDGE_EVERY + 1);
        for (j, &start_stratum) in starts.iter().enumerate() {
            if nudge {
                let recall = RECALL_LO + (RECALL_HI - RECALL_LO) * in_stratum(j, recall_u);
                let recall = ((recall * 1e4).floor() / 1e4).min(0.9999);
                self.pending.push(ScenarioDelta::NudgeRecall(recall));
            }

            let first = start_stratum * frames / STRATA;
            let last = ((start_stratum + 1) * frames / STRATA).max(first + 1);
            let start_s = rng.range_usize(first, last) as f64 * FRAME_S;
            // Inverse CDF of the exponential length law.
            let q = in_stratum(j, rng.next_f64());
            let length_s = (mean_window_s() * -(1.0 - q).ln()).round().max(1.0);
            let factor = |rng: &mut SplitMix64| rng.range_usize_inclusive(1, 19) as f64 / 20.0;
            let kind = match (self.blocks * STRATA + j) % 6 {
                0 => FaultKind::FollowerOutage { follower: 0 },
                1 => FaultKind::LeaderOutage,
                2 => FaultKind::DetectorDropout {
                    false_negative_rate: factor(rng),
                },
                3 => FaultKind::RadioDerate {
                    capacity_factor: factor(rng),
                },
                4 => FaultKind::SlewDerate {
                    rate_factor: factor(rng),
                },
                _ => FaultKind::BatteryBrownout,
            };
            self.pending.push(ScenarioDelta::FaultWindow {
                kind,
                start_s,
                end_s: start_s + length_s,
            });
        }
        shuffle(&mut self.pending, &mut self.rng);
        self.blocks += 1;
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize_inclusive(0, i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_core::coverage::{ConstellationConfig, CoverageOptions};

    const H: f64 = 3.0 * 3600.0;

    fn structural() -> Vec<ScenarioDelta> {
        vec![
            ScenarioDelta::RemoveGroup,
            ScenarioDelta::AddGroup,
            ScenarioDelta::AddFollower,
        ]
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(
            stream(11, 0, &structural(), true, 500, H),
            stream(11, 0, &structural(), true, 500, H)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            stream(11, 0, &structural(), true, 50, H),
            stream(12, 0, &structural(), true, 50, H)
        );
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let long = stream(5, 0, &structural(), true, 400, H);
        let short = stream(5, 0, &structural(), true, 100, H);
        assert_eq!(&long[..100], &short[..]);
    }

    #[test]
    fn no_child_repeats_and_structural_edits_lead_once() {
        for seed in 0..20 {
            let s = stream(seed, 0, &structural(), true, 1_000, H);
            let keys: HashSet<String> = s.iter().map(key).collect();
            assert_eq!(keys.len(), s.len(), "seed {seed}: a child repeats");
            for d in structural() {
                let at: Vec<usize> = (0..s.len()).filter(|&i| s[i] == d).collect();
                assert_eq!(at.len(), 1, "seed {seed}: {d:?} not exactly once");
                assert!(at[0] < STRUCTURAL_WINDOW);
            }
        }
    }

    fn edits(seed: u64, nudges: bool) -> Edits {
        Edits {
            rng: SplitMix64::new(seed),
            draw: SplitMix64::new(0),
            duration_s: H,
            nudges,
            blocks: 0,
            pending: Vec::new(),
        }
    }

    #[test]
    fn every_block_holds_one_edit_per_stratum() {
        // Checked on the generator: the stream's duplicate guard may
        // drop an edit and shift later blocks by one position.
        for nudges in [true, false] {
            let mut edits = edits(9, nudges);
            for b in 0..50 {
                edits.refill();
                let mut recall = vec![0; STRATA];
                let mut length = vec![0; STRATA];
                for d in std::mem::take(&mut edits.pending) {
                    match d {
                        ScenarioDelta::NudgeRecall(r) => {
                            let q = (r - RECALL_LO) / (RECALL_HI - RECALL_LO);
                            recall[(q * STRATA as f64) as usize] += 1;
                        }
                        ScenarioDelta::FaultWindow { start_s, end_s, .. } => {
                            // Quantile of the length under the exponential law.
                            let q = 1.0 - (-(end_s - start_s) / mean_window_s()).exp();
                            length[(q * STRATA as f64) as usize] += 1;
                        }
                        other => panic!("unexpected edit {other:?}"),
                    }
                }
                let nudged = nudges && b % NUDGE_EVERY == 0;
                assert_eq!(recall, vec![usize::from(nudged); STRATA]);
                assert_eq!(length, vec![1; STRATA]);
            }
        }
    }

    #[test]
    fn the_seed_orders_the_edits_but_does_not_choose_them() {
        let run = |seed| {
            let mut e = edits(seed, true);
            (0..20 * 3 * STRATA)
                .map(|_| key(&e.next()))
                .collect::<Vec<_>>()
        };
        let (a, b) = (run(1), run(2));
        assert_ne!(a, b);
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b));
        assert_eq!(radical_inverse(1), 0.5);
        assert_eq!(radical_inverse(6), 0.375);
    }

    #[test]
    fn every_question_applies_to_the_parent() {
        let parent = ConstellationConfig::eagleeye(8, 1);
        let opts = CoverageOptions {
            duration_s: H,
            layout_slots: Some(9),
            ..CoverageOptions::default()
        };
        for d in stream(3, 0, &structural(), true, 2_000, H) {
            d.apply(&parent, &opts).expect("delta applies");
        }
        let swath = ConstellationConfig::LowResOnly { satellites: 16 };
        for d in stream(3, 0, &[], true, 500, H) {
            d.apply(&swath, &opts)
                .expect("parameter edit applies to swath");
        }
    }
}
