//! Property-based tests for the synthetic dataset generators, on the
//! `eagleeye-check` harness (replay with `EAGLEEYE_CHECK_SEED`, scale
//! with `EAGLEEYE_CHECK_CASES`).
//!
//! The airplane-kinematics body is a plain function so the pinned
//! regression case at the bottom (former `.proptest-regressions`
//! entry) exercises the same code as the random cases.

use eagleeye_check::{
    check_cases, f64_range, prop_assert, prop_assert_eq, u64_range, usize_range, PropResult,
};
use eagleeye_datasets::{
    AirplaneGenerator, LakeGenerator, LakeSizeBand, OilTankGenerator, ShipGenerator, Target,
    TargetSet,
};
use eagleeye_geo::{greatcircle, GeodeticPoint};

const CASES: u32 = 24;

/// Generators honor the requested count and are seed-deterministic.
#[test]
fn counts_and_determinism() {
    check_cases(
        CASES,
        "counts_and_determinism",
        (usize_range(1, 300), u64_range(0, 1000)),
        |&(count, seed)| {
            let a = ShipGenerator::new().with_count(count).generate(seed);
            let b = ShipGenerator::new().with_count(count).generate(seed);
            prop_assert_eq!(a.len(), count);
            for i in 0..count {
                prop_assert_eq!(a.target(i).position, b.target(i).position);
                prop_assert_eq!(a.target(i).value, b.target(i).value);
            }
            Ok(())
        },
    );
}

fn check_airplane_kinematics(count: usize, seed: u64, horizon: f64) -> PropResult {
    let set = AirplaneGenerator::new()
        .with_count(count)
        .with_horizon_s(horizon)
        .generate(seed);
    for t in set.iter() {
        let v = t.speed_m_s();
        prop_assert!((150.0..300.0).contains(&v), "speed {v}");
        prop_assert!(t.appears_at_s >= 0.0 && t.appears_at_s <= horizon + 1.0);
        let duration = t.disappears_at_s - t.appears_at_s;
        prop_assert!(
            duration > 0.0 && duration < 30.0 * 3600.0,
            "flight duration {duration}"
        );
        // Moving along a great circle: distance at mid-flight matches
        // speed * elapsed.
        let mid = t.appears_at_s + duration / 2.0;
        let d = greatcircle::distance_m(&t.position, &t.position_at(mid));
        prop_assert!((d - v * duration / 2.0).abs() < 2_000.0);
    }
    Ok(())
}

/// Airplane existence windows are consistent with route length and
/// speed, and all flights stay within jet performance.
#[test]
fn airplane_kinematics() {
    check_cases(
        CASES,
        "airplane_kinematics",
        (
            usize_range(1, 120),
            u64_range(0, 1000),
            f64_range(600.0, 86_400.0),
        ),
        |&(count, seed, horizon)| check_airplane_kinematics(count, seed, horizon),
    );
}

/// Lake values stay within the documented band and positions are on
/// the globe.
#[test]
fn lake_invariants() {
    check_cases(
        CASES,
        "lake_invariants",
        (usize_range(1, 300), u64_range(0, 1000)),
        |&(count, seed)| {
            for band in [LakeSizeBand::OneToTenKm2, LakeSizeBand::TenthToTenKm2] {
                let set = LakeGenerator::new(band).with_count(count).generate(seed);
                prop_assert_eq!(set.len(), count);
                for t in set.iter() {
                    prop_assert!(t.value >= 1.0 && t.value <= 1.2 + 1e-9);
                    prop_assert!(t.position.lat_deg().abs() <= 90.0);
                    prop_assert!(t.motion.is_none());
                }
            }
            Ok(())
        },
    );
}

/// Tank farms: every tank is near its farm center, with physical
/// diameters and fill levels.
#[test]
fn tank_farm_invariants() {
    check_cases(
        CASES,
        "tank_farm_invariants",
        (usize_range(1, 40), u64_range(0, 1000)),
        |&(farms, seed)| {
            let fs = OilTankGenerator::new()
                .with_farm_count(farms)
                .generate(seed);
            prop_assert_eq!(fs.len(), farms);
            for f in &fs {
                prop_assert!(!f.tanks.is_empty());
                for t in &f.tanks {
                    prop_assert!((0.0..=1.0).contains(&t.fill_level));
                    prop_assert!(t.diameter_m > 10.0 && t.diameter_m < 100.0);
                    let d = greatcircle::distance_m(&f.center, &t.position);
                    prop_assert!(d < 10_000.0, "tank {d} m from center");
                }
            }
            Ok(())
        },
    );
}

/// Brute-force radius query: every target that exists at `t` and lies
/// within `radius` of `center` at that time, ascending.
fn brute_force_query(set: &TargetSet, center: &GeodeticPoint, radius: f64, t: f64) -> Vec<usize> {
    (0..set.len())
        .filter(|&i| {
            let tg = set.target(i);
            tg.exists_at(t) && greatcircle::distance_m(center, &tg.position_at(t)) <= radius
        })
        .collect()
}

/// Radius queries against moving sets agree with brute force at an
/// arbitrary time.
#[test]
fn moving_query_matches_brute_force() {
    check_cases(
        CASES,
        "moving_query_matches_brute_force",
        (
            usize_range(1, 80),
            u64_range(0, 200),
            f64_range(0.0, 7_200.0),
            f64_range(-60.0, 60.0),
            f64_range(-170.0, 170.0),
        ),
        |&(count, seed, t, lat, lon)| {
            let set = AirplaneGenerator::new()
                .with_count(count)
                .with_horizon_s(7_200.0)
                .generate(seed);
            let center = GeodeticPoint::from_degrees(lat, lon, 0.0).expect("valid");
            let radius = 500_000.0;
            prop_assert_eq!(
                set.query_radius(&center, radius, t),
                brute_force_query(&set, &center, radius, t)
            );
            Ok(())
        },
    );
}

/// `Target::motion` is unvalidated, so a negative speed (drift
/// backwards along the bearing) must still be padded for. Every plane's
/// speed is negated, and the queries are centred on one plane at three
/// times across its flight, so an under-padded query or a bucket index
/// sampled at the wrong time misses it.
#[test]
fn negative_speed_query_matches_brute_force() {
    check_cases(
        CASES,
        "negative_speed_query_matches_brute_force",
        (
            (usize_range(1, 80), u64_range(0, 200)),
            (
                f64_range(0.0, 0.33),
                f64_range(0.33, 0.66),
                f64_range(0.66, 1.0),
            ),
            f64_range(1_000.0, 60_000.0),
        ),
        |&((count, seed), (early, mid, late), radius)| {
            let set: TargetSet = AirplaneGenerator::new()
                .with_count(count)
                .with_horizon_s(7_200.0)
                .generate(seed)
                .iter()
                .map(|&tg| Target {
                    motion: tg.motion.map(|(v, bearing)| (-v, bearing)),
                    ..tg
                })
                .collect();
            let plane = *set.target(seed as usize % set.len());
            for frac in [early, mid, late] {
                let t = plane.appears_at_s + frac * (plane.disappears_at_s - plane.appears_at_s);
                let center = plane.position_at(t);
                prop_assert_eq!(
                    set.query_radius(&center, radius, t),
                    brute_force_query(&set, &center, radius, t)
                );
            }
            Ok(())
        },
    );
}

/// Radius queries against static sets — whose time buckets all share
/// one spatial index — agree with brute force at query times spread
/// over buckets before the start, inside a 3 h horizon, and past it.
/// Some targets carry an explicit zero-speed motion and some exist
/// only inside a window straddling `t = 0`.
#[test]
fn static_query_matches_brute_force() {
    check_cases(
        CASES,
        "static_query_matches_brute_force",
        (
            (usize_range(1, 300), u64_range(0, 1000)),
            (
                f64_range(-1_000.0, -0.001),
                f64_range(0.0, 10_799.0),
                f64_range(10_800.0, 20_000.0),
            ),
            f64_range(-60.0, 60.0),
            f64_range(-170.0, 170.0),
        ),
        |&((count, seed), (early, during, late), lat, lon)| {
            let set: TargetSet = ShipGenerator::new()
                .with_count(count)
                .generate(seed)
                .iter()
                .enumerate()
                .map(|(i, &tg)| {
                    let mut tg = tg;
                    match i % 3 {
                        1 => tg.motion = Some((0.0, i as f64)),
                        2 => {
                            tg.appears_at_s = -1_500.0;
                            tg.disappears_at_s = 12_000.0;
                        }
                        _ => {}
                    }
                    tg
                })
                .collect();
            let center = GeodeticPoint::from_degrees(lat, lon, 0.0).expect("valid");
            let radius = 1_500_000.0;
            for t in [during, early, late] {
                prop_assert_eq!(
                    set.query_radius(&center, radius, t),
                    brute_force_query(&set, &center, radius, t)
                );
            }
            Ok(())
        },
    );
}

/// Pinned regression case from the retired `.proptest-regressions`
/// file: a 44-plane set at the minimum horizon, where short flights
/// once violated the duration lower bound.
#[test]
fn regression_airplane_kinematics_short_horizon() {
    check_airplane_kinematics(44, 679, 600.0).expect("regression case must pass");
}
