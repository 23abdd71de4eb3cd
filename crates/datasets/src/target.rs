use eagleeye_geo::{greatcircle, GeodeticPoint, GridIndex};
// eagleeye-lint: allow(determinism): bucket indices are read by key only; iteration order never escapes
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identifier of a target within its [`TargetSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TargetId(pub usize);

/// One sensing target.
///
/// Static targets (ships-snapshot, lakes, tanks) have `motion: None` and
/// exist for the whole simulation. Moving targets (airplanes) carry a
/// great-circle motion and an existence window.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// Position at `t = appears_at_s` (for static targets, the fixed
    /// position).
    pub position: GeodeticPoint,
    /// Priority value of the target; the scheduler maximizes the sum of
    /// captured values (paper §3.2 uses detection confidence).
    pub value: f64,
    /// Ground speed (m/s) and initial bearing (rad) for moving targets.
    pub motion: Option<(f64, f64)>,
    /// Simulation time at which the target starts existing, seconds.
    pub appears_at_s: f64,
    /// Simulation time at which the target stops existing, seconds
    /// (`f64::INFINITY` for permanent targets).
    pub disappears_at_s: f64,
}

impl Target {
    /// Creates a permanent, static target.
    pub fn fixed(position: GeodeticPoint, value: f64) -> Self {
        Target {
            position,
            value,
            motion: None,
            appears_at_s: 0.0,
            disappears_at_s: f64::INFINITY,
        }
    }

    /// True when the target exists at simulation time `t_s`.
    #[inline]
    pub fn exists_at(&self, t_s: f64) -> bool {
        t_s >= self.appears_at_s && t_s <= self.disappears_at_s
    }

    /// Position at simulation time `t_s`. Moving targets travel a great
    /// circle from their initial position; static targets never move.
    /// The position saturates at the end of the existence window.
    pub fn position_at(&self, t_s: f64) -> GeodeticPoint {
        match self.motion {
            None => self.position,
            Some((speed, bearing)) => {
                let t = t_s.clamp(self.appears_at_s, self.disappears_at_s);
                let dist = speed * (t - self.appears_at_s);
                greatcircle::destination(&self.position, bearing, dist).unwrap_or(self.position)
            }
        }
    }

    /// Maximum ground speed of the target (0 for static targets).
    #[inline]
    pub fn speed_m_s(&self) -> f64 {
        self.motion.map(|(v, _)| v).unwrap_or(0.0)
    }
}

/// Seconds per time bucket for the moving-target spatial index.
const BUCKET_S: f64 = 300.0;

/// A set of targets with spatial indexing.
///
/// For static targets a single lazily-built [`GridIndex`] answers
/// frame-membership queries in every time bucket. For moving targets the
/// set lazily builds one index per five-minute time bucket (positions
/// sampled at the bucket midpoint) and pads queries by the worst-case
/// intra-bucket motion, so queries stay exact.
///
/// The workload fingerprint — [`len`](Self::len) and
/// [`total_value`](Self::total_value) — is fixed at construction, so
/// reading it never scans the targets.
///
/// # Example
///
/// ```
/// use eagleeye_datasets::{Target, TargetSet};
/// use eagleeye_geo::GeodeticPoint;
///
/// let targets = vec![
///     Target::fixed(GeodeticPoint::from_degrees(10.0, 10.0, 0.0)?, 1.0),
///     Target::fixed(GeodeticPoint::from_degrees(-60.0, 100.0, 0.0)?, 1.0),
/// ];
/// let set = TargetSet::new(targets);
/// let center = GeodeticPoint::from_degrees(10.0, 10.0, 0.0)?;
/// let hits = set.query_radius(&center, 100_000.0, 0.0);
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TargetSet {
    targets: Vec<Target>,
    max_speed_m_s: f64,
    total_value: f64,
    /// Every target has zero speed, so positions never depend on time
    /// and all buckets share one index.
    is_static: bool,
    /// Lazily-built per-bucket indices keyed by bucket number (a single
    /// entry, key 0, for static sets).
    // eagleeye-lint: allow(determinism): accessed only by bucket key, never iterated
    bucket_indices: Mutex<HashMap<i64, Arc<GridIndex>>>,
}

/// A snapshot of the spatial index for one time bucket: the
/// lazily-built [`GridIndex`] over target positions sampled at the
/// bucket midpoint (one index shared by every bucket of a static set),
/// plus the worst-case intra-bucket motion pad that keeps queries
/// exact. Obtained from [`TargetSet::bucket_view`]; valid for every
/// query time inside that bucket.
///
/// Holding a view lets a caller that sweeps many frames within one
/// bucket (the coverage compiler's per-segment sweep) take the
/// `TargetSet` index lock once per segment instead of once per frame,
/// then run per-frame candidate queries lock-free.
#[derive(Debug, Clone)]
pub struct BucketView {
    index: Arc<GridIndex>,
    bucket: i64,
    midpoint_t_s: f64,
    pad_m: f64,
}

impl BucketView {
    /// True when `t_s` falls inside this view's time bucket, i.e. the
    /// view answers queries at `t_s` exactly.
    #[inline]
    pub fn covers(&self, t_s: f64) -> bool {
        (t_s / BUCKET_S).floor() as i64 == self.bucket
    }

    /// The bucket-midpoint sample time the index was built at.
    #[inline]
    pub fn midpoint_t_s(&self) -> f64 {
        self.midpoint_t_s
    }

    /// The query pad (meters) covering worst-case target drift between
    /// the midpoint sample and any time inside the bucket.
    #[inline]
    pub fn pad_m(&self) -> f64 {
        self.pad_m
    }
}

impl TargetSet {
    /// Builds a target set.
    pub fn new(targets: Vec<Target>) -> Self {
        // `motion` is unvalidated: a negative speed drifts backwards
        // along the bearing, so the query pad must use its magnitude.
        let max_speed_m_s = targets
            .iter()
            .map(|t| t.speed_m_s().abs())
            .fold(0.0, f64::max);
        let total_value = targets.iter().map(|t| t.value).sum();
        // eagleeye-lint: allow(float-eq): only an exactly-zero speed keeps positions time-independent; an epsilon would share one index across buckets for slow movers
        let is_static = targets.iter().all(|t| t.speed_m_s() == 0.0);
        TargetSet {
            targets,
            max_speed_m_s,
            total_value,
            is_static,
            // eagleeye-lint: allow(determinism): accessed only by bucket key, never iterated
            bucket_indices: Mutex::new(HashMap::new()),
        }
    }

    /// Number of targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when there are no targets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Access a target by index.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn target(&self, i: usize) -> &Target {
        &self.targets[i]
    }

    /// Iterates over all targets.
    pub fn iter(&self) -> std::slice::Iter<'_, Target> {
        self.targets.iter()
    }

    /// All targets as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Target] {
        &self.targets
    }

    /// Fastest target in the set, m/s.
    #[inline]
    pub fn max_speed_m_s(&self) -> f64 {
        self.max_speed_m_s
    }

    /// Number of targets that exist at any point during `[0, horizon_s]`.
    pub fn count_existing_within(&self, horizon_s: f64) -> usize {
        self.targets
            .iter()
            .filter(|t| t.appears_at_s <= horizon_s && t.disappears_at_s >= 0.0)
            .count()
    }

    /// Returns indices of targets that exist at `t_s` and lie within
    /// `radius_m` of `center` at that time, ascending.
    pub fn query_radius(&self, center: &GeodeticPoint, radius_m: f64, t_s: f64) -> Vec<usize> {
        let view = self.bucket_view(t_s);
        self.candidates_in(&view, center, radius_m)
            .into_iter()
            .filter(|&i| self.within_radius_at(i, center, radius_m, t_s))
            .collect()
    }

    /// The spatial-index view for the time bucket containing `t_s`,
    /// building the bucket's [`GridIndex`] on first use. A static set
    /// builds one index and hands it to every bucket. Takes the
    /// internal index lock once; the returned view queries lock-free.
    pub fn bucket_view(&self, t_s: f64) -> BucketView {
        let bucket = (t_s / BUCKET_S).floor() as i64;
        let pad_m = self.max_speed_m_s * BUCKET_S; // worst-case drift from midpoint, doubled below
        let midpoint_t_s = (bucket as f64 + 0.5) * BUCKET_S;
        // Zero-speed positions are the same at every sample time, so any
        // bucket's midpoint builds the one shared index.
        let key = if self.is_static { 0 } else { bucket };
        // A poisoned lock only means another thread panicked mid-insert;
        // the cache itself is an optimization, so recover the guard.
        let mut map = self
            .bucket_indices
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let index = map
            .entry(key)
            .or_insert_with(|| {
                Arc::new(
                    GridIndex::build(
                        2.0,
                        self.targets.iter().map(|t| {
                            let p = t.position_at(midpoint_t_s);
                            (p.lat_deg(), p.lon_deg())
                        }),
                    )
                    // eagleeye-lint: allow(no-unwrap): cell size is the constant 2.0 above
                    .expect("positive cell size"),
                )
            })
            .clone();
        BucketView {
            index,
            bucket,
            midpoint_t_s,
            pad_m,
        }
    }

    /// Candidate target indices within `radius_m` of `center` for any
    /// query time inside the view's bucket, ascending: a superset of
    /// every exact [`query_radius`](Self::query_radius) result with the
    /// same center/radius at those times (the view pads the query by the
    /// worst-case intra-bucket drift). Callers refine with
    /// [`within_radius_at`](Self::within_radius_at).
    pub fn candidates_in(
        &self,
        view: &BucketView,
        center: &GeodeticPoint,
        radius_m: f64,
    ) -> Vec<usize> {
        view.index.query_radius(
            // eagleeye-lint: allow(no-unwrap): altitude 0.0 is always in range
            &center.with_altitude(0.0).expect("valid altitude"),
            radius_m + view.pad_m,
            |i| self.targets[i].position_at(view.midpoint_t_s),
        )
    }

    /// Exact membership test: target `i` exists at `t_s` and its
    /// position at `t_s` is within `radius_m` of `center`. This is the
    /// refinement predicate of [`query_radius`](Self::query_radius),
    /// exposed so segment-sweep callers reproduce its results
    /// bit-for-bit from [`candidates_in`](Self::candidates_in) supersets.
    #[inline]
    pub fn within_radius_at(
        &self,
        i: usize,
        center: &GeodeticPoint,
        radius_m: f64,
        t_s: f64,
    ) -> bool {
        let t = &self.targets[i];
        t.exists_at(t_s) && greatcircle::distance_m(center, &t.position_at(t_s)) <= radius_m
    }

    /// Sum of values over all targets, in target order. Computed once
    /// at construction.
    #[inline]
    pub fn total_value(&self) -> f64 {
        self.total_value
    }
}

impl FromIterator<Target> for TargetSet {
    fn from_iter<I: IntoIterator<Item = Target>>(iter: I) -> Self {
        TargetSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap()
    }

    #[test]
    fn fixed_targets_never_move() {
        let t = Target::fixed(pt(10.0, 20.0), 1.0);
        assert_eq!(t.position_at(0.0), t.position_at(1e6));
        assert!(t.exists_at(0.0));
        assert!(t.exists_at(1e9));
    }

    #[test]
    fn moving_target_travels_at_speed() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((100.0, 0.0)); // 100 m/s due north
        let p = t.position_at(1000.0);
        let d = greatcircle::distance_m(&t.position, &p);
        assert!((d - 100_000.0).abs() < 1.0, "d = {d}");
    }

    #[test]
    fn existence_window_is_respected() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.appears_at_s = 100.0;
        t.disappears_at_s = 200.0;
        assert!(!t.exists_at(99.0));
        assert!(t.exists_at(150.0));
        assert!(!t.exists_at(201.0));
    }

    #[test]
    fn position_saturates_outside_window() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((100.0, 0.0));
        t.appears_at_s = 0.0;
        t.disappears_at_s = 100.0;
        // After disappearing, position stays at the final point.
        assert_eq!(t.position_at(100.0), t.position_at(10_000.0));
    }

    #[test]
    fn static_query_matches_brute_force() {
        let targets: Vec<Target> = (0..200)
            .map(|i| {
                let lat = -60.0 + (i % 25) as f64 * 5.0;
                let lon = -180.0 + (i / 25) as f64 * 40.0;
                Target::fixed(pt(lat, lon), 1.0)
            })
            .collect();
        let set = TargetSet::new(targets.clone());
        let center = pt(0.0, 0.0);
        let got = set.query_radius(&center, 2_000_000.0, 0.0);
        let want: Vec<usize> = (0..targets.len())
            .filter(|&i| greatcircle::distance_m(&center, &targets[i].position) <= 2_000_000.0)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn moving_query_finds_target_at_later_position() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((250.0, std::f64::consts::FRAC_PI_2)); // east, jet speed
        let set = TargetSet::new(vec![t]);
        // After 2000 s the plane is ~500 km east.
        let future = t.position_at(2000.0);
        let hits = set.query_radius(&future, 10_000.0, 2000.0);
        assert_eq!(hits, vec![0]);
        // And it is NOT near its origin anymore.
        let at_origin = set.query_radius(&pt(0.0, 0.0), 10_000.0, 2000.0);
        assert!(at_origin.is_empty());
    }

    #[test]
    fn query_excludes_nonexistent_targets() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.appears_at_s = 1000.0;
        let set = TargetSet::new(vec![t]);
        assert!(set.query_radius(&pt(0.0, 0.0), 10_000.0, 0.0).is_empty());
        assert_eq!(set.query_radius(&pt(0.0, 0.0), 10_000.0, 1500.0), vec![0]);
    }

    #[test]
    fn static_set_views_share_one_index() {
        let mut still = Target::fixed(pt(0.0, 0.0), 1.0);
        still.motion = Some((0.0, 1.0)); // zero speed counts as static
        let set = TargetSet::new(vec![Target::fixed(pt(10.0, 10.0), 1.0), still]);
        let views: Vec<BucketView> = [-400.0, 0.0, 450.0, 10_000.0]
            .iter()
            .map(|&t| set.bucket_view(t))
            .collect();
        for v in &views[1..] {
            assert!(Arc::ptr_eq(&views[0].index, &v.index));
        }
        // Each view still answers only for its own bucket.
        assert!(views[1].covers(0.0) && !views[1].covers(450.0));
        assert_eq!(views[2].midpoint_t_s(), 450.0);
        assert_eq!(views[0].pad_m(), 0.0);

        let mut plane = Target::fixed(pt(0.0, 0.0), 1.0);
        plane.motion = Some((250.0, 0.0));
        let moving = TargetSet::new(vec![Target::fixed(pt(10.0, 10.0), 1.0), plane]);
        let (a, b) = (moving.bucket_view(0.0), moving.bucket_view(450.0));
        assert!(!Arc::ptr_eq(&a.index, &b.index));
        // Same bucket, same index.
        assert!(Arc::ptr_eq(&a.index, &moving.bucket_view(299.0).index));
    }

    #[test]
    fn negative_speed_pads_by_magnitude() {
        let mut t = Target::fixed(pt(0.0, 0.0), 1.0);
        t.motion = Some((-250.0, 0.0)); // flies south along a north bearing
        let set = TargetSet::new(vec![t]);
        assert_eq!(set.max_speed_m_s(), 250.0);
        // Late in bucket 0 the plane is ~37 km south of its midpoint
        // sample; an unpadded query would miss it.
        let p = t.position_at(299.0);
        assert_eq!(set.query_radius(&p, 1_000.0, 299.0), vec![0]);
    }

    #[test]
    fn total_value_is_the_in_order_sum() {
        for w in crate::Workload::ALL {
            let set = w.generate_scaled(0.002, 3_600.0, 5);
            let sum: f64 = set.iter().map(|t| t.value).sum();
            assert_eq!(set.total_value().to_bits(), sum.to_bits(), "{w}");
        }
        assert_eq!(TargetSet::new(Vec::new()).total_value(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let set: TargetSet = (0..5)
            .map(|i| Target::fixed(pt(i as f64, 0.0), 1.0))
            .collect();
        assert_eq!(set.len(), 5);
        assert_eq!(set.total_value(), 5.0);
    }
}
