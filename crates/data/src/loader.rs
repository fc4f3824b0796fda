//! Loader for the SNAP check-in format used by the paper's real datasets
//! (Gowalla and Brightkite):
//!
//! ```text
//! [user] ⟨tab⟩ [check-in time] ⟨tab⟩ [latitude] ⟨tab⟩ [longitude] ⟨tab⟩ [location id]
//! ```
//!
//! Records are grouped per user, optionally clipped to a geographic
//! bounding box (e.g. the New York metro area), projected to planar km with
//! an equirectangular projection anchored at the data centroid, and users
//! with fewer than `min_positions` records are trimmed — exactly the
//! preprocessing the paper describes. POIs are taken to be the distinct
//! check-in locations, matching the paper's "real points of interest".

use crate::Dataset;
use mc2ls_geo::project::Equirectangular;
use mc2ls_geo::{Extent, Point};
use mc2ls_influence::MovingUser;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// A latitude/longitude window (degrees) used to clip check-ins.
#[derive(Debug, Clone, Copy)]
pub struct GeoBounds {
    /// Minimum latitude.
    pub min_lat: f64,
    /// Maximum latitude.
    pub max_lat: f64,
    /// Minimum longitude.
    pub min_lon: f64,
    /// Maximum longitude.
    pub max_lon: f64,
}

impl GeoBounds {
    /// The New York metro window used with the Brightkite dump.
    pub fn new_york() -> Self {
        GeoBounds {
            min_lat: 40.45,
            max_lat: 41.0,
            min_lon: -74.35,
            max_lon: -73.55,
        }
    }

    /// The state of California window used with the Gowalla dump.
    pub fn california() -> Self {
        GeoBounds {
            min_lat: 32.3,
            max_lat: 42.1,
            min_lon: -124.6,
            max_lon: -114.0,
        }
    }

    fn contains(&self, lat: f64, lon: f64) -> bool {
        lat >= self.min_lat && lat <= self.max_lat && lon >= self.min_lon && lon <= self.max_lon
    }
}

/// Errors the loader reports.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// No usable record survived parsing/clipping.
    Empty,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::Empty => write!(f, "no usable check-in records"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Parses a check-in stream into a [`Dataset`].
///
/// Malformed lines are skipped (real SNAP dumps contain a few); users with
/// fewer than `min_positions` surviving records are trimmed.
// lint:allow(unread-pub): the in-memory entry that loader_fuzz.rs feeds arbitrary bytes; the CLI reaches it through `load_checkin_file`
pub fn load_checkins<R: Read>(
    reader: R,
    name: &str,
    bounds: Option<GeoBounds>,
    min_positions: usize,
) -> Result<Dataset, LoadError> {
    let reader = BufReader::new(reader);
    let mut by_user: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut locations: BTreeMap<u64, (f64, f64)> = BTreeMap::new();

    for line in reader.lines() {
        let line = line?;
        let mut it = line.split('\t');
        let (Some(user), Some(_time), Some(lat), Some(lon)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            continue;
        };
        let loc_id = it.next();
        let (Ok(user), Ok(lat), Ok(lon)) =
            (user.parse::<u64>(), lat.parse::<f64>(), lon.parse::<f64>())
        else {
            continue;
        };
        if !lat.is_finite() || !lon.is_finite() || (lat == 0.0 && lon == 0.0) {
            continue; // SNAP dumps use 0,0 for unknown coordinates
        }
        if let Some(b) = &bounds {
            if !b.contains(lat, lon) {
                continue;
            }
        }
        by_user.entry(user).or_default().push((lat, lon));
        if let Some(Ok(loc)) = loc_id.map(str::parse::<u64>) {
            locations.entry(loc).or_insert((lat, lon));
        }
    }

    by_user.retain(|_, v| v.len() >= min_positions);
    if by_user.is_empty() {
        return Err(LoadError::Empty);
    }

    // Anchor the projection at the centroid of all surviving records.
    let (mut lat_sum, mut lon_sum, mut n) = (0.0, 0.0, 0usize);
    for records in by_user.values() {
        for (lat, lon) in records {
            lat_sum += lat;
            lon_sum += lon;
            n += 1;
        }
    }
    let proj = Equirectangular::new(lat_sum / n as f64, lon_sum / n as f64);

    let users: Vec<MovingUser> = by_user
        .values()
        .map(|records| {
            MovingUser::new(
                records
                    .iter()
                    .map(|&(lat, lon)| proj.project(lat, lon))
                    .collect(),
            )
        })
        .collect();

    let pois: Vec<Point> = locations
        .values()
        .filter(|(lat, lon)| bounds.is_none_or(|b| b.contains(*lat, *lon)))
        .map(|&(lat, lon)| proj.project(lat, lon))
        .collect();

    let mut e = Extent::new();
    for u in &users {
        e.add_all(u.positions());
    }
    // An empty extent can only come from every record being filtered
    // out, which is exactly the Empty error.
    let region = e.rect().ok_or(LoadError::Empty)?;
    Ok(Dataset::new(
        name.to_string(),
        users,
        pois,
        region.width().max(region.height()),
    ))
}

/// One timestamped check-in, surfaced as a replayable stream event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckinEvent {
    /// Raw SNAP user id.
    pub user: u64,
    /// Check-in time as Unix seconds (parsed from the ISO-8601 column).
    pub timestamp: i64,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// Parses a check-in stream into an **ordered event stream**: one
/// [`CheckinEvent`] per well-formed record, sorted by timestamp (stable —
/// records sharing a timestamp keep their file order). SNAP dumps store
/// each user's records newest-first, so the raw file order is *not* replay
/// order; this is the entry point for the streaming/update workloads.
///
/// The same hygiene as [`load_checkins`] applies — malformed lines,
/// non-finite coordinates, the `0,0` unknown-location sentinel and
/// unparseable timestamps are skipped, and an optional [`GeoBounds`] clips
/// geographically.
pub fn events<R: Read>(
    reader: R,
    bounds: Option<GeoBounds>,
) -> Result<Vec<CheckinEvent>, LoadError> {
    let reader = BufReader::new(reader);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let mut it = line.split('\t');
        let (Some(user), Some(time), Some(lat), Some(lon)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            continue;
        };
        let (Ok(user), Ok(lat), Ok(lon)) =
            (user.parse::<u64>(), lat.parse::<f64>(), lon.parse::<f64>())
        else {
            continue;
        };
        let Some(timestamp) = parse_timestamp(time) else {
            continue;
        };
        if !lat.is_finite() || !lon.is_finite() || (lat == 0.0 && lon == 0.0) {
            continue;
        }
        if let Some(b) = &bounds {
            if !b.contains(lat, lon) {
                continue;
            }
        }
        out.push(CheckinEvent {
            user,
            timestamp,
            lat,
            lon,
        });
    }
    if out.is_empty() {
        return Err(LoadError::Empty);
    }
    out.sort_by_key(|e| e.timestamp); // stable: ties keep file order
    Ok(out)
}

/// Parses the SNAP timestamp shape `YYYY-MM-DDThh:mm:ssZ` into Unix
/// seconds (proleptic Gregorian, no timezone other than `Z`). Returns
/// `None` for anything malformed.
fn parse_timestamp(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    if b.len() != 20 || b[4] != b'-' || b[7] != b'-' || b[10] != b'T' {
        return None;
    }
    if b[13] != b':' || b[16] != b':' || b[19] != b'Z' {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<i64> {
        let field = s.get(range)?;
        if !field.bytes().all(|c| c.is_ascii_digit()) {
            return None;
        }
        field.parse().ok()
    };
    let (y, m, d) = (num(0..4)?, num(5..7)?, num(8..10)?);
    let (hh, mm, ss) = (num(11..13)?, num(14..16)?, num(17..19)?);
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || hh > 23 || mm > 59 || ss > 59 {
        return None;
    }
    // Days-from-civil (Howard Hinnant's algorithm), valid over the whole
    // proleptic Gregorian calendar.
    let y_adj = if m <= 2 { y - 1 } else { y };
    let era = y_adj.div_euclid(400);
    let yoe = y_adj - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146097 + doe - 719468;
    Some(days * 86400 + hh * 3600 + mm * 60 + ss)
}

/// Loads a check-in file from disk; see [`load_checkins`].
pub fn load_checkin_file<P: AsRef<Path>>(
    path: P,
    name: &str,
    bounds: Option<GeoBounds>,
    min_positions: usize,
) -> Result<Dataset, LoadError> {
    let file = std::fs::File::open(path)?;
    load_checkins(file, name, bounds, min_positions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
0\t2010-10-19T23:55:27Z\t40.60\t-73.98\t12\n\
0\t2010-10-18T22:17:43Z\t40.61\t-73.99\t13\n\
0\t2010-10-17T11:12:01Z\t40.62\t-73.97\t14\n\
1\t2010-10-12T00:21:28Z\t40.70\t-73.90\t15\n\
1\t2010-10-11T20:21:20Z\t40.71\t-73.91\t16\n\
2\t2010-10-10T01:00:00Z\t51.50\t-0.12\t17\n\
3\t2010-10-09T01:00:00Z\t40.80\t-73.95\t18\n\
malformed line without tabs\n\
4\tbadtime\tnot_a_lat\t-73.9\t19\n\
5\t2010-10-08T00:00:00Z\t0.0\t0.0\t20\n";

    #[test]
    fn parses_and_groups_by_user() {
        let d = load_checkins(SAMPLE.as_bytes(), "sample", None, 2).unwrap();
        // Users 0 (3 recs) and 1 (2 recs) survive min_positions=2; users 2,
        // 3 have 1 record; 4 is malformed; 5 is the 0,0 sentinel.
        assert_eq!(d.users.len(), 2);
        assert_eq!(d.users[0].len(), 3);
        assert_eq!(d.users[1].len(), 2);
        assert!(!d.pois.is_empty());
    }

    #[test]
    fn bounds_clip_records() {
        let d = load_checkins(SAMPLE.as_bytes(), "ny", Some(GeoBounds::new_york()), 1).unwrap();
        // The London record (user 2) must be clipped; NY users survive.
        assert_eq!(d.users.len(), 3); // users 0, 1, 3
    }

    #[test]
    fn projection_preserves_local_scale() {
        let d = load_checkins(SAMPLE.as_bytes(), "sample", Some(GeoBounds::new_york()), 2).unwrap();
        // User 0's positions are ~1-2 km apart in reality.
        let pts = d.users[0].positions();
        let dist = pts[0].distance(&pts[1]);
        assert!(dist > 0.5 && dist < 3.0, "got {dist} km");
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(
            load_checkins("".as_bytes(), "x", None, 2),
            Err(LoadError::Empty)
        ));
    }

    #[test]
    fn min_positions_one_keeps_singletons() {
        let d = load_checkins(SAMPLE.as_bytes(), "all", None, 1).unwrap();
        assert_eq!(d.users.len(), 4); // users 0, 1, 2, 3
    }

    #[test]
    fn events_are_ordered_by_timestamp() {
        // SAMPLE stores user 0's records newest-first (Oct 19, 18, 17) and
        // interleaves other users: the event stream must come back sorted.
        let evs = events(SAMPLE.as_bytes(), None).unwrap();
        assert_eq!(evs.len(), 7); // malformed + 0,0-sentinel lines skipped
        assert!(
            evs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
            "events must be timestamp-ordered"
        );
        // Replay order: the oldest record is user 3's Oct 9 check-in, the
        // newest is user 0's Oct 19 one.
        assert_eq!(evs[0].user, 3);
        assert_eq!(evs[6].user, 0);
        assert!((evs[6].lat - 40.60).abs() < 1e-12);
    }

    #[test]
    fn events_skip_malformed_timestamps() {
        // The `badtime` line and a handful of near-miss shapes all drop.
        let text = "\
7\tbadtime\t40.6\t-73.9\t1\n\
7\t2010-13-01T00:00:00Z\t40.6\t-73.9\t1\n\
7\t2010-10-19T24:00:00Z\t40.6\t-73.9\t1\n\
7\t2010-10-19 23:55:27Z\t40.6\t-73.9\t1\n\
7\t2010-10-19T23:55:27\t40.6\t-73.9\t1\n\
7\t2010-1-19T23:55:27ZZ\t40.6\t-73.9\t1\n\
7\t2010-10-19T23:55:27Z\t40.6\t-73.9\t1\n";
        let evs = events(text.as_bytes(), None).unwrap();
        assert_eq!(evs.len(), 1, "only the well-formed line survives");
        // 2010-10-19T23:55:27Z, checked against `date -d ... +%s`.
        assert_eq!(evs[0].timestamp, 1287532527);
    }

    #[test]
    fn out_of_order_records_are_stably_sorted() {
        // Two records share a timestamp; the earlier line must stay first.
        let text = "\
1\t2010-10-19T00:00:00Z\t40.60\t-73.98\t1\n\
2\t2010-10-18T00:00:00Z\t40.61\t-73.97\t2\n\
3\t2010-10-18T00:00:00Z\t40.62\t-73.96\t3\n";
        let evs = events(text.as_bytes(), None).unwrap();
        assert_eq!(
            evs.iter().map(|e| e.user).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
    }

    #[test]
    fn events_respect_bounds_and_empty_errors() {
        let evs = events(SAMPLE.as_bytes(), Some(GeoBounds::new_york())).unwrap();
        assert!(evs.iter().all(|e| e.user != 2), "London record clipped");
        assert!(matches!(
            events("junk\n".as_bytes(), None),
            Err(LoadError::Empty)
        ));
    }
}
