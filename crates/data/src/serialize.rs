//! Dataset persistence: JSON save/load and SNAP check-in export.
//!
//! JSON is the native round-trip format (exact coordinates, POIs, name).
//! The check-in export writes the same tab-separated format the
//! [`crate::loader`] parses, so synthetic datasets can be fed to any tool
//! that consumes real Gowalla/Brightkite dumps.

use crate::Dataset;
use mc2ls_geo::project::Equirectangular;
use mc2ls_geo::Point;
use mc2ls_influence::MovingUser;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The on-disk JSON schema.
#[derive(Debug, Serialize, Deserialize)]
struct DatasetFile {
    name: String,
    region_km: f64,
    users: Vec<Vec<Point>>,
    pois: Vec<Point>,
}

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "I/O error: {e}"),
            SerializeError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Writes a dataset as pretty JSON.
pub fn save_json<W: Write>(dataset: &Dataset, mut writer: W) -> Result<(), SerializeError> {
    let file = DatasetFile {
        name: dataset.name.clone(),
        region_km: dataset.region_km,
        users: dataset
            .users
            .iter()
            .map(|u| u.positions().to_vec())
            .collect(),
        pois: dataset.pois.clone(),
    };
    let json = serde_json::to_string(&file).map_err(|e| SerializeError::Format(e.to_string()))?;
    writer.write_all(json.as_bytes())?;
    Ok(())
}

/// Reads a dataset back from JSON.
pub fn load_json<R: Read>(mut reader: R) -> Result<Dataset, SerializeError> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    let file: DatasetFile =
        serde_json::from_str(&buf).map_err(|e| SerializeError::Format(e.to_string()))?;
    if file.users.is_empty() {
        return Err(SerializeError::Format("dataset has no users".into()));
    }
    if file.users.iter().any(Vec::is_empty) {
        return Err(SerializeError::Format("a user has no positions".into()));
    }
    // A coordinate that overflowed to infinity in the text (`1e999`) parses
    // fine; every index and kernel downstream needs finite ones.
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    if !file.users.iter().flatten().all(finite) {
        return Err(SerializeError::Format(
            "a user position is not finite".into(),
        ));
    }
    if !file.pois.iter().all(finite) {
        return Err(SerializeError::Format("a POI is not finite".into()));
    }
    if !file.region_km.is_finite() {
        return Err(SerializeError::Format("region_km is not finite".into()));
    }
    Ok(Dataset::new(
        file.name,
        file.users.into_iter().map(MovingUser::new).collect(),
        file.pois,
        file.region_km,
    ))
}

/// Exports a dataset in the SNAP check-in TSV format
/// (`user ⟨tab⟩ time ⟨tab⟩ lat ⟨tab⟩ lon ⟨tab⟩ location_id`), unprojecting
/// planar km back to latitude/longitude around `anchor` (degrees). POIs
/// are emitted as the location ids of the nearest check-ins.
// lint:allow(unread-pub): the CLI's `update`/`convert` tests write their SNAP check-in input with it
pub fn export_checkins<W: Write>(
    dataset: &Dataset,
    anchor: (f64, f64),
    mut writer: W,
) -> Result<(), SerializeError> {
    let proj = Equirectangular::new(anchor.0, anchor.1);
    let mut loc_id = 0u64;
    for (uid, user) in dataset.users.iter().enumerate() {
        for (i, p) in user.positions().iter().enumerate() {
            let (lat, lon) = proj.unproject(p);
            // Synthetic timestamps: one check-in per hour per user.
            writeln!(
                writer,
                "{uid}\t2010-01-01T{:02}:00:00Z\t{lat:.7}\t{lon:.7}\t{loc_id}",
                i % 24
            )?;
            loc_id += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::load_checkins;

    fn tiny() -> Dataset {
        let users = vec![
            MovingUser::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.5)]),
            MovingUser::new(vec![Point::new(-2.0, 3.0), Point::new(-2.1, 3.1)]),
        ];
        Dataset::new("tiny".into(), users, vec![Point::new(0.5, 0.5)], 10.0)
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let d = tiny();
        let mut buf = Vec::new();
        save_json(&d, &mut buf).unwrap();
        let back = load_json(buf.as_slice()).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.region_km, d.region_km);
        assert_eq!(back.pois, d.pois);
        assert_eq!(back.users.len(), d.users.len());
        for (a, b) in back.users.iter().zip(&d.users) {
            assert_eq!(a.positions(), b.positions());
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            load_json("not json".as_bytes()),
            Err(SerializeError::Format(_))
        ));
        assert!(matches!(
            load_json(r#"{"name":"x","region_km":1.0,"users":[],"pois":[]}"#.as_bytes()),
            Err(SerializeError::Format(_))
        ));
    }

    #[test]
    fn load_rejects_non_finite_coordinates() {
        // `1e999` overflows to infinity when parsed.
        for (bad, what) in [
            (
                r#"{"name":"x","region_km":1.0,"users":[[{"x":1e999,"y":0.0}]],"pois":[]}"#,
                "user",
            ),
            (
                r#"{"name":"x","region_km":1.0,"users":[[{"x":0.0,"y":0.0}]],"pois":[{"x":0.0,"y":-1e999}]}"#,
                "POI",
            ),
            (
                r#"{"name":"x","region_km":1e999,"users":[[{"x":0.0,"y":0.0}]],"pois":[]}"#,
                "region_km",
            ),
        ] {
            match load_json(bad.as_bytes()) {
                Err(SerializeError::Format(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("{what}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkin_export_roundtrips_through_loader() {
        let d = tiny();
        let mut buf = Vec::new();
        export_checkins(&d, (40.7, -74.0), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        let back = load_checkins(text.as_bytes(), "roundtrip", None, 2).unwrap();
        assert_eq!(back.users.len(), 2);
        // The loader re-anchors at the centroid, so compare pairwise
        // distances rather than raw coordinates.
        for (a, b) in back.users.iter().zip(&d.users) {
            let da = a.positions()[0].distance(&a.positions()[1]);
            let db = b.positions()[0].distance(&b.positions()[1]);
            assert!((da - db).abs() / db < 0.01, "{da} vs {db}");
        }
    }
}
