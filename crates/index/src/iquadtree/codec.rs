//! Byte codec for [`IQuadTree`] — the `IQTR` section payload of the
//! `.mc2s` snapshot container.
//!
//! The payload is a header — the root square, `depth`, `r_max`, `n_users`,
//! `NIR` and the per-level `⌈η⌉` table — followed by every position as
//! `(owner u32, x f64, y f64)` in tree order. The Morton codes and the
//! `Ω_inf` table are derived state: decoding re-derives the codes with
//! `morton_codes` and rebuilds `Ω_inf`, so a loaded tree equals the built
//! one and re-encodes to the same bytes.
//!
//! Decoding re-checks every invariant the traversal code relies on (user
//! ids in range, every user indexed, `r_max` matching the positions,
//! positions finite, inside the root square and in `(code, user)` order),
//! so a corrupt snapshot yields a typed [`CodecError`] instead of a panic
//! or a silently different tree.

use super::IQuadTree;
use mc2ls_geo::{morton_codes, ByteReader, ByteWriter, CodecError, Point, Square};

impl IQuadTree {
    /// Encodes the built tree into the pinned little-endian byte layout
    /// used by the `.mc2s` snapshot format. The bytes depend only on the
    /// indexed data.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w =
            ByteWriter::with_capacity(64 + 9 * self.eta_by_level.len() + 20 * self.points.len());
        w.put_f64(self.root_square.origin.x);
        w.put_f64(self.root_square.origin.y);
        w.put_f64(self.root_square.side);
        w.put_len(self.depth);
        w.put_len(self.r_max);
        w.put_len(self.n_users);
        match self.nir {
            Some(nir) => {
                w.put_u8(1);
                w.put_f64(nir);
            }
            None => w.put_u8(0),
        }
        w.put_len(self.eta_by_level.len());
        for eta in &self.eta_by_level {
            match eta {
                Some(e) => {
                    w.put_u8(1);
                    w.put_len(*e);
                }
                None => w.put_u8(0),
            }
        }
        w.put_len(self.points.len());
        for (&u, p) in self.owner.iter().zip(&self.points) {
            w.put_u32(u);
            w.put_f64(p.x);
            w.put_f64(p.y);
        }
        w.into_bytes()
    }

    /// Decodes [`IQuadTree::to_bytes`] output, re-checking the invariants
    /// traversal relies on and re-deriving the codes and `Ω_inf`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`]/[`CodecError::BadLength`] on short or
    /// length-corrupt input, [`CodecError::Invalid`] when a decoded field
    /// violates a tree invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let root_square = read_square(&mut r)?;
        let depth = read_usize(&mut r, "IQuadTree.depth")?;
        if depth > Self::MAX_DEPTH {
            return Err(CodecError::Invalid("depth exceeds the Morton budget"));
        }
        let r_max = read_usize(&mut r, "IQuadTree.r_max")?;
        let n_users = read_usize(&mut r, "IQuadTree.n_users")?;
        let nir = match r.get_u8()? {
            0 => None,
            1 => {
                let v = r.get_f64()?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(CodecError::Invalid("NIR must be finite and positive"));
                }
                Some(v)
            }
            _ => return Err(CodecError::Invalid("NIR flag must be 0 or 1")),
        };
        let n_eta = r.get_len("IQuadTree.eta_by_level", 1)?;
        if n_eta != depth + 1 {
            return Err(CodecError::Invalid("eta table must have depth + 1 entries"));
        }
        let mut eta_by_level = Vec::with_capacity(n_eta);
        for _ in 0..n_eta {
            eta_by_level.push(match r.get_u8()? {
                0 => None,
                1 => Some(read_usize(&mut r, "IQuadTree.eta")?),
                _ => return Err(CodecError::Invalid("eta flag must be 0 or 1")),
            });
        }

        // 20 bytes = one (owner, x, y) entry.
        let n = r.get_len("IQuadTree.positions", 20)?;
        // Every user holds at least one position, which also bounds the
        // per-user tables below by the payload size.
        if n_users > n {
            return Err(CodecError::Invalid("more users than positions"));
        }
        let root = root_square.rect();
        let mut owner = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        let mut per_user = vec![0usize; n_users];
        for _ in 0..n {
            let u = r.get_u32()?;
            let count = per_user
                .get_mut(u as usize)
                .ok_or(CodecError::Invalid("position owner out of range"))?;
            *count += 1;
            let p = Point::new(r.get_f64()?, r.get_f64()?);
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(CodecError::Invalid("position must be finite"));
            }
            if !root.contains(&p) {
                return Err(CodecError::Invalid("position outside the root square"));
            }
            owner.push(u);
            points.push(p);
        }
        r.expect_end()?;
        if per_user.contains(&0) {
            return Err(CodecError::Invalid("user without positions"));
        }
        if per_user.iter().copied().max().unwrap_or(0) != r_max {
            return Err(CodecError::Invalid("r_max disagrees with the positions"));
        }

        let mut codes = Vec::new();
        morton_codes(&root_square, depth, &points, &mut codes);
        if (1..n).any(|i| (codes[i - 1], owner[i - 1]) > (codes[i], owner[i])) {
            return Err(CodecError::Invalid("positions not in (code, user) order"));
        }

        let mut tree = IQuadTree {
            root_square,
            depth,
            eta_by_level,
            nir,
            r_max,
            n_users,
            codes,
            owner,
            points,
            omega_inf: Vec::new(),
        };
        tree.omega_inf = tree.is_rule_table();
        Ok(tree)
    }
}

fn read_square(r: &mut ByteReader<'_>) -> Result<Square, CodecError> {
    let x = r.get_f64()?;
    let y = r.get_f64()?;
    let side = r.get_f64()?;
    if !(x.is_finite() && y.is_finite() && side.is_finite() && side >= 0.0) {
        return Err(CodecError::Invalid("square must be finite with side >= 0"));
    }
    Ok(Square::new(Point::new(x, y), side))
}

fn read_usize(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize, CodecError> {
    let v = r.get_u64()?;
    usize::try_from(v).map_err(|_| CodecError::BadLength { what, claimed: v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc2ls_influence::{MovingUser, Sigmoid};

    fn users_grid() -> Vec<MovingUser> {
        (0..30)
            .map(|i| {
                let cx = (i % 6) as f64 * 3.0;
                let cy = (i / 6) as f64 * 3.0;
                MovingUser::new(
                    (0..5)
                        .map(|j| Point::new(cx + 0.1 * j as f64, cy + 0.07 * j as f64))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn byte_codec_round_trips_the_built_tree() {
        let users = users_grid();
        let pf = Sigmoid::paper_default();
        let tree = IQuadTree::build(&users, &pf, 0.5, 2.0);
        let bytes = tree.to_bytes();
        let loaded = IQuadTree::from_bytes(&bytes).expect("round trip");
        loaded.validate();
        assert_eq!(loaded.stats(), tree.stats());
        assert_eq!(loaded.nir(), tree.nir());
        assert_eq!(loaded.r_max(), tree.r_max());
        assert_eq!(loaded.eta_table(), tree.eta_table());
        assert_eq!(loaded.omega_inf, tree.omega_inf);
        // Re-encoding is bit-identical: the codec pins a canonical layout.
        assert_eq!(loaded.to_bytes(), bytes);
        // Traversal outcomes are identical for probes inside and outside
        // the indexed region.
        for v in [
            Point::new(0.2, 0.2),
            Point::new(7.5, 7.5),
            Point::new(15.0, 12.0),
            Point::new(-3.0, -3.0),
        ] {
            let want = tree.traverse(&v, &mut tree.scratch());
            let got = loaded.traverse(&v, &mut loaded.scratch());
            assert_eq!(got.influenced, want.influenced, "probe {v:?}");
            assert_eq!(got.to_verify, want.to_verify, "probe {v:?}");
        }
    }

    #[test]
    fn byte_codec_rejects_corruption_without_panicking() {
        let users: Vec<MovingUser> = (0..4)
            .map(|i| {
                MovingUser::new(vec![
                    Point::new(i as f64, 0.0),
                    Point::new(i as f64 + 0.1, 0.2),
                ])
            })
            .collect();
        let pf = Sigmoid::paper_default();
        let tree = IQuadTree::build(&users, &pf, 0.5, 0.5);
        let bytes = tree.to_bytes();
        for cut in 0..bytes.len() {
            assert!(IQuadTree::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(IQuadTree::from_bytes(&trailing).is_err());

        // The position entries are the last 20 bytes each.
        let n = tree.points.len();
        let first = bytes.len() - 20 * n;
        let entry = |i: usize| first + 20 * i;
        let rejects = |edit: &dyn Fn(&mut Vec<u8>), what: &str| {
            let mut bad = bytes.clone();
            edit(&mut bad);
            assert!(
                matches!(IQuadTree::from_bytes(&bad), Err(CodecError::Invalid(_))),
                "{what}"
            );
        };
        rejects(
            &|b| b[entry(0)..entry(0) + 4].copy_from_slice(&99u32.to_le_bytes()),
            "owner out of range",
        );
        rejects(
            &|b| b[entry(1) + 4..entry(1) + 12].copy_from_slice(&f64::NAN.to_le_bytes()),
            "non-finite position",
        );
        rejects(
            &|b| b[entry(2) + 12..entry(2) + 20].copy_from_slice(&1e9f64.to_le_bytes()),
            "position outside the root square",
        );
        rejects(
            &|b| {
                let (a, z) = (entry(0), entry(n - 1));
                let last: Vec<u8> = b[z..z + 20].to_vec();
                b.copy_within(a..a + 20, z);
                b[a..a + 20].copy_from_slice(&last);
            },
            "unsorted positions",
        );
        rejects(
            &|b| b.copy_within(entry(4)..entry(4) + 4, entry(3)),
            "reassigned owner",
        );
        // Flipping the depth invalidates the eta table length.
        let mut bad_depth = bytes;
        bad_depth[24] ^= 0xFF;
        assert!(IQuadTree::from_bytes(&bad_depth).is_err());
    }
}
