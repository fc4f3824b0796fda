//! Merge-based set operations over **sorted, deduplicated** id vectors.
//!
//! The pruning pipeline manipulates many user-id sets (`Ω_inf`, `Ω_vrf`,
//! `Ω_v`, …). Sorted vectors beat hash sets here: the sets are built once,
//! iterated many times, and merged pairwise — all linear scans with no
//! hashing or allocation churn.

/// Merges two sorted id slices into their sorted union.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Folds `b` into the sorted vector `a` in place (sorted union).
pub fn union_into(a: &mut Vec<u32>, b: &[u32]) {
    if b.is_empty() {
        return;
    }
    if a.is_empty() {
        a.extend_from_slice(b);
        return;
    }
    *a = union(a, b);
}

/// Sorted difference `a \ b` of two sorted id slices.
pub fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Binary-search membership test on a sorted slice.
#[inline]
pub fn contains(a: &[u32], x: u32) -> bool {
    a.binary_search(&x).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_and_dedups() {
        assert_eq!(union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union(&[], &[1, 2]), vec![1, 2]);
        assert_eq!(union(&[1, 2], &[]), vec![1, 2]);
    }

    #[test]
    fn union_into_matches_union() {
        let mut a = vec![1, 4, 9];
        union_into(&mut a, &[2, 4, 10]);
        assert_eq!(a, vec![1, 2, 4, 9, 10]);
        let mut e: Vec<u32> = vec![];
        union_into(&mut e, &[7]);
        assert_eq!(e, vec![7]);
    }

    #[test]
    fn difference_removes_members() {
        assert_eq!(difference(&[1, 2, 3, 4], &[2, 4]), vec![1, 3]);
        assert_eq!(difference(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(difference(&[], &[1]), Vec::<u32>::new());
    }

    #[test]
    fn contains_binary_search() {
        assert!(contains(&[1, 5, 9], 5));
        assert!(!contains(&[1, 5, 9], 6));
    }

    #[test]
    fn set_algebra_identity() {
        // |A ∪ B| = |A| + |B \ A| on arbitrary sorted sets.
        let a = vec![1, 4, 6, 8, 11];
        let b = vec![2, 4, 8, 9];
        assert_eq!(union(&a, &b).len(), a.len() + difference(&b, &a).len());
        // (A \ B) ∪ B = A ∪ B
        assert_eq!(union(&difference(&a, &b), &b), union(&a, &b));
    }
}
