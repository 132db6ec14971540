//! XOR-parity grouping over WDM sub-batches.
//!
//! A protected batch is split into k data groups, each dispatched on
//! its own fiber path; one extra *parity* group carries the byte-wise
//! XOR of the k data payloads. Lose any single group to a fiber cut
//! and the missing payload is `parity ⊕ (surviving data)` — a purely
//! digital reconstruction at the front-end, no photonic re-execution.
//! The serving simulator carries no payload bytes: the work ledger
//! ([`crate::ledger`]) books each reconstruction and
//! [`crate::overhead`] prices it. [`split_groups`] sizes the groups.

/// Split `n` items into `k` contiguous groups as evenly as possible:
/// returns the group sizes (first `n % k` groups get one extra).
/// `k` is clamped to `1..=n` for `n ≥ 1`; `n = 0` yields no groups.
pub fn split_groups(n: usize, k: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let base = n / k;
    let extra = n % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_is_even_and_exhaustive() {
        assert_eq!(split_groups(10, 3), vec![4, 3, 3]);
        assert_eq!(split_groups(3, 3), vec![1, 1, 1]);
        assert_eq!(split_groups(2, 3), vec![1, 1], "k clamps to n");
        assert_eq!(split_groups(0, 3), Vec::<usize>::new());
        for n in 1..40 {
            for k in 1..8 {
                let g = split_groups(n, k);
                assert_eq!(g.iter().sum::<usize>(), n);
                assert!(g.iter().all(|&s| s >= 1));
            }
        }
    }
}
