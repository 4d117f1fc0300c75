//! Deterministic randomness plumbing.
//!
//! Every mechanism and experiment in the workspace takes an explicit RNG so
//! runs are reproducible; these helpers derive independent per-task streams
//! from a single experiment seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates the root RNG for an experiment from a user-supplied seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent RNG for subtask `index` of a run with `seed`.
///
/// Uses SplitMix64 over `(seed, index)` so streams do not overlap even when
/// indices are sequential — handing `seed + i` straight to `seed_from_u64`
/// would correlate neighbouring tasks' low bits.
pub fn derived(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(index)))
}

/// Salt separating report-shard streams from the `derived` task streams.
const SHARD_SALT: u64 = 0x5AAD_ED5A_11CE_D001;

/// Derives the independent RNG stream for report shard `shard` of a batch
/// keyed by `master`.
///
/// SplitMix64 stream splitting: the shard id is finalized through
/// [`splitmix64`] before entering the seed, so sequential shard ids land
/// in uncorrelated streams, and the `SHARD_SALT` keeps shard streams
/// disjoint from the per-task streams handed out by [`derived`]. Because
/// the stream depends only on `(master, shard)`, a sharded computation is
/// bit-identical no matter how many threads execute it.
pub fn shard_rng(master: u64, shard: u64) -> StdRng {
    keyed(master, SHARD_SALT, shard)
}

/// Derives the RNG stream for item `id` of the domain identified by
/// `salt`, under the run's `master` seed.
///
/// This is the one keyed-stream constructor every crate outside `dam-geo`
/// must go through (the `no-entropy-rng` lint enforces it): a domain
/// picks a unique salt constant, and `(master, salt, id)` then names a
/// replayable stream. [`shard_rng`] is `keyed(master, SHARD_SALT, shard)`.
/// The seed derivation is the same double-SplitMix64 pattern as
/// [`derived`], so the bit pattern of existing streams is unchanged.
pub fn keyed(master: u64, salt: u64, id: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(master ^ splitmix64(id ^ salt)))
}

/// One round of the SplitMix64 output function.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let a: u64 = seeded(42).gen();
        let b: u64 = seeded(42).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn derived_streams_differ() {
        let a: u64 = derived(42, 0).gen();
        let b: u64 = derived(42, 1).gen();
        let c: u64 = derived(43, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shard_streams_are_deterministic_and_distinct() {
        let a: u64 = shard_rng(42, 0).gen();
        let b: u64 = shard_rng(42, 0).gen();
        assert_eq!(a, b);
        let c: u64 = shard_rng(42, 1).gen();
        let d: u64 = shard_rng(43, 0).gen();
        let e: u64 = derived(42, 0).gen();
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e, "shard streams must not collide with derived task streams");
    }

    #[test]
    fn splitmix_is_a_bijection_sample() {
        // Distinct inputs map to distinct outputs on a small sample.
        let outs: std::collections::HashSet<u64> = (0..1000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }
}
