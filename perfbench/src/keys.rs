//! Seeded generators of `/recommend` query keys.
//!
//! A key is one `(model, users, nTTFT SLA, ITL SLA)` tuple, exactly what the
//! daemon caches on. Every key asks the paper's evaluation question
//! (`RecommendationRequest::paper_defaults`, Sec. V-C): up to 200 users,
//! an nTTFT SLA of 100 ms and an ITL SLA of 50 ms. User counts run over
//! `1..=200`, as in the repository's `serve_load` experiment. The daemon
//! keys its cache on the SLAs in whole microseconds, so distinct keys
//! differ in a sub-millisecond SLA offset where they must.

/// SplitMix64: a tiny, well-mixed, seedable generator, so the query
/// streams depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One recommendation query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// LLM name as the dataset spells it.
    pub model: String,
    /// Total concurrent users.
    pub users: u32,
    /// Normalized-TTFT SLA in whole microseconds, as the daemon's cache key
    /// holds it.
    pub ttft_us: u32,
    /// Inter-token-latency SLA in whole microseconds.
    pub itl_us: u32,
}

/// Largest total user count a query asks for: the paper's `U = 200`.
const MAX_USERS: u64 = 200;
/// The paper's nTTFT SLA, 100 ms, in µs.
const TTFT_US: u32 = 100_000;
/// The paper's ITL SLA, 50 ms, in µs.
const ITL_US: u32 = 50_000;
/// Distinct keys add an offset of `0..SLA_OFFSETS` µs (under 1 % of either
/// SLA) to each SLA. The offsets only make the keys distinct; the search
/// answers the paper's question for each.
const SLA_OFFSETS: u64 = 1_000;
/// A prime multiplier, so it is coprime to every key-space size.
const STRIDE: u128 = 2_654_435_761;

impl QueryKey {
    /// The request target the client sends for this key. The SLAs go out
    /// in milliseconds, half a microsecond above the key's whole
    /// microsecond, so the daemon's truncation to microseconds recovers
    /// the key exactly whatever the float rounding.
    pub fn target(&self) -> String {
        let ms = |us: u32| format!("{}.{:03}5", us / 1000, us % 1000);
        format!(
            "/recommend?model={}&users={}&ttft={}&itl={}",
            self.model.replace('/', "%2F"),
            self.users,
            ms(self.ttft_us),
            ms(self.itl_us)
        )
    }

    /// The SLAs the daemon reads from [`QueryKey::target`], s.
    pub fn sla_s(&self) -> (f64, f64) {
        let s = |us: u32| (f64::from(us) + 0.5) / 1e6;
        (s(self.ttft_us), s(self.itl_us))
    }
}

/// An endless stream of pairwise-distinct keys that needs no memory of
/// the keys it returned: key `i` decodes `(STRIDE · i + offset) mod N`, a
/// permutation of the `N` keys, into a model, a user count in
/// `1..=MAX_USERS` and the two SLA offsets.
#[derive(Debug)]
pub struct DistinctKeys {
    models: Vec<String>,
    sla_offsets: u64,
    space: u128,
    offset: u128,
    next: u128,
}

impl DistinctKeys {
    /// The stream for `seed` over `models`, with SLA offsets.
    pub fn new(seed: u64, models: Vec<String>) -> Self {
        Self::with_sla_offsets(seed, models, SLA_OFFSETS)
    }

    /// The stream for `seed` over `models`; each SLA offset is drawn from
    /// `0..sla_offsets` µs.
    fn with_sla_offsets(seed: u64, models: Vec<String>, sla_offsets: u64) -> Self {
        let space = models.len() as u128 * u128::from(MAX_USERS * sla_offsets * sla_offsets);
        assert!(space % STRIDE != 0, "the stride must be coprime to the key space");
        let offset = u128::from(SplitMix64::new(seed).next_u64()) % space;
        Self { models, sla_offsets, space, offset, next: 0 }
    }

    /// The next key never returned before.
    pub fn next_key(&mut self) -> QueryKey {
        assert!(self.next < self.space, "key space exhausted");
        let mut x = (STRIDE * self.next + self.offset) % self.space;
        self.next += 1;
        let mut digit = |radix: u64| {
            let d = (x % u128::from(radix)) as u64;
            x /= u128::from(radix);
            d
        };
        let model = self.models[digit(self.models.len() as u64) as usize].clone();
        let users = 1 + digit(MAX_USERS) as u32;
        let ttft_us = TTFT_US + digit(self.sla_offsets) as u32;
        let itl_us = ITL_US + digit(self.sla_offsets) as u32;
        QueryKey { model, users, ttft_us, itl_us }
    }
}

/// A stream over a small fixed hot set, skewed Zipf-like: the key of rank
/// `r` (from 1) is drawn with probability proportional to `1 / r`.
#[derive(Debug)]
pub struct HotKeys {
    rng: SplitMix64,
    keys: Vec<QueryKey>,
    cdf: Vec<f64>,
}

impl HotKeys {
    /// `size` distinct hot keys for `seed` over `models`: distinct
    /// `(model, users)` pairs, each at the paper's SLAs exactly.
    pub fn new(seed: u64, models: Vec<String>, size: usize) -> Self {
        let mut distinct = DistinctKeys::with_sla_offsets(seed, models, 1);
        let keys: Vec<QueryKey> = (0..size).map(|_| distinct.next_key()).collect();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=size)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { rng: SplitMix64::new(seed ^ 0x5EED_F00D), keys, cdf }
    }

    /// Every key of the hot set, most popular first.
    pub fn keys(&self) -> &[QueryKey] {
        &self.keys
    }

    /// The next key of the skewed stream.
    pub fn next_key(&mut self) -> QueryKey {
        let u = self.rng.next_f64();
        let i = self.cdf.partition_point(|&c| c <= u).min(self.keys.len() - 1);
        self.keys[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn models() -> Vec<String> {
        vec!["Llama-2-7b".into(), "bigcode/starcoder".into(), "google/flan-t5-xl".into()]
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a: Vec<QueryKey> = {
            let mut g = DistinctKeys::new(42, models());
            (0..500).map(|_| g.next_key()).collect()
        };
        let b: Vec<QueryKey> = {
            let mut g = DistinctKeys::new(42, models());
            (0..500).map(|_| g.next_key()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<QueryKey> = {
            let mut g = DistinctKeys::new(43, models());
            (0..500).map(|_| g.next_key()).collect()
        };
        assert_ne!(a, c);

        let mut h1 = HotKeys::new(9, models(), 64);
        let mut h2 = HotKeys::new(9, models(), 64);
        for _ in 0..1_000 {
            assert_eq!(h1.next_key(), h2.next_key());
        }
    }

    #[test]
    fn distinct_keys_never_repeat() {
        let mut g = DistinctKeys::new(1, models());
        let keys: HashSet<QueryKey> = (0..200_000).map(|_| g.next_key()).collect();
        assert_eq!(keys.len(), 200_000);
        for k in &keys {
            assert!((1..=200).contains(&k.users));
            assert!(
                (100_000..101_000).contains(&k.ttft_us) && (50_000..51_000).contains(&k.itl_us)
            );
        }
    }

    #[test]
    fn hot_stream_is_skewed_and_stays_in_the_hot_set() {
        let mut h = HotKeys::new(3, models(), 100);
        let hot: HashSet<QueryKey> = h.keys().iter().cloned().collect();
        let top = h.keys()[0].clone();
        let draws: Vec<QueryKey> = (0..10_000).map(|_| h.next_key()).collect();
        assert!(draws.iter().all(|k| hot.contains(k)));
        assert!(hot.iter().all(|k| (k.ttft_us, k.itl_us) == (100_000, 50_000)));
        // Rank 1 has probability 1 / H(100) ≈ 0.19.
        let top_share = draws.iter().filter(|k| **k == top).count() as f64 / 1e4;
        assert!((0.15..0.24).contains(&top_share), "{top_share}");
    }

    #[test]
    fn targets_escape_slashes_and_carry_exact_microsecond_slas() {
        let k = QueryKey {
            model: "bigcode/starcoder".into(),
            users: 7,
            ttft_us: 100_042,
            itl_us: 50_000,
        };
        assert_eq!(
            k.target(),
            "/recommend?model=bigcode%2Fstarcoder&users=7&ttft=100.0425&itl=50.0005"
        );
        // The daemon parses the SLA in ms and truncates it to whole µs.
        for us in [TTFT_US, ITL_US] {
            for off in 0..SLA_OFFSETS as u32 {
                let target = QueryKey { ttft_us: us + off, ..k.clone() }.target();
                let ms = target.split("ttft=").nth(1).unwrap().split('&').next().unwrap();
                assert_eq!((ms.parse::<f64>().unwrap() * 1e3) as u64, u64::from(us + off));
            }
        }
    }
}
