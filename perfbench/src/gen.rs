//! Seeded input generators. Every input a workload feeds the program
//! comes from here (or from the corpus generator) and depends only on
//! the seed, so a seed names one exact input set.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// A rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn head_share(&self, k: usize) -> f64 {
        self.cdf[k.clamp(1, self.cdf.len()) - 1]
    }
}

/// FNV-1a over bytes: a stable digest for gates and tests.
pub fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// ---------------------------------------------------------------------
// read_mixed: a skewed KB and a closed-loop query mix
// ---------------------------------------------------------------------

/// Relations of the skewed KB, with their share of the facts.
pub const SKEWED_RELS: [&str; 4] = ["rel_big", "rel_mid", "rel_mid2", "rel_rare"];

/// Facts in the read_mixed KB.
pub const SKEWED_FACTS: usize = 1_000_000;

/// Entities in the read_mixed KB (facts / 4).
pub const SKEWED_ENTITIES: usize = SKEWED_FACTS / 4;

/// Triples `(subject, relation index, object)` of the skewed KB: 80%
/// `rel_big`, 12% `rel_mid`, 8% `rel_mid2` over uniformly drawn
/// entities, plus `n / 2000` `rel_rare` facts.
pub fn skewed_triples(n: usize, seed: u64) -> Vec<(u32, u8, u32)> {
    let entities = (n / 4).max(32);
    let mut rng = Rng::new(seed, 1);
    let counts = [n * 8 / 10, n * 12 / 100, n * 8 / 100, (n / 2000).max(8)];
    let mut out = Vec::with_capacity(counts.iter().sum());
    for (rel, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            out.push((rng.below(entities) as u32, rel as u8, rng.below(entities) as u32));
        }
    }
    out
}

/// Digest of read_mixed's generated inputs.
pub fn digest_inputs(triples: &[(u32, u8, u32)], rings: &[Vec<ReadOp>]) -> u64 {
    let mut h = FNV_SEED;
    for &(s, r, o) in triples {
        h = fnv(fnv(fnv(h, &s.to_le_bytes()), &[r]), &o.to_le_bytes());
    }
    rings.iter().flatten().fold(h, |h, op| fnv(h, op.text.as_bytes()))
}

/// Name of skewed-KB entity `i`.
pub fn entity(i: usize) -> String {
    format!("entity_{i}")
}

/// Read classes, as the latency metrics split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Subject-anchored: routes to one partition.
    Point,
    /// Scatter to every partition.
    Analytic,
}

/// One generated read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    /// Latency class.
    pub class: Class,
    /// Query text.
    pub text: String,
}

/// read_mixed shares: point lookups, subject stars, scatter analytics.
pub const MIX: [f64; 3] = [0.70, 0.20, 0.10];

/// Zipf exponent of subject keys.
pub const ZIPF_S: f64 = 1.0;

/// Maps a popularity rank to an entity by a seeded hash, so the hot set
/// differs per seed.
fn rank_to_entity(rank: usize, n: usize, salt: u64) -> usize {
    let h = (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
    (h % n as u64) as usize
}

/// A closed-loop client's op ring for read_mixed: `len` reads over a
/// KB of `entities` entities and `rare` rare facts.
pub fn read_mixed_ops(seed: u64, client: u64, len: usize, entities: usize) -> Vec<ReadOp> {
    let zipf = Zipf::new(entities, ZIPF_S);
    let salt = Rng::new(seed, 7).next_u64();
    let mut rng = Rng::new(seed, 100 + client);
    (0..len)
        .map(|_| {
            let u = rng.unit();
            let e = entity(rank_to_entity(zipf.sample(&mut rng), entities, salt));
            if u < MIX[0] {
                ReadOp { class: Class::Point, text: format!("{e} rel_big ?o") }
            } else if u < MIX[0] + MIX[1] {
                ReadOp {
                    class: Class::Point,
                    text: format!("SELECT ?y ?z WHERE {{ {e} rel_big ?y . {e} rel_mid ?z }}"),
                }
            } else {
                ReadOp { class: Class::Analytic, text: analytic_text(rng.below(ANALYTIC_TEXTS)) }
            }
        })
        .collect()
}

/// Distinct scatter texts in read_mixed.
pub const ANALYTIC_TEXTS: usize = 48;

/// The `k`-th read_mixed scatter query: top objects reached from the
/// rare relation, or a shared-object join anchored on it. Distinct
/// LIMITs make distinct texts.
pub fn analytic_text(k: usize) -> String {
    let limit = 5 + k / 2;
    if k.is_multiple_of(2) {
        format!(
            "SELECT ?o COUNT(?x) AS ?n WHERE {{ ?x rel_rare ?y . ?y rel_big ?o }} \
             GROUP BY ?o ORDER BY DESC(?n) ?o LIMIT {limit}"
        )
    } else {
        format!(
            "SELECT ?a ?b WHERE {{ ?a rel_rare ?c . ?b rel_mid ?c }} ORDER BY ?a ?b LIMIT {limit}"
        )
    }
}

// ---------------------------------------------------------------------
// live_stream: the rival-product post stream
// ---------------------------------------------------------------------

/// Products of the two rival families.
pub fn products() -> Vec<String> {
    (0..5).map(|k| format!("Strato_{k}")).chain((0..5).map(|k| format!("Nimbus_{k}"))).collect()
}

/// Days in the stream's horizon.
pub const DAYS: usize = 90;

/// One post: `(product index, day)`.
pub type PostSpec = (u8, u8);

/// One delta: fresh posts, and base posts whose `mentions` fact is
/// retracted (the window sliding past them).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSpec {
    /// Posts added, named `live_<install>_<j>`.
    pub added: Vec<PostSpec>,
    /// Base post indices retracted.
    pub retracted: Vec<u32>,
}

/// The live_stream input: a base of posts plus a delta schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RivalStream {
    /// Base posts, named `post_<i>`.
    pub base: Vec<PostSpec>,
    /// Deltas in install order.
    pub deltas: Vec<DeltaSpec>,
}

impl RivalStream {
    /// Digest of the whole stream.
    pub fn digest(&self) -> u64 {
        let mut h = self.base.iter().fold(FNV_SEED, |h, &(p, d)| fnv(h, &[p, d]));
        for d in &self.deltas {
            h = d.added.iter().fold(h, |h, &(p, d)| fnv(h, &[p, d]));
            h = d.retracted.iter().fold(h, |h, r| fnv(h, &r.to_le_bytes()));
        }
        h
    }
}

/// `base_posts` base posts and `installs` deltas of `added` new posts
/// and `retracted` retractions of the oldest still-live base posts.
pub fn rival_stream(
    seed: u64,
    base_posts: usize,
    installs: usize,
    added: usize,
    retracted: usize,
) -> RivalStream {
    let mut rng = Rng::new(seed, 2);
    let post = |rng: &mut Rng| (rng.below(10) as u8, rng.below(DAYS) as u8);
    let base = (0..base_posts).map(|_| post(&mut rng)).collect();
    let deltas = (0..installs)
        .map(|r| DeltaSpec {
            added: (0..added).map(|_| post(&mut rng)).collect(),
            retracted: (0..retracted)
                .map(|j| (r * retracted + j) as u32)
                .filter(|&i| (i as usize) < base_posts)
                .collect(),
        })
        .collect();
    RivalStream { base, deltas }
}

/// The live_stream drill-downs: per-day mention counts for one
/// product, at three LIMITs — 30 distinct texts.
pub fn drilldown_texts() -> Vec<String> {
    let mut out = Vec::new();
    for prod in products() {
        for limit in [5, 10, 20] {
            out.push(format!(
                "SELECT ?d COUNT(?post) AS ?n WHERE {{ ?post mentions {prod} . ?post postedOn ?d }} \
                 GROUP BY ?d ORDER BY DESC(?n) ?d LIMIT {limit}"
            ));
        }
    }
    out
}

/// Share of live_stream reads that are drill-downs.
pub const LIVE_ANALYTIC_SHARE: f64 = 0.2;

/// The live_stream reader's op ring: point reads `post_k mentions ?p`
/// over base posts, and drill-downs.
pub fn live_read_ops(seed: u64, len: usize, base_posts: usize) -> Vec<ReadOp> {
    let drill = drilldown_texts();
    let mut rng = Rng::new(seed, 3);
    (0..len)
        .map(|_| {
            if rng.unit() < LIVE_ANALYTIC_SHARE {
                ReadOp { class: Class::Analytic, text: drill[rng.below(drill.len())].clone() }
            } else {
                ReadOp {
                    class: Class::Point,
                    text: format!("post_{} mentions ?p", rng.below(base_posts)),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_ops(ops: &[ReadOp]) -> u64 {
        ops.iter().fold(FNV_SEED, |h, op| fnv(h, op.text.as_bytes()))
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(skewed_triples(20_000, 5), skewed_triples(20_000, 5));
        assert_ne!(skewed_triples(20_000, 5), skewed_triples(20_000, 6));
        let a = read_mixed_ops(5, 0, 4096, 5_000);
        assert_eq!(digest_ops(&a), digest_ops(&read_mixed_ops(5, 0, 4096, 5_000)));
        assert_ne!(digest_ops(&a), digest_ops(&read_mixed_ops(5, 1, 4096, 5_000)));
        assert_ne!(digest_ops(&a), digest_ops(&read_mixed_ops(6, 0, 4096, 5_000)));
        assert_eq!(rival_stream(5, 1000, 20, 40, 20), rival_stream(5, 1000, 20, 40, 20));
        assert_ne!(rival_stream(5, 1000, 20, 40, 20), rival_stream(6, 1000, 20, 40, 20));
        assert_eq!(
            rival_stream(5, 1000, 20, 40, 20).digest(),
            rival_stream(5, 1000, 20, 40, 20).digest()
        );
        assert_ne!(
            rival_stream(5, 1000, 20, 40, 20).digest(),
            rival_stream(6, 1000, 20, 40, 20).digest()
        );
        let t = skewed_triples(20_000, 5);
        assert_eq!(
            digest_inputs(&t, std::slice::from_ref(&a)),
            digest_inputs(&skewed_triples(20_000, 5), std::slice::from_ref(&a))
        );
        assert_ne!(
            digest_inputs(&t, std::slice::from_ref(&a)),
            digest_inputs(&skewed_triples(20_000, 6), std::slice::from_ref(&a))
        );
        assert_eq!(live_read_ops(5, 1000, 500), live_read_ops(5, 1000, 500));
    }

    #[test]
    fn skewed_kb_has_the_specified_shape() {
        let t = skewed_triples(100_000, 1);
        let share = |rel: u8| t.iter().filter(|x| x.1 == rel).count();
        assert_eq!([share(0), share(1), share(2), share(3)], [80_000, 12_000, 8_000, 50]);
        assert!(t.iter().all(|&(s, _, o)| (s as usize) < 25_000 && (o as usize) < 25_000));
    }

    #[test]
    fn op_mix_comes_out_as_specified() {
        let ops = read_mixed_ops(9, 0, 65_536, SKEWED_ENTITIES);
        let n = ops.len() as f64;
        let point = ops.iter().filter(|o| o.text.ends_with("rel_big ?o")).count() as f64 / n;
        let star = ops.iter().filter(|o| o.text.starts_with("SELECT ?y ?z")).count() as f64 / n;
        let analytic = ops.iter().filter(|o| o.class == Class::Analytic).count() as f64 / n;
        assert!((point - MIX[0]).abs() < 0.01, "point share {point}");
        assert!((star - MIX[1]).abs() < 0.01, "star share {star}");
        assert!((analytic - MIX[2]).abs() < 0.01, "analytic share {analytic}");
        let distinct: std::collections::HashSet<_> =
            ops.iter().filter(|o| o.class == Class::Analytic).map(|o| &o.text).collect();
        assert_eq!(distinct.len(), ANALYTIC_TEXTS);

        let live = live_read_ops(9, 65_536, 50_000);
        let drill = live.iter().filter(|o| o.class == Class::Analytic).count() as f64 / 65_536.0;
        assert!((drill - LIVE_ANALYTIC_SHARE).abs() < 0.01, "drill-down share {drill}");
    }

    #[test]
    fn zipf_head_share_comes_out_as_specified() {
        let n = SKEWED_ENTITIES;
        let zipf = Zipf::new(n, ZIPF_S);
        // Zipf(1) over 250k keys: the top 1% of keys carry
        // H(2500) / H(250000) ≈ 0.646 of the draws.
        let expected = zipf.head_share(n / 100);
        assert!((expected - 0.646).abs() < 0.002, "analytic head share {expected}");
        let mut rng = Rng::new(3, 0);
        let draws = 200_000;
        let head = (0..draws).filter(|_| zipf.sample(&mut rng) < n / 100).count();
        let measured = head as f64 / draws as f64;
        assert!((measured - expected).abs() < 0.005, "measured head share {measured}");
        // Distinct keys in one client's ring far exceed the 256-entry
        // per-partition result cache.
        let ops = read_mixed_ops(3, 0, 65_536, n);
        let distinct: std::collections::HashSet<_> = ops.iter().map(|o| &o.text).collect();
        assert!(distinct.len() > 20 * 256, "only {} distinct texts", distinct.len());
    }

    #[test]
    fn rank_mapping_stays_in_range_and_spreads() {
        let hits: std::collections::HashSet<_> =
            (0..10_000).map(|r| rank_to_entity(r, 250_000, 77)).collect();
        assert!(hits.iter().all(|&e| e < 250_000));
        assert!(hits.len() > 9_900, "{} distinct of 10000", hits.len());
    }

    #[test]
    fn rival_stream_retracts_oldest_first() {
        let s = rival_stream(1, 1000, 10, 40, 20);
        assert_eq!(s.deltas[0].retracted, (0..20).collect::<Vec<u32>>());
        assert_eq!(s.deltas[9].retracted, (180..200).collect::<Vec<u32>>());
        assert!(s.deltas.iter().all(|d| d.added.len() == 40));
        assert!(s.base.iter().all(|&(p, d)| p < 10 && (d as usize) < DAYS));
    }
}
