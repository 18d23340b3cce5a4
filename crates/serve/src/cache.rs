//! The cross-job artifact cache — the heart of the daemon.
//!
//! Every synthesis job needs the same expensive prologue, packaged as
//! [`CircuitArtifacts`]: parse (or generate) the circuit, technology-map it
//! for the golden area/delay headline, run the abstract interpreter's
//! signal-probability pass, and simulate the golden network once per
//! (pattern count, seed). `als sweep` amortizes that bundle *within* one
//! process invocation; this cache amortizes it *across* requests: entries
//! are keyed by circuit content hash ([`CircuitSource::cache_key`]), so a
//! repeated request for the same circuit at a new threshold skips the
//! parse, mapping, absint and golden-simulation phases entirely and goes
//! straight to the selection loop — with results bit-for-bit those of a
//! cold single-shot `approximate()` (see [`CircuitArtifacts`]).

use crate::protocol::{CircuitSource, ErrorCode, ProtocolError};
use als_core::{AlsError, CircuitArtifacts};
use als_network::{blif, Network};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Wire names of the artifacts the cache amortizes, as reported in
/// `artifact_cache` telemetry events and result-frame `"cache"` objects.
pub const ARTIFACT_KINDS: [&str; 3] = ["network", "signatures", "absint"];

/// The FIFO-evicting cross-job cache, keyed by circuit content hash.
///
/// Counters tally *artifact-level* lookups: a circuit-entry hit serves
/// two artifacts at once (network, absint summary) and counts as two hits;
/// each golden-signature context lookup counts separately.
/// These are the numbers the daemon's `stats` frame reports and the
/// per-job `MetricsReport.artifact_cache_{hits,misses}` counters break
/// down per job.
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: BTreeMap<u64, Arc<CircuitArtifacts>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// Artifacts a circuit-entry lookup serves at once (network + absint);
/// golden-signature contexts are counted separately.
pub const CIRCUIT_LEVEL_ARTIFACTS: u64 = 2;

impl ArtifactCache {
    /// A cache holding at most `capacity` circuits (at least one).
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Resolves a circuit source to its shared artifacts, building (and
    /// caching) them on first sight. Returns whether the circuit entry was
    /// a cache hit. The build runs under the cache lock, so a burst of
    /// first requests for one circuit parses and maps it exactly once.
    pub fn lookup(
        &self,
        source: &CircuitSource,
    ) -> Result<(Arc<CircuitArtifacts>, bool), ProtocolError> {
        let key = source.cache_key();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(arts) = inner.entries.get(&key) {
            self.hits
                .fetch_add(CIRCUIT_LEVEL_ARTIFACTS, Ordering::Relaxed);
            return Ok((Arc::clone(arts), true));
        }
        let arts = Arc::new(CircuitArtifacts::build(resolve_network(source)?).map_err(
            |e| match e {
                AlsError::InvalidNetwork(m) => ProtocolError::new(
                    ErrorCode::BadCircuit,
                    format!("network fails its consistency check: {m}"),
                ),
                other => ProtocolError::new(ErrorCode::BadCircuit, other.to_string()),
            },
        )?);
        inner.entries.insert(key, Arc::clone(&arts));
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.entries.remove(&evicted);
            }
        }
        self.misses
            .fetch_add(CIRCUIT_LEVEL_ARTIFACTS, Ordering::Relaxed);
        Ok((arts, false))
    }

    /// Tallies one golden-signature context lookup (the `"signatures"`
    /// artifact) into the cache counters.
    pub fn record_context_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Artifact-level cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Artifact-level cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Circuits currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the cache holds no circuits yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves a circuit source into a network (checked by
/// [`CircuitArtifacts::build`]).
fn resolve_network(source: &CircuitSource) -> Result<Network, ProtocolError> {
    match source {
        CircuitSource::Blif(text) => blif::parse(text).map_err(|e| {
            ProtocolError::new(ErrorCode::BadCircuit, format!("BLIF parse error: {e}"))
        }),
        CircuitSource::Bench(name) => als_circuits::registry::find_benchmark(name)
            .map(|bench| (bench.build)())
            .ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::BadCircuit,
                    format!("unknown benchmark `{name}` (see `als list`)"),
                )
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str) -> CircuitSource {
        CircuitSource::Bench(name.to_string())
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let cache = ArtifactCache::new(4);
        let (a, hit_a) = cache.lookup(&bench("RCA32")).unwrap();
        let (b, hit_b) = cache.lookup(&bench("RCA32")).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), CIRCUIT_LEVEL_ARTIFACTS);
        assert_eq!(cache.misses(), CIRCUIT_LEVEL_ARTIFACTS);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = ArtifactCache::new(2);
        cache.lookup(&bench("RCA32")).unwrap();
        cache.lookup(&bench("CLA32")).unwrap();
        cache.lookup(&bench("KSA32")).unwrap();
        assert_eq!(cache.len(), 2);
        // RCA32 (the oldest) was evicted: looking it up again is a miss.
        let (_, hit) = cache.lookup(&bench("RCA32")).unwrap();
        assert!(!hit);
    }

    #[test]
    fn unknown_sources_are_typed_errors() {
        let cache = ArtifactCache::new(2);
        let err = cache.lookup(&bench("no-such-bench")).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadCircuit);
        let err = cache
            .lookup(&CircuitSource::Blif("not blif".to_string()))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadCircuit);
        assert_eq!(cache.len(), 0);
    }
}
