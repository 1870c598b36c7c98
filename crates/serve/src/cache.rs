//! The scenario cache: compiled solver state keyed by the scenario that
//! produced it, sharded per worker with work stealing on miss.
//!
//! An entry is whatever compiled state its kind reuses — a grid
//! session, a sweep engine, a finished droop document — held as a
//! `Box<dyn Any + Send>`. The key's kind fixes the type, and the
//! dispatcher's one check-out (`Dispatcher::checkout` in
//! [`crate::engine`]) downcasts it, so this module names no engine
//! type.
//!
//! Entries are **checked out** ([`ScenarioCache::take_for`]) rather
//! than borrowed: a shard lock is held only for the map operation,
//! never across a solve, so a slow analysis on one key cannot block
//! cache traffic on another. After use the entry is checked back in
//! ([`ScenarioCache::put_for`]), which also refreshes its recency. Two
//! concurrent requests for the same key simply both miss — each
//! compiles cold, the last check-in wins, and the determinism contract
//! (cache hit ≡ cold compile, bit for bit) makes the race harmless.
//!
//! # Worker sharding and stealing
//!
//! The cache keeps one shard per pool worker, so in steady state a
//! worker's check-outs and check-ins touch only its own lock — zero
//! cross-worker contention on the hot path. When a worker's home shard
//! misses, it **steals**: the other shards are probed (cheapest lock
//! walk, in order) and a hit migrates the entry to the stealing
//! worker's shard at check-in. Compiled state therefore follows the
//! work instead of being recompiled per worker.
//!
//! Eviction is least-recently-used per shard: the configured capacity
//! is split across shards, and a full shard evicts its own oldest
//! entry. Hits, misses, steals, and evictions are surfaced through
//! `vpd-obs` (`serve.cache.*`) and through [`ScenarioCache::stats`].
//!
//! # One audited keying API
//!
//! Every request kind derives its cache key through
//! [`ScenarioKey::from_work`] — the single place that decides which
//! request parameters shape compiled state (and therefore the key) and
//! which are RHS-only (and therefore deliberately excluded, like
//! `sharing_sweep` setpoints or `mc` sample counts).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vpd_converters::VrTopologyKind;
use vpd_core::VrPlacement;

use crate::proto::Work;

/// The paper-default die power (watts) pinned into `mc` session keys,
/// shared with the `analyze` default so the two kinds share entries.
pub(crate) const PAPER_POWER_W: f64 = 1000.0;
/// The paper-default current density (A/mm²), likewise.
pub(crate) const PAPER_DENSITY: f64 = 2.0;

pub(crate) fn topology_tag(t: VrTopologyKind) -> u64 {
    match t {
        VrTopologyKind::Dsch => 0,
        VrTopologyKind::Dpmih => 1,
        VrTopologyKind::ThreeLevelHybridDickson => 2,
    }
}

pub(crate) fn placement_tag(p: VrPlacement) -> u64 {
    match p {
        VrPlacement::Periphery => 0,
        VrPlacement::BelowDie => 1,
    }
}

/// What a cache entry is keyed by: the analysis kind plus the scenario
/// parameters that shape the compiled state. Float parameters enter as
/// IEEE-754 bit patterns so the key is `Eq`/`Hash` without tolerance
/// games.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ScenarioKey {
    /// Entry family (`"session"`, `"sharing"`, `"faults"`, …).
    pub kind: &'static str,
    /// Canonical architecture tag (`"A0"`…`"A3@6V"`), empty when the
    /// entry is architecture-independent.
    pub arch: String,
    /// Remaining scenario parameters, each packed to 64 bits.
    pub params: Vec<u64>,
}

impl ScenarioKey {
    /// The one audited constructor: derives the cache key for a unit of
    /// work, or `None` for kinds that carry no compiled state (`ping`,
    /// `stats`, `kinds`, `shutdown`).
    ///
    /// Keying decisions concentrated here:
    ///
    /// * `analyze` and `mc` share `"session"` entries — the compiled
    ///   grid plan depends on (architecture, power, density), never on
    ///   the topology, samples, seed, or thread count. `mc` always runs
    ///   at the paper defaults, so its key pins the paper's 1 kW and
    ///   2 A/mm².
    /// * `sharing_sweep` keys on (placement, modules) only — every
    ///   setpoint is answered from the one nominal solve. It does **not**
    ///   share the plain `sharing` entry: the sweep pins the
    ///   direct-Cholesky plan mode while one-shot sharing stays in the
    ///   CLI's warm-CG mode.
    /// * `faults` keys on the topology (the sweep pre-rates each
    ///   module against its topology limits); `impedance`, `droop`, and
    ///   `transient_stream` key on the architecture alone.
    #[must_use]
    pub fn from_work(work: &Work) -> Option<Self> {
        match work {
            Work::Ping | Work::Stats | Work::Kinds | Work::Shutdown => None,
            Work::Analyze {
                arch,
                power_w,
                density,
                ..
            } => Some(Self {
                kind: "session",
                arch: arch.name(),
                params: vec![power_w.to_bits(), density.to_bits()],
            }),
            Work::Mc { arch, .. } => Some(Self {
                kind: "session",
                arch: arch.name(),
                params: vec![PAPER_POWER_W.to_bits(), PAPER_DENSITY.to_bits()],
            }),
            Work::Sharing { placement, modules } => Some(Self {
                kind: "sharing",
                arch: String::new(),
                params: vec![placement_tag(*placement), *modules as u64],
            }),
            Work::SharingSweep {
                placement, modules, ..
            } => Some(Self {
                kind: "sharing_sweep",
                arch: String::new(),
                params: vec![placement_tag(*placement), *modules as u64],
            }),
            Work::Droop { arch } => Some(Self {
                kind: "droop",
                arch: arch.name(),
                params: Vec::new(),
            }),
            Work::TransientStream { arch, .. } => Some(Self {
                kind: "transient",
                arch: arch.name(),
                params: Vec::new(),
            }),
            Work::Impedance { arch, .. } => Some(Self {
                kind: "impedance",
                arch: arch.name(),
                params: Vec::new(),
            }),
            Work::Faults { arch, topology, .. } => Some(Self {
                kind: "faults",
                arch: arch.name(),
                params: vec![topology_tag(*topology)],
            }),
            // The compiled AC plan depends on the architecture alone:
            // scenarios and the frequency grid are evaluation-time
            // restamps against the same plan.
            Work::FaultImpedance { arch, .. } => Some(Self {
                kind: "fault_impedance",
                arch: arch.name(),
                params: Vec::new(),
            }),
            Work::FaultTransient { arch, .. } => Some(Self {
                kind: "fault_transient",
                arch: arch.name(),
                params: Vec::new(),
            }),
            // The cascade ladder pre-rates modules against their
            // topology limits, so the topology shapes compiled state.
            Work::Survival { arch, topology } => Some(Self {
                kind: "survival",
                arch: arch.name(),
                params: vec![topology_tag(*topology)],
            }),
            // User scenarios key on the document's spelling-invariant
            // content hash (FNV-1a over the canonical rendering): two
            // spellings of the same scenario — including an inline copy
            // of a builtin — share one compiled session.
            Work::Scenario { doc } => Some(Self {
                kind: "scenario",
                arch: String::new(),
                params: vec![doc.content_hash()],
            }),
        }
    }
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Check-outs that found compiled state (home shard or stolen).
    pub hits: u64,
    /// Check-outs that found nothing (including while checked out).
    pub misses: u64,
    /// Hits that found the entry in another worker's shard and
    /// migrated it.
    pub steals: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Shard {
    map: HashMap<ScenarioKey, (u64, Box<dyn Any + Send>)>,
    clock: u64,
    capacity: usize,
}

impl Shard {
    fn evict_lru(&mut self) -> bool {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, _)| k.clone());
        match oldest {
            Some(k) => {
                self.map.remove(&k);
                true
            }
            None => false,
        }
    }
}

/// Worker-sharded LRU of compiled entries. Capacity 0 disables caching
/// entirely (every take misses, every put is dropped) — the bench uses
/// that as its always-cold oracle.
pub struct ScenarioCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    steals: AtomicU64,
    evictions: AtomicU64,
}

impl ScenarioCache {
    /// A cache sharded across `workers` home shards (min 1), splitting
    /// `capacity` slots across them such that the per-shard capacities
    /// sum exactly to `capacity`. Workers address their home shard by
    /// index in [`ScenarioCache::take_for`] / [`ScenarioCache::put_for`].
    #[must_use]
    pub fn for_workers(capacity: usize, workers: usize) -> Self {
        let n_shards = workers.max(1);
        let shards = (0..n_shards)
            .map(|i| {
                let per = capacity / n_shards + usize::from(i < capacity % n_shards);
                Mutex::new(Shard {
                    map: HashMap::new(),
                    clock: 0,
                    capacity: per,
                })
            })
            .collect();
        Self {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn home(&self, worker: usize) -> usize {
        worker % self.shards.len()
    }

    /// Checks an entry out of the cache for `worker`, removing it so
    /// the caller can mutate it without holding any lock. The worker's
    /// home shard is probed first; on a home miss the remaining shards
    /// are probed in order and a hit **steals** the entry (it will
    /// re-home to this worker at check-in). Counts a hit or miss, and a
    /// steal when the hit came from another shard.
    pub fn take_for(&self, worker: usize, key: &ScenarioKey) -> Option<Box<dyn Any + Send>> {
        let home = self.home(worker);
        let probe = |shard: &Mutex<Shard>| {
            shard
                .lock()
                .expect("cache shard poisoned")
                .map
                .remove(key)
                .map(|(_, entry)| entry)
        };
        let mut stolen = false;
        let mut taken = probe(&self.shards[home]);
        if taken.is_none() {
            for (i, shard) in self.shards.iter().enumerate() {
                if i == home {
                    continue;
                }
                taken = probe(shard);
                if taken.is_some() {
                    stolen = true;
                    break;
                }
            }
        }
        if taken.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            vpd_obs::incr("serve.cache.hits");
            if stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                vpd_obs::incr("serve.cache.steals");
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            vpd_obs::incr("serve.cache.misses");
        }
        taken
    }

    /// Checks an entry (back) in to `worker`'s home shard as its most
    /// recently used entry, evicting that shard's LRU entry if it is at
    /// capacity. A zero-capacity shard drops the entry.
    pub fn put_for(&self, worker: usize, key: ScenarioKey, entry: Box<dyn Any + Send>) {
        let mut shard = self.shards[self.home(worker)]
            .lock()
            .expect("cache shard poisoned");
        if shard.capacity == 0 {
            return;
        }
        if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity && shard.evict_lru() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            vpd_obs::incr("serve.cache.evictions");
        }
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, (stamp, entry));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: &'static str, tag: &str) -> ScenarioKey {
        ScenarioKey {
            kind,
            arch: tag.to_owned(),
            params: Vec::new(),
        }
    }

    fn doc(n: i64) -> Box<dyn Any + Send> {
        Box::new(n)
    }

    fn doc_value(e: &(dyn Any + Send)) -> i64 {
        *e.downcast_ref::<i64>().expect("an i64 entry")
    }

    #[test]
    fn take_removes_and_put_restores() {
        let cache = ScenarioCache::for_workers(4, 1);
        assert!(cache.take_for(0, &key("droop", "A0")).is_none());
        cache.put_for(0, key("droop", "A0"), doc(7));
        let got = cache.take_for(0, &key("droop", "A0")).expect("hit");
        assert_eq!(doc_value(&*got), 7);
        // Checked out: a second take misses until checked back in.
        assert!(cache.take_for(0, &key("droop", "A0")).is_none());
        cache.put_for(0, key("droop", "A0"), got);
        assert!(cache.take_for(0, &key("droop", "A0")).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.steals), (2, 2, 0));
    }

    #[test]
    fn lru_evicts_the_oldest_within_a_shard() {
        // Single shard (one worker), capacity 1: the second insert must
        // displace the first.
        let cache = ScenarioCache::for_workers(1, 1);
        cache.put_for(0, key("droop", "A0"), doc(1));
        cache.put_for(0, key("droop", "A1"), doc(2));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.take_for(0, &key("droop", "A0")).is_none());
        assert_eq!(
            doc_value(&*cache.take_for(0, &key("droop", "A1")).unwrap()),
            2
        );
    }

    #[test]
    fn recency_is_refreshed_by_put() {
        // One worker, two slots: touching `a` must make `b` the LRU.
        let cache = ScenarioCache::for_workers(2, 1);
        let (a, b, c) = (key("droop", "A0"), key("droop", "A1"), key("droop", "A2"));
        cache.put_for(0, a.clone(), doc(1));
        cache.put_for(0, b.clone(), doc(2));
        // Touch `a`: check it out and back in, making `b` the LRU.
        let got = cache.take_for(0, &a).unwrap();
        cache.put_for(0, a.clone(), got);
        cache.put_for(0, c.clone(), doc(3));
        assert!(
            cache.take_for(0, &b).is_none(),
            "b was the LRU and is evicted"
        );
        assert!(
            cache.take_for(0, &a).is_some(),
            "a survived: its recency was refreshed"
        );
        assert!(cache.take_for(0, &c).is_some());
    }

    #[test]
    fn workers_steal_across_shards_and_rehome_the_entry() {
        let cache = ScenarioCache::for_workers(8, 4);
        // Worker 0 compiles and checks in; worker 3's home shard is
        // empty, so its take must steal from worker 0's shard.
        cache.put_for(0, key("droop", "A0"), doc(9));
        let got = cache.take_for(3, &key("droop", "A0")).expect("stolen hit");
        assert_eq!(doc_value(&*got), 9);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.steals), (1, 0, 1));
        // Check-in re-homes the entry to worker 3's shard: a second
        // take by worker 3 is now a home hit, not a steal.
        cache.put_for(3, key("droop", "A0"), got);
        assert!(cache.take_for(3, &key("droop", "A0")).is_some());
        assert_eq!(cache.stats().steals, 1, "home hit counts no steal");
    }

    #[test]
    fn capacity_splits_exactly_across_worker_shards() {
        // 5 slots over 4 workers: shard capacities 2,1,1,1. Fill each
        // worker's shard past its share and count survivors.
        let cache = ScenarioCache::for_workers(5, 4);
        for w in 0..4 {
            for i in 0..3 {
                cache.put_for(w, key("droop", &format!("w{w}i{i}")), doc(i));
            }
        }
        assert_eq!(cache.stats().entries, 5);
        assert_eq!(cache.stats().evictions, 7);
    }

    #[test]
    fn from_work_concentrates_every_keying_decision() {
        let parse = |line: &str| crate::proto::Request::parse_line(line).unwrap().work;
        // Meta kinds carry no compiled state.
        for line in [
            r#"{"kind":"ping"}"#,
            r#"{"kind":"stats"}"#,
            r#"{"kind":"kinds"}"#,
            r#"{"kind":"shutdown"}"#,
        ] {
            assert!(ScenarioKey::from_work(&parse(line)).is_none(), "{line}");
        }
        // analyze and mc share the session family at paper defaults.
        let analyze =
            ScenarioKey::from_work(&parse(r#"{"kind":"analyze","params":{"arch":"a2"}}"#)).unwrap();
        let mc = ScenarioKey::from_work(&parse(
            r#"{"kind":"mc","params":{"arch":"a2","samples":7,"seed":3}}"#,
        ))
        .unwrap();
        assert_eq!(analyze, mc, "mc at paper defaults reuses analyze sessions");
        // Non-default analyze power forks the key.
        let hot = ScenarioKey::from_work(&parse(
            r#"{"kind":"analyze","params":{"arch":"a2","power_w":750}}"#,
        ))
        .unwrap();
        assert_ne!(analyze, hot);
        // sharing_sweep excludes setpoints (RHS-only) but is a distinct
        // family from plain sharing (different plan mode).
        let s1 = ScenarioKey::from_work(&parse(
            r#"{"kind":"sharing_sweep","params":{"modules":24,"setpoints":[1.0]}}"#,
        ))
        .unwrap();
        let s2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"sharing_sweep","params":{"modules":24,"setpoints":[0.98,1.02]}}"#,
        ))
        .unwrap();
        assert_eq!(s1, s2, "setpoints are RHS-only and must not key");
        let sharing =
            ScenarioKey::from_work(&parse(r#"{"kind":"sharing","params":{"modules":24}}"#))
                .unwrap();
        assert_ne!(s1, sharing);
        // The dynamic-fault kinds: scenarios and frequency grids are
        // evaluation-time, so fault_impedance keys on the architecture
        // alone; survival keys on the topology (the ladder pre-rates
        // modules against topology limits).
        let z1 = ScenarioKey::from_work(&parse(
            r#"{"kind":"fault_impedance","params":{"arch":"a2","random_k":2,"count":9,"points":16}}"#,
        ))
        .unwrap();
        let z2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"fault_impedance","params":{"arch":"a2"}}"#,
        ))
        .unwrap();
        assert_eq!(z1, z2, "scenarios and grids are restamp-only");
        let t1 = ScenarioKey::from_work(&parse(
            r#"{"kind":"fault_transient","params":{"arch":"a2","count":8}}"#,
        ))
        .unwrap();
        let t2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"fault_transient","params":{"arch":"a2"}}"#,
        ))
        .unwrap();
        assert_eq!(t1, t2, "the failure-time grid is restamp-only");
        let v1 = ScenarioKey::from_work(&parse(
            r#"{"kind":"survival","params":{"arch":"a1","topology":"dsch"}}"#,
        ))
        .unwrap();
        let v2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"survival","params":{"arch":"a1","topology":"dpmih"}}"#,
        ))
        .unwrap();
        assert_ne!(v1, v2);
        // faults keys on topology; mc does not.
        let f1 = ScenarioKey::from_work(&parse(
            r#"{"kind":"faults","params":{"arch":"a1","topology":"dsch"}}"#,
        ))
        .unwrap();
        let f2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"faults","params":{"arch":"a1","topology":"dpmih"}}"#,
        ))
        .unwrap();
        assert_ne!(f1, f2);
        // User scenarios key on the content hash: the checked-in a3-12
        // builtin and a minimal inline spelling of the same scenario
        // share one compiled session.
        let g1 = ScenarioKey::from_work(&parse(r#"{"kind":"scenario","params":{"name":"a3-12"}}"#))
            .unwrap();
        let g2 = ScenarioKey::from_work(&parse(
            r#"{"kind":"scenario","params":{"doc":"[scenario]\narchitecture = \"a3\"\nbus_v = 12\n"}}"#,
        ))
        .unwrap();
        assert_eq!(g1.kind, "scenario");
        assert_eq!(g1, g2, "equivalent spellings must share a cache key");
        let g3 = ScenarioKey::from_work(&parse(r#"{"kind":"scenario","params":{"name":"a3-6"}}"#))
            .unwrap();
        assert_ne!(g1, g3);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ScenarioCache::for_workers(0, 3);
        cache.put_for(1, key("droop", "A0"), doc(1));
        assert!(cache.take_for(1, &key("droop", "A0")).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 0);
    }
}
