//! Model tests for the lock-striped concurrency primitives, run under
//! the `loom` harness (see `vendor/loom`: a stress-iterating stand-in
//! for real loom's exhaustive schedule exploration; `RUSTFLAGS="--cfg
//! loom"` raises the iteration count the way real loom runs do).
//!
//! Each model spawns racing threads over one shared structure and then
//! asserts the structure's internal invariants — the striped position
//! map (`fresh[pos[id]] == id`), stripe-local id ownership, the atomic
//! length counters, and the H index agreeing with the admit-locked
//! `HCache` — survived the interleaving.

use icache_core::{
    ConcurrentCache, ConcurrentManager, FreshPool, IcacheConfig, InflightWindow, StripedMap,
};
use icache_sampling::{HList, ImportanceTable};
use icache_storage::LocalTier;
use icache_types::{
    splitmix64, ByteSize, DatasetBuilder, Epoch, JobId, SampleId, SeedSequence, SimTime, SizeModel,
};

#[test]
fn striped_map_survives_racing_inserts_and_removes() {
    loom::model(|| {
        let map = StripedMap::<u32>::new(4);
        std::thread::scope(|s| {
            // Two writers over overlapping id ranges plus a remover.
            s.spawn(|| {
                for i in 0..60u64 {
                    map.insert(SampleId(i), 1);
                }
            });
            s.spawn(|| {
                for i in 30..90u64 {
                    map.insert(SampleId(i), 2);
                }
            });
            s.spawn(|| {
                for i in (0..90u64).step_by(3) {
                    map.remove(SampleId(i));
                }
            });
        });
        assert!(map.check_invariants(), "striped map invariants violated");
        // Everything never touched by the remover must be present.
        for i in 0..60u64 {
            if i % 3 != 0 {
                assert!(map.contains(SampleId(i)), "lost sample {i}");
            }
        }
    });
}

#[test]
fn fresh_pool_position_map_survives_draw_push_race() {
    loom::model(|| {
        let pool = FreshPool::new(4);
        for i in 0..40u64 {
            pool.push(SampleId(i));
        }
        let drawn = std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                for i in 40..80u64 {
                    pool.push(SampleId(i));
                }
            });
            let drawer = s.spawn(|| {
                let mut rng = SeedSequence::new(7).rng("model-drawer");
                let mut drawn = Vec::new();
                for _ in 0..30 {
                    if let Some(id) = pool.draw(&mut rng) {
                        drawn.push(id);
                    }
                }
                drawn
            });
            let remover = s.spawn(|| {
                for i in (0..40u64).step_by(4) {
                    pool.remove(SampleId(i));
                }
            });
            pusher.join().expect("pusher thread panicked");
            remover.join().expect("remover thread panicked");
            drawer.join().expect("drawer thread panicked")
        });
        assert!(pool.check_invariants(), "fresh-pool position map broken");
        // A draw removes: no drawn id may still be in the pool, and no
        // id is drawn twice.
        let mut seen = std::collections::BTreeSet::new();
        for id in drawn {
            assert!(seen.insert(id), "sample {id} drawn twice");
            assert!(!pool.remove(id), "drawn sample {id} still pooled");
        }
    });
}

#[test]
fn inflight_window_survives_producer_consumer_race() {
    const DEPTH: usize = 4;
    const POSITIONS: u64 = 48;
    loom::model(|| {
        let window = InflightWindow::new(DEPTH);
        let (issued, delivered) = std::thread::scope(|s| {
            // Producer: sweep the plan repeatedly, issuing whatever the
            // window admits (a full window or an already-delivered
            // position refuses the issue, exactly like the pipeline's
            // pump loop).
            let producer = s.spawn(|| {
                let mut issued = Vec::new();
                for _ in 0..3 {
                    for pos in 0..POSITIONS {
                        if window.try_issue(pos) {
                            issued.push(pos);
                        }
                    }
                }
                issued
            });
            // Consumer: deliver every position it observes in flight,
            // retrying the sweep so it drains what the producer issues.
            let consumer = s.spawn(|| {
                let mut delivered = Vec::new();
                for _ in 0..3 {
                    for pos in 0..POSITIONS {
                        if window.consume(pos) {
                            delivered.push(pos);
                        }
                    }
                }
                delivered
            });
            (
                producer.join().expect("producer thread panicked"),
                consumer.join().expect("consumer thread panicked"),
            )
        });
        assert!(window.check_invariants(), "window invariants violated");
        assert!(
            window.max_in_flight() <= DEPTH,
            "window overflowed: {} > {DEPTH}",
            window.max_in_flight()
        );
        // No position is ever issued twice or delivered twice.
        let mut seen = std::collections::BTreeSet::new();
        for &pos in &issued {
            assert!(seen.insert(pos), "position {pos} issued twice");
        }
        seen.clear();
        for &pos in &delivered {
            assert!(seen.insert(pos), "position {pos} delivered twice");
        }
        // Every delivery consumes an issue; the rest are still in flight.
        assert!(
            delivered.len() <= issued.len(),
            "delivered more than issued"
        );
        assert_eq!(window.issued() as usize, issued.len());
        assert_eq!(window.consumed() as usize, delivered.len());
        assert_eq!(window.in_flight(), issued.len() - delivered.len());
        for &pos in &delivered {
            assert!(issued.contains(&pos), "position {pos} delivered unissued");
        }
    });
}

#[test]
fn concurrent_manager_survives_racing_h_admissions() {
    // Every fetch below is an H-sample, and the H-set is several times
    // the H-region: misses race each other into `HCache::admit` under
    // the admit lock, with multi-victim evictions and rejections, while
    // hits read the striped index.
    let ds = DatasetBuilder::new("loom-h", 256)
        .size_model(SizeModel::LogNormal {
            mu: 8.3,
            sigma: 0.8,
            min: ByteSize::kib(1),
            max: ByteSize::kib(32),
        })
        .build()
        .expect("valid model dataset");
    let mut table = ImportanceTable::new(ds.len());
    for i in 0..ds.len() {
        table.record_loss(SampleId(i), 1.0 + (splitmix64(i) % 1000) as f64);
    }
    let hlist = HList::top_fraction(&table, 0.5);
    let h_ids: Vec<SampleId> = hlist.entries().iter().map(|e| e.id).collect();
    let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).expect("valid model config");
    cfg.package_size = ByteSize::kib(16);
    loom::model(move || {
        for threads in 2..=4usize {
            let m = ConcurrentManager::new(cfg.clone(), &ds, 4).expect("valid model manager");
            m.update_hlist(JobId(0), &hlist);
            m.on_epoch_start(JobId(0), Epoch(0));
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (m, ds, h_ids) = (&m, &ds, &h_ids);
                    s.spawn(move || {
                        let mut storage = LocalTier::tmpfs();
                        let mut rng = SeedSequence::new(9).rng(&format!("loader{t}"));
                        let mut now = SimTime::ZERO;
                        // Each thread strides through the H-set (out of
                        // importance order) from its own offset, twice,
                        // so threads miss on the same ids.
                        for k in 0..2 * h_ids.len() {
                            let id = h_ids[(k * 37 + t * 7) % h_ids.len()];
                            let f = m.fetch(
                                JobId(0),
                                id,
                                ds.sample_size(id),
                                now,
                                &mut storage,
                                &mut rng,
                            );
                            now = f.ready_at;
                        }
                    });
                }
            });
            assert!(
                m.used_bytes() <= m.capacity(),
                "{threads} threads overfilled"
            );
            assert!(
                m.check_invariants(),
                "H index diverged from the HCache residents"
            );
            let s = m.stats();
            assert!(s.evictions > 0, "the model must exercise eviction");
            assert_eq!(
                s.insertions - s.evictions,
                m.h_len() as u64,
                "{threads} threads: insertions − evictions must equal H residents"
            );
        }
    });
}
