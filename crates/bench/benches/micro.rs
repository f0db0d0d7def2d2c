//! Criterion microbenchmarks for the hot data structures and code paths of
//! the ROS2 stack itself (the simulator must be fast enough to sweep the
//! paper's parameter space; these benches keep it honest).

use std::collections::VecDeque;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ros2_buf::{ExtentStore, CRC_CHUNK};
use ros2_daos::checksum::{crc32c, crc32c_combine};
use ros2_daos::{AKey, DKey, Epoch, ObjClass, ObjectId, ValueKind};
use ros2_dpu::{CacheKey, ReadCache};
use ros2_sim::{
    BandwidthServer, EventQueue, LatencyHistogram, ServerPool, SimDuration, SimRng, SimTime, Zipf,
};
use ros2_verbs::{AccessFlags, Expiry, MemoryDomain, NodeId, QpType, RdmaDevice};

fn bench_crc32c(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32c");
    for size in [4096usize, 1 << 20] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| crc32c(std::hint::black_box(&data)))
        });
    }
    // One 4 KiB chunk folded into a running CRC, and the 256 folds of a
    // 1 MiB verify. Each result feeds the next fold.
    for folds in [1u32, 256] {
        g.throughput(Throughput::Elements(folds as u64));
        g.bench_function(format!("combine_4k_x{folds}"), |b| {
            b.iter(|| {
                (0..folds).fold(std::hint::black_box(0x1234_5678), |acc, i| {
                    crc32c_combine(acc, i, 4096)
                })
            })
        });
    }
    g.finish();
}

/// A 1 MiB VOS fetch window over one seeded extent, verified both ways:
/// the record's 256 chunk CRCs compared one for one with the store's
/// cached ones, and the older rule — the recorded CRCs folded into one
/// (256 combines) against `crc_of_range` (256 more) — whose two `u32`s are
/// then compared.
fn bench_vos_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("vos_verify");
    const MIB: u64 = 1 << 20;
    let data = Bytes::from((0..MIB as u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
    let table: Vec<u32> = data.chunks(CRC_CHUNK as usize).map(crc32c).collect();
    let mut store = ExtentStore::new();
    store.write(MIB, data);
    store.seed_crcs(MIB, table.iter().copied());
    g.throughput(Throughput::Bytes(MIB));
    g.bench_function("verify_chunks_1m", |b| {
        b.iter(|| store.verify_chunks(MIB, MIB, std::hint::black_box(&table).iter().copied()))
    });
    g.bench_function("combine_and_crc_of_range_1m", |b| {
        b.iter(|| {
            let recorded = std::hint::black_box(&table)
                .iter()
                .fold(0, |acc, &c| crc32c_combine(acc, c, CRC_CHUNK));
            recorded == store.crc_of_range(MIB, MIB)
        })
    });
    assert_eq!(
        store.stats().crc_bytes_scanned,
        0,
        "both run off the seeded cache"
    );
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        let mut rng = SimRng::new(7);
        b.iter_batched(
            || {
                (0..10_000u64)
                    .map(|_| SimTime::from_nanos(rng.below(1_000_000)))
                    .collect::<Vec<_>>()
            },
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.push(t, i);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_server_pool(c: &mut Criterion) {
    c.bench_function("server_pool/gap_schedule_10k", |b| {
        b.iter(|| {
            let mut pool = ServerPool::new(8);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                let g = pool.submit(t, SimDuration::from_nanos(700));
                t = t.max(g.start);
            }
            pool.jobs_served()
        })
    });
}

/// The booking core's slow path: `next_free` (a pure query that always
/// searches) 8 intervals behind the tail of books of 1 Ki, 64 Ki and
/// 256 Ki spans, beside a binary search (`VecDeque::partition_point`) over
/// the same spans for reference. Each iteration runs `QUERIES` queries.
/// The books hold a 500 ns interval every 1 µs, so 256 Ki spans stay
/// inside the 500 ms of history a resource keeps.
fn bench_interval_book(c: &mut Criterion) {
    const QUERIES: u64 = 64;
    const BEHIND: u64 = 8;
    let mut g = c.benchmark_group("interval_book");
    g.throughput(Throughput::Elements(QUERIES));
    for (label, spans) in [("1Ki", 1u64 << 10), ("64Ki", 1 << 16), ("256Ki", 1 << 18)] {
        let mut pipe = BandwidthServer::new(1_000_000_000); // one byte per ns
        let book: VecDeque<(u64, u64)> = (0..spans).map(|i| (i * 1_000, i * 1_000 + 500)).collect();
        for &(start, end) in &book {
            pipe.transmit(SimTime::from_nanos(start), end - start);
        }
        // Inside the interval `BEHIND` before the last one.
        let from = (spans - 1 - BEHIND) * 1_000 + 250;
        assert_eq!(
            pipe.next_free(SimTime::from_nanos(from)).as_nanos(),
            from + 250
        );
        g.bench_function(format!("next_free_8_behind/{label}"), |b| {
            b.iter(|| {
                (0..QUERIES).fold(0, |acc, _| {
                    acc ^ pipe
                        .next_free(std::hint::black_box(SimTime::from_nanos(from)))
                        .as_nanos()
                })
            })
        });
        g.bench_function(format!("partition_point/{label}"), |b| {
            b.iter(|| {
                (0..QUERIES).fold(0, |acc, _| {
                    let from = std::hint::black_box(from);
                    acc ^ book.partition_point(|&(_, end)| end <= from)
                })
            })
        });
    }
    g.finish();
}

fn bench_rkey_enforcement(c: &mut Criterion) {
    c.bench_function("verbs/remote_read_check_and_copy_4k", |b| {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 24, SimRng::new(3));
        let pd = dev.alloc_pd("t");
        let buf = dev.alloc_buffer(1 << 20, MemoryDomain::HostDram).unwrap();
        let (_, rkey, _) = dev
            .reg_mr(pd, buf, 1 << 20, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(qp, NodeId(1), ros2_verbs::QpId(1)).unwrap();
        dev.execute_remote_write(SimTime::ZERO, qp, rkey, buf, &Bytes::from(vec![1u8; 4096]))
            .unwrap();
        b.iter(|| {
            dev.execute_remote_read(SimTime::ZERO, qp, rkey, buf, 4096)
                .unwrap()
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record_1k_and_p99", |b| {
        let mut rng = SimRng::new(11);
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for _ in 0..1000 {
                h.record(SimDuration::from_nanos(rng.below(10_000_000)));
            }
            h.percentile(0.99)
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("zipf/sample", |b| {
        let z = Zipf::new(1_000_000, 0.9);
        let mut rng = SimRng::new(13);
        b.iter(|| z.sample(&mut rng))
    });
}

/// The DPU read cache's three index operations at the benchmark's
/// residency (512 entries of 16 KiB: 8 dkeys × 64 offsets) and the
/// `fig_cache` sweep's (4 096), so the O(log n) index has a number: a hit,
/// a refill of a resident key, and the range punch of one 16 KiB write
/// (the entry is filled back, so residency holds).
fn bench_read_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_cache");
    let oid = ObjectId::new(ObjClass::Sx, 9);
    let key = |i: u64| {
        let kind = ValueKind::Array {
            offset: (i % 64) << 14,
        };
        CacheKey::new(
            oid,
            DKey::from_u64(i / 64),
            AKey::from_str("data"),
            kind,
            1 << 14,
        )
    };
    let data = ros2_buf::zero_bytes(1 << 14);
    for resident in [512u64, 4096] {
        let mut cache = ReadCache::new(resident << 14);
        let keys: Vec<CacheKey> = (0..resident).map(key).collect();
        for k in &keys {
            cache.fill(k.clone(), data.clone(), 1, Epoch(1));
        }
        // A stride coprime to the residency visits every entry.
        let mut i = 0u64;
        let mut next = move || {
            i = (i + 1237) % resident;
            i as usize
        };
        g.bench_function(format!("probe_hit/{resident}"), |b| {
            b.iter(|| cache.probe(&keys[next()], 1, Epoch(1)).is_some())
        });
        g.bench_function(format!("fill/{resident}"), |b| {
            b.iter(|| cache.fill(keys[next()].clone(), data.clone(), 1, Epoch(1)))
        });
        g.bench_function(format!("punch_16k_and_refill/{resident}"), |b| {
            b.iter(|| {
                let k = &keys[next()];
                let dropped = cache.punch(k);
                cache.fill(k.clone(), data.clone(), 1, Epoch(1));
                dropped
            })
        });
        assert_eq!(cache.len() as u64, resident);
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_read_cache,
    bench_crc32c,
    bench_vos_verify,
    bench_event_queue,
    bench_server_pool,
    bench_interval_book,
    bench_rkey_enforcement,
    bench_histogram,
    bench_zipf
);
criterion_main!(benches);
