//! Microbench: the candidate-evaluation engine's parallel speedup.
//!
//! A full engine refresh (every internal node priced from scratch) on a
//! 32-bit ripple-carry adder, swept over worker counts. The acceptance bar
//! for the engine is that some multi-threaded count beats one thread here;
//! `refresh` reduces worker results in node-id order, so the *candidates*
//! are identical at every count — only the wall clock moves.

use als_circuits::ripple_carry_adder;
use als_core::{AlsConfig, AlsContext, CandidateEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_parallel_refresh(c: &mut Criterion) {
    let net = ripple_carry_adder(32);
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let config = AlsConfig::builder()
            .threshold(0.05)
            .patterns(2048)
            .threads(threads)
            .build()
            .expect("valid bench config");
        let ctx = AlsContext::new(&net, &config);
        group.bench_with_input(
            BenchmarkId::new("refresh/RCA32", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    // A fresh engine per iteration so every refresh re-prices
                    // all nodes (a warm cache would measure nothing).
                    let mut engine = CandidateEngine::new(black_box(&config), true);
                    engine.refresh(black_box(&net), black_box(&ctx));
                    black_box(engine.last_evaluated().len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_refresh);
criterion_main!(benches);
