//! E2 — Lemmas 3-5: Monge (min,+) product vs the naive product.
//! Paper claim: O(alpha*beta) work instead of O(alpha*beta*gamma); the bench
//! shows the widening gap and the parallel speedup of the SMAWK-based product
//! (`monge_smawk` is the same product on a one-worker pool, which is built
//! once per benchmark, outside the timed loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_monge::monge::distance_monge;
use rsp_monge::multiply::{min_plus_general_parallel, min_plus_naive, min_plus_parallel};
use rsp_pram::pool::run_on_pool;

fn factors(n: usize, seed: u64) -> (rsp_monge::MinPlusMatrix, rsp_monge::MinPlusMatrix) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = |k: usize| {
        let mut v: Vec<i64> = (0..k).map(|_| rng.gen_range(-10_000..10_000)).collect();
        v.sort();
        v
    };
    let xs = coords(n);
    let ys = coords(n);
    let zs = coords(n);
    (distance_monge(&xs, &ys, 17), distance_monge(&ys, &zs, 11))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_monge_product");
    group.sample_size(10);
    for &n in &[64usize, 128, 256, 512] {
        let (a, b) = factors(n, 3);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| bch.iter(|| min_plus_naive(&a, &b)));
        group.bench_with_input(BenchmarkId::new("monge_smawk", n), &n, |bch, _| {
            run_on_pool(1, || bch.iter(|| min_plus_parallel(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("monge_parallel", n), &n, |bch, _| {
            bch.iter(|| min_plus_parallel(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("general_parallel", n), &n, |bch, _| {
            bch.iter(|| min_plus_general_parallel(&a, &b))
        });
    }
    // one larger size where the naive product is no longer measured
    for &n in &[1024usize, 2048] {
        let (a, b) = factors(n, 4);
        group.bench_with_input(BenchmarkId::new("monge_parallel", n), &n, |bch, _| {
            bch.iter(|| min_plus_parallel(&a, &b))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
