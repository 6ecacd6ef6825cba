//! E3 — Section 5 / Theorem 3: building the boundary matrix D_Q.
//! Paper claim: O(log^2 n) time, O(n^2) work.  The bench sweeps n and also
//! runs the ablation with the Monge product disabled (general product in the
//! conquer step), showing what the Monge machinery buys, and the same build
//! on a one-worker pool (the sequential schedule of the `rayon::join`
//! recursion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_core::dnc::{build_boundary_matrix_bbox, DncOptions};
use rsp_pram::pool::run_on_pool;
use rsp_workload::uniform_disjoint;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_boundary_matrix");
    group.sample_size(10);
    for &n in &[16usize, 32, 64, 96] {
        let w = uniform_disjoint(n, 7);
        group.bench_with_input(BenchmarkId::new("dnc_monge", n), &w.obstacles, |b, obs| {
            b.iter(|| build_boundary_matrix_bbox(obs, 3, &DncOptions::default()).stats.nodes)
        });
        group.bench_with_input(BenchmarkId::new("dnc_no_monge", n), &w.obstacles, |b, obs| {
            b.iter(|| build_boundary_matrix_bbox(obs, 3, &DncOptions { use_monge: false }).stats.nodes)
        });
        group.bench_with_input(BenchmarkId::new("dnc_sequential_schedule", n), &w.obstacles, |b, obs| {
            run_on_pool(1, || b.iter(|| build_boundary_matrix_bbox(obs, 3, &DncOptions::default()).stats.nodes))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
