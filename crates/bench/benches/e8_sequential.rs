//! E8 — Section 9: the sequential all-pairs construction (one sweep skeleton
//! per scene, then one single-source sweep per vertex, run on a one-worker
//! pool built outside the timed loop) vs the naive per-source Dijkstra
//! baseline.
//! Paper claim: the §9 construction beats the quadratic-graph Dijkstra by a
//! wide margin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsp_core::apsp::VertexApsp;
use rsp_core::baseline::dijkstra_sssp_matrix;
use rsp_pram::pool::run_on_pool;
use rsp_workload::uniform_disjoint;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_sequential_construction");
    group.sample_size(10);
    for &n in &[16usize, 32, 64, 128] {
        let w = uniform_disjoint(n, 17);
        group.bench_with_input(BenchmarkId::new("section9_sequential", n), &w.obstacles, |b, obs| {
            run_on_pool(1, || b.iter(|| VertexApsp::build(obs).len()))
        });
        if n <= 64 {
            group.bench_with_input(BenchmarkId::new("hanan_dijkstra_per_source", n), &w.obstacles, |b, obs| {
                b.iter(|| dijkstra_sssp_matrix(obs).rows())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
