//! Scheduler performance: the empirical side of Theorem 3.5's
//! `Θ(poly(B·|V|))` and Theorem 3.8's bounded-in-degree claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pebblyn::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_dwt_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("dwt_opt");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [64usize, 128, 256] {
        let d = DwtGraph::max_level(n).unwrap();
        let dwt = DwtGraph::new(n, d, WeightScheme::Equal(16)).unwrap();
        let budget = 12 * 16;
        group.bench_with_input(BenchmarkId::new("min_cost", n), &dwt, |b, dwt| {
            b.iter(|| black_box(dwt_opt::min_cost(dwt, black_box(budget))));
        });
        group.bench_with_input(BenchmarkId::new("schedule", n), &dwt, |b, dwt| {
            b.iter(|| black_box(dwt_opt::schedule(dwt, black_box(budget))));
        });
    }
    // Budget scaling at fixed size (the B in Θ(poly(B·|V|))).
    let dwt = DwtGraph::new(256, 8, WeightScheme::DoubleAccumulator(16)).unwrap();
    for budget in [288u64, 1024, 8192] {
        group.bench_with_input(
            BenchmarkId::new("min_cost_budget", budget),
            &budget,
            |b, &budget| {
                b.iter(|| black_box(dwt_opt::min_cost(&dwt, budget)));
            },
        );
    }
    group.finish();
}

fn bench_kary(c: &mut Criterion) {
    let mut group = c.benchmark_group("kary");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for k in [2usize, 3, 4] {
        let depth = match k {
            2 => 7,
            3 => 4,
            _ => 3,
        };
        let tree = pebblyn::graphs::tree::full_kary(k, depth, WeightScheme::Equal(4)).unwrap();
        let budget = (k as u64 + 3) * 8;
        group.bench_with_input(
            BenchmarkId::new("min_cost", format!("k{k}_n{}", tree.len())),
            &tree,
            |b, tree| {
                b.iter(|| black_box(kary::min_cost(tree, black_box(budget))));
            },
        );
    }
    group.finish();
}

fn bench_mvm_tiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvm_tiling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let mvm = MvmGraph::new(96, 120, WeightScheme::Equal(16)).unwrap();
    group.bench_function("best_config_search", |b| {
        b.iter(|| black_box(mvm_tiling::best_config(&mvm, black_box(99 * 16))));
    });
    group.bench_function("schedule_emission", |b| {
        let cfg = mvm_tiling::best_config(&mvm, 99 * 16).unwrap();
        b.iter(|| black_box(mvm_tiling::schedule_with_config(&mvm, &cfg)));
    });
    group.finish();
}

fn bench_layer_by_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_by_layer");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dwt = DwtGraph::new(256, 8, WeightScheme::Equal(16)).unwrap();
    for words in [16u64, 128] {
        group.bench_with_input(BenchmarkId::new("dwt256", words), &words, |b, &w| {
            b.iter(|| {
                black_box(layer_by_layer::schedule(
                    &dwt,
                    w * 16,
                    LayerByLayerOptions::default(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_min_memory_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_memory");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let dwt = DwtGraph::new(256, 8, WeightScheme::Equal(16)).unwrap();
    let lb = algorithmic_lower_bound(dwt.cdag());
    group.bench_function("dwt256_bisect", |b| {
        b.iter(|| {
            black_box(min_memory(
                |bud| dwt_opt::min_cost(&dwt, bud),
                lb,
                MinMemoryOptions::for_graph(dwt.cdag()).monotone(true),
            ))
        });
    });
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    // Streaming FIR scheduler at BCI scale.
    let conv = ConvGraph::new(1024, 32, WeightScheme::Equal(16)).unwrap();
    group.bench_function("conv_stream_1024x32", |b| {
        let budget = conv_stream::min_memory(&conv);
        b.iter(|| black_box(conv_stream::schedule(&conv, black_box(budget))));
    });

    // Banded MVM streaming.
    let band =
        pebblyn::graphs::banded::BandedMvmGraph::new(512, 16, WeightScheme::Equal(16)).unwrap();
    group.bench_function("banded_stream_512x16", |b| {
        let budget = pebblyn::schedulers::banded_stream::min_memory(&band);
        b.iter(|| {
            black_box(pebblyn::schedulers::banded_stream::schedule(
                &band,
                black_box(budget),
            ))
        });
    });

    // Belady eviction on an FFT butterfly.
    let fft = pebblyn::graphs::testgraphs::fft_butterfly(6, WeightScheme::Equal(16)).unwrap();
    group.bench_function("belady_fft64", |b| {
        let budget = pebblyn::core::min_feasible_budget(&fft) + 32 * 16;
        b.iter(|| black_box(greedy_belady::schedule(&fft, black_box(budget))));
    });

    // Peephole over a large salted schedule.
    let dwt = DwtGraph::new(256, 8, WeightScheme::Equal(16)).unwrap();
    let sched = dwt_opt::schedule(&dwt, 160).unwrap();
    group.bench_function("peephole_dwt256", |b| {
        b.iter(|| black_box(peephole(dwt.cdag(), &sched)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dwt_opt,
    bench_kary,
    bench_mvm_tiling,
    bench_layer_by_layer,
    bench_min_memory_search,
    bench_extensions
);
criterion_main!(benches);
