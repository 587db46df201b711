//! Criterion: the Fx-style hasher vs the default SipHash on the workloads
//! that dominate blocking (token maps, pair keys): the hashing ablation.
//! One of the criterion benches of `crates/bench` (`README.md`, "Workspace
//! layout"); the repo's performance benchmark is `benchmark/README.md`.

use blast_datamodel::hash::FastMap;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_hashing(c: &mut Criterion) {
    let tokens: Vec<String> = (0..20_000).map(|i| format!("token{i}")).collect();
    let pairs: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 977, i % 1013)).collect();

    let mut g = c.benchmark_group("hashing");
    g.sample_size(20);

    g.bench_function("fx/string_keys", |b| {
        b.iter(|| {
            let mut m: FastMap<&str, u32> = FastMap::default();
            for (i, t) in tokens.iter().enumerate() {
                m.insert(black_box(t.as_str()), i as u32);
            }
            m.len()
        })
    });
    g.bench_function("siphash/string_keys", |b| {
        b.iter(|| {
            let mut m: HashMap<&str, u32> = HashMap::new();
            for (i, t) in tokens.iter().enumerate() {
                m.insert(black_box(t.as_str()), i as u32);
            }
            m.len()
        })
    });

    g.bench_function("fx/pair_keys", |b| {
        b.iter(|| {
            let mut m: FastMap<(u32, u32), u32> = FastMap::default();
            for &p in &pairs {
                *m.entry(black_box(p)).or_insert(0) += 1;
            }
            m.len()
        })
    });
    g.bench_function("siphash/pair_keys", |b| {
        b.iter(|| {
            let mut m: HashMap<(u32, u32), u32> = HashMap::new();
            for &p in &pairs {
                *m.entry(black_box(p)).or_insert(0) += 1;
            }
            m.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hashing);
criterion_main!(benches);
