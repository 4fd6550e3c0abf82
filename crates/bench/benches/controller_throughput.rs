//! End-to-end simulator throughput: accesses per second through the memory
//! controller with each defense attached (single bank, S1-10 attack).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use memctrl::{McBuilder, McConfig};
use rh_sim::DefenseSpec;
use workloads::Synthetic;

fn bench_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_run");
    group.sample_size(10);
    let specs = [
        DefenseSpec::None,
        DefenseSpec::Graphene { t_rh: 50_000, k: 2 },
        DefenseSpec::Para { p: 0.00145 },
        DefenseSpec::Cbt { t_rh: 50_000 },
        DefenseSpec::Twice { t_rh: 50_000 },
    ];
    const ACCESSES: u64 = 50_000;
    for spec in specs {
        group.throughput(Throughput::Elements(ACCESSES));
        group.bench_function(BenchmarkId::from_parameter(spec.name()), |b| {
            b.iter_batched(
                || {
                    let mc =
                        McBuilder::new(McConfig::single_bank(65_536, None)).defenses(&spec).build();
                    (mc, Synthetic::s1(10, 65_536, 7))
                },
                |(mut mc, mut w)| mc.try_run(&mut w, ACCESSES).unwrap(),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controller);
criterion_main!(benches);
