//! The audit layer over the full scenario catalog: every shipped defense
//! passes the run-wide invariant audit on every workload, auditing never
//! changes results, and a poisoned cell is isolated and named.

use rh_sim::{run_matrix, try_run_matrix, DefenseSpec, SimConfig, WorkloadSpec};

fn all_defenses(t_rh: u64) -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::None,
        DefenseSpec::Graphene { t_rh, k: 2 },
        DefenseSpec::Para { p: 0.001 },
        DefenseSpec::Prohit,
        DefenseSpec::Mrloc { p: 0.001 },
        DefenseSpec::Cbt { t_rh },
        DefenseSpec::Cra { t_rh },
        DefenseSpec::Twice { t_rh },
        DefenseSpec::Ideal { t_rh },
    ]
}

#[test]
fn full_grid_is_green_under_audit() {
    // attack_bank turns the audit on by default: every cell below runs with
    // audited defenses, end-of-run stats invariants, and the ground-truth
    // oracle cross-check.
    let cfg = SimConfig::attack_bank(5_000, 4_000);
    assert!(cfg.audit, "attack_bank must audit by default");
    let defenses = all_defenses(5_000);
    let mut workloads = WorkloadSpec::adversarial_set();
    workloads.push(WorkloadSpec::MixHigh);
    let reports = run_matrix(&cfg, &defenses, &workloads).reports;
    assert_eq!(reports.len(), defenses.len() * workloads.len());
}

#[test]
fn audit_does_not_change_results() {
    // The audit is observation-only: the same seed must yield bit-identical
    // run statistics with the layer on or off.
    let audited = SimConfig::attack_bank(5_000, 6_000);
    let plain = SimConfig { audit: false, ..audited.clone() };
    let defenses = [DefenseSpec::Graphene { t_rh: 5_000, k: 2 }, DefenseSpec::Para { p: 0.001 }];
    let workloads = [WorkloadSpec::S3, WorkloadSpec::S1 { n: 10 }];
    let with_audit = run_matrix(&audited, &defenses, &workloads).reports;
    let without = run_matrix(&plain, &defenses, &workloads).reports;
    assert_eq!(with_audit.len(), without.len());
    for (a, b) in with_audit.iter().zip(&without) {
        assert_eq!(a.stats, b.stats, "({}, {})", a.workload, a.defense);
        assert_eq!(a.slowdown, b.slowdown);
        assert_eq!(a.energy_overhead, b.energy_overhead);
        assert_eq!(a.weighted_speedup_loss, b.weighted_speedup_loss);
    }
}

#[test]
fn poisoned_cell_is_named_and_does_not_sink_the_grid() {
    // Graphene{t_rh: 1} has no valid derivation and panics during build;
    // the matrix must survive, name the pair, and keep the healthy cells.
    let cfg = SimConfig::attack_bank(5_000, 2_000);
    let defenses = [
        DefenseSpec::Para { p: 0.001 },
        DefenseSpec::Graphene { t_rh: 1, k: 2 },
        DefenseSpec::Twice { t_rh: 5_000 },
    ];
    let workloads = [WorkloadSpec::S3];
    let err = try_run_matrix(&cfg, &defenses, &workloads)
        .expect_err("poisoned defense must surface as an error");
    let msg = err.to_string();
    assert!(msg.contains("(S3, Graphene)"), "error must name the failing pair: {msg}");
    assert!(!msg.contains("PARA"), "healthy cells must not be blamed: {msg}");
    assert_eq!(err.failures.len(), 1);
}
