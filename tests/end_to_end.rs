//! Cross-crate integration: workloads → memory controller → defenses →
//! DRAM fault oracle, exercised end to end.

use graphene_repro::memctrl::{McBuilder, McConfig};
use graphene_repro::rh_sim::{run_pair, DefenseSpec, SimConfig, WorkloadSpec};

const T_RH: u64 = 4_000;
const ACTS: u64 = 120_000;

fn counter_based(t_rh: u64) -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::Graphene { t_rh, k: 2 },
        DefenseSpec::Twice { t_rh },
        DefenseSpec::Cbt { t_rh },
        DefenseSpec::Cra { t_rh },
        DefenseSpec::Ideal { t_rh },
    ]
}

#[test]
fn cra_is_sound_but_pays_for_low_locality() {
    // The paper's §II-C critique of CRA, end to end: on the random-heavy S4
    // pattern its counter cache thrashes, charging real bank time — while
    // Graphene's on-chip table costs nothing. Both stay flip-free.
    let cfg = SimConfig::attack_bank(T_RH, ACTS);
    let cra = run_pair(&cfg, &DefenseSpec::Cra { t_rh: T_RH }, &WorkloadSpec::S4);
    let graphene = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: T_RH, k: 2 }, &WorkloadSpec::S4);
    assert_eq!(cra.stats.bit_flips, 0);
    assert_eq!(graphene.stats.bit_flips, 0);
    assert!(
        cra.slowdown > graphene.slowdown + 0.01,
        "CRA's counter traffic must cost real time (CRA {} vs Graphene {})",
        cra.slowdown,
        graphene.slowdown
    );
}

#[test]
fn every_counter_scheme_stops_every_adversarial_pattern() {
    let cfg = SimConfig::attack_bank(T_RH, ACTS);
    for defense in counter_based(T_RH) {
        for attack in WorkloadSpec::adversarial_set() {
            let r = run_pair(&cfg, &defense, &attack);
            assert_eq!(r.stats.bit_flips, 0, "{} flipped under {}", r.defense, r.workload);
        }
    }
}

#[test]
fn no_defense_fails_on_hammering_patterns() {
    let cfg = SimConfig::attack_bank(T_RH, ACTS);
    // S1-10/S3/S4 concentrate enough ACTs to flip at T_RH = 4,000.
    for attack in [WorkloadSpec::S1 { n: 10 }, WorkloadSpec::S3, WorkloadSpec::S4] {
        let r = run_pair(&cfg, &DefenseSpec::None, &attack);
        assert!(r.stats.bit_flips > 0, "expected flips under {}", r.workload);
    }
}

#[test]
fn graphene_is_refresh_free_on_normal_mix() {
    let cfg = SimConfig { accesses: 150_000, ..SimConfig::with_threshold(50_000, 150_000) };
    let r = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 50_000, k: 2 }, &WorkloadSpec::MixHigh);
    assert_eq!(r.stats.defense_refresh_commands, 0, "false positives on normal traffic");
    assert_eq!(r.stats.bit_flips, 0);
    assert!(r.slowdown.abs() < 1e-9, "slowdown {}", r.slowdown);
}

#[test]
fn twice_is_refresh_free_on_normal_mix() {
    let cfg = SimConfig { accesses: 150_000, ..SimConfig::with_threshold(50_000, 150_000) };
    let r = run_pair(&cfg, &DefenseSpec::Twice { t_rh: 50_000 }, &WorkloadSpec::MixHigh);
    assert_eq!(r.stats.defense_refresh_commands, 0);
}

#[test]
fn para_pays_constant_tax_on_normal_mix() {
    let cfg = SimConfig { accesses: 150_000, ..SimConfig::with_threshold(50_000, 150_000) };
    let r = run_pair(&cfg, &DefenseSpec::Para { p: 0.00145 }, &WorkloadSpec::MixHigh);
    assert!(r.stats.defense_refresh_commands > 0, "PARA must refresh probabilistically");
    let rate = r.stats.defense_refresh_commands as f64 / r.stats.activations as f64;
    assert!((rate - 0.00145).abs() < 0.0008, "rate {rate}");
}

#[test]
fn cbt_refreshes_in_bursts_graphene_in_pairs() {
    let cfg = SimConfig::attack_bank(T_RH, ACTS);
    let g = run_pair(&cfg, &DefenseSpec::Graphene { t_rh: T_RH, k: 2 }, &WorkloadSpec::S3);
    let c = run_pair(&cfg, &DefenseSpec::Cbt { t_rh: T_RH }, &WorkloadSpec::S3);
    let g_rows_per_cmd =
        g.stats.victim_rows_refreshed as f64 / g.stats.defense_refresh_commands.max(1) as f64;
    let c_rows_per_cmd =
        c.stats.victim_rows_refreshed as f64 / c.stats.defense_refresh_commands.max(1) as f64;
    assert!(g_rows_per_cmd <= 2.0, "Graphene refreshes ±1 per NRR");
    assert!(c_rows_per_cmd > 10.0, "CBT bursts whole subtrees, got {c_rows_per_cmd}");
    assert!(c.slowdown >= g.slowdown, "CBT's bursts must cost at least as much");
}

#[test]
fn full_system_runs_all_defenses_together() {
    // 64-bank system, one defense kind per run, verifying the controller's
    // bookkeeping stays coherent across banks.
    for defense in counter_based(50_000) {
        let mut mc = McBuilder::new(McConfig::micro2020()).defenses(&defense).build();
        let mut w = WorkloadSpec::MixBlend.build(64, 65_536, 9);
        let stats = mc.try_run(w.as_mut(), 60_000).unwrap();
        assert_eq!(stats.accesses, 60_000);
        assert!(stats.activations > 0);
        assert!(mc.is_clean(), "{:?} flipped on benign traffic", defense.name());
    }
}

#[test]
fn fig7a_defeats_prohit_but_not_graphene() {
    // At T_RH = 1,000 the starved victims (x±5) accumulate their budget well
    // inside the attack, even though PRoHIT spends a refresh slot per tREFI.
    let cfg = SimConfig::attack_bank(1_000, 400_000);
    let prohit = run_pair(&cfg, &DefenseSpec::Prohit, &WorkloadSpec::Fig7a);
    let graphene =
        run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 1_000, k: 2 }, &WorkloadSpec::Fig7a);
    assert!(prohit.stats.bit_flips > 0, "the Figure 7(a) pattern must defeat PRoHIT");
    assert!(prohit.stats.defense_refresh_commands > 0, "PRoHIT was actively refreshing");
    assert_eq!(graphene.stats.bit_flips, 0);
}

#[test]
fn fig7b_reduces_mrloc_to_para_level() {
    // With 16 distinct victims the 15-entry queue thrashes; at a weak base
    // probability MRLoc flips just like PARA would, while Graphene holds.
    let cfg = SimConfig::attack_bank(2_000, 200_000);
    let mrloc = run_pair(&cfg, &DefenseSpec::Mrloc { p: 0.0002 }, &WorkloadSpec::Fig7b);
    let graphene =
        run_pair(&cfg, &DefenseSpec::Graphene { t_rh: 2_000, k: 2 }, &WorkloadSpec::Fig7b);
    assert!(mrloc.stats.bit_flips > 0, "overflowed MRLoc at tiny p must flip");
    assert_eq!(graphene.stats.bit_flips, 0);
}
