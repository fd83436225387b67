//! The process-wide coin-LUT memo: a shared table must be bit-identical
//! to a freshly built one at every coin value the experiments and the
//! sweep server's benchmark grids run at, plus a seeded range. (The
//! memo's bound is tested next to it, in `blitzcoin-power`.)

use blitzcoin_power::lut::HW_LEVELS;
use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
use blitzcoin_sim::SimRng;
use blitzcoin_soc::prelude::*;

fn assert_shared_matches_build(coin_value_mw: f64) {
    for class in AcceleratorClass::ALL {
        let shared = CoinLut::shared(class, coin_value_mw);
        let fresh = CoinLut::build(&PowerModel::of(class), coin_value_mw, HW_LEVELS);
        let bits = |l: &CoinLut| l.entries().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&shared),
            bits(&fresh),
            "{class} at {coin_value_mw} mW/coin"
        );
        assert_eq!(
            shared.coin_value_mw().to_bits(),
            fresh.coin_value_mw().to_bits()
        );
    }
}

/// The coin value of every `(floorplan, budget, economy scale)` preset
/// the experiments and the `serve_sweep` benchmark grids simulate.
fn preset_coin_values() -> Vec<f64> {
    let mut socs = vec![
        (floorplan::soc_3x3(), vec![60.0, 90.0, 120.0, 240.0]),
        (floorplan::soc_4x4(), vec![450.0, 900.0]),
        (floorplan::soc_6x6(), vec![300.0, 600.0]),
    ];
    for d in [4, 6, 8, 10] {
        socs.push((floorplan::synthetic(d), Vec::new()));
    }
    for d in [16, 32] {
        socs.push((floorplan::mega_mesh(d).soc, Vec::new()));
    }
    let mut values = Vec::new();
    for (soc, mut budgets) in socs {
        budgets.extend([0.3, 0.33].map(|f| soc.total_p_max() * f));
        for budget in budgets {
            let wl = workload::parallel_all(&soc, 1);
            for cfg in [
                SimConfig::new(ManagerKind::BlitzCoin, budget),
                SimConfig::for_large_soc(ManagerKind::BlitzCoin, budget, soc.n_managed()),
            ] {
                values.push(Simulation::new(soc.clone(), wl.clone(), cfg).coin_value_mw());
            }
        }
    }
    values
}

#[test]
fn shared_lut_is_bit_identical_at_preset_budgets() {
    let values = preset_coin_values();
    assert!(values.len() >= 40, "{} preset coin values", values.len());
    for v in values {
        assert_shared_matches_build(v);
        // A second lookup (now a memo hit) is the same table again.
        assert_shared_matches_build(v);
    }
}

#[test]
fn shared_lut_is_bit_identical_over_a_seeded_range() {
    let mut rng = SimRng::seed(0x5eed_c0de);
    for _ in 0..64 {
        // budgets from 1 mW to ~10 W across economy scales 1..=16
        let budget = 1.0 + rng.unit_f64() * 10_000.0;
        let scale = rng.range_u64(1..17) as f64;
        assert_shared_matches_build(budget / (63.0 * scale));
    }
}
