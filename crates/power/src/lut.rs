//! Coin-to-frequency lookup table.
//!
//! Step (2) of the BlitzCoin power-management pipeline (Section IV-A): "a
//! lookup table converts the coin count into a target frequency for the
//! tile, based on a pre-characterization of the power profile of each
//! tile". The coin counter is 6 bits, yielding 64 power levels per tile —
//! much finer than the 2-5 levels of prior designs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::model::{AcceleratorClass, PowerModel};

/// Non-idle levels of the 6-bit hardware coin counter.
pub const HW_LEVELS: u32 = 64;

/// Most tables [`CoinLut::shared`] keeps at once. Budgets can come from
/// untrusted clients (the sweep server), so the memo is bounded: when it
/// is full, a new table flushes it and the working set refills.
const SHARED_CAPACITY: usize = 256;

/// `(class, coin value bits)` → the table [`CoinLut::shared`] built for it.
type Memo = HashMap<(AcceleratorClass, u64), Arc<CoinLut>>;

fn memo() -> &'static Mutex<Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// A per-tile lookup table mapping coin counts to frequency targets.
///
/// Entry `k` holds the highest frequency whose power fits in `k` coins
/// (at `coin_value_mw` milliwatts per coin). Coin counts at or below the
/// tile's idle threshold map to 0 MHz, meaning "clock scaled to the idle
/// floor" (the tile then draws [`PowerModel::idle_power`]).
///
/// # Example
///
/// ```
/// use blitzcoin_power::{AcceleratorClass, CoinLut, PowerModel};
///
/// let model = PowerModel::of(AcceleratorClass::Fft);
/// let lut = CoinLut::build(&model, 2.0, 64); // 2 mW per coin
/// // 25 coins = 50 mW = the FFT's P_max -> F_max
/// assert_eq!(lut.f_target(25), model.f_max());
/// // 0 coins -> idle
/// assert_eq!(lut.f_target(0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoinLut {
    entries: Vec<f64>,
    coin_value_mw: f64,
}

impl CoinLut {
    /// Builds the LUT for `model` with `levels` entries above zero
    /// (entry 0 is always the idle level). The 6-bit hardware uses
    /// `levels = 64`.
    ///
    /// # Panics
    /// Panics if `coin_value_mw <= 0` or `levels == 0`.
    pub fn build(model: &PowerModel, coin_value_mw: f64, levels: u32) -> Self {
        assert!(coin_value_mw > 0.0, "coin value must be positive");
        assert!(levels > 0, "LUT needs at least one level");
        let mut entries = Vec::with_capacity(levels as usize + 1);
        for k in 0..=levels {
            let budget = k as f64 * coin_value_mw;
            if budget < model.power_floor() {
                // Not enough coins to run even at the deepest clock-scaled
                // point (V_min, F_min/8): the tile idles.
                entries.push(0.0);
            } else {
                entries.push(model.freq_for_power(budget));
            }
        }
        CoinLut {
            entries,
            coin_value_mw,
        }
    }

    /// The [`HW_LEVELS`]-level table of `class` at `coin_value_mw`,
    /// built once per process and shared.
    ///
    /// A table is a pure function of its class and coin value — the
    /// paper characterizes it once per tile type — so every run and every
    /// tile of one class at one budget can read the same table instead of
    /// re-running 65 bisections. The result is bit-identical to
    /// `CoinLut::build(&PowerModel::of(class), coin_value_mw, HW_LEVELS)`.
    ///
    /// # Panics
    /// Panics if `coin_value_mw <= 0` (as [`CoinLut::build`] does).
    pub fn shared(class: AcceleratorClass, coin_value_mw: f64) -> Arc<CoinLut> {
        let key = (class, coin_value_mw.to_bits());
        let lock = || memo().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(lut) = lock().get(&key) {
            return Arc::clone(lut);
        }
        // Build outside the lock: concurrent first uses of one key may
        // both build, and the first insert wins — the tables are equal.
        let lut = Arc::new(CoinLut::build(
            &PowerModel::of(class),
            coin_value_mw,
            HW_LEVELS,
        ));
        let mut map = lock();
        if map.len() >= SHARED_CAPACITY && !map.contains_key(&key) {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert(lut))
    }

    /// The frequency target (MHz) for `coins`. Counts above the table's
    /// top level clamp to the last entry; negative transient counts (the
    /// sign-bit case of Section IV-A) map to the idle level.
    pub fn f_target(&self, coins: i32) -> f64 {
        if coins <= 0 {
            return self.entries[0];
        }
        let idx = (coins as usize).min(self.entries.len() - 1);
        self.entries[idx]
    }

    /// Milliwatts represented by one coin.
    pub fn coin_value_mw(&self) -> f64 {
        self.coin_value_mw
    }

    /// Number of non-idle levels.
    pub fn levels(&self) -> u32 {
        (self.entries.len() - 1) as u32
    }

    /// The smallest coin count whose entry is non-idle (runs the tile at
    /// F_min or above), or `None` if no entry is non-idle.
    pub fn min_active_coins(&self) -> Option<u32> {
        self.entries.iter().position(|&f| f > 0.0).map(|i| i as u32)
    }

    /// The smallest coin count mapping to the tile's F_max (saturation
    /// point), or `None` if the table never reaches it.
    pub fn saturation_coins(&self) -> Option<u32> {
        let top = *self.entries.last().expect("non-empty");
        if top == 0.0 {
            return None;
        }
        self.entries
            .iter()
            .position(|&f| (f - top).abs() < 1e-9)
            .map(|i| i as u32)
    }

    /// All entries (index = coin count).
    pub fn entries(&self) -> &[f64] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut() -> (PowerModel, CoinLut) {
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let l = CoinLut::build(&m, 5.0, 64);
        (m, l)
    }

    #[test]
    fn monotone_in_coins() {
        let (_, l) = lut();
        for k in 0..64 {
            assert!(l.f_target(k + 1) >= l.f_target(k), "at {k}");
        }
    }

    #[test]
    fn idle_below_floor_and_extension_between() {
        let (m, l) = lut();
        // NVDLA power floor ~ 3.8 mW; at 5 mW/coin a single coin already
        // runs the tile (deep clock scaling at V_min)...
        assert!(l.f_target(1) > 0.0);
        assert!(l.f_target(1) < m.f_min(), "1 coin lands in the extension");
        assert_eq!(l.f_target(0), 0.0);
        assert_eq!(l.min_active_coins(), Some(1));
        // ...and 6 coins (30 mW > p_min 26 mW) run above F_min.
        assert!(l.f_target(6) >= m.f_min());
    }

    #[test]
    fn negative_transient_counts_idle() {
        let (_, l) = lut();
        assert_eq!(l.f_target(-3), 0.0);
    }

    #[test]
    fn saturates_at_pmax() {
        let (m, l) = lut();
        // NVDLA p_max = 190 mW = 38 coins at 5 mW/coin.
        assert_eq!(l.saturation_coins(), Some(38));
        assert_eq!(l.f_target(38), m.f_max());
        assert_eq!(l.f_target(64), m.f_max());
        assert_eq!(l.f_target(1000), m.f_max());
    }

    #[test]
    fn entry_power_fits_budget() {
        let (m, l) = lut();
        for k in 0..=64 {
            let f = l.f_target(k);
            if f > 0.0 {
                assert!(
                    m.power_at(f) <= k as f64 * 5.0 + 1e-6,
                    "coin {k}: {f} MHz draws {} mW",
                    m.power_at(f)
                );
            }
        }
    }

    #[test]
    fn levels_and_value() {
        let (_, l) = lut();
        assert_eq!(l.levels(), 64);
        assert_eq!(l.coin_value_mw(), 5.0);
        assert_eq!(l.entries().len(), 65);
    }

    #[test]
    fn shared_memo_stays_bounded() {
        for k in 0..(SHARED_CAPACITY as u64 * 2 + 7) {
            let coin_value_mw = 0.5 + k as f64 * 0.01;
            let lut = CoinLut::shared(AcceleratorClass::Fft, coin_value_mw);
            assert_eq!(lut.coin_value_mw(), coin_value_mw);
            let held = memo().lock().unwrap().len();
            assert!(
                held <= SHARED_CAPACITY,
                "memo holds {held} tables after {} distinct coin values",
                k + 1
            );
        }
    }

    #[test]
    fn all_idle_table() {
        let m = PowerModel::of(AcceleratorClass::Nvdla);
        let l = CoinLut::build(&m, 0.1, 8); // 0.8 mW max: below the floor
        assert_eq!(l.min_active_coins(), None);
        assert_eq!(l.saturation_coins(), None);
    }
}
