//! Data-movement energy model.
//!
//! The paper's motivation is energy: in implanted BCIs, the weighted
//! schedule cost is a direct proxy for transfer energy between SRAM and
//! slow non-volatile memory.  This module converts a schedule's transfer
//! profile into joules under a simple per-bit model, with defaults in the
//! range reported for 65 nm SRAM + embedded Flash systems.

use pebblyn_core::Weight;

/// Per-bit and per-op energy parameters (picojoules).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy to move one bit slow → fast (M1), pJ.
    pub load_pj_per_bit: f64,
    /// Energy to move one bit fast → slow (M2), pJ.
    pub store_pj_per_bit: f64,
    /// Energy of one compute operation (M3), pJ.
    pub compute_pj_per_op: f64,
}

impl Default for EnergyModel {
    /// Defaults representative of a 65 nm implantable system: reading
    /// embedded Flash ≈ 1 pJ/bit, writing ≈ 10 pJ/bit (writes are much more
    /// expensive in NVM), a 16/32-bit add/multiply ≈ 0.5 pJ.
    fn default() -> Self {
        EnergyModel {
            load_pj_per_bit: 1.0,
            store_pj_per_bit: 10.0,
            compute_pj_per_op: 0.5,
        }
    }
}

/// Energy breakdown of an executed schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyReport {
    /// Bits moved slow → fast (M1 total).
    pub loaded_bits: Weight,
    /// Bits moved fast → slow (M2 total).
    pub stored_bits: Weight,
    /// Number of compute (M3) moves.
    pub computes: usize,
    /// Energy spent on loads, pJ.
    pub load_pj: f64,
    /// Energy spent on stores, pJ.
    pub store_pj: f64,
    /// Energy spent on computation, pJ.
    pub compute_pj: f64,
}

impl EnergyReport {
    /// Assemble a report from a transfer profile and a model.
    pub fn from_profile(
        model: &EnergyModel,
        loaded_bits: Weight,
        stored_bits: Weight,
        computes: usize,
    ) -> Self {
        EnergyReport {
            loaded_bits,
            stored_bits,
            computes,
            load_pj: model.load_pj_per_bit * loaded_bits as f64,
            store_pj: model.store_pj_per_bit * stored_bits as f64,
            compute_pj: model.compute_pj_per_op * computes as f64,
        }
    }

    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.load_pj + self.store_pj + self.compute_pj
    }

    /// Fraction of energy spent moving data rather than computing.
    pub fn movement_fraction(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            (self.load_pj + self.store_pj) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_price_stores_higher() {
        let m = EnergyModel::default();
        assert!(m.store_pj_per_bit > m.load_pj_per_bit);
        let r = EnergyReport::from_profile(&m, 100, 10, 4);
        assert_eq!(r.total_pj(), 100.0 + 100.0 + 2.0);
    }

    #[test]
    fn report_totals_add_up() {
        let m = EnergyModel::default();
        let r = EnergyReport::from_profile(&m, 64, 32, 8);
        assert_eq!(r.total_pj(), 64.0 + 320.0 + 4.0);
        assert!(r.movement_fraction() > 0.98);
    }

    #[test]
    fn zero_profile_has_zero_fraction() {
        let r = EnergyReport::from_profile(&EnergyModel::default(), 0, 0, 0);
        assert_eq!(r.movement_fraction(), 0.0);
    }
}
