//! Analytic electrical model used to characterize the synthetic library.
//!
//! The model is a classic logical-effort / RC formulation:
//!
//! * effort delay `= τ · g · C_load / C_in(drive)` — a cell twice the drive
//!   has half the output resistance,
//! * parasitic delay `= τ_p · p · complexity` — self-loading of the family,
//! * slew degradation `= k_s · slew_in` — a slow input edge slows the cell.
//!
//! Output transition follows the same RC shape with its own coefficients.
//! The constants are tuned to a 40 nm-flavoured technology: a unit inverter
//! driving four copies of itself (FO4) comes out around 30 ps, and the LUT
//! ranges below match the characterization grid described in §II (steep to
//! shallow slews; load ranges that grow with drive strength).

use crate::arch::{ArchOutput, Archetype};

/// Technology constants of the synthetic process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Effort time constant: ns of delay per unit of electrical fan-out for
    /// a unit-effort gate.
    pub tau: f64,
    /// Parasitic time constant (ns per unit of parasitic delay).
    pub tau_p: f64,
    /// Input capacitance of a unit-drive, unit-effort input pin (pF).
    pub unit_input_cap: f64,
    /// Fraction of the input slew added to the propagation delay.
    pub slew_to_delay: f64,
    /// Output transition per unit of RC (dimensionless multiplier on the
    /// effort delay).
    pub transition_factor: f64,
    /// Floor on any produced transition (ns); nothing switches infinitely
    /// fast.
    pub min_transition: f64,
}

impl Default for Technology {
    fn default() -> Self {
        Self {
            tau: 0.0042,
            tau_p: 0.0055,
            unit_input_cap: 0.0011,
            slew_to_delay: 0.18,
            transition_factor: 2.1,
            min_transition: 0.004,
        }
    }
}

impl Technology {
    /// Creates the default 40 nm-flavoured technology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Input capacitance of one input pin of `arch` at `drive` (pF).
    pub fn input_cap(&self, arch: &Archetype, drive: f64) -> f64 {
        self.unit_input_cap * arch.logical_effort * drive
    }

    /// Maximum load the output of `arch` at `drive` is characterized for
    /// (pF). Low-drive cells are not designed to drive big loads (§II), so
    /// the load range scales with drive strength.
    pub fn max_load(&self, drive: f64) -> f64 {
        0.022 * drive
    }

    /// Nominal propagation delay (ns) of `output` of `arch` at `drive`,
    /// for input transition `slew` (ns) into capacitive load `load` (pF).
    pub fn delay(
        &self,
        arch: &Archetype,
        output: &ArchOutput,
        drive: f64,
        slew: f64,
        load: f64,
    ) -> f64 {
        let c_in = self.unit_input_cap * drive;
        let effort = self.tau * arch.logical_effort * (load / c_in);
        let parasitic = self.tau_p * arch.parasitic * output.complexity;
        parasitic + effort + self.slew_to_delay * slew
    }

    /// Nominal output transition (ns) under the same conditions.
    pub fn transition(
        &self,
        arch: &Archetype,
        output: &ArchOutput,
        drive: f64,
        slew: f64,
        load: f64,
    ) -> f64 {
        let c_in = self.unit_input_cap * drive;
        let rc = self.tau * arch.logical_effort * (load / c_in);
        let base = self.transition_factor * rc
            + 0.35 * self.tau_p * arch.parasitic * output.complexity
            + 0.05 * slew;
        base.max(self.min_transition)
    }

    /// Setup requirement of a flip-flop's data pin (ns) as a function of
    /// the data slew and the clock slew. A slow data edge needs more setup;
    /// the drive dependence is weak (the input stage barely scales).
    pub fn setup_time(&self, drive: f64, data_slew: f64, clock_slew: f64) -> f64 {
        (0.030 + 0.35 * data_slew + 0.10 * clock_slew) * (1.0 + 0.1 / drive)
    }

    /// Hold requirement of a flip-flop's data pin (ns); a fast data edge
    /// against a slow clock edge is the risky case.
    pub fn hold_time(&self, drive: f64, data_slew: f64, clock_slew: f64) -> f64 {
        ((0.012 + 0.08 * clock_slew - 0.06 * data_slew) * (1.0 + 0.05 / drive)).max(0.002)
    }

    /// Internal switching energy per output event (pJ) — internal node
    /// charging plus the short-circuit current drawn while input and output
    /// overlap during a slow edge. The load's own ½CV² is accounted
    /// separately by the power analysis (it belongs to the net, not the
    /// cell).
    pub fn switching_energy(
        &self,
        arch: &Archetype,
        output: &ArchOutput,
        drive: f64,
        slew: f64,
        load: f64,
    ) -> f64 {
        let v2 = 1.1 * 1.1; // nominal supply squared
        let c_in = self.unit_input_cap * drive;
        let internal = 0.30 * c_in * arch.parasitic * output.complexity;
        let short_circuit = 0.50 * self.unit_input_cap * slew * drive.sqrt();
        let crowbar_on_load = 0.12 * load;
        v2 * (internal + short_circuit + crowbar_on_load)
    }

    /// Static leakage of the variant (nW): scales with transistor width
    /// (drive) and stack complexity.
    pub fn leakage_power(&self, arch: &Archetype, drive: f64) -> f64 {
        0.6 * drive * (1.0 + 0.15 * arch.parasitic)
    }

    /// The *electrical stress* of an operating point, normalized so that the
    /// lightest characterized corner is ~0 and the heaviest ~3. Feeds the
    /// Pelgrom model: sigma climbs toward slow edges into heavy loads.
    pub fn stress(&self, drive: f64, slew: f64, load: f64) -> f64 {
        let load_norm = load / self.max_load(drive);
        let slew_norm = slew / 0.6;
        2.2 * load_norm + 0.8 * slew_norm
    }

    /// The slew axis of the characterization grid (ns), steep to shallow.
    pub fn slew_axis(&self) -> Vec<f64> {
        vec![0.008, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6]
    }

    /// The load axis of the characterization grid for a cell at `drive`
    /// (pF); spans up to [`Technology::max_load`].
    pub fn load_axis(&self, drive: f64) -> Vec<f64> {
        let m = self.max_load(drive);
        [0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
            .iter()
            .map(|f| f * m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::standard_inventory;

    fn inv() -> Archetype {
        standard_inventory()
            .into_iter()
            .find(|a| a.prefix == "INV")
            .unwrap()
    }

    #[test]
    fn fo4_delay_is_plausible_for_40nm() {
        let t = Technology::new();
        let a = inv();
        let fo4_load = 4.0 * t.input_cap(&a, 1.0);
        let d = t.delay(&a, &a.outputs[0], 1.0, 0.02, fo4_load);
        assert!(d > 0.01 && d < 0.08, "FO4 = {d} ns");
    }

    #[test]
    fn delay_increases_with_load_and_slew() {
        let t = Technology::new();
        let a = inv();
        let o = &a.outputs[0];
        let d_light = t.delay(&a, o, 2.0, 0.02, 0.001);
        let d_heavy = t.delay(&a, o, 2.0, 0.02, 0.02);
        let d_slow = t.delay(&a, o, 2.0, 0.4, 0.001);
        assert!(d_heavy > d_light);
        assert!(d_slow > d_light);
    }

    #[test]
    fn higher_drive_is_faster_at_same_load() {
        let t = Technology::new();
        let a = inv();
        let o = &a.outputs[0];
        let d1 = t.delay(&a, o, 1.0, 0.05, 0.01);
        let d4 = t.delay(&a, o, 4.0, 0.05, 0.01);
        assert!(d4 < d1);
    }

    #[test]
    fn transition_has_floor() {
        let t = Technology::new();
        let a = inv();
        let tr = t.transition(&a, &a.outputs[0], 32.0, 0.008, 1e-6);
        assert!(tr >= t.min_transition);
    }

    #[test]
    fn transition_grows_with_load() {
        let t = Technology::new();
        let a = inv();
        let o = &a.outputs[0];
        assert!(t.transition(&a, o, 1.0, 0.05, 0.02) > t.transition(&a, o, 1.0, 0.05, 0.002));
    }

    #[test]
    fn load_axis_scales_with_drive() {
        let t = Technology::new();
        let l1 = t.load_axis(1.0);
        let l8 = t.load_axis(8.0);
        assert_eq!(l1.len(), 7);
        assert!((l8[6] / l1[6] - 8.0).abs() < 1e-12);
        assert!(l1.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn slew_axis_is_shared_and_increasing() {
        let t = Technology::new();
        let s = t.slew_axis();
        assert_eq!(s.len(), 7);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stress_rises_toward_heavy_corners() {
        let t = Technology::new();
        let easy = t.stress(1.0, 0.008, t.load_axis(1.0)[0]);
        let hard = t.stress(1.0, 0.6, t.load_axis(1.0)[6]);
        assert!(hard > easy + 1.0, "easy {easy} hard {hard}");
    }

    #[test]
    fn stress_is_drive_normalized() {
        // The same *relative* position in the LUT gives the same stress for
        // any drive; absolute load does not.
        let t = Technology::new();
        let s1 = t.stress(1.0, 0.1, t.load_axis(1.0)[3]);
        let s8 = t.stress(8.0, 0.1, t.load_axis(8.0)[3]);
        assert!((s1 - s8).abs() < 1e-12);
    }

    #[test]
    fn switching_energy_grows_with_drive_slew_and_load() {
        let t = Technology::new();
        let a = inv();
        let o = &a.outputs[0];
        let base = t.switching_energy(&a, o, 1.0, 0.02, 0.002);
        assert!(base > 0.0);
        assert!(t.switching_energy(&a, o, 4.0, 0.02, 0.002) > base);
        assert!(t.switching_energy(&a, o, 1.0, 0.40, 0.002) > base);
        assert!(t.switching_energy(&a, o, 1.0, 0.02, 0.020) > base);
    }

    #[test]
    fn leakage_scales_with_drive() {
        let t = Technology::new();
        let a = inv();
        assert!(t.leakage_power(&a, 8.0) > 4.0 * t.leakage_power(&a, 1.0));
        assert!(t.leakage_power(&a, 1.0) > 0.0);
    }

    #[test]
    fn complex_outputs_are_slower() {
        let t = Technology::new();
        let ad2 = standard_inventory()
            .into_iter()
            .find(|a| a.prefix == "AD2")
            .unwrap();
        let s = ad2.outputs.iter().find(|o| o.pin == "S").unwrap();
        let co = ad2.outputs.iter().find(|o| o.pin == "CO").unwrap();
        let ds = t.delay(&ad2, s, 2.0, 0.05, 0.01);
        let dco = t.delay(&ad2, co, 2.0, 0.05, 0.01);
        assert!(ds > dco, "sum {ds} should be slower than carry {dco}");
    }
}
