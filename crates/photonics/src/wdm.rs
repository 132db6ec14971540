//! Wavelength-division multiplexing.
//!
//! WDM gives the photonic engine its parallelism: a matrix-vector multiply
//! runs one dot product per wavelength through the same modulator chain
//! (the Fig. 2a primitive replicated across the C-band grid). This module
//! provides the ITU-style channel grid plus mux/demux with configurable
//! insertion loss and inter-channel crosstalk.

use crate::signal::OpticalField;
use crate::units;

/// An ITU-like DWDM channel grid centered on the C-band.
#[derive(Debug, Clone)]
pub struct WdmGrid {
    /// Center frequency of channel 0, Hz (193.1 THz for the ITU anchor).
    pub anchor_hz: f64,
    /// Channel spacing, Hz (50 or 100 GHz typical).
    pub spacing_hz: f64,
    /// Number of channels.
    pub channels: usize,
}

impl WdmGrid {
    /// Standard 100-GHz C-band grid with `channels` channels.
    pub fn c_band(channels: usize) -> Self {
        assert!(channels >= 1, "grid needs at least one channel");
        WdmGrid {
            anchor_hz: 193.1e12,
            spacing_hz: 100e9,
            channels,
        }
    }

    /// Center frequency of channel `ch`, Hz.
    pub fn frequency_hz(&self, ch: usize) -> f64 {
        assert!(ch < self.channels, "channel {ch} out of range");
        self.anchor_hz + ch as f64 * self.spacing_hz
    }

    /// Center wavelength of channel `ch`, m.
    pub fn wavelength_m(&self, ch: usize) -> f64 {
        units::C_VACUUM / self.frequency_hz(ch)
    }

    /// Total grid capacity given per-channel data rate.
    pub fn total_capacity_bps(&self, per_channel_bps: f64) -> f64 {
        self.channels as f64 * per_channel_bps
    }
}

/// A WDM multiplexer/demultiplexer pair with loss and crosstalk.
#[derive(Debug, Clone)]
pub struct WdmMux {
    pub grid: WdmGrid,
    /// Insertion loss per pass, dB.
    pub insertion_loss_db: f64,
    /// Adjacent-channel crosstalk, dB (power leaking between neighbors;
    /// −30 dB typical AWG). `NEG_INFINITY` disables crosstalk.
    pub crosstalk_db: f64,
}

impl WdmMux {
    pub fn ideal(grid: WdmGrid) -> Self {
        WdmMux {
            grid,
            insertion_loss_db: 0.0,
            crosstalk_db: f64::NEG_INFINITY,
        }
    }

    pub fn new(grid: WdmGrid, insertion_loss_db: f64, crosstalk_db: f64) -> Self {
        WdmMux {
            grid,
            insertion_loss_db: insertion_loss_db.abs(),
            crosstalk_db,
        }
    }

    /// Multiplex per-channel fields onto the grid. Each input keeps its
    /// own envelope; the mux retags wavelengths to grid centers and
    /// applies insertion loss. Inputs must be sample-aligned.
    pub fn mux(&self, channels: &[OpticalField]) -> Vec<OpticalField> {
        assert!(
            channels.len() <= self.grid.channels,
            "more inputs than grid channels"
        );
        channels
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut out = f.clone();
                out.wavelength_m = self.grid.wavelength_m(i);
                out.attenuate_db(self.insertion_loss_db);
                out
            })
            .collect()
    }

    /// Demultiplex: apply insertion loss and mix in adjacent-channel
    /// crosstalk at the configured level.
    pub fn demux(&self, channels: &[OpticalField]) -> Vec<OpticalField> {
        let xt_amp = if self.crosstalk_db.is_finite() {
            units::db_to_linear(self.crosstalk_db).sqrt()
        } else {
            0.0
        };
        let mut out: Vec<OpticalField> = channels.to_vec();
        if xt_amp > 0.0 {
            for i in 0..channels.len() {
                let n = channels[i].len();
                for j in [i.wrapping_sub(1), i + 1] {
                    if j < channels.len() && channels[j].len() == n {
                        for k in 0..n {
                            let leak = channels[j].samples[k].scale(xt_amp);
                            out[i].samples[k] += leak;
                        }
                    }
                }
            }
        }
        for f in &mut out {
            f.attenuate_db(self.insertion_loss_db);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 10e9;

    #[test]
    fn grid_frequencies_are_spaced() {
        let g = WdmGrid::c_band(8);
        assert_eq!(g.frequency_hz(0), 193.1e12);
        assert_eq!(g.frequency_hz(1) - g.frequency_hz(0), 100e9);
        // C-band wavelengths near 1550 nm.
        let wl = g.wavelength_m(0);
        assert!((wl - 1552.5e-9).abs() < 1e-9, "wl {wl}");
    }

    #[test]
    fn capacity_scales_with_channels() {
        let g = WdmGrid::c_band(80);
        // The paper's §5 headline: 800 Gbps on one wavelength.
        assert_eq!(g.total_capacity_bps(800e9), 64e12);
    }

    #[test]
    fn ideal_mux_demux_round_trip() {
        let g = WdmGrid::c_band(4);
        let mux = WdmMux::ideal(g);
        let inputs: Vec<OpticalField> = (0..4)
            .map(|i| OpticalField::cw(8, (i + 1) as f64 * 1e-4, RATE, 1550e-9))
            .collect();
        let muxed = mux.mux(&inputs);
        let out = mux.demux(&muxed);
        for (i, f) in out.iter().enumerate() {
            assert!((f.mean_power_w() - (i + 1) as f64 * 1e-4).abs() < 1e-15);
            assert_eq!(f.wavelength_m, mux.grid.wavelength_m(i));
        }
    }

    #[test]
    fn insertion_loss_applies_per_pass() {
        let g = WdmGrid::c_band(2);
        let mux = WdmMux::new(g, 3.0103, f64::NEG_INFINITY);
        let inputs = vec![OpticalField::cw(4, 1e-3, RATE, 1550e-9)];
        let muxed = mux.mux(&inputs);
        assert!((muxed[0].mean_power_w() - 0.5e-3).abs() < 1e-9);
        let out = mux.demux(&muxed);
        assert!((out[0].mean_power_w() - 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn crosstalk_leaks_between_neighbors() {
        let g = WdmGrid::c_band(3);
        let mux = WdmMux::new(g, 0.0, -20.0);
        // Channel 1 dark, neighbors lit: leakage shows up on channel 1.
        let inputs = vec![
            OpticalField::cw(4, 1e-3, RATE, 1550e-9),
            OpticalField::dark(4, RATE, 1550e-9),
            OpticalField::cw(4, 1e-3, RATE, 1550e-9),
        ];
        let out = mux.demux(&inputs);
        let leaked = out[1].mean_power_w();
        assert!(leaked > 1e-6, "leaked {leaked}");
        assert!(leaked < 1e-4, "leaked {leaked}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grid_rejects_out_of_range_channel() {
        WdmGrid::c_band(4).frequency_hz(4);
    }

    #[test]
    #[should_panic(expected = "more inputs")]
    fn mux_rejects_too_many_inputs() {
        let mux = WdmMux::ideal(WdmGrid::c_band(1));
        let inputs = vec![
            OpticalField::dark(1, RATE, 1550e-9),
            OpticalField::dark(1, RATE, 1550e-9),
        ];
        mux.mux(&inputs);
    }
}
