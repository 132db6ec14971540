//! Wavelength-division multiplexing.
//!
//! WDM gives the photonic engine its parallelism: a matrix-vector multiply
//! runs one dot product per wavelength through the same modulator chain
//! (the Fig. 2a primitive replicated across the C-band grid). This module
//! provides the ITU-style channel grid.

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

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "out of range")]
    fn grid_rejects_out_of_range_channel() {
        WdmGrid::c_band(4).frequency_hz(4);
    }
}
