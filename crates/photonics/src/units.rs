//! Physical constants and unit conversions used across the substrate.
//!
//! All internal computation is in SI base units (watts, seconds, hertz,
//! meters, joules). Conversions to the units optical engineers actually
//! quote (dBm, dB, nm, ps) live here so they appear exactly once.

/// Speed of light in vacuum, m/s.
pub const C_VACUUM: f64 = 299_792_458.0;

/// Elementary charge, C.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Room temperature used for thermal-noise calculations, K.
pub const ROOM_TEMP_K: f64 = 290.0;

/// Group-velocity factor of standard single-mode fiber (n_g ≈ 1.468),
/// i.e. light travels at `C_VACUUM / FIBER_GROUP_INDEX` inside fiber.
/// This is the 2/3·c rule of thumb used in the paper's WAN latency story.
pub const FIBER_GROUP_INDEX: f64 = 1.468;

/// Conventional C-band center wavelength, m (1550 nm).
pub const C_BAND_WAVELENGTH_M: f64 = 1550e-9;

/// Standard SMF attenuation at 1550 nm, dB/km.
pub const SMF_ATTENUATION_DB_PER_KM: f64 = 0.2;

/// Convert optical power in dBm to watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    1e-3 * 10f64.powf(dbm / 10.0)
}

/// Convert optical power in watts to dBm.
///
/// Returns `f64::NEG_INFINITY` for non-positive power, matching the
/// convention that "no light" is −∞ dBm.
#[inline]
pub fn watts_to_dbm(watts: f64) -> f64 {
    if watts <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * (watts / 1e-3).log10()
    }
}

/// Convert a dB ratio to a linear ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear ratio to dB.
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    if linear <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * linear.log10()
    }
}

/// Propagation delay through `km` kilometers of standard fiber, seconds.
#[inline]
pub fn fiber_delay_s(km: f64) -> f64 {
    km * 1e3 * FIBER_GROUP_INDEX / C_VACUUM
}

/// Propagation delay through `km` kilometers of standard fiber, integer
/// picoseconds — the timestamp unit of the discrete-event simulator.
#[inline]
pub fn fiber_delay_ps(km: f64) -> u64 {
    (fiber_delay_s(km) * 1e12).round() as u64
}

/// Effective number of bits for a given signal-to-noise ratio (dB),
/// using the standard `ENOB = (SNR − 1.76) / 6.02` relation.
#[inline]
pub fn snr_db_to_enob(snr_db: f64) -> f64 {
    ((snr_db - 1.76) / 6.02).max(0.0)
}

/// SNR in dB that a quantizer with `bits` bits achieves on a full-scale
/// sinusoid: `SNR = 6.02·bits + 1.76`.
#[inline]
pub fn bits_to_snr_db(bits: f64) -> f64 {
    6.02 * bits + 1.76
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn dbm_round_trip() {
        for dbm in [-30.0, -10.0, 0.0, 3.0, 10.0, 17.0] {
            assert!(close(watts_to_dbm(dbm_to_watts(dbm)), dbm, 1e-12));
        }
    }

    #[test]
    fn zero_dbm_is_one_milliwatt() {
        assert!(close(dbm_to_watts(0.0), 1e-3, 1e-12));
        assert!(close(dbm_to_watts(3.0), 2e-3, 1e-2));
    }

    #[test]
    fn negative_power_is_neg_infinity_dbm() {
        assert_eq!(watts_to_dbm(0.0), f64::NEG_INFINITY);
        assert_eq!(watts_to_dbm(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn db_linear_round_trip() {
        for db in [-20.0, -3.0, 0.0, 3.0, 10.0] {
            assert!(close(linear_to_db(db_to_linear(db)), db, 1e-12));
        }
    }

    #[test]
    fn fiber_delay_is_about_5us_per_km() {
        // n_g/c ≈ 4.9 µs per km.
        let d = fiber_delay_s(1.0);
        assert!(close(d, 4.9e-6, 0.01), "got {d}");
        assert_eq!(fiber_delay_ps(0.0), 0);
        assert!(fiber_delay_ps(1000.0) > 4_800_000_000);
    }

    #[test]
    fn enob_matches_quantizer_snr() {
        for bits in [4.0, 8.0, 12.0] {
            let snr = bits_to_snr_db(bits);
            assert!(close(snr_db_to_enob(snr), bits, 1e-12));
        }
        // Hopeless SNR clamps at zero bits rather than going negative.
        assert_eq!(snr_db_to_enob(-40.0), 0.0);
    }
}
