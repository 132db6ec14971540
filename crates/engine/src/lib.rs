//! # ofpc-engine — the photonic computing primitives
//!
//! Implements the three primitives of the paper's §2.1 (Fig. 2a–c) on top
//! of the `ofpc-photonics` device substrate, plus the composite units the
//! use cases need:
//!
//! * **P1** [`dot::DotProductUnit`] — time-multiplexed photonic vector dot
//!   product: two back-to-back Mach-Zehnder modulators produce per-symbol
//!   products `aᵢ·bᵢ`; a photodetector integrates the block into the sum.
//!   [`mvm::PhotonicMatVec`] replicates the unit across WDM lanes for
//!   matrix-vector products.
//! * **P2** [`matcher::PatternMatcher`] — phase-encoded interference
//!   matching: data and pattern ride two phase modulators into a 3-dB
//!   coupler; matched symbols interfere destructively, so integrated
//!   output power *is* the Hamming distance. [`ternary::TernaryMatcher`]
//!   extends it with wildcards (IP routing); [`correlator::Correlator`]
//!   slides it over a stream (intrusion detection);
//!   [`comparator::PhotonicComparator`] uses balanced detection (load
//!   balancing).
//! * **P3** [`nonlinear::NonlinearUnit`] — an electro-optic ReLU-like
//!   activation: a tapped photodetector self-modulates the optical copy of
//!   the signal (Bandyopadhyay et al.), enabling all-optical DNN layers.
//!
//! [`dnn::PhotonicDnn`] composes P1 and P3 into full deep-network
//! inference; [`calibration`] provides the gain/offset calibration the
//! paper's §4 lists as a required noise-mitigation algorithm; and
//! [`precision`] converts measured SNR into effective bits so experiments
//! can report the analog precision budget.

pub mod batch;
pub mod calibration;
pub mod comparator;
pub mod correlator;
pub mod dnn;
pub mod dot;
pub mod matcher;
pub mod mvm;
pub mod nonlinear;
pub mod precision;
pub mod ternary;

pub use dnn::PhotonicDnn;
pub use dot::DotProductUnit;
pub use matcher::PatternMatcher;
pub use nonlinear::NonlinearUnit;

/// The three photonic computing primitive classes of the paper's §2.1.
/// Carried in the compute-communication protocol header (`ofpc-net`) and
/// used by the controller to describe transponder capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Primitive {
    /// P1 — photonic vector dot product (Fig. 2a).
    VectorDotProduct,
    /// P2 — photonic pattern matching (Fig. 2b).
    PatternMatching,
    /// P3 — photonic nonlinear function (Fig. 2c).
    NonlinearFunction,
}

impl Primitive {
    /// Protocol wire identifier (one byte in the photonic compute header).
    pub fn wire_id(self) -> u8 {
        match self {
            Primitive::VectorDotProduct => 1,
            Primitive::PatternMatching => 2,
            Primitive::NonlinearFunction => 3,
        }
    }

    /// Parse a wire identifier.
    pub fn from_wire_id(id: u8) -> Option<Primitive> {
        match id {
            1 => Some(Primitive::VectorDotProduct),
            2 => Some(Primitive::PatternMatching),
            3 => Some(Primitive::NonlinearFunction),
            _ => None,
        }
    }

    /// All primitives, in wire-ID order.
    pub const ALL: [Primitive; 3] = [
        Primitive::VectorDotProduct,
        Primitive::PatternMatching,
        Primitive::NonlinearFunction,
    ];
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Primitive::VectorDotProduct => write!(f, "P1:dot-product"),
            Primitive::PatternMatching => write!(f, "P2:pattern-match"),
            Primitive::NonlinearFunction => write!(f, "P3:nonlinear"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_round_trip() {
        for p in Primitive::ALL {
            assert_eq!(Primitive::from_wire_id(p.wire_id()), Some(p));
        }
        assert_eq!(Primitive::from_wire_id(0), None);
        assert_eq!(Primitive::from_wire_id(42), None);
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            Primitive::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names.len(), 3);
    }
}
