//! # ofpc-net — the wide-area network substrate
//!
//! Everything the paper's Fig. 1 scenario needs below the photonic
//! engine: IP-like packets ([`packet`]) carrying the proposed **photonic
//! compute header** ([`pch`]), WAN topologies with fiber-length-accurate
//! propagation delays ([`topology`]), the dual-field routing the paper's
//! §3 protocol requires — longest-prefix match on the destination *plus*
//! an exact match on the compute primitive ID ([`routing`]) — and a
//! deterministic, sans-IO discrete-event simulator ([`sim`]) with router
//! queues ([`queue`]) and measurement collectors ([`stats`]).
//!
//! Timestamps are integer **picoseconds** everywhere; ties break on a
//! monotone sequence number, so simulations are exactly reproducible.

pub mod addr;
pub mod events;
pub mod frame;
pub mod packet;
pub mod pch;
pub mod queue;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod topology;

pub use addr::{Addr, Prefix};
pub use frame::{FrameError, PchFrame};
pub use packet::Packet;
pub use pch::PchHeader;
pub use topology::{LinkId, NodeId, Topology};
