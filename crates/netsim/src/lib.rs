//! Deterministic in-process network simulator.
//!
//! `netsim` is the bottom substrate of the MAQS-RS stack. It replaces the
//! operating-system network that the original MAQS prototype (Becker &
//! Geihs, ICDCS 2001) ran on, with three properties the QoS experiments
//! need and a real network does not give:
//!
//! * **Controllable links** — per-link latency, bandwidth, jitter and loss
//!   models, so "compression on a small-bandwidth channel" is an actual
//!   reproducible experiment rather than a hope.
//! * **Virtual time** — every message carries a virtual send/delivery
//!   timestamp computed from the link model. Nodes keep a virtual clock
//!   that advances on receipt, so transfer times are deterministic and do
//!   not depend on host scheduling.
//! * **Failure injection** — node crashes, link partitions and probabilistic
//!   message drops, needed by the fault-tolerance characteristic (E4).
//!
//! Messages are delivered through in-process channels immediately (wall
//! clock), while the *virtual* delivery time models what a real network
//! with the configured link characteristics would have done.
//!
//! # Example
//!
//! ```
//! use netsim::{Network, LinkModel};
//!
//! let net = Network::new(42);
//! let a = net.attach("client");
//! let b = net.attach("server");
//! net.set_link(a.id(), b.id(), LinkModel::lan());
//!
//! a.send(b.id(), b"hello".to_vec()).unwrap();
//! let msg = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(&msg.payload[..], b"hello");
//! // Virtual delivery time reflects the LAN latency model.
//! assert!(msg.deliver_vt > msg.send_vt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod link;
mod message;
mod network;
mod node;
pub mod rng;
mod stats;
mod time;

pub use fault::{FaultAction, FaultPlan, FaultScript, Partition};
pub use link::LinkModel;
pub use message::{Message, NodeId};
pub use network::{FaultObserver, Network, SendError};
pub use node::{NetHandle, RecvError};
pub use stats::{LinkStats, NetworkStats};
pub use time::{VirtualClock, VirtualDuration, VirtualInstant};
