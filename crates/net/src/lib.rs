//! The µPnP network architecture (paper §5).
//!
//! Three design elements carry the paper's networking contribution:
//!
//! * **Unicast-prefix-based IPv6 multicast addressing** ([`addr`],
//!   Figure 9): every peripheral type has its own multicast group with the
//!   32-bit device identifier embedded in the address, so discovery
//!   traffic is filtered *by the network layer*, not the application.
//! * **A compact UDP protocol on port 6030** ([`msg`], [`tlv`]): 17
//!   message types cover advertisement/discovery (Figure 10), driver
//!   management and read/stream/write interactions (Figure 11).
//! * **A lightweight stack**: IPv6 over 6LoWPAN with RPL routing and SMRF
//!   multicast forwarding ([`link`], [`sixlowpan`], [`rpl`], [`smrf`]),
//!   simulated at frame level with 802.15.4 timing and energy
//!   ([`network`]).
//!
//! [`calib`] holds the MCU-processing cost constants calibrated against
//! the paper's Table 4 timings, and [`actor`] the one [`Reply`] shape in
//! which every protocol actor answers a stimulus.

pub mod actor;
pub mod addr;
pub mod calib;
pub mod link;
pub mod msg;
pub mod network;
pub mod rpl;
pub mod sixlowpan;
pub mod smrf;
pub mod tlv;

pub use actor::{Action, Reply};
pub use addr::{all_clients_group, all_peripherals_group, peripheral_group, MCAST_PORT};
pub use link::{LinkQuality, RadioModel};
pub use msg::{Message, MessageBody, SeqNo};
pub use network::{Datagram, Delivery, Network, NodeId};
pub use tlv::{Tlv, TlvList, TlvType};
