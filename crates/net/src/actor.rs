//! The one reply shape of every protocol actor.
//!
//! Things, clients, the Manager and the edge caches are peers of one
//! UDP protocol. Each is a state machine over virtual time that owns no
//! clock and no network: the world feeds it a stimulus (a delivered
//! datagram, an expired timer, a board interrupt, a revive) and applies
//! the [`Reply`] it answers with.

use std::net::Ipv6Addr;

use upnp_sim::{CpuCost, SimDuration};

use crate::calib;
use crate::network::Datagram;

/// A side effect an actor asks the world to perform.
#[derive(Debug)]
pub enum Action {
    /// Transmit a datagram at the reply's send instant.
    Send(Datagram),
    /// Join a multicast group at the network layer.
    Join(Ipv6Addr),
    /// Leave a multicast group.
    Leave(Ipv6Addr),
    /// Wake the actor with `(key, gen)` once `after` has passed from the
    /// reply's ready instant. `gen` is a staleness token: the actor
    /// ignores a timer whose generation it has moved past.
    Timer {
        /// What the timer guards (a peripheral id).
        key: u32,
        /// The actor's generation when it armed the timer.
        gen: u64,
        /// Delay from the ready instant.
        after: SimDuration,
    },
}

/// An actor's answer to one stimulus at instant `at`: its actions, in
/// order, and the two processing legs the world turns into virtual time.
/// The reply is ready at `at + process` and its datagrams leave at
/// `ready + send_path`; a slowed node stretches both legs alike.
#[derive(Debug, Default)]
pub struct Reply {
    /// Receive and lookup leg.
    pub process: SimDuration,
    /// UDP/6LoWPAN send-path leg (applies to every `Send`).
    pub send_path: SimDuration,
    /// Side effects, in order.
    pub actions: Vec<Action>,
}

impl Reply {
    /// A reply without actions whose processing leg costs `cost`.
    pub fn with_cost(cost: CpuCost) -> Reply {
        Reply {
            process: calib::duration(cost),
            ..Reply::default()
        }
    }

    /// The same reply with the UDP send path as its send leg.
    pub fn sending(mut self) -> Reply {
        self.send_path = calib::duration(calib::UDP_SEND_PATH);
        self
    }
}

/// A reply without processing legs: its actions take effect at the
/// stimulus instant.
impl From<Vec<Action>> for Reply {
    fn from(actions: Vec<Action>) -> Reply {
        Reply {
            actions,
            ..Reply::default()
        }
    }
}
