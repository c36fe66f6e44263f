//! Framed TCP transport: real-network sessions behind the existing
//! net traits.
//!
//! The wire format is a minimal length-framed, versioned protocol
//! (see [`frame`]): an 8-byte header `"SH" ‖ version ‖ type ‖ len` and
//! a type-specific body, with oversize lengths rejected before any
//! allocation. On top of it:
//!
//! * [`conn::FramedConn`] — one deadline-supervised connection mapping
//!   socket failures onto the structured [`NetError`] classes,
//! * [`supervisor`] — budgeted, jitter-backoff dialing and the
//!   `Hello`/`Welcome` attachment handshake,
//! * [`relay::RelayHandle`] — the broadcast relay bridging connections
//!   into the shared routing step, with the [`FaultPlan`] injected at
//!   the framing boundary so the chaos suite runs unchanged over TCP,
//! * [`TcpSession`] — a [`Medium`]: the lockstep engine drives all
//!   slots through one relay over real sockets,
//! * [`TcpParty`] — a [`PartyLink`]: one party's endpoint for
//!   multi-process sessions (the `shs-node` daemon builds on this).
//!
//! Everything above the transport — the handshake engine, session
//! budgets, decoy machinery, abort taxonomy — is unchanged; this module
//! only swaps the medium underneath it.

pub mod conn;
pub mod frame;
pub mod relay;
pub mod supervisor;

pub use conn::{ConnConfig, FramedConn};
pub use relay::{RelayConfig, RelayHandle};
pub use supervisor::{attach, Attachment, SupervisorConfig};

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::sync::Received;
use crate::tcp::frame::Frame;
use crate::{Medium, NetError, PartyLink, TransportCounters};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Cap on the frames a [`TcpParty`] holds for rounds other than the one
/// it is collecting; the oldest is shed at capacity.
const HELD_CAP: usize = 1024;

/// A lockstep broadcast session over real TCP sockets: one in-process
/// relay plus one framed connection per slot, all on loopback.
///
/// Implements [`Medium`], so `run_handshake_with_net` drives it exactly
/// like the in-process [`crate::sync::BroadcastNet`] — same rounds, same
/// retransmission budget, same fault semantics — but every byte crosses
/// the kernel's TCP stack and faults are injected at the framing
/// boundary by the relay.
pub struct TcpSession {
    relay: RelayHandle,
    conns: Vec<Option<FramedConn>>,
    m: usize,
}

impl std::fmt::Debug for TcpSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpSession {{ slots: {}, relay: {} }}",
            self.m,
            self.relay.addr()
        )
    }
}

impl TcpSession {
    /// Binds a relay on `127.0.0.1:0`, installs `plan` at its framing
    /// boundary, and attaches one connection per slot.
    ///
    /// # Errors
    ///
    /// Propagates bind/attach failures ([`NetError::Disconnected`],
    /// [`NetError::ConnectFailed`], [`NetError::Refused`]).
    pub fn over_loopback(m: usize, plan: Option<FaultPlan>) -> Result<TcpSession, NetError> {
        let config = RelayConfig {
            gather_deadline: Duration::from_secs(10),
            ..RelayConfig::new(m)
        };
        let relay = RelayHandle::bind("127.0.0.1:0", config, plan)?;
        let addr = relay.addr();
        let sup = SupervisorConfig::default();
        let mut conns = Vec::with_capacity(m);
        for i in 0..m {
            let at = attach(addr, &sup, Some(i))?;
            conns.push(Some(at.conn));
        }
        Ok(TcpSession { relay, conns, m })
    }

    /// The relay's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.relay.addr()
    }

    /// Graceful teardown: every connection says `Bye` and drains, then
    /// the relay stops. Prefer this over plain dropping (which aborts
    /// the sockets hard).
    pub fn finish(mut self) {
        for slot in self.conns.iter_mut() {
            if let Some(conn) = slot.take() {
                conn.goodbye();
            }
        }
        self.relay.wait_done(Duration::from_secs(2));
    }
}

impl Drop for TcpSession {
    fn drop(&mut self) {
        for slot in self.conns.iter_mut() {
            if let Some(conn) = slot.as_mut() {
                conn.abort();
            }
        }
    }
}

impl Medium for TcpSession {
    fn slots(&self) -> usize {
        self.m
    }

    fn exchange(
        &mut self,
        round: &str,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<Received>>, NetError> {
        if outgoing.len() != self.m {
            return Err(NetError::IncompleteRound);
        }
        for (i, payload) in outgoing.into_iter().enumerate() {
            let conn = self
                .conns
                .get_mut(i)
                .and_then(Option::as_mut)
                .ok_or(NetError::Disconnected)?;
            conn.send(&Frame::Broadcast {
                round: round.to_string(),
                from_slot: i as u32,
                payload,
            })?;
        }
        let mut views = Vec::with_capacity(self.m);
        for i in 0..self.m {
            let conn = self
                .conns
                .get_mut(i)
                .and_then(Option::as_mut)
                .ok_or(NetError::Disconnected)?;
            let mut inbox = Vec::new();
            loop {
                match conn.recv()? {
                    Frame::Broadcast {
                        round: r,
                        from_slot,
                        payload,
                    } if r == round => {
                        inbox.push(Received {
                            from_slot: from_slot as usize,
                            payload,
                        });
                    }
                    Frame::RoundEnd { round: r } if r == round => break,
                    Frame::Bye => return Err(NetError::Disconnected),
                    // Heartbeats, stale-round frames and stray control
                    // frames are not part of the exchange.
                    _ => {}
                }
            }
            views.push(inbox);
        }
        Ok(views)
    }

    fn traffic_snapshot(&self) -> TrafficLog {
        self.relay.traffic()
    }

    fn crashed_slots(&self) -> Vec<usize> {
        self.relay.crashed_slots()
    }

    fn transport_counters(&self) -> TransportCounters {
        let mut total = self.relay.counters();
        for conn in self.conns.iter().flatten() {
            total.merge(&conn.counters());
        }
        total
    }
}

/// One party's framed TCP endpoint on a relay-hosted session.
///
/// Implements [`PartyLink`]: `broadcast` ships one `Broadcast` frame,
/// `collect` gathers the relay's exchange up to its `RoundEnd`,
/// heartbeating while it waits and transparently re-attaching (with its
/// reserved seat) when the connection dies under it. Frames of other
/// rounds that arrive meanwhile are held for that round's collect.
pub struct TcpParty {
    conn: FramedConn,
    slot: usize,
    slots: usize,
    addr: SocketAddr,
    sup: SupervisorConfig,
    counters: TransportCounters,
    /// A quiet collect pings the relay at this period so idle detection
    /// never fires on a merely slow round.
    heartbeat_period: Duration,
    /// `Broadcast` and `RoundEnd` frames of rounds other than the one
    /// being collected, oldest first, at most [`HELD_CAP`].
    held: VecDeque<Frame>,
}

impl std::fmt::Debug for TcpParty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpParty {{ slot: {}/{}, relay: {} }}",
            self.slot, self.slots, self.addr
        )
    }
}

impl TcpParty {
    /// Attaches to the relay at `addr` under the supervisor's budget,
    /// taking any free slot (or `want_slot` when reclaiming a seat).
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectFailed`] when the attempt budget is spent,
    /// [`NetError::Refused`] when the relay has no seat for us.
    pub fn attach(
        addr: SocketAddr,
        sup: SupervisorConfig,
        want_slot: Option<usize>,
    ) -> Result<TcpParty, NetError> {
        let at = attach(addr, &sup, want_slot)?;
        let mut counters = TransportCounters::default();
        counters.reconnects += u64::from(at.failed_attempts);
        Ok(TcpParty {
            conn: at.conn,
            slot: at.slot,
            slots: at.slots,
            addr,
            sup,
            counters,
            heartbeat_period: Duration::from_secs(1),
            held: VecDeque::new(),
        })
    }

    /// Keeps another round's frame for a later collect, shedding the
    /// oldest held one at capacity.
    fn hold(&mut self, frame: Frame) {
        if self.held.len() >= HELD_CAP {
            self.held.pop_front();
        }
        self.held.push_back(frame);
    }

    /// Re-dials the relay and reclaims this party's seat.
    fn reattach(&mut self) -> Result<(), NetError> {
        let at = attach(self.addr, &self.sup, Some(self.slot))?;
        self.counters.merge(&self.conn.counters());
        self.counters.reconnects += 1 + u64::from(at.failed_attempts);
        self.conn = at.conn;
        Ok(())
    }

    /// Graceful leave: `Bye`, half-close, drain.
    pub fn finish(mut self) {
        self.counters.merge(&self.conn.counters());
        self.conn.goodbye();
    }
}

impl PartyLink for TcpParty {
    fn slot(&self) -> usize {
        self.slot
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn broadcast(&mut self, round: &str, payload: Vec<u8>) -> Result<(), NetError> {
        let frame = Frame::Broadcast {
            round: round.to_string(),
            from_slot: self.slot as u32,
            payload,
        };
        match self.conn.send(&frame) {
            Ok(()) => Ok(()),
            Err(NetError::Disconnected) => {
                // One transparent re-attachment; a second failure is a
                // real outage the caller must surface.
                self.reattach()?;
                self.conn.send(&frame)
            }
            Err(e) => Err(e),
        }
    }

    fn collect(
        &mut self,
        round: &str,
        timeout: Duration,
        valid: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> Result<Vec<Option<Vec<u8>>>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut got: Vec<Option<Vec<u8>>> = vec![None; self.slots];
        let mut take = |from_slot: u32, payload: Vec<u8>, got: &mut Vec<Option<Vec<u8>>>| {
            let from = from_slot as usize;
            if let Some(cell @ None) = got.get_mut(from) {
                if valid(from, &payload) {
                    *cell = Some(payload);
                }
            }
        };
        // This round's frames that an earlier collect held, up to its
        // `RoundEnd`; everything else stays held, in order.
        let mut ended = false;
        for frame in std::mem::take(&mut self.held) {
            match frame {
                Frame::Broadcast {
                    round: r,
                    from_slot,
                    payload,
                } if !ended && r == round => take(from_slot, payload, &mut got),
                Frame::RoundEnd { round: r } if !ended && r == round => ended = true,
                other => self.hold(other),
            }
        }
        while !ended {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Quiet deadline: an incomplete view, not an error —
                // the driver's retransmission budget decides what next.
                break;
            }
            match self.conn.recv_within(left.min(self.heartbeat_period)) {
                Ok(Frame::Broadcast {
                    round: r,
                    from_slot,
                    payload,
                }) if r == round => take(from_slot, payload, &mut got),
                Ok(Frame::RoundEnd { round: r }) if r == round => ended = true,
                Ok(frame @ (Frame::Broadcast { .. } | Frame::RoundEnd { .. })) => self.hold(frame),
                Ok(Frame::Heartbeat) => {}
                Ok(Frame::Bye) => return Err(NetError::Disconnected),
                Ok(_) => {}
                Err(NetError::Timeout) => {
                    // Keep the seat observably alive while the relay
                    // waits for slower parties.
                    let _ = self.conn.ping();
                }
                Err(NetError::Disconnected) => {
                    // The round's frames are lost with the connection;
                    // reclaim the seat and let the driver rebroadcast.
                    self.reattach()?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    fn transport_counters(&self) -> TransportCounters {
        let mut total = self.counters;
        total.merge(&self.conn.counters());
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn tcp_session_exchanges_like_a_broadcast_medium() {
        let mut net = TcpSession::over_loopback(3, None).unwrap();
        let outgoing: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 16]).collect();
        let views = net.exchange("r1", outgoing).unwrap();
        assert_eq!(views.len(), 3);
        for view in &views {
            assert_eq!(view.len(), 3, "everyone hears everyone (echo included)");
            let mut froms: Vec<usize> = view.iter().map(|r| r.from_slot).collect();
            froms.sort_unstable();
            assert_eq!(froms, vec![0, 1, 2]);
        }
        let log = net.traffic_snapshot();
        assert_eq!(log.len(), 3, "the eavesdropper saw one send per slot");
        net.finish();
    }

    #[test]
    fn traffic_snapshot_includes_the_exchange_just_returned() {
        // The relay publishes an exchange before shipping it, so the
        // snapshot read right after `exchange` returns is never short.
        let mut net = TcpSession::over_loopback(3, None).unwrap();
        for k in 1..=2000 {
            let outgoing: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 4]).collect();
            net.exchange(&format!("r{k}"), outgoing).unwrap();
            assert_eq!(net.traffic_snapshot().len(), 3 * k, "after exchange {k}");
        }
        net.finish();
    }

    #[test]
    fn tcp_session_rejects_short_outgoing() {
        let mut net = TcpSession::over_loopback(2, None).unwrap();
        assert_eq!(
            net.exchange("r1", vec![vec![1]]).unwrap_err(),
            NetError::IncompleteRound
        );
        net.finish();
    }

    #[test]
    fn parties_complete_an_exchange_over_tcp() {
        let relay = RelayHandle::bind(
            "127.0.0.1:0",
            RelayConfig {
                gather_deadline: Duration::from_secs(5),
                ..RelayConfig::new(2)
            },
            None,
        )
        .unwrap();
        let addr = relay.addr();
        let workers: Vec<_> = (0..2)
            .map(|i| {
                thread::spawn(move || {
                    let sup = SupervisorConfig {
                        seed: i as u64,
                        ..SupervisorConfig::default()
                    };
                    let mut p = TcpParty::attach(addr, sup, Some(i)).unwrap();
                    p.broadcast("r1", vec![p.slot() as u8; 8]).unwrap();
                    let view = p
                        .collect("r1", Duration::from_secs(5), &mut |_, _| true)
                        .unwrap();
                    p.finish();
                    view
                })
            })
            .collect();
        for w in workers {
            let view = w.join().unwrap();
            assert_eq!(view.len(), 2);
            assert_eq!(view[0].as_deref(), Some(&[0u8; 8][..]));
            assert_eq!(view[1].as_deref(), Some(&[1u8; 8][..]));
        }
        assert!(relay.wait_done(Duration::from_secs(5)));
        relay.shutdown();
    }

    #[test]
    fn collect_filters_invalid_copies() {
        let relay = RelayHandle::bind(
            "127.0.0.1:0",
            RelayConfig {
                gather_deadline: Duration::from_secs(5),
                ..RelayConfig::new(2)
            },
            None,
        )
        .unwrap();
        let addr = relay.addr();
        let other = thread::spawn(move || {
            let mut p = TcpParty::attach(addr, SupervisorConfig::default(), Some(1)).unwrap();
            p.broadcast("r1", vec![7; 3]).unwrap(); // "wrong" length
            let _ = p.collect("r1", Duration::from_secs(5), &mut |_, _| true);
            p.finish();
        });
        let mut p = TcpParty::attach(addr, SupervisorConfig::default(), Some(0)).unwrap();
        p.broadcast("r1", vec![0; 8]).unwrap();
        let view = p
            .collect("r1", Duration::from_secs(5), &mut |_, payload| {
                payload.len() == 8
            })
            .unwrap();
        assert_eq!(view[0].as_deref(), Some(&[0u8; 8][..]));
        assert_eq!(view[1], None, "the short copy must be filtered out");
        p.finish();
        other.join().unwrap();
        relay.shutdown();
    }

    #[test]
    fn collect_keeps_frames_of_a_round_shipped_while_another_is_collected() {
        let relay = RelayHandle::bind(
            "127.0.0.1:0",
            RelayConfig {
                gather_deadline: Duration::from_secs(5),
                ..RelayConfig::new(2)
            },
            None,
        )
        .unwrap();
        let addr = relay.addr();
        let other = thread::spawn(move || {
            let mut p = TcpParty::attach(addr, SupervisorConfig::default(), Some(1)).unwrap();
            p.broadcast("b", vec![1; 8]).unwrap();
            let view = p
                .collect("b", Duration::from_secs(5), &mut |_, _| true)
                .unwrap();
            p.finish();
            view
        });
        let mut p = TcpParty::attach(addr, SupervisorConfig::default(), Some(0)).unwrap();
        p.broadcast("b", vec![0; 8]).unwrap();
        // Once slot 1 has round `b`, the relay has shipped it to slot 0
        // too, which reads it while it still collects round `a`.
        let both = other.join().unwrap();
        assert!(both.iter().all(Option::is_some));
        let a = p
            .collect("a", Duration::from_millis(300), &mut |_, _| true)
            .unwrap();
        assert_eq!(a, vec![None, None], "round `a` was never shipped");
        let b = p
            .collect("b", Duration::from_secs(2), &mut |_, _| true)
            .unwrap();
        assert_eq!(b[0].as_deref(), Some(&[0u8; 8][..]));
        assert_eq!(b[1].as_deref(), Some(&[1u8; 8][..]), "round `b` was held");
        p.finish();
        relay.shutdown();
    }
}
