//! The connection supervisor: budgeted, jittered-exponential
//! reconnection and the hello/welcome attachment handshake.
//!
//! Dialing a relay is the one place the TCP transport must tolerate
//! *repeated* failure (the relay may not be listening yet, a NAT
//! mapping may have lapsed, a connection may die mid-session).
//! [`attach`] wraps the whole sequence — connect with a deadline,
//! exchange `Hello`/`Welcome`, validate the version — in an attempt
//! budget with the same jittered-exponential backoff the serve layer
//! uses for admission shedding ([`crate::serve::backoff_delay`]), so a
//! thundering herd of reconnecting parties spreads out instead of
//! synchronizing.

use crate::serve::backoff_delay;
use crate::tcp::conn::{ConnConfig, FramedConn};
use crate::tcp::frame::{Frame, VERSION};
use crate::NetError;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// Reconnect policy of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Attempt budget: total connection attempts before
    /// [`NetError::ConnectFailed`].
    pub connect_attempts: u32,
    /// Deadline of one TCP connect.
    pub connect_timeout: Duration,
    /// Base of the jittered-exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_cap: Duration,
    /// Jitter seed (vary per party so herds desynchronize).
    pub seed: u64,
    /// Deadlines of the resulting framed connection.
    pub conn: ConnConfig,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            connect_attempts: 8,
            connect_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(800),
            seed: 0,
            conn: ConnConfig::default(),
        }
    }
}

/// A successful attachment: the framed connection, the assigned slot,
/// the session width, and how many failed attempts the backoff absorbed.
#[derive(Debug)]
pub struct Attachment {
    /// The attached, welcomed connection.
    pub conn: FramedConn,
    /// Slot the relay assigned.
    pub slot: usize,
    /// Total slots in the session.
    pub slots: usize,
    /// Attempts that failed before this one succeeded (each cost one
    /// backoff sleep; counted into `TransportCounters::reconnects` by
    /// callers re-attaching mid-session).
    pub failed_attempts: u32,
}

/// Dials `addr` and runs the attachment handshake: sends
/// `Hello { version, want_slot }`, expects `Welcome { slot, slots }`.
/// `want_slot = None` lets the relay pick any free slot (pass a slot to
/// reclaim a seat after a mid-session reconnect).
///
/// A connection that opens but then fails the hello exchange (a dead
/// relay, a reply other than `Welcome` or `Bye`) consumes one attempt and
/// re-dials. A `Bye`, the relay's refusal (it also answers a version
/// mismatch), is [`NetError::Refused`] and terminal — retrying a refusal
/// only hammers a relay that already said no.
///
/// # Errors
///
/// [`NetError::ConnectFailed`] when the budget is spent,
/// [`NetError::Refused`] on an explicit refusal.
pub fn attach(
    addr: SocketAddr,
    cfg: &SupervisorConfig,
    want_slot: Option<usize>,
) -> Result<Attachment, NetError> {
    let mut failed = 0u32;
    for attempt in 1..=cfg.connect_attempts.max(1) {
        match try_attach_once(addr, cfg, want_slot) {
            Ok((conn, slot, slots)) => {
                return Ok(Attachment {
                    conn,
                    slot,
                    slots,
                    failed_attempts: failed,
                })
            }
            Err(NetError::Refused) => return Err(NetError::Refused),
            Err(_) => {
                failed += 1;
                if attempt < cfg.connect_attempts {
                    thread::sleep(backoff_delay(
                        attempt,
                        cfg.backoff_base,
                        cfg.backoff_cap,
                        cfg.seed,
                    ));
                }
            }
        }
    }
    Err(NetError::ConnectFailed)
}

fn try_attach_once(
    addr: SocketAddr,
    cfg: &SupervisorConfig,
    want_slot: Option<usize>,
) -> Result<(FramedConn, usize, usize), NetError> {
    let stream =
        TcpStream::connect_timeout(&addr, cfg.connect_timeout).map_err(|_| NetError::Timeout)?;
    let mut conn = FramedConn::new(stream, cfg.conn)?;
    conn.send(&Frame::Hello {
        version: VERSION,
        want_slot: want_slot.map_or(u32::MAX, |s| s as u32),
    })?;
    match conn.recv()? {
        Frame::Welcome { slot, slots } => Ok((conn, slot as usize, slots as usize)),
        Frame::Bye => Err(NetError::Refused),
        // Any other reply is no answer to the hello: this connection is
        // unusable, so drop it and re-dial.
        _ => Err(NetError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn local_cfg() -> SupervisorConfig {
        SupervisorConfig {
            connect_attempts: 3,
            connect_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            ..Default::default()
        }
    }

    #[test]
    fn budget_exhaustion_is_structured() {
        // Bind then drop: the port is (very likely) unbound now, and
        // connecting to it fails fast with ECONNREFUSED.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert_eq!(
            attach(addr, &local_cfg(), None).unwrap_err(),
            NetError::ConnectFailed
        );
    }

    #[test]
    fn late_listener_is_reached_by_retry() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = SupervisorConfig {
            connect_attempts: 30,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(30),
            ..local_cfg()
        };
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let l = TcpListener::bind(addr).unwrap();
            let (s, _) = l.accept().unwrap();
            let mut c = FramedConn::new(s, ConnConfig::default()).unwrap();
            let _ = c.recv(); // swallow the hello
            let _ = c.send(&Frame::Welcome { slot: 1, slots: 3 });
        });
        let a = attach(addr, &cfg, None).unwrap();
        assert!(
            a.failed_attempts > 0,
            "the first attempts should have failed"
        );
        assert_eq!((a.slot, a.slots), (1, 3));
        binder.join().unwrap();
    }

    #[test]
    fn a_reply_that_is_no_answer_to_the_hello_is_retried() {
        // The listener answers the first dial's hello with a hello of its
        // own and welcomes the second dial.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let replies = [
                Frame::Hello {
                    version: VERSION,
                    want_slot: 0,
                },
                Frame::Welcome { slot: 2, slots: 3 },
            ];
            for reply in replies {
                let (s, _) = l.accept().unwrap();
                let mut c = FramedConn::new(s, ConnConfig::default()).unwrap();
                let _ = c.recv(); // swallow the hello
                let _ = c.send(&reply);
            }
        });
        let a = attach(addr, &local_cfg(), None).unwrap();
        assert_eq!((a.slot, a.slots, a.failed_attempts), (2, 3, 1));
        server.join().unwrap();
    }

    #[test]
    fn refusal_is_terminal() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut c = FramedConn::new(s, ConnConfig::default()).unwrap();
            let _ = c.recv(); // swallow the hello
            let _ = c.send(&Frame::Bye);
        });
        assert_eq!(
            attach(addr, &local_cfg(), None).unwrap_err(),
            NetError::Refused
        );
        server.join().unwrap();
    }
}
