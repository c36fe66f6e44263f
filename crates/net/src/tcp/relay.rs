//! The broadcast relay: bridges framed TCP connections into the shared
//! routing step ([`Router`]), with fault injection at the framing
//! boundary.
//!
//! One relay hosts one session of `slots` parties. Parties attach with
//! a `Hello`/`Welcome` exchange (the seat roster supports re-attachment
//! after a lost connection), then their `Broadcast` frames are gathered
//! into batches per round label, at most one frame per seat; batches of
//! different labels gather side by side. A label's oldest batch is
//! routed once every attached seat has contributed or can be stood in,
//! or `round_deadline` after its first frame. The relay publishes the
//! [`TrafficLog`] and crashed set, then ships each attached receiver its
//! copies as `Broadcast` frames and one `RoundEnd` — nothing when every
//! frame was absorbed. A receiver that stops draining its socket past
//! the write deadline loses frames (tallied as
//! [`crate::observe::FaultCounters::backpressure_dropped`]) rather than
//! wedging the relay: a slow party cannot deadlock the medium.

use crate::fault::FaultPlan;
use crate::observe::TrafficLog;
use crate::route::Router;
use crate::tcp::conn::{ConnConfig, FramedConn};
use crate::tcp::frame::{Frame, VERSION};
use crate::{NetError, TransportCounters};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning of one relay-hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayConfig {
    /// Number of party seats.
    pub slots: usize,
    /// A batch is routed this long after its first frame even if some
    /// attached seat has neither contributed nor sent the label before
    /// (so no stand-in exists for it).
    pub round_deadline: Duration,
    /// How long to wait for all seats to attach before starting with
    /// whoever came (absent seats count as vanished).
    pub gather_deadline: Duration,
    /// Reader idle detection: a seat silent for this long (no frames,
    /// no heartbeats) is declared gone.
    pub idle_timeout: Duration,
    /// Deadlines of every accepted connection.
    pub conn: ConnConfig,
}

impl RelayConfig {
    /// Defaults for a session of `slots` parties.
    pub fn new(slots: usize) -> RelayConfig {
        RelayConfig {
            slots,
            round_deadline: Duration::from_secs(2),
            gather_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            conn: ConnConfig::default(),
        }
    }
}

/// Seat occupancy in the attachment roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seat {
    Free,
    Taken,
    /// Previously taken, connection lost — eligible for re-attachment.
    Gone,
}

enum Event {
    Attached {
        slot: usize,
        writer: FramedConn,
    },
    Frame {
        slot: usize,
        round: String,
        payload: Vec<u8>,
    },
    Gone {
        slot: usize,
        graceful: bool,
    },
}

#[derive(Default)]
struct Shared {
    log: TrafficLog,
    crashed: Vec<usize>,
    counters: TransportCounters,
    done: bool,
}

/// A bound, running relay. Dropping the handle stops the relay and
/// joins its threads.
pub struct RelayHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Mutex<Shared>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    core_thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RelayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RelayHandle {{ addr: {} }}", self.addr)
    }
}

impl RelayHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts relaying a session
    /// per `config`, with `plan` injected at the framing boundary.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the listener cannot bind.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: RelayConfig,
        plan: Option<FaultPlan>,
    ) -> Result<RelayHandle, NetError> {
        let listener = TcpListener::bind(addr).map_err(|_| NetError::Disconnected)?;
        let local = listener.local_addr().map_err(|_| NetError::Disconnected)?;
        listener
            .set_nonblocking(true)
            .map_err(|_| NetError::Disconnected)?;

        let shared = Arc::new(Mutex::new(Shared::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let roster = Arc::new(Mutex::new(vec![Seat::Free; config.slots]));
        // Events: frames from every reader plus attach/gone notices.
        // Bounded so a flooding sender backpressures at its socket.
        let (tx, rx) = sync_channel::<Event>(1024);

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let roster = Arc::clone(&roster);
            thread::spawn(move || accept_loop(&listener, &config, &stop, &tx, &roster))
        };
        drop(tx);
        let core_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let roster = Arc::clone(&roster);
            thread::spawn(move || core_loop(config, plan, &rx, &shared, &stop, &roster))
        };

        Ok(RelayHandle {
            addr: local,
            shared,
            stop,
            accept_thread: Some(accept_thread),
            core_thread: Some(core_thread),
        })
    }

    /// The bound address (query it after binding port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Snapshot of the eavesdropper's log so far.
    pub fn traffic(&self) -> TrafficLog {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log
            .clone()
    }

    /// Seats currently considered crash-stopped: fault-plan crashes plus
    /// seats that vanished without a graceful `Bye`.
    pub fn crashed_slots(&self) -> Vec<usize> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .crashed
            .clone()
    }

    /// Relay-side transport counters.
    pub fn counters(&self) -> TransportCounters {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
    }

    /// Has the session completed (every attached seat said `Bye` or
    /// vanished)?
    pub fn done(&self) -> bool {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .done
    }

    /// Blocks until the session completes or `timeout` expires; returns
    /// whether it completed.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.done() {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.done()
    }

    /// Stops the relay and joins its threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.core_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &RelayConfig,
    stop: &AtomicBool,
    tx: &SyncSender<Event>,
    roster: &Mutex<Vec<Seat>>,
) {
    let mut readers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if let Some(handle) = admit(stream, config, tx, roster) {
                    readers.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for r in readers {
        let _ = r.join();
    }
}

/// Runs the hello exchange on a fresh connection and, on success,
/// spawns its reader thread. Refused connections get a `Bye`.
fn admit(
    stream: std::net::TcpStream,
    config: &RelayConfig,
    tx: &SyncSender<Event>,
    roster: &Mutex<Vec<Seat>>,
) -> Option<thread::JoinHandle<()>> {
    let mut conn = FramedConn::new(stream, config.conn).ok()?;
    let hello = conn.recv_within(Duration::from_secs(2)).ok()?;
    let Frame::Hello { version, want_slot } = hello else {
        let _ = conn.send(&Frame::Bye);
        return None;
    };
    if version != VERSION {
        let _ = conn.send(&Frame::Bye);
        return None;
    }
    let slot = {
        let mut seats = roster.lock().unwrap_or_else(PoisonError::into_inner);
        let want = (want_slot != u32::MAX).then_some(want_slot as usize);
        let granted = match want {
            Some(s) => seats
                .get(s)
                .is_some_and(|seat| *seat != Seat::Taken)
                .then_some(s),
            None => seats.iter().position(|seat| *seat == Seat::Free),
        };
        match granted {
            Some(s) => {
                if let Some(seat) = seats.get_mut(s) {
                    *seat = Seat::Taken;
                }
                s
            }
            None => {
                drop(seats);
                let _ = conn.send(&Frame::Bye);
                return None;
            }
        }
    };
    if conn
        .send(&Frame::Welcome {
            slot: slot as u32,
            slots: config.slots as u32,
        })
        .is_err()
    {
        if let Some(seat) = roster
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(slot)
        {
            *seat = Seat::Gone;
        }
        return None;
    }
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => {
            if let Some(seat) = roster
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_mut(slot)
            {
                *seat = Seat::Gone;
            }
            return None;
        }
    };
    if tx.send(Event::Attached { slot, writer }).is_err() {
        return None;
    }
    let tx = tx.clone();
    let idle = config.idle_timeout;
    Some(thread::spawn(move || reader_loop(conn, slot, idle, &tx)))
}

/// Reads one seat's connection until `Bye`, disconnect, idle timeout or
/// a malformed frame; forwards broadcasts, swallows heartbeats.
fn reader_loop(mut conn: FramedConn, slot: usize, idle: Duration, tx: &SyncSender<Event>) {
    let graceful = loop {
        match conn.recv_within(idle) {
            Ok(Frame::Broadcast { round, payload, .. }) => {
                if tx
                    .send(Event::Frame {
                        slot,
                        round,
                        payload,
                    })
                    .is_err()
                {
                    break false;
                }
            }
            Ok(Frame::Heartbeat) => {}
            Ok(Frame::Bye) => break true,
            // Hello/Welcome/RoundEnd from a client are protocol abuse;
            // a frame error means the stream desynchronized. Both end
            // the seat.
            Ok(_) => break false,
            // One full idle window with no traffic at all: declare the
            // seat dead rather than blocking forever.
            Err(_) => break false,
        }
    };
    let _ = tx.send(Event::Gone { slot, graceful });
}

/// Cap on batches being gathered; a frame beyond it is shed like any
/// other backpressure loss.
const BATCH_CAP: usize = 1024;

/// Frames gathered under one round label, at most one per seat.
struct Batch {
    label: String,
    frames: Vec<Option<Vec<u8>>>,
    first_at: Instant,
}

struct CoreState {
    m: usize,
    alive: Vec<bool>,
    /// Seats that attached at least once (a seat that attached and then
    /// left gracefully is done, not crashed).
    ever_attached: Vec<bool>,
    /// Seats that disappeared without a graceful `Bye`.
    vanished: Vec<bool>,
    writers: Vec<Option<FramedConn>>,
    /// Batches being gathered, oldest first (a label's oldest goes next).
    batches: Vec<Batch>,
    router: Router,
}

impl CoreState {
    fn apply(&mut self, ev: Event, roster: &Mutex<Vec<Seat>>) {
        match ev {
            Event::Frame {
                slot,
                round,
                payload,
            } => self.gather(slot, round, payload),
            Event::Attached { slot, writer } if slot < self.m => {
                self.writers[slot] = Some(writer);
                self.alive[slot] = true;
                self.ever_attached[slot] = true;
                self.vanished[slot] = false;
            }
            Event::Gone { slot, graceful } if slot < self.m => {
                self.retire(slot, !graceful);
                if let Some(seat) = roster
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_mut(slot)
                {
                    *seat = Seat::Gone;
                }
            }
            _ => {}
        }
    }

    /// Takes a seat out of the session; one that left without `Bye`
    /// counts as crashed.
    fn retire(&mut self, slot: usize, vanished: bool) {
        self.alive[slot] = false;
        self.vanished[slot] |= vanished;
        if let Some(mut conn) = self.writers[slot].take() {
            conn.abort();
        }
    }

    /// Adds a frame to the oldest batch of its label that lacks this
    /// seat, or opens a new batch.
    fn gather(&mut self, slot: usize, label: String, payload: Vec<u8>) {
        if slot >= self.m {
            return;
        }
        let full = self.batches.len() >= BATCH_CAP;
        let open = self
            .batches
            .iter_mut()
            .find(|b| b.label == label && b.frames[slot].is_none());
        match open {
            Some(batch) => batch.frames[slot] = Some(payload),
            None if full => self.router.count_backpressure_drops(1),
            None => {
                let mut frames = vec![None; self.m];
                frames[slot] = Some(payload);
                let first_at = Instant::now();
                self.batches.push(Batch {
                    label,
                    frames,
                    first_at,
                });
            }
        }
    }

    fn any_alive(&self) -> bool {
        self.alive.iter().any(|&a| a)
    }

    /// Has every attached seat contributed to `batch` or can be stood
    /// in, or has the batch waited out the round deadline?
    fn ready(&self, batch: &Batch, round_deadline: Duration) -> bool {
        batch.first_at.elapsed() >= round_deadline
            || (0..self.m).all(|s| {
                !self.alive[s] || batch.frames[s].is_some() || self.router.has_sent(&batch.label, s)
            })
    }

    /// Routes every ready batch that is the oldest of its label.
    fn route_ready(&mut self, round_deadline: Duration, shared: &Mutex<Shared>) {
        while let Some(i) = (0..self.batches.len()).find(|&i| {
            let label = &self.batches[i].label;
            !self.batches[..i].iter().any(|b| b.label == *label)
                && self.ready(&self.batches[i], round_deadline)
        }) {
            let batch = self.batches.remove(i);
            self.run_exchange(batch, shared);
        }
    }

    /// All currently crashed seats: fault-plan crashes plus vanished
    /// connections.
    fn crashed(&self) -> Vec<usize> {
        let planned = self.router.crashed_slots();
        (0..self.m)
            .filter(|s| self.vanished[*s] || planned.contains(s))
            .collect()
    }

    fn publish(&self, shared: &Mutex<Shared>, done: bool) {
        let log = self.router.traffic().clone();
        let crashed = self.crashed();
        let mut sh = shared.lock().unwrap_or_else(PoisonError::into_inner);
        sh.log = log;
        sh.crashed = crashed;
        sh.done = done;
    }

    /// Routes one batch and ships the result. The exchange is published
    /// before any receiver can see it, so a snapshot taken once a
    /// party holds its inbox includes the exchange.
    fn run_exchange(&mut self, batch: Batch, shared: &Mutex<Shared>) {
        let sends = batch
            .frames
            .into_iter()
            .enumerate()
            .filter_map(|(s, frame)| frame.map(|p| (s, p)));
        let Some(inboxes) = self
            .router
            .route(&batch.label, sends, Some(&self.alive), None)
        else {
            return;
        };
        self.publish(shared, false);
        for (to, inbox) in inboxes.into_iter().enumerate() {
            if !self.alive[to] {
                continue;
            }
            let mut outbox: Vec<Frame> = inbox
                .into_iter()
                .map(|r| Frame::Broadcast {
                    round: batch.label.clone(),
                    from_slot: r.from_slot as u32,
                    payload: r.payload,
                })
                .collect();
            outbox.push(Frame::RoundEnd {
                round: batch.label.clone(),
            });
            self.ship(to, &outbox);
        }
    }

    /// Writes an outbox to one seat. A write deadline sheds the rest of
    /// the outbox (backpressure; the receiver's collect deadline and the
    /// session budget absorb the loss); a disconnect retires the seat.
    fn ship(&mut self, to: usize, outbox: &[Frame]) {
        let Some(Some(conn)) = self.writers.get_mut(to) else {
            return;
        };
        match outbox.iter().try_for_each(|frame| conn.send(frame)) {
            Ok(()) => {}
            Err(NetError::Timeout) => self.router.count_backpressure_drops(outbox.len() as u64),
            Err(_) => self.retire(to, true),
        }
    }
}

fn core_loop(
    config: RelayConfig,
    plan: Option<FaultPlan>,
    rx: &Receiver<Event>,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    roster: &Mutex<Vec<Seat>>,
) {
    let m = config.slots;
    let mut st = CoreState {
        m,
        alive: vec![false; m],
        ever_attached: vec![false; m],
        vanished: vec![false; m],
        writers: (0..m).map(|_| None).collect(),
        batches: Vec::new(),
        router: Router::new(m, plan),
    };

    // ---- Gather: wait for the seats to attach --------------------------
    let gather_deadline = Instant::now() + config.gather_deadline;
    while st.ever_attached.iter().filter(|&&e| e).count() < m && !stop.load(Ordering::SeqCst) {
        let left = gather_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left.min(Duration::from_millis(50))) {
            Ok(ev) => st.apply(ev, roster),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Seats that never showed up before the gather deadline count as
    // crash-stopped; seats that attached and already left are judged by
    // how they left (the `Gone` event).
    for s in 0..m {
        st.vanished[s] |= !st.ever_attached[s];
    }
    st.publish(shared, !st.any_alive());

    // ---- Exchange loop -------------------------------------------------
    while st.any_alive() && !stop.load(Ordering::SeqCst) {
        st.route_ready(config.round_deadline, shared);
        let wait = st
            .batches
            .iter()
            .map(|b| config.round_deadline.saturating_sub(b.first_at.elapsed()))
            .min()
            .unwrap_or(Duration::from_millis(100))
            .clamp(Duration::from_millis(1), Duration::from_millis(100));
        match rx.recv_timeout(wait) {
            Ok(ev) => st.apply(ev, roster),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // ---- Teardown ------------------------------------------------------
    for w in st.writers.iter_mut() {
        if let Some(conn) = w.as_mut() {
            let _ = conn.send(&Frame::Bye);
            conn.abort();
        }
        *w = None;
    }
    st.publish(shared, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::supervisor::{attach, SupervisorConfig};

    fn fast_relay(m: usize, plan: Option<FaultPlan>) -> RelayHandle {
        let config = RelayConfig {
            gather_deadline: Duration::from_secs(5),
            round_deadline: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            ..RelayConfig::new(m)
        };
        RelayHandle::bind("127.0.0.1:0", config, plan).unwrap()
    }

    #[test]
    fn two_seats_complete_one_round() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let parties: Vec<_> = (0..2)
            .map(|i| {
                let cfg = SupervisorConfig::default();
                thread::spawn(move || {
                    let mut a = attach(addr, &cfg, None).unwrap();
                    a.conn
                        .send(&Frame::Broadcast {
                            round: "r1".to_string(),
                            from_slot: a.slot as u32,
                            payload: vec![i as u8; 8],
                        })
                        .unwrap();
                    let mut got = Vec::new();
                    loop {
                        match a.conn.recv().unwrap() {
                            Frame::Broadcast { from_slot, .. } => got.push(from_slot),
                            Frame::RoundEnd { round } => {
                                assert_eq!(round, "r1");
                                break;
                            }
                            _ => {}
                        }
                    }
                    a.conn.goodbye();
                    got
                })
            })
            .collect();
        for p in parties {
            let mut got = p.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1], "everyone hears everyone, echo included");
        }
        assert!(relay.wait_done(Duration::from_secs(5)));
        assert_eq!(relay.traffic().len(), 2);
        relay.shutdown();
    }

    #[test]
    fn slot_reservation_and_rejoin() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let cfg = SupervisorConfig::default();
        let a = attach(addr, &cfg, Some(1)).unwrap();
        assert_eq!(a.slot, 1);
        // The seat is taken now.
        assert_eq!(attach(addr, &cfg, Some(1)).unwrap_err(), NetError::Refused);
        // Drop it hard; the seat becomes Gone and may be reclaimed.
        drop(a.conn);
        let deadline = Instant::now() + Duration::from_secs(5);
        let rejoined = loop {
            match attach(addr, &cfg, Some(1)) {
                Ok(at) => break at,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("rejoin failed: {e}"),
            }
        };
        assert_eq!(rejoined.slot, 1);
        relay.shutdown();
    }

    #[test]
    fn vanished_seat_is_reported_crashed() {
        let relay = fast_relay(2, None);
        let addr = relay.addr();
        let cfg = SupervisorConfig::default();
        let a = attach(addr, &cfg, Some(0)).unwrap();
        let b = attach(addr, &cfg, Some(1)).unwrap();
        drop(b.conn); // vanishes without Bye
        a.conn.goodbye();
        assert!(relay.wait_done(Duration::from_secs(5)));
        assert_eq!(relay.crashed_slots(), vec![1]);
        relay.shutdown();
    }
}
