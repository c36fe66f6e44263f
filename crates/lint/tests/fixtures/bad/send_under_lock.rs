//! BAD: a blocking `send` on a bounded channel while a mutex guard is
//! live — backpressure deadlocks against the lock. The second fn shows
//! the transitive variant: the send hides behind a helper call. The third
//! binds a poison-tolerant guard: `unwrap_or_else` unwraps the
//! `LockResult` into the guard itself, which stays live to the block end.

impl Dispatcher {
    fn enqueue(&self, m: Frame) {
        let reg = self.registry.lock();
        self.to_workers.send(m);
        reg.note_enqueued();
    }

    fn notify(&self, m: Frame) {
        self.to_workers.send(m);
    }

    fn enqueue_via_helper(&self, m: Frame) {
        let reg = self.registry.lock();
        self.notify(m);
    }

    fn enqueue_poison_tolerant(&self, m: Frame) {
        let reg = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        self.to_workers.send(m);
        reg.note_enqueued();
    }
}
