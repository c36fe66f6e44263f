//! GOOD twin: the guard is dropped (or scoped out) before the blocking
//! send, and non-blocking `try_send` is fine even under the lock. A guard
//! that only feeds a chained call is a temporary, gone at the `;`, even
//! when `unwrap_or_else` unwraps it first.

impl Dispatcher {
    fn enqueue(&self, m: Frame) {
        {
            let reg = self.registry.lock();
            reg.note_enqueued();
        }
        self.to_workers.send(m);
    }

    fn enqueue_explicit_drop(&self, m: Frame) {
        let reg = self.registry.lock();
        drop(reg);
        self.to_workers.send(m);
    }

    fn enqueue_bounded(&self, m: Frame) {
        let reg = self.registry.lock();
        let _ = self.to_workers.try_send(m);
        reg.note_enqueued();
    }

    fn enqueue_after_chained_temporary(&self, m: Frame) {
        let pending = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_enqueued();
        self.to_workers.send(m);
    }
}
