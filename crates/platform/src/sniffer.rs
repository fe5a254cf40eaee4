//! HW sniffers (§4.1).
//!
//! Two kinds, as in the paper:
//!
//! * **count-logging** sniffers accumulate counters (the component statistics
//!   already maintained by the cores, caches, memories and interconnect —
//!   collected per sampling window by the engine). They are free: adding more
//!   monitored components does not slow the emulation down, which is the
//!   paper's key scalability argument against SW simulators.
//! * **event-logging** sniffers log one record per platform event into a
//!   bounded BRAM buffer that the Ethernet dispatcher drains once per
//!   sampling window. When the events outrun the buffer and the link, the
//!   VPCM freezes the virtual clock (congestion backpressure). The host
//!   side needs only how many events a window logged, each of which costs
//!   [`EVENT_BYTES`] on the link, so [`EventBuffer`] counts the events
//!   instead of storing them.

use temu_state::{StateError, StateReader, StateWriter};

/// Statistics-extraction mode of the platform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnifferMode {
    /// Counter-only extraction (the designers' default, per the paper).
    CountLogging,
    /// Exhaustive event logging into a buffer of `capacity` events
    /// (the paper's BRAM buffer).
    EventLogging {
        /// Buffer capacity in events.
        capacity: usize,
    },
}

/// Bytes one logged event occupies: in the BRAM buffer (the FPGA fit
/// estimate sizes it with this) and on the statistics link, where every
/// event of a window, buffered or overflowed, adds this many bytes to the
/// window's payload.
pub const EVENT_BYTES: usize = 16;

/// The bounded event buffer (the paper's BRAM buffer), as counts. The
/// Ethernet dispatcher empties it once per sampling window
/// ([`EventBuffer::take_window`]): of the `n` events a window logs, the
/// first `capacity` are buffered and the rest found the buffer full.
#[derive(Clone, Debug)]
pub struct EventBuffer {
    capacity: usize,
    /// Events logged since the last [`EventBuffer::take_window`].
    window: u64,
    /// Events logged in total.
    total: u64,
}

impl EventBuffer {
    /// Creates an empty buffer holding `capacity` events.
    pub fn new(capacity: usize) -> EventBuffer {
        EventBuffer { capacity, window: 0, total: 0 }
    }

    /// Logs one event.
    pub fn push(&mut self) {
        self.window += 1;
        self.total += 1;
    }

    /// `(buffered, overflowed)`: the events logged since the last
    /// [`EventBuffer::take_window`] that the buffer holds, and those that
    /// found it full. The framework converts the overflowed ones into VPCM
    /// congestion freezes (the hardware would have stopped the virtual
    /// clock instead of dropping them).
    pub fn pending(&self) -> (usize, u64) {
        let buffered = self.window.min(self.capacity as u64);
        (buffered as usize, self.window - buffered)
    }

    /// Empties the buffer (the dispatcher shipping the window's events) and
    /// returns what [`EventBuffer::pending`] held.
    pub fn take_window(&mut self) -> (usize, u64) {
        let pending = self.pending();
        self.window = 0;
        pending
    }

    /// Total events logged.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Serializes the counts: buffered, overflowed, total (capacity is
    /// configuration, recomputed on rebuild).
    pub fn save_state(&self, w: &mut StateWriter) {
        let (buffered, overflowed) = self.pending();
        w.usize(buffered);
        w.u64(overflowed);
        w.u64(self.total);
    }

    /// Restores state saved by [`EventBuffer::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if more events were buffered than
    /// this buffer's capacity, or [`StateError::BadValue`] if events
    /// overflowed a buffer that was not full.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let buffered = r.usize()?;
        if buffered > self.capacity {
            return Err(StateError::BadLength { found: buffered as u64, max: self.capacity as u64 });
        }
        let overflowed = r.u64()?;
        let full = buffered == self.capacity;
        self.window = (buffered as u64)
            .checked_add(overflowed)
            .filter(|_| full || overflowed == 0)
            .ok_or(StateError::BadValue { what: "events overflowing a buffer not full", value: overflowed })?;
        self.total = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_counts_instead_of_storing() {
        let mut b = EventBuffer::new(2);
        for _ in 0..5 {
            b.push();
        }
        assert_eq!(b.pending(), (2, 3));
        assert_eq!(b.total(), 5);
        assert_eq!(b.take_window(), (2, 3));
        assert_eq!(b.pending(), (0, 0), "the dispatcher emptied it");
        assert_eq!(b.total(), 5);
    }

    #[test]
    fn drain_more_than_available() {
        let mut b = EventBuffer::new(8);
        b.push();
        assert_eq!(b.take_window(), (1, 0));
        assert_eq!(b.take_window(), (0, 0));
    }

    #[test]
    fn state_round_trips_and_refuses_counts_no_buffer_holds() {
        let bytes = |buffered: usize, overflowed: u64| {
            let mut w = StateWriter::new(*b"EVTB", 1);
            w.usize(buffered);
            w.u64(overflowed);
            w.u64(9);
            w.into_bytes()
        };
        let load = |bytes: &[u8]| {
            let mut b = EventBuffer::new(4);
            let mut r = StateReader::new(bytes, *b"EVTB", 1).unwrap();
            b.load_state(&mut r).map(|()| b)
        };
        for (buffered, overflowed) in [(0, 0), (3, 0), (4, 0), (4, 5)] {
            let b = load(&bytes(buffered, overflowed)).unwrap();
            assert_eq!((b.pending(), b.total()), ((buffered, overflowed), 9));
            let mut w = StateWriter::new(*b"EVTB", 1);
            b.save_state(&mut w);
            assert_eq!(w.into_bytes(), bytes(buffered, overflowed));
        }
        assert!(matches!(load(&bytes(5, 0)), Err(StateError::BadLength { found: 5, max: 4 })));
        assert!(matches!(load(&bytes(3, 1)), Err(StateError::BadValue { .. })));
        assert!(matches!(load(&bytes(4, u64::MAX)), Err(StateError::BadValue { .. })));
    }
}
