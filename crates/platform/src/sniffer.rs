//! HW sniffers (§4.1).
//!
//! Two kinds, as in the paper:
//!
//! * **count-logging** sniffers accumulate counters (the component statistics
//!   already maintained by the cores, caches, memories and interconnect —
//!   collected per sampling window by the engine). They are free: adding more
//!   monitored components does not slow the emulation down, which is the
//!   paper's key scalability argument against SW simulators.
//! * **event-logging** sniffers append one record per platform event to a
//!   bounded BRAM buffer that the Ethernet dispatcher drains. When the buffer
//!   saturates faster than the link can drain it, the VPCM freezes the
//!   virtual clock (congestion backpressure).

use std::collections::{vec_deque, VecDeque};
use temu_state::{StateError, StateReader, StateWriter};

/// Statistics-extraction mode of the platform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnifferMode {
    /// Counter-only extraction (the designers' default, per the paper).
    CountLogging,
    /// Exhaustive event records into a buffer of `capacity` events
    /// (the paper's BRAM buffer).
    EventLogging {
        /// Buffer capacity in events.
        capacity: usize,
    },
}

/// Kind of logged event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// Data read retired.
    Read = 0,
    /// Data write retired.
    Write = 1,
    /// Instruction-cache miss.
    MissI = 2,
    /// Data-cache miss.
    MissD = 3,
    /// Interconnect transaction.
    IcTxn = 4,
}

/// One event record. Serialized as 16 bytes on the statistics link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Virtual cycle of the event.
    pub time: u64,
    /// Issuing core.
    pub core: u8,
    /// Event kind.
    pub kind: EventKind,
    /// Byte address involved.
    pub addr: u32,
}

/// Bytes one logged event occupies: in the BRAM buffer (the FPGA fit
/// estimate sizes it with this) and on the statistics link, where every
/// event of a window, buffered or overflowed, adds this many bytes to the
/// window's payload.
pub const EVENT_BYTES: usize = 16;

/// The bounded event buffer (the paper's BRAM buffer). The Ethernet
/// dispatcher empties it once per sampling window
/// ([`EventBuffer::drain`]); an event that finds it full is counted, not
/// stored.
#[derive(Clone, Debug)]
pub struct EventBuffer {
    events: VecDeque<Event>,
    capacity: usize,
    /// Events that arrived while the buffer was full. The framework converts
    /// these into VPCM congestion freezes (the hardware would have stopped
    /// the virtual clock instead of dropping them).
    overflowed: u64,
    /// Total events ever offered.
    total: u64,
}

impl EventBuffer {
    /// Creates a buffer holding `capacity` events.
    pub fn new(capacity: usize) -> EventBuffer {
        EventBuffer { events: VecDeque::with_capacity(capacity.min(1 << 16)), capacity, overflowed: 0, total: 0 }
    }

    /// Offers an event; full buffers count an overflow instead of storing.
    pub fn push(&mut self, e: Event) {
        self.total += 1;
        if self.events.len() >= self.capacity {
            self.overflowed += 1;
        } else {
            self.events.push_back(e);
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events that found the buffer full since the last [`EventBuffer::take_overflowed`].
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Total events offered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resets and returns the overflow counter.
    pub fn take_overflowed(&mut self) -> u64 {
        std::mem::take(&mut self.overflowed)
    }

    /// Removes up to `max` of the oldest events (the Ethernet dispatcher
    /// shipping them). They are removed even if the returned iterator is
    /// dropped unread, so `drain(usize::MAX).len()` empties the buffer and
    /// counts what it held without copying a single event.
    pub fn drain(&mut self, max: usize) -> vec_deque::Drain<'_, Event> {
        let n = max.min(self.events.len());
        self.events.drain(..n)
    }

    /// Serializes the buffered events and overflow accounting (capacity is
    /// configuration, recomputed on rebuild).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.events.len());
        for e in &self.events {
            w.u64(e.time);
            w.u8(e.core);
            w.u8(e.kind as u8);
            w.u32(e.addr);
        }
        w.u64(self.overflowed);
        w.u64(self.total);
    }

    /// Restores state saved by [`EventBuffer::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if more events were recorded than
    /// this buffer's capacity, or [`StateError::BadValue`] on an unknown
    /// event kind.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n = r.usize()?;
        if n > self.capacity {
            return Err(StateError::BadLength { found: n as u64, max: self.capacity as u64 });
        }
        self.events.clear();
        for _ in 0..n {
            let time = r.u64()?;
            let core = r.u8()?;
            let kind = match r.u8()? {
                0 => EventKind::Read,
                1 => EventKind::Write,
                2 => EventKind::MissI,
                3 => EventKind::MissD,
                4 => EventKind::IcTxn,
                k => return Err(StateError::BadValue { what: "event kind", value: u64::from(k) }),
            };
            let addr = r.u32()?;
            self.events.push_back(Event { time, core, kind, addr });
        }
        self.overflowed = r.u64()?;
        self.total = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64) -> Event {
        Event { time, core: 0, kind: EventKind::Read, addr: 0x10 }
    }

    #[test]
    fn push_and_drain_fifo() {
        let mut b = EventBuffer::new(4);
        for t in 0..3 {
            b.push(ev(t));
        }
        assert_eq!(b.len(), 3);
        let d: Vec<Event> = b.drain(2).collect();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].time, 0);
        assert_eq!(d[1].time, 1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn overflow_counts_instead_of_storing() {
        let mut b = EventBuffer::new(2);
        for t in 0..5 {
            b.push(ev(t));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.overflowed(), 3);
        assert_eq!(b.total(), 5);
        assert_eq!(b.take_overflowed(), 3);
        assert_eq!(b.overflowed(), 0);
    }

    #[test]
    fn drain_more_than_available() {
        let mut b = EventBuffer::new(8);
        b.push(ev(1));
        assert_eq!(b.drain(100).len(), 1);
        assert!(b.is_empty());
    }
}
