//! Bandwidth model of the statistics link.
//!
//! A sampling window of `W` physical seconds gives the dispatcher a
//! transmission budget of `bandwidth × W` bits. When the window's statistics
//! exceed it (event-logging sniffers on a busy platform), the surplus
//! transmission time is charged to the VPCM as clock-freeze time — emulation
//! slows down, statistics survive.

use temu_state::{StateError, StateReader, StateWriter};

/// Largest payload of one MAC frame (the standard Ethernet MTU).
const MTU: u64 = 1500;

/// Smallest payload on the wire: a shorter frame is padded to it.
const MIN_PAYLOAD: u64 = 46;

/// Wire bytes every frame adds to its payload: 8-byte preamble, 14-byte
/// MAC header, 4-byte FCS and 12-byte inter-frame gap.
const FRAME_OVERHEAD: u64 = 8 + 14 + 4 + 12;

/// Bytes of one window's statistics record for a floorplan of
/// `components` components: a 33-byte header (type, sequence number,
/// window start and length in cycles, virtual clock, component count) and
/// one 32-bit power in milliwatts per component.
pub fn stats_record_bytes(components: usize) -> u64 {
    33 + 4 * components as u64
}

/// Link parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EthernetConfig {
    /// Raw link bandwidth, bits per second (the paper's boards speak
    /// 100 Mb/s Fast Ethernet).
    pub bandwidth_bps: u64,
    /// One-way latency, seconds (cable + MAC pipeline).
    pub latency_s: f64,
}

impl Default for EthernetConfig {
    fn default() -> EthernetConfig {
        EthernetConfig { bandwidth_bps: 100_000_000, latency_s: 50e-6 }
    }
}

/// Cumulative link statistics.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkStats {
    /// Frames sent to the host.
    pub frames: u64,
    /// Wire bytes sent to the host (frame overheads and padding included).
    pub wire_bytes: u64,
    /// Seconds of wire time consumed.
    pub busy_seconds: f64,
    /// Seconds of VPCM freeze caused by congestion.
    pub freeze_seconds: f64,
}

impl LinkStats {
    /// Serializes the counters into a checkpoint stream (floats by bit
    /// pattern, so a restored run continues on the identical trajectory).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.frames);
        w.u64(self.wire_bytes);
        w.f64(self.busy_seconds);
        w.f64(self.freeze_seconds);
    }

    /// Restores the counters from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a corrupt stream.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.frames = r.u64()?;
        self.wire_bytes = r.u64()?;
        self.busy_seconds = r.f64()?;
        self.freeze_seconds = r.f64()?;
        Ok(())
    }
}

/// The modeled Ethernet link between the FPGA and the host PC.
#[derive(Clone, Debug)]
pub struct EthernetLink {
    cfg: EthernetConfig,
    stats: LinkStats,
}

impl EthernetLink {
    /// Creates a link with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn new(cfg: EthernetConfig) -> EthernetLink {
        assert!(cfg.bandwidth_bps > 0, "link bandwidth must be nonzero");
        EthernetLink { cfg, stats: LinkStats::default() }
    }

    /// Statistics since construction.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Serializes the cumulative statistics (the link's only mutable state).
    pub fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    /// Restores statistics saved by [`EthernetLink::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a corrupt stream.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.stats.load_state(r)
    }

    /// Sends a window's `payload_bytes` to the host within a sampling
    /// window of `window_seconds` of physical time, as MTU-sized frames (an
    /// empty payload still takes one). Returns the **freeze seconds**: the
    /// transmission time that did not fit into the window and must stall
    /// the virtual platform clock (0.0 when the link keeps up).
    pub fn send_window(&mut self, payload_bytes: u64, window_seconds: f64) -> f64 {
        let frames = payload_bytes.div_ceil(MTU).max(1);
        let last_payload = payload_bytes - (frames - 1) * MTU;
        let wire_bytes = (frames - 1) * (MTU + FRAME_OVERHEAD) + last_payload.max(MIN_PAYLOAD) + FRAME_OVERHEAD;
        let t = wire_bytes as f64 * 8.0 / self.cfg.bandwidth_bps as f64 + self.cfg.latency_s;
        self.stats.frames += frames;
        self.stats.wire_bytes += wire_bytes;
        self.stats.busy_seconds += t;
        let freeze = (t - window_seconds).max(0.0);
        self.stats.freeze_seconds += freeze;
        freeze
    }
}

impl Default for EthernetLink {
    fn default() -> EthernetLink {
        EthernetLink::new(EthernetConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(frames, wire_bytes)` of one window carrying `payload_bytes`.
    fn books(payload_bytes: u64) -> (u64, u64) {
        let mut link = EthernetLink::default();
        let _ = link.send_window(payload_bytes, 0.010);
        (link.stats().frames, link.stats().wire_bytes)
    }

    #[test]
    fn frames_and_wire_bytes_match_mac_framing() {
        // What splitting the payload into real MAC frames counts: one
        // frame per started MTU, at least one, each padded to the minimum
        // payload and carrying 38 bytes of overhead.
        let table = [
            (0, 1, 84),
            (1, 1, 84),
            (46, 1, 84),
            (47, 1, 85),
            (1500, 1, 1538),
            (1501, 2, 1622),
            (1546, 2, 1622),
            (1547, 2, 1623),
            (3000, 2, 3076),
            (10_000_000, 6667, 10_253_346),
        ];
        for (payload, frames, wire_bytes) in table {
            assert_eq!(books(payload), (frames, wire_bytes), "{payload}-byte payload");
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let mut link = EthernetLink::default();
        let _ = link.send_window(1500, 0.010);
        // 1500 payload + 38 overhead = 1538 wire bytes at 100 Mb/s ≈ 123 µs
        // plus 50 µs latency.
        let t = link.stats().busy_seconds;
        assert!((t - (1538.0 * 8.0 / 100e6 + 50e-6)).abs() < 1e-9);
    }

    #[test]
    fn small_window_payload_never_congests() {
        // A count-logging statistics record in a 10 ms window.
        let mut link = EthernetLink::default();
        assert_eq!(link.send_window(stats_record_bytes(9), 0.010), 0.0);
        assert_eq!(link.stats().frames, 1);
    }

    #[test]
    fn oversized_event_dump_freezes_the_clock() {
        // 10 MB of event logs cannot cross a 100 Mb/s link in 10 ms.
        let mut link = EthernetLink::default();
        let freeze = link.send_window(10_000_000, 0.010);
        assert!(freeze > 0.5, "10 MB at 100 Mb/s takes ~0.82 s: freeze = {freeze}");
        assert!(link.stats().freeze_seconds > 0.5);
    }

    #[test]
    fn freeze_scales_with_overload() {
        let mut link = EthernetLink::default();
        let f1 = link.send_window(200_000, 0.001);
        let f2 = link.send_window(400_000, 0.001);
        assert!(f2 > f1 && f1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = EthernetLink::new(EthernetConfig { bandwidth_bps: 0, latency_s: 0.0 });
    }
}
