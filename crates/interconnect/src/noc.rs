//! Packet-switched NoC timing model (§3.3).
//!
//! The paper instantiates Xpipes-generated NoCs ("custom-made NoCs — number
//! of switches and links — can be generated using XpipesCompiler"; the memory
//! controller and main-memory bridges speak OCP transactions to the network
//! interfaces). This model reproduces that class of network at packet
//! granularity:
//!
//! * switches connected by point-to-point 32-bit links (one flit per cycle),
//! * deterministic shortest-path routing (precomputed, lowest-index tie-break),
//! * store-and-forward per hop: a packet leaves a switch `router_latency`
//!   cycles after its tail arrived, subject to the output link being free,
//! * read requests are `header + addr` flits, write requests carry their
//!   payload; responses carry the read data back.
//!
//! Output-buffer depth is carried in the configuration for the FPGA resource
//! and power models; queueing beyond the buffer is modeled by the link
//! busy-until window (the cycle-level baseline implements the identical
//! discipline, keeping the two engines cycle-exact).

use crate::req::{Grant, IcStats, Request};
use crate::{addr_transitions, data_transitions, IcError};
use temu_state::{StateError, StateReader, StateWriter};

/// NoC topology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Topology {
    /// `cols x rows` mesh; switch `(x, y)` has index `y * cols + x`.
    Mesh {
        /// Number of columns.
        cols: usize,
        /// Number of rows.
        rows: usize,
    },
    /// Ring of `n` switches.
    Ring(usize),
    /// Arbitrary undirected links over `switches` nodes.
    Custom {
        /// Number of switches.
        switches: usize,
        /// Undirected switch-to-switch links.
        links: Vec<(usize, usize)>,
    },
}

impl Topology {
    /// Number of switches in the topology.
    pub fn switches(&self) -> usize {
        match self {
            Topology::Mesh { cols, rows } => cols * rows,
            Topology::Ring(n) => *n,
            Topology::Custom { switches, .. } => *switches,
        }
    }

    /// Undirected link list.
    pub fn links(&self) -> Vec<(usize, usize)> {
        match self {
            Topology::Mesh { cols, rows } => {
                let mut l = Vec::new();
                for y in 0..*rows {
                    for x in 0..*cols {
                        let s = y * cols + x;
                        if x + 1 < *cols {
                            l.push((s, s + 1));
                        }
                        if y + 1 < *rows {
                            l.push((s, s + cols));
                        }
                    }
                }
                l
            }
            Topology::Ring(n) => match n {
                0 | 1 => Vec::new(),
                2 => vec![(0, 1)],
                n => (0..*n).map(|i| (i, (i + 1) % n)).collect(),
            },
            Topology::Custom { links, .. } => links.clone(),
        }
    }
}

/// NoC configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NocConfig {
    /// Switch topology.
    pub topology: Topology,
    /// Cycles a packet spends in each switch (arbitration + crossbar).
    pub router_latency: u32,
    /// Output-buffer depth in flits (resource/power model input).
    pub buffer_flits: u32,
    /// Switch index each core's network interface attaches to.
    pub core_switch: Vec<usize>,
    /// Switch index each memory port's network interface attaches to.
    pub mem_switch: Vec<usize>,
}

impl NocConfig {
    /// The Dithering NoC of §7: 2 switches with 4 in/out ports and 3-flit
    /// output buffers; two cores per switch, shared memory on switch 1.
    pub fn paper_two_switch(cores: usize) -> NocConfig {
        NocConfig {
            topology: Topology::Ring(2),
            router_latency: 2,
            buffer_flits: 3,
            core_switch: (0..cores).map(|c| if c < cores.div_ceil(2) { 0 } else { 1 }).collect(),
            mem_switch: vec![1],
        }
    }

    /// The Matrix-TM NoC of §7: 4 six-by-six switches (2x2 mesh), one core
    /// per switch, shared memory on switch 0.
    pub fn paper_four_switch(cores: usize) -> NocConfig {
        NocConfig {
            topology: Topology::Mesh { cols: 2, rows: 2 },
            router_latency: 2,
            buffer_flits: 3,
            core_switch: (0..cores).map(|c| c % 4).collect(),
            mem_switch: vec![0],
        }
    }

    /// The six-switch NoC whose synthesis the paper reports at 70 % of the
    /// V2VP30 (6 switches, 4 I/O channels, 3 output buffers).
    pub fn paper_six_switch(cores: usize) -> NocConfig {
        NocConfig {
            topology: Topology::Mesh { cols: 3, rows: 2 },
            router_latency: 2,
            buffer_flits: 3,
            core_switch: (0..cores).map(|c| c % 6).collect(),
            mem_switch: vec![5],
        }
    }

    /// Validates connectivity and attachment indices.
    ///
    /// # Errors
    ///
    /// Returns a description if the graph is disconnected, an attachment
    /// names a nonexistent switch, there are no cores or memories, or
    /// `router_latency` is zero.
    pub fn validate(&self) -> Result<(), IcError> {
        let n = self.topology.switches();
        if n == 0 {
            return Err(IcError::NoSwitches);
        }
        if self.router_latency == 0 {
            return Err(IcError::ZeroRouterLatency);
        }
        if self.core_switch.is_empty() {
            return Err(IcError::NoCoresAttached);
        }
        if self.mem_switch.is_empty() {
            return Err(IcError::NoMemoriesAttached);
        }
        for (i, &s) in self.core_switch.iter().chain(self.mem_switch.iter()).enumerate() {
            if s >= n {
                return Err(IcError::AttachmentOutOfRange { index: i, switch: s, switches: n });
            }
        }
        for &(a, b) in &self.topology.links() {
            if a >= n || b >= n {
                return Err(IcError::LinkOutOfRange { a, b, switches: n });
            }
        }
        // Connectivity via BFS from switch 0.
        let adj = adjacency(&self.topology);
        let mut seen = vec![false; n];
        let mut queue = vec![0usize];
        seen[0] = true;
        while let Some(u) = queue.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(IcError::Disconnected);
        }
        Ok(())
    }
}

fn adjacency(t: &Topology) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); t.switches()];
    for (a, b) in t.links() {
        adj[a].push(b);
        adj[b].push(a);
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// A NoC instance with precomputed routes and per-link occupancy state.
#[derive(Clone, Debug)]
pub struct Noc {
    cfg: NocConfig,
    /// `next[s][d]`: neighbour to forward to when heading from `s` to `d`.
    next: Vec<Vec<usize>>,
    /// Busy-until per directed link, keyed `(from, to)` densely: `from * n + to`.
    link_busy: Vec<u64>,
    switches: usize,
    last_addr: u32,
    stats: IcStats,
}

impl Noc {
    /// Builds a NoC from a validated configuration, precomputing routes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: NocConfig) -> Noc {
        if let Err(e) = cfg.validate() {
            panic!("invalid NoC configuration: {e}");
        }
        let n = cfg.topology.switches();
        let adj = adjacency(&cfg.topology);
        // BFS from every destination; `next[s][d]` = first hop of a shortest
        // path with lowest-index tie-break (deterministic routing tables, as
        // Xpipes uses static routing).
        let mut next = vec![vec![usize::MAX; n]; n];
        for d in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[d] = 0;
            let mut frontier = std::collections::VecDeque::from([d]);
            while let Some(u) = frontier.pop_front() {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        frontier.push_back(v);
                    }
                }
            }
            for s in 0..n {
                if s == d {
                    continue;
                }
                next[s][d] = *adj[s]
                    .iter()
                    .filter(|&&v| dist[v] + 1 == dist[s])
                    .min()
                    .expect("graph is connected");
            }
        }
        Noc { cfg, next, link_busy: vec![0; n * n], switches: n, last_addr: 0, stats: IcStats::default() }
    }

    /// The configuration the NoC was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The switch sequence from `src` to `dst` (inclusive).
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next[cur][dst];
            path.push(cur);
        }
        path
    }

    /// Number of hops (links traversed) between two switches.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        self.route(src, dst).len() - 1
    }

    /// Sends one packet of `flits` flits from switch `src` to `dst`, entering
    /// the first switch at cycle `t`. Returns the arrival cycle of the tail
    /// at the destination's local port.
    fn send_packet(&mut self, src: usize, dst: usize, flits: u32, t: u64) -> u64 {
        let rl = u64::from(self.cfg.router_latency);
        let fl = u64::from(flits);
        let mut t = t;
        let path = self.route(src, dst);
        if path.len() == 1 {
            // Same switch: cross it once.
            return t + rl;
        }
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let key = u * self.switches + v;
            let depart = (t + rl).max(self.link_busy[key]);
            self.stats.contention_cycles += depart - (t + rl);
            self.link_busy[key] = depart + fl;
            self.stats.busy_cycles += fl;
            t = depart + fl;
        }
        self.stats.transitions += data_transitions(flits);
        t
    }

    /// Serializes the per-link occupancy state (routes are recomputed from
    /// the configuration on rebuild, so only mutable state is recorded).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64_slice(&self.link_busy);
        w.u32(self.last_addr);
        self.stats.save_state(w);
    }

    /// Restores state saved by [`Noc::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if the recorded topology size
    /// differs from this NoC's.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let busy = r.u64_vec()?;
        if busy.len() != self.link_busy.len() {
            return Err(StateError::BadLength { found: busy.len() as u64, max: self.link_busy.len() as u64 });
        }
        self.link_busy = busy;
        self.last_addr = r.u32()?;
        self.stats.load_state(r)?;
        Ok(())
    }

    /// Schedules one transaction and returns its timing. Links are
    /// occupied only while packets are in flight; the target memory's
    /// service latency `mem_latency` sits between request and response.
    pub fn transact(&mut self, req: &Request, mem_latency: u32) -> Grant {
        debug_assert!(req.initiator < self.cfg.core_switch.len());
        debug_assert!(req.target < self.cfg.mem_switch.len());
        let src = self.cfg.core_switch[req.initiator];
        let dst = self.cfg.mem_switch[req.target];
        // NI injection takes one cycle after issue.
        let start = req.issue_cycle + 1;
        let req_flits = 1 + 1 + req.wb_words + if req.is_write { req.words } else { 0 };
        let rsp_flits = 1 + if req.is_write { 0 } else { req.words };

        let at_mem = self.send_packet(src, dst, req_flits, start);
        let served = at_mem + u64::from(mem_latency);
        let at_core = self.send_packet(dst, src, rsp_flits, served);
        // NI ejection takes one cycle.
        let complete = at_core + 1;

        self.stats.transactions += 1;
        self.stats.words += u64::from(req.words + req.wb_words);
        self.stats.transitions += addr_transitions(self.last_addr, req.addr);
        self.last_addr = req.addr;

        Grant { start, complete }
    }

    /// Statistics since construction or the last [`Noc::take_stats`].
    #[must_use]
    pub fn stats(&self) -> &IcStats {
        &self.stats
    }

    /// Returns and resets the statistics (sampling-window collection).
    pub fn take_stats(&mut self) -> IcStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_req(initiator: usize, issue: u64) -> Request {
        Request { initiator, target: 0, is_write: false, words: 4, wb_words: 0, addr: 0x1000_0040, issue_cycle: issue }
    }

    #[test]
    fn topology_links() {
        assert_eq!(Topology::Mesh { cols: 2, rows: 2 }.links().len(), 4);
        assert_eq!(Topology::Mesh { cols: 3, rows: 2 }.links().len(), 7);
        assert_eq!(Topology::Ring(2).links(), vec![(0, 1)]);
        assert_eq!(Topology::Ring(4).links().len(), 4);
        assert_eq!(Topology::Ring(1).links().len(), 0);
    }

    #[test]
    fn paper_configs_validate() {
        assert!(NocConfig::paper_two_switch(4).validate().is_ok());
        assert!(NocConfig::paper_four_switch(4).validate().is_ok());
        assert!(NocConfig::paper_six_switch(6).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = NocConfig::paper_two_switch(4);
        c.core_switch[0] = 7;
        assert!(c.validate().is_err());
        let disconnected = NocConfig {
            topology: Topology::Custom { switches: 2, links: vec![] },
            router_latency: 2,
            buffer_flits: 3,
            core_switch: vec![0],
            mem_switch: vec![1],
        };
        assert!(disconnected.validate().is_err());
        let mut c = NocConfig::paper_two_switch(4);
        c.router_latency = 0;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_two_switch(4);
        c.mem_switch.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let noc = Noc::new(NocConfig::paper_four_switch(4));
        // 2x2 mesh: 0-1, 0-2, 1-3, 2-3.
        assert_eq!(noc.route(0, 3).len(), 3, "two hops across the mesh");
        assert_eq!(noc.route(0, 3), vec![0, 1, 3], "lowest-index tie-break");
        assert_eq!(noc.hops(1, 2), 2);
        assert_eq!(noc.hops(0, 0), 0);
    }

    #[test]
    fn single_switch_transaction_timing() {
        // Core and memory on the same switch of the 2-switch NoC? Use custom.
        let cfg = NocConfig {
            topology: Topology::Ring(1),
            router_latency: 2,
            buffer_flits: 3,
            core_switch: vec![0],
            mem_switch: vec![0],
        };
        let mut noc = Noc::new(cfg);
        // start = 1; request crosses switch (2) -> at_mem = 3; +lat 5 -> 8;
        // response crosses switch (2) -> 10; +eject 1 -> 11.
        let g = noc.transact(&read_req(0, 0), 5);
        assert_eq!(g, Grant { start: 1, complete: 11 });
    }

    #[test]
    fn two_switch_read_timing() {
        let mut noc = Noc::new(NocConfig::paper_two_switch(2)); // core 0 on sw0, mem on sw1
        // start=1; depart sw0 at 1+2=3, req flits=2 -> tail at sw1 at 5;
        // mem served at 5+5=10; response flits=5: depart sw1 at 12, tail at sw0 at 17;
        // eject -> 18.
        let g = noc.transact(&read_req(0, 0), 5);
        assert_eq!(g, Grant { start: 1, complete: 18 });
    }

    #[test]
    fn link_contention_delays_second_packet() {
        // paper_two_switch(4) puts cores 0 and 1 on switch 0: they share the
        // sw0 -> sw1 link towards the memory.
        let mut noc = Noc::new(NocConfig::paper_two_switch(4));
        let g0 = noc.transact(&read_req(0, 0), 5);
        let g1 = noc.transact(&read_req(1, 0), 5);
        assert!(g1.complete > g0.complete, "second request is delayed by the shared link");
        assert!(noc.stats().contention_cycles > 0);
    }

    #[test]
    fn writes_carry_payload_in_request() {
        let mut noc = Noc::new(NocConfig::paper_two_switch(1));
        let w = Request { is_write: true, ..read_req(0, 0) };
        // req flits = 2 + 4 = 6: depart 3, tail at sw1 at 9; served 9+5=14;
        // rsp flits = 1: depart 16, tail 17; eject 18.
        let g = noc.transact(&w, 5);
        assert_eq!(g.complete, 18);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut noc = Noc::new(NocConfig::paper_two_switch(2));
        noc.transact(&read_req(0, 0), 5);
        assert_eq!(noc.stats().transactions, 1);
        assert!(noc.stats().transitions > 0);
        let s = noc.take_stats();
        assert_eq!(s.transactions, 1);
        assert_eq!(noc.stats().transactions, 0);
    }

    #[test]
    #[should_panic(expected = "invalid NoC configuration")]
    fn new_panics_on_invalid() {
        let cfg = NocConfig {
            topology: Topology::Custom { switches: 0, links: vec![] },
            router_latency: 1,
            buffer_flits: 1,
            core_switch: vec![0],
            mem_switch: vec![0],
        };
        let _ = Noc::new(cfg);
    }
}
