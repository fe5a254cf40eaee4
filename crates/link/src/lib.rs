//! # temu-link — the Ethernet statistics link
//!
//! The paper connects the FPGA emulation to the host-side thermal tool with
//! a standard Ethernet port: the statistics buffer "is concurrently
//! processed by our Ethernet dispatcher to send MAC packets in our own
//! format to the SW thermal modelling tool running in the connected host
//! PC", and the computed temperatures travel back the same way (§4, §6).
//!
//! This crate is a byte-count model of that link. The host side never
//! decodes the packets (the thermal model reads the window's powers
//! directly), so only their lengths matter: [`stats_record_bytes`] sizes
//! a window's statistics record, and [`EthernetLink`] books a window's
//! payload as the MTU-sized MAC frames that carry it, with every frame's
//! preamble, header, FCS, minimum-payload padding and inter-frame gap,
//! against a bandwidth/latency budget. When a sampling window produces
//! more statistics bytes than the link can drain in the window's physical
//! time, the excess becomes VPCM clock-freeze time ("stopping/resuming the
//! statistics extraction mechanism in case of congestion of the Ethernet
//! connection", §4.2): the emulated platform never loses statistics, it
//! just emulates more slowly.

mod channel;

pub use channel::{stats_record_bytes, EthernetConfig, EthernetLink, LinkStats};
