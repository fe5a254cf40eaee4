//! The fleet's member table: static addresses, rendezvous hashing, and
//! per-member health/traffic accounting.
//!
//! # Why rendezvous (highest-random-weight) hashing
//!
//! The router's whole value is that an identical resubmission lands on
//! the member that already holds the cached result. Rendezvous hashing
//! gives that with nothing shared between routers and no coordination:
//! every member gets a pseudo-random score per content key, the highest
//! score owns the key, and the *sorted* score order is a deterministic
//! failover sequence — when the owner is down, every router agrees on
//! the same second choice. Unlike modulo hashing, removing one member
//! only moves the keys that member owned.

use std::sync::{Mutex, MutexGuard, PoisonError};
use temu_framework::{fnv1a64, json_array, JsonObject, JsonValue};

/// Health and traffic counters for one member.
#[derive(Clone, Debug)]
pub struct MemberHealth {
    /// Whether the member answered its last probe or request. Members
    /// start optimistically up; the first failed contact marks them down
    /// and the prober marks them back up when they answer again.
    pub up: bool,
    /// Submissions the router placed on this member.
    pub routed: u64,
    /// Connect/IO failures observed against this member.
    pub failures: u64,
}

struct Slot {
    addr: String,
    health: Mutex<MemberHealth>,
    /// The member's last `stats` frame (from the prober or an aggregated
    /// `stats` request); surfaces queue depth and cache size per member.
    last_stats: Mutex<Option<JsonValue>>,
}

/// The static member table (`--member` flags of `temu-router`).
pub struct MemberTable {
    slots: Vec<Slot>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemberTable {
    /// Builds the table from member addresses (order is irrelevant to
    /// routing — rendezvous scores don't depend on it).
    #[must_use]
    pub fn new(addrs: impl IntoIterator<Item = String>) -> MemberTable {
        MemberTable {
            slots: addrs
                .into_iter()
                .map(|addr| Slot {
                    addr,
                    health: Mutex::new(MemberHealth { up: true, routed: 0, failures: 0 }),
                    last_stats: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A member's address.
    ///
    /// # Panics
    ///
    /// On an out-of-range index.
    #[must_use]
    pub fn addr(&self, index: usize) -> &str {
        &self.slots[index].addr
    }

    /// The rendezvous score of `addr` for a sweep content key: the
    /// member with the highest score owns the key.
    #[must_use]
    pub fn score(addr: &str, key: u64) -> u64 {
        let mut bytes = Vec::with_capacity(addr.len() + 9);
        bytes.extend_from_slice(addr.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&key.to_le_bytes());
        fnv1a64(&bytes)
    }

    /// Member indices in rendezvous order for `key`: the owner first,
    /// then the agreed failover sequence. Ties (only possible with
    /// duplicate addresses) break by address, keeping the order total.
    #[must_use]
    pub fn rendezvous(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_by(|a, b| {
            let (sa, sb) = (
                MemberTable::score(&self.slots[*a].addr, key),
                MemberTable::score(&self.slots[*b].addr, key),
            );
            sb.cmp(&sa).then_with(|| self.slots[*a].addr.cmp(&self.slots[*b].addr))
        });
        order
    }

    /// Whether the member is currently marked up.
    #[must_use]
    pub fn up(&self, index: usize) -> bool {
        lock(&self.slots[index].health).up
    }

    /// Members currently marked up.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.slots.iter().filter(|s| lock(&s.health).up).count()
    }

    /// Records a submission placed on the member (also re-marks it up:
    /// it just answered).
    pub fn mark_routed(&self, index: usize) {
        let mut h = lock(&self.slots[index].health);
        h.up = true;
        h.routed += 1;
    }

    /// Records a connect/IO failure against the member and marks it
    /// down — new submissions steer around it until a probe succeeds.
    pub fn mark_down(&self, index: usize) {
        let mut h = lock(&self.slots[index].health);
        h.up = false;
        h.failures += 1;
    }

    /// Sets the member's up/down state without touching the failure
    /// counter — the health prober's verdict, which shouldn't inflate
    /// failure counts once per interval for a member that stays down.
    pub fn set_up(&self, index: usize, up: bool) {
        lock(&self.slots[index].health).up = up;
    }

    /// Stores the member's latest `stats` frame.
    pub fn note_stats(&self, index: usize, frame: JsonValue) {
        *lock(&self.slots[index].last_stats) = Some(frame);
    }

    /// A member's health snapshot.
    #[must_use]
    pub fn health(&self, index: usize) -> MemberHealth {
        lock(&self.slots[index].health).clone()
    }

    /// Sums an integer field over the cached stats of *up* members (a
    /// down member's cached frame is stale, not current load).
    #[must_use]
    pub fn sum_stat(&self, field: &str) -> u64 {
        self.slots
            .iter()
            .filter(|s| lock(&s.health).up)
            .filter_map(|s| {
                lock(&s.last_stats).as_ref().and_then(|f| f.get(field).and_then(JsonValue::as_u64))
            })
            .sum()
    }

    /// The per-member breakdown array of the router's aggregated `stats`
    /// frame.
    #[must_use]
    pub fn members_json(&self) -> String {
        json_array(self.slots.iter().map(|s| {
            let h = lock(&s.health);
            let mut obj = JsonObject::line()
                .str("addr", &s.addr)
                .raw("up", h.up)
                .raw("routed", h.routed)
                .raw("failures", h.failures);
            if let Some(stats) = lock(&s.last_stats).as_ref() {
                for field in ["member", "queue_depth", "running", "workers", "cache_entries"] {
                    obj = obj.opt_raw(field, stats.get(field));
                }
            }
            obj.finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(addrs: &[&str]) -> MemberTable {
        MemberTable::new(addrs.iter().map(ToString::to_string))
    }

    #[test]
    fn rendezvous_is_deterministic_and_order_independent() {
        let a = table(&["10.0.0.1:7181", "10.0.0.2:7181", "10.0.0.3:7181"]);
        let b = table(&["10.0.0.3:7181", "10.0.0.1:7181", "10.0.0.2:7181"]);
        for key in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            let owner_a = a.addr(a.rendezvous(key)[0]).to_string();
            let owner_b = b.addr(b.rendezvous(key)[0]).to_string();
            assert_eq!(owner_a, owner_b, "owner of {key:#x} must not depend on table order");
            assert_eq!(a.rendezvous(key), a.rendezvous(key), "must be deterministic");
        }
    }

    #[test]
    fn rendezvous_spreads_keys_and_removal_only_moves_the_lost_members_keys() {
        let full = table(&["10.0.0.1:7181", "10.0.0.2:7181", "10.0.0.3:7181"]);
        let reduced = table(&["10.0.0.1:7181", "10.0.0.2:7181"]);
        let mut counts = [0usize; 3];
        let mut moved = 0usize;
        let keys: Vec<u64> = (0..1000u64).map(|i| fnv1a64(&i.to_le_bytes())).collect();
        for &key in &keys {
            let owner = full.rendezvous(key)[0];
            counts[owner] += 1;
            let owner_addr = full.addr(owner);
            let reduced_addr = reduced.addr(reduced.rendezvous(key)[0]);
            if owner_addr == "10.0.0.3:7181" {
                // This key lost its owner; it must land on the full
                // table's second choice.
                assert_eq!(reduced_addr, full.addr(full.rendezvous(key)[1]));
                moved += 1;
            } else {
                assert_eq!(owner_addr, reduced_addr, "surviving owners keep their keys");
            }
        }
        assert!(counts.iter().all(|&c| c > 200), "badly skewed spread: {counts:?}");
        assert!(moved > 200, "the removed member owned a real share: {moved}");
    }

    #[test]
    fn health_accounting_distinguishes_probe_and_traffic_failures() {
        let t = table(&["127.0.0.1:1", "127.0.0.1:2"]);
        assert_eq!(t.up_count(), 2, "members start optimistically up");
        t.mark_down(0);
        assert!(!t.up(0));
        assert_eq!(t.health(0).failures, 1);
        t.set_up(0, false); // prober repeat: no failure inflation
        assert_eq!(t.health(0).failures, 1);
        t.mark_routed(0);
        assert!(t.up(0), "successful traffic re-marks a member up");
        assert_eq!(t.health(0).routed, 1);
    }

    #[test]
    fn members_json_carries_probe_fields_when_cached() {
        let t = table(&["127.0.0.1:1"]);
        let frame =
            JsonValue::parse("{\"ok\": true, \"queue_depth\": 3, \"member\": \"a\"}").unwrap();
        t.note_stats(0, frame);
        let json = t.members_json();
        let parsed = JsonValue::parse(&json).expect("breakdown is valid JSON");
        let JsonValue::Arr(items) = parsed else { panic!("not an array: {json}") };
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("queue_depth").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(items[0].get("member").and_then(JsonValue::as_str), Some("a"));
        assert_eq!(t.sum_stat("queue_depth"), 3);
        t.set_up(0, false);
        assert_eq!(t.sum_stat("queue_depth"), 0, "down members don't count toward load");
    }

    #[test]
    fn members_json_bytes_are_pinned() {
        let t = table(&["127.0.0.1:1", "host \"b\":2"]);
        let frame = JsonValue::parse(
            "{\"ok\": true, \"member\": \"a\", \"queue_depth\": 3, \"running\": 1, \"workers\": 2, \"cache_entries\": 40, \"other\": 9}",
        )
        .unwrap();
        t.note_stats(0, frame);
        t.mark_routed(0);
        t.mark_down(1);
        assert_eq!(t.members_json(), GOLDEN_MEMBERS);
        assert_eq!(table(&[]).members_json(), "[]");
    }

    const GOLDEN_MEMBERS: &str = "[{\"addr\": \"127.0.0.1:1\", \"up\": true, \"routed\": 1, \"failures\": 0, \"member\": \"a\", \"queue_depth\": 3, \"running\": 1, \"workers\": 2, \"cache_entries\": 40}, {\"addr\": \"host \\\"b\\\":2\", \"up\": false, \"routed\": 0, \"failures\": 1}]";
}
