//! Digests of simulated statistics: the benchmark's output check.
//!
//! Simulated statistics are deterministic per seed, so a speed-only
//! change must leave every digest identical. Values are hashed by their
//! bits (FNV-1a, 64-bit), never through formatting, except where the
//! formatted text is itself the product (exporter output).

use agilewatts::aw_cluster::FleetReport;
use agilewatts::aw_server::{LatencyStats, RunMetrics};
use agilewatts::aw_sleep::IdleReport;
use agilewatts::aw_types::Nanos;

/// An FNV-1a 64-bit hasher over typed values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float by its exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a duration by its exact bits.
    pub fn nanos(&mut self, v: Nanos) -> &mut Self {
        self.f64(v.as_nanos())
    }

    /// Folds a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds every field of a latency summary.
    pub fn latency(&mut self, l: &LatencyStats) -> &mut Self {
        self.nanos(l.mean).nanos(l.p50).nanos(l.p99).nanos(l.p999).nanos(l.max).u64(l.count)
    }

    /// The digest as 16 lowercase hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one server run's simulated statistics: event and request
/// counts, residencies, power, latency percentiles, and transitions.
#[must_use]
pub fn run_metrics(m: &RunMetrics) -> Digest {
    let mut d = Digest::default();
    d.u64(m.events).u64(m.completed).u64(m.snoops_served);
    for (state, share) in m.residencies.iter() {
        d.str(&format!("{state:?}")).f64(share.get());
    }
    for (state, count) in &m.transitions {
        d.str(&format!("{state:?}")).u64(*count);
    }
    for share in m.package_residency {
        d.f64(share.get());
    }
    d.f64(m.avg_core_power.as_milliwatts()).f64(m.avg_uncore_power.as_milliwatts());
    d.f64(m.achieved_qps).f64(m.turbo_fraction.get());
    d.latency(&m.server_latency).latency(&m.end_to_end_latency);
    d.nanos(m.breakdown.transition).nanos(m.breakdown.queue).nanos(m.breakdown.service);
    d
}

/// Digest of one idle-opportunity analysis: the ledger, the governor
/// audit, and the report's CSV and JSON exports.
#[must_use]
pub fn idle_report(r: &IdleReport, csv: &str, json: &str) -> Digest {
    let l = &r.ledger;
    let mut d = Digest::default();
    d.u64(l.intervals).u64(l.unsleepable).u64(l.deep_opportunities);
    d.nanos(l.idle_time).nanos(l.achieved_residency).nanos(l.achievable_residency);
    d.nanos(l.unsleepable_time).nanos(l.too_deep_latency);
    for j in [
        l.achieved_energy,
        l.oracle_energy,
        l.c0_energy,
        l.too_shallow_waste,
        l.too_deep_waste,
        l.deep_oracle_savings,
        l.deep_achieved_savings,
    ] {
        d.f64(j.as_joules());
    }
    d.f64(r.audit.accuracy());
    d.str(csv).str(json);
    d
}

/// Digest of one fleet run: totals, pooled latency, energy, counters,
/// and the per-epoch `timeline_csv`.
#[must_use]
pub fn fleet_report(r: &FleetReport) -> Digest {
    let mut d = Digest::default();
    d.u64(r.events).u64(r.completed).latency(&r.latency);
    d.f64(r.energy.as_joules()).f64(r.avg_fleet_power.as_milliwatts()).f64(r.avg_active);
    d.f64(r.opportunity_recovery.get()).u64(r.slo_violations as u64);
    for (name, value) in &r.counters {
        d.str(name).u64(*value);
    }
    d.str(&r.timeline_csv());
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Digest::default().bytes(b"").hex(), "cbf29ce484222325");
        assert_eq!(Digest::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(Digest::default().bytes(b"foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab = Digest::default().str("ab").str("c").hex();
        let a_bc = Digest::default().str("a").str("bc").hex();
        assert_ne!(ab, a_bc);
    }

    #[test]
    fn floats_hash_by_bits() {
        assert_ne!(Digest::default().f64(0.0).hex(), Digest::default().f64(-0.0).hex());
    }
}
