//! Expected accounting, computed by the benchmark from the generated
//! inputs alone, and the checks that hold a replay's result against it.

use pscd_sim::SimResult;
use pscd_types::SubscriptionTable;
use pscd_workload::Workload;

use crate::common::Checks;

/// Counts every correct replay of one input must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Request events generated.
    pub requests: u64,
    /// `(publish, proxy)` pairs with a nonzero subscription count: what
    /// Always-Pushing transfers for every push-using strategy.
    pub pushed: u64,
}

impl Expected {
    pub fn from_inputs(workload: &Workload, subs: &SubscriptionTable) -> Self {
        let pushed = workload
            .publishing()
            .iter()
            .map(|p| {
                subs.matched_servers(p.page)
                    .iter()
                    .filter(|&&(_, count)| count > 0)
                    .count() as u64
            })
            .sum();
        Self {
            requests: workload.requests().len() as u64,
            pushed,
        }
    }

    /// Three checks per result: requests seen, fetches equal misses, and
    /// pushes under Always-Pushing (none for the access-only GD*).
    pub fn check(&self, checks: &mut Checks, r: &SimResult) {
        let pushed = if r.strategy == "GD*" { 0 } else { self.pushed };
        checks.eq(
            &format!("{} requests", r.strategy),
            r.requests,
            self.requests,
        );
        checks.eq(
            &format!("{} fetched pages", r.strategy),
            r.traffic.fetched_pages,
            r.requests - r.hits,
        );
        checks.eq(
            &format!("{} pushed pages", r.strategy),
            r.traffic.pushed_pages,
            pushed,
        );
    }
}
