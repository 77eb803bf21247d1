//! Retry budget: a token bucket that caps retries as a *fraction of
//! successful traffic* instead of a fixed per-request count.
//!
//! Per-request retry caps multiply under fleet-wide outages: every client
//! retrying 3× turns a brownout into 4× load. A budget instead deposits a
//! small amount per success and withdraws one token per retry, so sustained
//! failure exhausts the budget and callers fail fast, while a small reserve
//! keeps low-traffic clients able to retry at all. (The design follows the
//! widely-copied Finagle `RetryBudget`.)

/// Budget shape. Defaults allow bursts of ~10 retries from the reserve and
/// a steady-state retry rate of ~10% of successes.
#[derive(Clone, Debug)]
pub struct BudgetConfig {
    /// Tokens available before any traffic has succeeded (burst allowance).
    pub min_reserve: f64,
    /// Tokens deposited per successful request.
    pub deposit_per_success: f64,
    /// Balance cap, so long quiet periods cannot bank unbounded retries.
    pub max_balance: f64,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig { min_reserve: 10.0, deposit_per_success: 0.1, max_balance: 100.0 }
    }
}

/// The bucket. One per client; not thread-safe (clients are `&mut self`).
#[derive(Clone, Debug)]
pub struct RetryBudget {
    cfg: BudgetConfig,
    balance: f64,
}

impl RetryBudget {
    /// A bucket holding its full reserve.
    pub fn new(cfg: BudgetConfig) -> Self {
        let balance = cfg.min_reserve;
        RetryBudget { cfg, balance }
    }

    /// Deposit for one successful request.
    pub fn record_success(&mut self) {
        self.balance = (self.balance + self.cfg.deposit_per_success).min(self.cfg.max_balance);
    }

    /// Withdraw one token for a retry; `false` means the budget is dry and
    /// the caller must surface the failure instead of retrying.
    pub fn try_withdraw(&mut self) -> bool {
        if self.balance >= 1.0 {
            self.balance -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_allows_a_burst_then_runs_dry() {
        let mut b = RetryBudget::new(BudgetConfig::default());
        for i in 0..10 {
            assert!(b.try_withdraw(), "withdrawal {i} should succeed from the reserve");
        }
        assert!(!b.try_withdraw(), "reserve exhausted");
    }

    #[test]
    fn successes_refill_at_the_deposit_rate() {
        let mut b = RetryBudget::new(BudgetConfig { min_reserve: 0.0, ..BudgetConfig::default() });
        assert!(!b.try_withdraw());
        // 11 not 10: ten 0.1 float deposits sum to just under 1.0
        for _ in 0..11 {
            b.record_success();
        }
        assert!(b.try_withdraw(), "successes at 0.1/success fund a retry");
        assert!(!b.try_withdraw());
    }

    #[test]
    fn balance_is_capped() {
        let cfg = BudgetConfig { max_balance: 5.0, deposit_per_success: 1.0, min_reserve: 0.0 };
        let mut b = RetryBudget::new(cfg);
        for _ in 0..100 {
            b.record_success();
        }
        for i in 0..5 {
            assert!(b.try_withdraw(), "withdrawal {i} should succeed from the capped balance");
        }
        assert!(!b.try_withdraw(), "100 successes bank no more than the cap");
    }
}
