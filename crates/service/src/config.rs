//! Service configuration: tenants, token buckets, queue bounds and retry.

use redmule_runtime::RetryPolicy;
use std::fmt;

/// Deterministic service-level retry policy for jobs that end in a typed
/// failure: the job is re-queued after a linear backoff measured in
/// *simulated* cycles (`attempt * backoff_cycles`), up to `max_retries`
/// attempts beyond the first. The same policy also governs the
/// supervisor-level rollback retries of each execution attempt, so every
/// recovery delay in the service is cycle-denominated and deterministic.
/// Its `Default` is [`RetryPolicy`]'s, two retries; [`ServiceConfig::new`]
/// starts from none (`RetryPolicy::deterministic(0, 0)`).
pub type ServiceRetry = RetryPolicy;

/// Per-tenant admission parameters: priority, quota and rate limit.
///
/// The rate limit is a token bucket denominated in **estimated simulated
/// cycles**: a submission is charged its analytical cycle estimate
/// ([`redmule::FunctionalGemm::estimated_cycles`], which is exact for
/// fault-free jobs) at admission, and the bucket refills at
/// `refill_per_kilocycle` cycles of credit per 1024 virtual cycles.
/// All bucket arithmetic is integer and a pure function of the virtual
/// clock, so admission decisions are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant identifier; must be unique within a [`ServiceConfig`].
    pub id: u32,
    /// Shedding priority: under overload, queued or running jobs of
    /// *strictly lower* priority are evicted before a higher-priority
    /// submission is turned away.
    pub priority: u8,
    /// Token-bucket capacity in estimated simulated cycles.
    pub bucket_capacity: u64,
    /// Token-bucket refill: estimated-cycle credits per 1024 virtual
    /// cycles.
    pub refill_per_kilocycle: u64,
    /// Maximum jobs a tenant may have in flight (queued, running or
    /// awaiting a retry) at once.
    pub max_in_flight: usize,
}

impl TenantConfig {
    /// A tenant with generous defaults: priority 1, an effectively
    /// unlimited bucket and quota. Tighten with the builders.
    pub fn new(id: u32) -> TenantConfig {
        TenantConfig {
            id,
            priority: 1,
            bucket_capacity: u64::MAX / 4,
            refill_per_kilocycle: 1 << 20,
            max_in_flight: usize::MAX,
        }
    }

    /// Sets the shedding priority (higher survives longer).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> TenantConfig {
        self.priority = priority;
        self
    }

    /// Sets the token bucket: `capacity` estimated cycles, refilling at
    /// `per_kilocycle` estimated cycles per 1024 virtual cycles.
    #[must_use]
    pub fn with_bucket(mut self, capacity: u64, per_kilocycle: u64) -> TenantConfig {
        self.bucket_capacity = capacity;
        self.refill_per_kilocycle = per_kilocycle;
        self
    }

    /// Sets the in-flight job quota.
    #[must_use]
    pub fn with_max_in_flight(mut self, jobs: usize) -> TenantConfig {
        self.max_in_flight = jobs;
        self
    }
}

/// Front-end configuration: virtual server pool, bounded queue, shedding
/// margin, retry policy and the tenant table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Virtual accelerator instances the scheduler dispatches onto. This
    /// is *simulated* capacity — independent of the host worker count,
    /// which only parallelises the replay of per-job executions.
    pub servers: usize,
    /// Bounded admission queue capacity. Retried jobs re-enter exempt
    /// from this bound (they were already admitted); the bound gates new
    /// work only.
    pub queue_capacity: usize,
    /// Slack hysteresis for preemption: a queued job preempts a running
    /// one only when its slack is smaller by more than this margin,
    /// damping preemption thrash.
    pub preempt_margin: u64,
    /// Deterministic retry policy (service-level re-queue and
    /// supervisor-level rollback).
    pub retry: ServiceRetry,
    /// Tenant table; ids must be unique.
    pub tenants: Vec<TenantConfig>,
}

impl ServiceConfig {
    /// A config with `servers` virtual servers, a queue of 16, no
    /// preemption margin, no retries and no tenants (add at least one).
    pub fn new(servers: usize) -> ServiceConfig {
        ServiceConfig {
            servers,
            queue_capacity: 16,
            preempt_margin: 0,
            retry: RetryPolicy::deterministic(0, 0),
            tenants: Vec::new(),
        }
    }

    /// Sets the bounded queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the preemption slack margin.
    #[must_use]
    pub fn with_preempt_margin(mut self, margin: u64) -> ServiceConfig {
        self.preempt_margin = margin;
        self
    }

    /// Sets the deterministic retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: ServiceRetry) -> ServiceConfig {
        self.retry = retry;
        self
    }

    /// Adds a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantConfig) -> ServiceConfig {
        self.tenants.push(tenant);
        self
    }

    /// Checks structural validity: at least one server, a non-zero queue
    /// and a duplicate-free, non-empty tenant table.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.servers == 0 {
            return Err(ConfigError::NoServers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.tenants.is_empty() {
            return Err(ConfigError::NoTenants);
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if !seen.insert(t.id) {
                return Err(ConfigError::DuplicateTenant(t.id));
            }
        }
        Ok(())
    }
}

/// Structural misconfiguration of a [`ServiceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `servers == 0`: nothing could ever be dispatched.
    NoServers,
    /// `queue_capacity == 0`: nothing could ever be admitted.
    ZeroQueueCapacity,
    /// An empty tenant table: every submission would be unattributable.
    NoTenants,
    /// Two tenants share an id.
    DuplicateTenant(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoServers => write!(f, "service needs at least one virtual server"),
            ConfigError::ZeroQueueCapacity => write!(f, "service queue capacity must be non-zero"),
            ConfigError::NoTenants => write!(f, "service needs at least one tenant"),
            ConfigError::DuplicateTenant(id) => write!(f, "duplicate tenant id {id}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Integer token-bucket credit accrued by absolute virtual cycle `cycle`
/// at `rate` estimated cycles per 1024 virtual cycles. Computed on
/// absolute cycles (not deltas) so refills never drift regardless of how
/// the event loop slices time.
pub(crate) fn bucket_credit(cycle: u64, rate: u64) -> u64 {
    ((u128::from(cycle) * u128::from(rate)) >> 10).min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_structural_errors() {
        assert_eq!(
            ServiceConfig::new(0).validate(),
            Err(ConfigError::NoServers)
        );
        assert_eq!(
            ServiceConfig::new(1).with_queue_capacity(0).validate(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            ServiceConfig::new(1).validate(),
            Err(ConfigError::NoTenants)
        );
        let dup = ServiceConfig::new(1)
            .with_tenant(TenantConfig::new(3))
            .with_tenant(TenantConfig::new(3));
        assert_eq!(dup.validate(), Err(ConfigError::DuplicateTenant(3)));
        let ok = ServiceConfig::new(2).with_tenant(TenantConfig::new(0));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn bucket_credit_is_monotone_and_driftless() {
        let rate = 700;
        let mut last = 0;
        for cycle in (0..100_000).step_by(137) {
            let c = bucket_credit(cycle, rate);
            assert!(c >= last);
            last = c;
        }
        // Absolute-cycle accounting: credit at 2048 equals exactly twice
        // the per-kilocycle rate, no matter how time was sliced.
        assert_eq!(bucket_credit(2048, rate), 2 * rate);
    }
}
