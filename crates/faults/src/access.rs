//! The resilient access layer: retries, deadlines, circuit breaking, and
//! per-service fault statistics around organizational service calls.
//!
//! An [`AccessLayer`] sits between the service registry and the pipeline.
//! Every call passes through [`AccessLayer::apply`], which injects the
//! plan's faults and then behaves the way a hardened client would: retry
//! with exponential backoff and jitter, give up when the per-service
//! deadline budget is spent, and trip a circuit breaker after enough
//! consecutive lost calls so a dead service stops wasting budget. All
//! timing runs on a [`SimClock`](crate::SimClock) and all randomness on
//! per-call seeded streams, so a fault scenario is bit-for-bit reproducible
//! at any thread count.
//!
//! A lost call degrades to [`FeatureValue::Missing`] — never a panic, never
//! a poisoned value — which is what lets the downstream pipeline abstain
//! instead of mislabeling.

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureValue};
use cm_linalg::rng::{Rng, StdRng};

use crate::clock::SimClock;
use crate::plan::{FaultMode, FaultPlan};

/// What the access layer needs to know about one registry service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescriptor {
    /// Service name, matching [`FaultPlan`] spec names.
    pub name: String,
    /// Vocabulary size for categorical services (`None` for numeric and
    /// embedding services); used to synthesize and detect out-of-vocabulary
    /// corruption.
    pub vocab_size: Option<u32>,
}

impl ServiceDescriptor {
    /// Builds a descriptor.
    pub fn new(name: impl Into<String>, vocab_size: Option<u32>) -> Self {
        Self { name: name.into(), vocab_size }
    }
}

/// Client-side resilience policy, shared by every service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPolicy {
    /// Retries after the first failed attempt (so `max_retries + 1` total
    /// attempts).
    pub max_retries: u32,
    /// First-retry backoff in simulated milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Upper bound on the per-retry jitter added to the backoff.
    pub max_jitter_ms: u64,
    /// Simulated-time budget per call; once waiting (backoff + latency)
    /// exceeds it, the call is abandoned.
    pub deadline_ms: u64,
    /// Consecutive lost calls before the breaker trips and the service is
    /// treated as degraded for the rest of the run.
    pub breaker_threshold: u32,
    /// Simulated milliseconds an open breaker waits before admitting a
    /// single half-open probe call. A successful probe closes the breaker;
    /// a failed one re-opens it for another cooldown. `0` disables
    /// recovery entirely (the pre-serving behavior: a trip is permanent
    /// for the rest of the run), which keeps batch-mode fixtures
    /// bit-identical.
    pub breaker_cooldown_ms: u64,
}

impl Default for AccessPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_ms: 10,
            max_jitter_ms: 4,
            deadline_ms: 250,
            breaker_threshold: 5,
            breaker_cooldown_ms: 0,
        }
    }
}

/// Per-service counters, reported inside the degradation output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Service name.
    pub name: String,
    /// Fault mode assigned by the plan (stable mode name).
    pub mode: String,
    /// Per-call fault probability from the plan.
    pub rate: f64,
    /// Total calls routed through the layer.
    pub calls: u64,
    /// Calls on which the fault fired.
    pub faulted: u64,
    /// Faulted calls that still produced a live value after retries.
    pub recovered: u64,
    /// Calls abandoned (degraded to a missing value).
    pub lost: u64,
    /// Corrupt responses caught by response validation.
    pub corrupt_detected: u64,
    /// Calls served from the stale snapshot instead of the live value.
    pub stale_served: u64,
    /// Calls rejected immediately because the breaker was open.
    pub short_circuited: u64,
    /// Half-open probe calls admitted after the breaker cooldown elapsed.
    pub probes: u64,
    /// Probes that failed and re-opened the breaker for another cooldown.
    pub reopened: u64,
    /// Total retry attempts across all calls.
    pub retries: u64,
    /// Simulated milliseconds spent waiting (backoff + latency).
    pub sim_wait_ms: u64,
    /// Whether the breaker tripped at any point (sticky: a later
    /// successful probe closes the breaker but keeps this flag, so
    /// degradation reports still name the service).
    pub tripped: bool,
}

/// A fault scenario's outcome: the plan seed, total simulated wait, and
/// per-service statistics for every service the plan touched.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSummary {
    /// Seed of the plan that produced this summary.
    pub seed: u64,
    /// Total simulated milliseconds the layer spent waiting.
    pub sim_elapsed_ms: u64,
    /// Stats for each service with a fault assignment, in plan order.
    pub services: Vec<ServiceStats>,
}

impl FaultSummary {
    /// Names of services whose breaker tripped.
    pub fn tripped_services(&self) -> Vec<String> {
        self.services.iter().filter(|s| s.tripped).map(|s| s.name.clone()).collect()
    }
}

impl cm_json::ToJson for ServiceStats {
    fn to_json(&self) -> cm_json::Json {
        use cm_json::Json;
        let n = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("rate", Json::Num(self.rate)),
            ("calls", n(self.calls)),
            ("faulted", n(self.faulted)),
            ("recovered", n(self.recovered)),
            ("lost", n(self.lost)),
            ("corrupt_detected", n(self.corrupt_detected)),
            ("stale_served", n(self.stale_served)),
            ("short_circuited", n(self.short_circuited)),
            ("probes", n(self.probes)),
            ("reopened", n(self.reopened)),
            ("retries", n(self.retries)),
            ("sim_wait_ms", n(self.sim_wait_ms)),
            ("tripped", Json::Bool(self.tripped)),
        ])
    }
}

impl ServiceStats {
    /// Rebuilds stats from their JSON form.
    pub fn from_json(json: &cm_json::Json) -> CmResult<Self> {
        const LOC: &str = "ServiceStats::from_json";
        let missing =
            |field: &str| CmError::new(ErrorKind::NotFound, LOC, format!("missing {field}"));
        let num = |field: &str| -> CmResult<u64> {
            json.get(field)
                .and_then(cm_json::Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| missing(field))
        };
        Ok(Self {
            name: json
                .get("name")
                .and_then(cm_json::Json::as_str)
                .ok_or_else(|| missing("name"))?
                .to_owned(),
            mode: json
                .get("mode")
                .and_then(cm_json::Json::as_str)
                .ok_or_else(|| missing("mode"))?
                .to_owned(),
            rate: json
                .get("rate")
                .and_then(cm_json::Json::as_f64)
                .ok_or_else(|| missing("rate"))?,
            calls: num("calls")?,
            faulted: num("faulted")?,
            recovered: num("recovered")?,
            lost: num("lost")?,
            corrupt_detected: num("corrupt_detected")?,
            stale_served: num("stale_served")?,
            short_circuited: num("short_circuited")?,
            // Tolerant: summaries archived before the half-open breaker
            // lack the probe counters.
            probes: num("probes").unwrap_or(0),
            reopened: num("reopened").unwrap_or(0),
            retries: num("retries")?,
            sim_wait_ms: num("sim_wait_ms")?,
            tripped: json
                .get("tripped")
                .and_then(cm_json::Json::as_bool)
                .ok_or_else(|| missing("tripped"))?,
        })
    }
}

impl cm_json::ToJson for FaultSummary {
    fn to_json(&self) -> cm_json::Json {
        use cm_json::Json;
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("sim_elapsed_ms", Json::Num(self.sim_elapsed_ms as f64)),
            ("services", Json::arr(self.services.iter())),
        ])
    }
}

impl FaultSummary {
    /// Rebuilds a summary from its JSON form.
    pub fn from_json(json: &cm_json::Json) -> CmResult<Self> {
        const LOC: &str = "FaultSummary::from_json";
        let missing =
            |field: &str| CmError::new(ErrorKind::NotFound, LOC, format!("missing {field}"));
        let services = json
            .get("services")
            .and_then(cm_json::Json::as_arr)
            .ok_or_else(|| missing("services"))?
            .iter()
            .map(ServiceStats::from_json)
            .collect::<CmResult<Vec<_>>>()?;
        Ok(Self {
            seed: json.get("seed").and_then(cm_json::Json::as_f64).ok_or_else(|| missing("seed"))?
                as u64,
            sim_elapsed_ms: json
                .get("sim_elapsed_ms")
                .and_then(cm_json::Json::as_f64)
                .ok_or_else(|| missing("sim_elapsed_ms"))? as u64,
            services,
        })
    }
}

/// Checks a service response for detectable corruption: non-finite
/// numerics, out-of-vocabulary category ids (when the vocabulary size is
/// known), or non-finite embedding components. Missing is always valid.
pub fn validate_value(value: &FeatureValue, vocab_size: Option<u32>) -> bool {
    match value {
        FeatureValue::Numeric(x) => x.is_finite(),
        FeatureValue::Categorical(set) => match vocab_size {
            Some(n) => set.iter().all(|id| id < n),
            None => true,
        },
        FeatureValue::Embedding(e) => e.iter().all(|x| x.is_finite()),
        FeatureValue::Missing => true,
    }
}

/// Fault state for one service with an assignment.
#[derive(Debug, Clone)]
struct FaultState {
    mode: FaultMode,
    rate: f64,
    consecutive_lost: u32,
    tripped: bool,
    /// Simulated instant the breaker last opened; the half-open probe is
    /// admitted once `now >= opened_at_ms + breaker_cooldown_ms`.
    opened_at_ms: u64,
    /// Last live value, served when a stale fault fires.
    snapshot: Option<FeatureValue>,
}

/// One registry service as the layer sees it.
#[derive(Debug, Clone)]
struct ServiceState {
    vocab_size: Option<u32>,
    fault: Option<FaultState>,
    stats: ServiceStats,
}

/// The resilient client wrapping every organizational service call.
#[derive(Debug, Clone)]
pub struct AccessLayer {
    seed: u64,
    salt: u64,
    policy: AccessPolicy,
    clock: SimClock,
    services: Vec<ServiceState>,
}

impl AccessLayer {
    /// Builds a layer for `services` under `plan`. `salt` separates fault
    /// streams of independent dataset generations run under one plan (pass
    /// e.g. the dataset seed). Fails if the plan names an unknown service
    /// or the policy is degenerate.
    pub fn new(
        plan: &FaultPlan,
        policy: AccessPolicy,
        services: &[ServiceDescriptor],
        salt: u64,
    ) -> CmResult<Self> {
        const LOC: &str = "AccessLayer::new";
        if policy.breaker_threshold == 0 {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                LOC,
                "breaker_threshold must be >= 1",
            ));
        }
        for spec in &plan.specs {
            if !services.iter().any(|d| d.name == spec.service) {
                return Err(CmError::new(
                    ErrorKind::NotFound,
                    LOC,
                    format!("fault plan names unknown service {:?}", spec.service),
                ));
            }
        }
        let services = services
            .iter()
            .map(|d| {
                let spec = plan.spec_for(&d.name);
                ServiceState {
                    vocab_size: d.vocab_size,
                    fault: spec.map(|s| FaultState {
                        mode: s.mode,
                        rate: s.rate,
                        consecutive_lost: 0,
                        tripped: false,
                        opened_at_ms: 0,
                        snapshot: None,
                    }),
                    stats: ServiceStats {
                        name: d.name.clone(),
                        mode: spec.map(|s| s.mode.name().to_owned()).unwrap_or_default(),
                        rate: spec.map(|s| s.rate).unwrap_or_default(),
                        ..ServiceStats::default()
                    },
                }
            })
            .collect();
        Ok(Self { seed: plan.seed, salt, policy, clock: SimClock::new(), services })
    }

    /// Routes one service response through the layer: injects the plan's
    /// fault for `(service, row)` if one fires, then retries / waits /
    /// short-circuits per policy. Returns the value the pipeline should
    /// see; a lost call degrades to [`FeatureValue::Missing`].
    ///
    /// `row` must identify the call uniquely within this layer's stream
    /// (e.g. a global row counter): the fault draw depends only on
    /// `(plan seed, salt, service, row)`, never on thread count.
    pub fn apply(&mut self, service: usize, row: u64, base: FeatureValue) -> FeatureValue {
        let policy = self.policy;
        let (seed, salt) = (self.seed, self.salt);
        let now_ms = self.clock.now_ms();
        let Some(state) = self.services.get_mut(service) else {
            return base;
        };
        state.stats.calls += 1;
        let Some(fault) = state.fault.as_mut() else {
            return base;
        };
        let mut probing = false;
        if fault.tripped {
            let cooled = policy.breaker_cooldown_ms > 0
                && now_ms >= fault.opened_at_ms.saturating_add(policy.breaker_cooldown_ms);
            if !cooled {
                state.stats.short_circuited += 1;
                state.stats.lost += 1;
                return FeatureValue::Missing;
            }
            // Half-open: the cooldown elapsed, so this one call goes
            // through as the probe. Its outcome decides whether the
            // breaker closes or re-opens.
            state.stats.probes += 1;
            probing = true;
        }

        // Computed only once a fault is actually assigned: the unfaulted
        // fast path must stay within noise of a direct service call.
        let stream = call_stream(seed, salt, service as u64, row);
        let mut rng = StdRng::seed_from_u64(stream);
        let fired = rng.gen::<f64>() < fault.rate;
        if !fired {
            fault.consecutive_lost = 0;
            if probing {
                // The probe came back clean: close the breaker.
                fault.tripped = false;
            }
            if matches!(fault.mode, FaultMode::Stale) {
                fault.snapshot = Some(base.clone());
            }
            return base;
        }
        state.stats.faulted += 1;

        // Stale service: degraded but answering — serve the frozen snapshot
        // (or freeze this first observation). Never a failure, never a
        // breaker event.
        if matches!(fault.mode, FaultMode::Stale) {
            return match &fault.snapshot {
                Some(frozen) => {
                    state.stats.stale_served += 1;
                    frozen.clone()
                }
                None => {
                    fault.snapshot = Some(base.clone());
                    base
                }
            };
        }

        // Retry loop on the simulated clock.
        let mut wait_ms = 0u64;
        let mut attempt = 0u32;
        let outcome: Option<FeatureValue> = loop {
            let attempt_value = match fault.mode {
                FaultMode::Unavailable => None,
                FaultMode::Transient { fails } => (attempt >= fails).then(|| base.clone()),
                FaultMode::Latency { delay_ms } => {
                    wait_ms = wait_ms.saturating_add(delay_ms);
                    (wait_ms <= policy.deadline_ms).then(|| base.clone())
                }
                FaultMode::Corrupt => {
                    // Each attempt independently returns garbage with the
                    // plan's rate (the first attempt is the fired call
                    // itself); response validation catches it.
                    let corrupt = attempt == 0 || rng.gen::<f64>() < fault.rate;
                    if corrupt {
                        let garbage = corrupt_value(&base, state.vocab_size, &mut rng);
                        if validate_value(&garbage, state.vocab_size) {
                            // Nothing detectable to corrupt (e.g. Missing).
                            Some(garbage)
                        } else {
                            state.stats.corrupt_detected += 1;
                            None
                        }
                    } else {
                        Some(base.clone())
                    }
                }
                // Stale handled above.
                FaultMode::Stale => Some(base.clone()),
            };
            if let Some(v) = attempt_value {
                break Some(v);
            }
            attempt += 1;
            if attempt > policy.max_retries || wait_ms > policy.deadline_ms {
                break None;
            }
            state.stats.retries += 1;
            let backoff = policy.base_backoff_ms.saturating_mul(1u64 << (attempt - 1).min(16));
            let jitter = rng.gen_range(0..=policy.max_jitter_ms);
            wait_ms = wait_ms.saturating_add(backoff).saturating_add(jitter);
            if wait_ms > policy.deadline_ms {
                break None;
            }
        };
        state.stats.sim_wait_ms += wait_ms;
        self.clock.advance_ms(wait_ms);
        let now_after_ms = self.clock.now_ms();

        let state = &mut self.services[service];
        let fault = match state.fault.as_mut() {
            Some(f) => f,
            None => return base,
        };
        match outcome {
            Some(value) => {
                fault.consecutive_lost = 0;
                if probing {
                    // The probe recovered a live value: close the breaker.
                    fault.tripped = false;
                }
                if attempt > 0 {
                    state.stats.recovered += 1;
                }
                value
            }
            None => {
                state.stats.lost += 1;
                fault.consecutive_lost += 1;
                if probing {
                    // Failed probe: the breaker stays open for another
                    // cooldown, counted from now.
                    fault.opened_at_ms = now_after_ms;
                    state.stats.reopened += 1;
                } else if fault.consecutive_lost >= policy.breaker_threshold {
                    fault.tripped = true;
                    fault.opened_at_ms = now_after_ms;
                    state.stats.tripped = true;
                }
                FeatureValue::Missing
            }
        }
    }

    /// Whether the plan assigned any fault at all.
    pub fn is_enabled(&self) -> bool {
        self.services.iter().any(|s| s.fault.is_some())
    }

    /// Names of services whose breaker has tripped so far.
    pub fn tripped_services(&self) -> Vec<String> {
        self.services.iter().filter(|s| s.stats.tripped).map(|s| s.stats.name.clone()).collect()
    }

    /// The simulated clock (total simulated wait so far).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the scenario outcome: stats for every fault-assigned
    /// service, in registry order.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            seed: self.seed,
            sim_elapsed_ms: self.clock.now_ms(),
            services: self
                .services
                .iter()
                .filter(|s| s.fault.is_some())
                .map(|s| s.stats.clone())
                .collect(),
        }
    }

    /// Advances the simulated clock by `ms` host-driven milliseconds (e.g.
    /// the inter-batch cadence of a serving loop). Open breakers measure
    /// their cooldown against this clock, so advancing it is what makes a
    /// half-open probe eligible between batches.
    pub fn advance_clock_ms(&mut self, ms: u64) {
        self.clock.advance_ms(ms);
    }

    /// Current simulated time in milliseconds (arrival/completion stamps
    /// for serving latency accounting).
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Exports the layer's replayable live state: the simulated clock plus
    /// every service's breaker/snapshot state and accumulated statistics.
    /// Restoring this into a freshly built layer (same plan, policy, and
    /// registry) continues the fault scenario bit-identically — per-call
    /// fault draws are keyed on `(seed, salt, service, row)` and carry no
    /// RNG state of their own.
    pub fn export_state(&self) -> AccessState {
        AccessState {
            now_ms: self.clock.now_ms(),
            services: self
                .services
                .iter()
                .map(|s| {
                    let fault = s.fault.as_ref();
                    ServiceAccessState {
                        name: s.stats.name.clone(),
                        consecutive_lost: fault.map_or(0, |f| f.consecutive_lost),
                        open: fault.is_some_and(|f| f.tripped),
                        opened_at_ms: fault.map_or(0, |f| f.opened_at_ms),
                        snapshot: fault.and_then(|f| f.snapshot.clone()),
                        stats: s.stats.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Restores state previously captured by [`AccessLayer::export_state`]
    /// into this layer. Fails if the state's service list does not match
    /// the layer's registry (names, order, and count must agree).
    pub fn restore_state(&mut self, state: &AccessState) -> CmResult<()> {
        const LOC: &str = "AccessLayer::restore_state";
        if state.services.len() != self.services.len() {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                LOC,
                format!(
                    "state has {} services, layer has {}",
                    state.services.len(),
                    self.services.len()
                ),
            ));
        }
        for (mine, theirs) in self.services.iter().zip(&state.services) {
            if mine.stats.name != theirs.name {
                return Err(CmError::new(
                    ErrorKind::InvalidConfig,
                    LOC,
                    format!(
                        "service mismatch: layer has {:?}, state has {:?}",
                        mine.stats.name, theirs.name
                    ),
                ));
            }
        }
        for (mine, theirs) in self.services.iter_mut().zip(&state.services) {
            mine.stats = theirs.stats.clone();
            if let Some(fault) = mine.fault.as_mut() {
                fault.consecutive_lost = theirs.consecutive_lost;
                fault.tripped = theirs.open;
                fault.opened_at_ms = theirs.opened_at_ms;
                fault.snapshot = theirs.snapshot.clone();
            }
        }
        self.clock = SimClock::new();
        self.clock.advance_ms(state.now_ms);
        Ok(())
    }
}

/// Replayable live state of an [`AccessLayer`], exported after a serving
/// batch and restored on crash recovery. The service checkpoint encodes it
/// in its binary log.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessState {
    /// Simulated clock reading at export time.
    pub now_ms: u64,
    /// Per-service state, in registry order.
    pub services: Vec<ServiceAccessState>,
}

/// One service's live state inside an [`AccessState`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAccessState {
    /// Service name; must match the layer's registry on restore.
    pub name: String,
    /// Consecutive lost calls toward the breaker threshold.
    pub consecutive_lost: u32,
    /// Whether the breaker is currently open.
    pub open: bool,
    /// Simulated instant the breaker last opened.
    pub opened_at_ms: u64,
    /// Frozen stale-mode snapshot, if one was taken.
    pub snapshot: Option<FeatureValue>,
    /// Accumulated statistics.
    pub stats: ServiceStats,
}

/// Synthesizes a detectably corrupt response for `base`: NaN numerics,
/// out-of-vocabulary category ids, NaN embedding components. Missing stays
/// missing (there is nothing to corrupt).
fn corrupt_value(base: &FeatureValue, vocab_size: Option<u32>, rng: &mut StdRng) -> FeatureValue {
    match base {
        FeatureValue::Numeric(_) => FeatureValue::Numeric(f64::NAN),
        FeatureValue::Categorical(set) => {
            let mut s = set.clone();
            let floor = vocab_size.unwrap_or(u32::MAX - 8);
            s.insert(floor.saturating_add(rng.gen_range(0..8u32)));
            FeatureValue::Categorical(s)
        }
        FeatureValue::Embedding(e) => {
            let mut e = e.clone();
            if let Some(first) = e.first_mut() {
                *first = f32::NAN;
            }
            FeatureValue::Embedding(e)
        }
        FeatureValue::Missing => FeatureValue::Missing,
    }
}

/// Mixes the call coordinates into one rng stream seed (splitmix64
/// finalizer over xor-folded words).
fn call_stream(seed: u64, salt: u64, service: u64, row: u64) -> u64 {
    let mut z = seed
        ^ salt.rotate_left(32)
        ^ service.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ row.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;
    use cm_json::ToJson;

    fn descriptors() -> Vec<ServiceDescriptor> {
        vec![
            ServiceDescriptor::new("alpha", Some(10)),
            ServiceDescriptor::new("beta", None),
            ServiceDescriptor::new("gamma", None),
        ]
    }

    fn plan(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { seed: 11, specs }
    }

    fn spec(service: &str, mode: FaultMode, rate: f64) -> FaultSpec {
        FaultSpec { service: service.to_owned(), mode, rate }
    }

    #[test]
    fn unknown_service_is_rejected() {
        let p = plan(vec![spec("nope", FaultMode::Unavailable, 1.0)]);
        let err = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
    }

    #[test]
    fn zero_breaker_threshold_is_rejected() {
        let policy = AccessPolicy { breaker_threshold: 0, ..AccessPolicy::default() };
        let err = AccessLayer::new(&FaultPlan::disabled(), policy, &descriptors(), 0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
    }

    #[test]
    fn clean_service_passes_through() {
        let p = plan(vec![spec("alpha", FaultMode::Unavailable, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let v = layer.apply(1, 0, FeatureValue::Numeric(2.5));
        assert_eq!(v, FeatureValue::Numeric(2.5));
        assert_eq!(layer.summary().services.len(), 1, "only faulted services in summary");
    }

    #[test]
    fn unavailable_degrades_and_trips_breaker() {
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 1.0)]);
        let policy = AccessPolicy { breaker_threshold: 3, ..AccessPolicy::default() };
        let mut layer = AccessLayer::new(&p, policy, &descriptors(), 0).unwrap();
        for row in 0..10u64 {
            let v = layer.apply(1, row, FeatureValue::Numeric(1.0));
            assert_eq!(v, FeatureValue::Missing, "row {row}");
        }
        let s = layer.summary();
        let stats = &s.services[0];
        assert_eq!(stats.lost, 10);
        assert!(stats.tripped);
        assert_eq!(stats.short_circuited, 7, "breaker opens after 3 losses");
        assert_eq!(s.tripped_services(), vec!["beta".to_owned()]);
        assert!(stats.sim_wait_ms > 0, "retries waited on the simulated clock");
    }

    #[test]
    fn transient_recovers_within_retry_budget() {
        let p = plan(vec![spec("beta", FaultMode::Transient { fails: 2 }, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let v = layer.apply(1, 0, FeatureValue::Numeric(3.0));
        assert_eq!(v, FeatureValue::Numeric(3.0));
        let stats = &layer.summary().services[0];
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn transient_beyond_retry_budget_is_lost() {
        let p = plan(vec![spec("beta", FaultMode::Transient { fails: 9 }, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let v = layer.apply(1, 0, FeatureValue::Numeric(3.0));
        assert_eq!(v, FeatureValue::Missing);
        assert_eq!(layer.summary().services[0].lost, 1);
    }

    #[test]
    fn latency_within_deadline_succeeds_and_waits() {
        let p = plan(vec![spec("beta", FaultMode::Latency { delay_ms: 200 }, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let v = layer.apply(1, 0, FeatureValue::Numeric(4.0));
        assert_eq!(v, FeatureValue::Numeric(4.0));
        let s = layer.summary();
        assert_eq!(s.services[0].sim_wait_ms, 200);
        assert_eq!(s.sim_elapsed_ms, 200);
    }

    #[test]
    fn latency_beyond_deadline_is_lost() {
        let p = plan(vec![spec("beta", FaultMode::Latency { delay_ms: 400 }, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let v = layer.apply(1, 0, FeatureValue::Numeric(4.0));
        assert_eq!(v, FeatureValue::Missing);
        assert_eq!(layer.summary().services[0].lost, 1);
    }

    #[test]
    fn corrupt_numeric_is_detected_never_leaked() {
        let p = plan(vec![spec("beta", FaultMode::Corrupt, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        for row in 0..20u64 {
            let v = layer.apply(1, row, FeatureValue::Numeric(5.0));
            match v {
                FeatureValue::Numeric(x) => assert!(x.is_finite(), "row {row}"),
                FeatureValue::Missing => {}
                other => panic!("unexpected value {other:?}"),
            }
        }
        assert!(layer.summary().services[0].corrupt_detected > 0);
    }

    #[test]
    fn corrupt_categorical_never_leaks_out_of_vocab_ids() {
        use cm_featurespace::CatSet;
        let p = plan(vec![spec("alpha", FaultMode::Corrupt, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        for row in 0..20u64 {
            let v = layer.apply(0, row, FeatureValue::Categorical(CatSet::single(3)));
            if let FeatureValue::Categorical(set) = &v {
                assert!(set.iter().all(|id| id < 10), "row {row}: {set:?}");
            }
        }
    }

    #[test]
    fn stale_serves_frozen_snapshot() {
        let p = plan(vec![spec("beta", FaultMode::Stale, 1.0)]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let first = layer.apply(1, 0, FeatureValue::Numeric(1.0));
        assert_eq!(first, FeatureValue::Numeric(1.0), "first observation freezes");
        for row in 1..5u64 {
            let v = layer.apply(1, row, FeatureValue::Numeric(f64::from(row as u32) + 1.0));
            assert_eq!(v, FeatureValue::Numeric(1.0), "row {row} serves the snapshot");
        }
        let stats = &layer.summary().services[0];
        assert_eq!(stats.stale_served, 4);
        assert_eq!(stats.lost, 0, "stale is degraded, not failed");
    }

    #[test]
    fn identical_seeds_reproduce_identical_outcomes() {
        let p = plan(vec![
            spec("alpha", FaultMode::Unavailable, 0.4),
            spec("beta", FaultMode::Transient { fails: 2 }, 0.5),
        ]);
        let run = || {
            let mut layer =
                AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 7).unwrap();
            let values: Vec<FeatureValue> = (0..200u64)
                .flat_map(|row| {
                    [
                        layer.apply(0, row, FeatureValue::Numeric(row as f64)),
                        layer.apply(1, row, FeatureValue::Numeric(-(row as f64))),
                    ]
                })
                .collect();
            (values, layer.summary())
        };
        let (v1, s1) = run();
        let (v2, s2) = run();
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_fault_seeds_differ() {
        let mut p = plan(vec![spec("beta", FaultMode::Unavailable, 0.5)]);
        let run = |p: &FaultPlan| {
            let mut layer =
                AccessLayer::new(p, AccessPolicy::default(), &descriptors(), 7).unwrap();
            (0..100u64)
                .map(|row| layer.apply(1, row, FeatureValue::Numeric(1.0)))
                .collect::<Vec<_>>()
        };
        let a = run(&p);
        p.seed = 999;
        let b = run(&p);
        assert_ne!(a, b, "different fault seeds should draw different faults");
    }

    #[test]
    fn salt_separates_streams() {
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 0.5)]);
        let run = |salt: u64| {
            let mut layer =
                AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), salt).unwrap();
            (0..100u64)
                .map(|row| layer.apply(1, row, FeatureValue::Numeric(1.0)))
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let p = plan(vec![
            spec("alpha", FaultMode::Corrupt, 0.5),
            spec("beta", FaultMode::Latency { delay_ms: 300 }, 0.8),
        ]);
        let mut layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 3).unwrap();
        for row in 0..50u64 {
            use cm_featurespace::CatSet;
            layer.apply(0, row, FeatureValue::Categorical(CatSet::single(1)));
            layer.apply(1, row, FeatureValue::Numeric(0.5));
        }
        let summary = layer.summary();
        let json = summary.to_json();
        let back = FaultSummary::from_json(&json).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn zero_cooldown_keeps_breaker_open_forever() {
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 1.0)]);
        let policy = AccessPolicy { breaker_threshold: 2, ..AccessPolicy::default() };
        let mut layer = AccessLayer::new(&p, policy, &descriptors(), 0).unwrap();
        for row in 0..4u64 {
            layer.apply(1, row, FeatureValue::Numeric(1.0));
        }
        // With the legacy cooldown of 0, no amount of elapsed time admits
        // a probe: the trip is permanent.
        layer.advance_clock_ms(1_000_000);
        let v = layer.apply(1, 99, FeatureValue::Numeric(1.0));
        assert_eq!(v, FeatureValue::Missing);
        let stats = &layer.summary().services[0];
        assert_eq!(stats.probes, 0);
        assert_eq!(stats.short_circuited, 3);
    }

    #[test]
    fn open_breaker_admits_probe_after_cooldown_and_reopens_on_failure() {
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 1.0)]);
        let policy = AccessPolicy {
            breaker_threshold: 2,
            breaker_cooldown_ms: 100,
            ..AccessPolicy::default()
        };
        let mut layer = AccessLayer::new(&p, policy, &descriptors(), 0).unwrap();
        for row in 0..2u64 {
            assert_eq!(layer.apply(1, row, FeatureValue::Numeric(1.0)), FeatureValue::Missing);
        }
        assert_eq!(layer.tripped_services(), vec!["beta".to_owned()]);
        // Within the cooldown: short-circuited, no probe.
        let v = layer.apply(1, 2, FeatureValue::Numeric(1.0));
        assert_eq!(v, FeatureValue::Missing);
        assert_eq!(layer.summary().services[0].short_circuited, 1);
        // Past the cooldown: exactly one probe goes through (and fails
        // against the always-unavailable service, re-opening the breaker);
        // the immediately following call short-circuits again.
        layer.advance_clock_ms(200);
        let v = layer.apply(1, 3, FeatureValue::Numeric(1.0));
        assert_eq!(v, FeatureValue::Missing);
        let stats = &layer.summary().services[0];
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.reopened, 1);
        let v = layer.apply(1, 4, FeatureValue::Numeric(1.0));
        assert_eq!(v, FeatureValue::Missing);
        assert_eq!(layer.summary().services[0].short_circuited, 2);
        assert_eq!(layer.summary().services[0].probes, 1, "no second probe before cooldown");
    }

    #[test]
    fn successful_probe_closes_breaker() {
        // Unavailable at rate 0.9: most calls are lost, but a probe whose
        // per-call draw does not fire returns the live value and must
        // close the breaker. Deterministic for the fixed plan seed.
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 0.9)]);
        let policy = AccessPolicy {
            breaker_threshold: 1,
            breaker_cooldown_ms: 50,
            ..AccessPolicy::default()
        };
        let mut layer = AccessLayer::new(&p, policy, &descriptors(), 0).unwrap();
        let mut closed_at = None;
        for row in 0..200u64 {
            layer.advance_clock_ms(60); // every retry window elapses a cooldown
            let v = layer.apply(1, row, FeatureValue::Numeric(row as f64));
            let open_before = layer.summary().services[0].tripped;
            if open_before && v == FeatureValue::Numeric(row as f64) {
                closed_at = Some(row);
                break;
            }
        }
        let row = closed_at.expect("some probe draw must pass at rate 0.9 within 200 rows");
        let stats = layer.summary().services[0].clone();
        assert!(stats.probes >= 1, "the close went through a half-open probe");
        assert_eq!(stats.probes, stats.reopened + 1, "every probe but the last re-opened");
        assert!(stats.tripped, "the sticky trip flag survives the close");
        // After the close the breaker is genuinely shut: the very next
        // call cannot short-circuit (a fresh trip needs a loss first).
        let before = stats.short_circuited;
        let _ = layer.apply(1, row + 1, FeatureValue::Numeric(0.0));
        assert_eq!(layer.summary().services[0].short_circuited, before);
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        use cm_featurespace::CatSet;
        let p = plan(vec![
            spec("alpha", FaultMode::Corrupt, 0.5),
            spec("beta", FaultMode::Unavailable, 0.7),
            spec("gamma", FaultMode::Stale, 0.6),
        ]);
        let policy = AccessPolicy {
            breaker_threshold: 3,
            breaker_cooldown_ms: 40,
            ..AccessPolicy::default()
        };
        let call = |layer: &mut AccessLayer, row: u64| {
            [
                layer.apply(0, row, FeatureValue::Categorical(CatSet::single(2))),
                layer.apply(1, row, FeatureValue::Numeric(row as f64)),
                layer.apply(2, row, FeatureValue::Embedding(vec![row as f32, 0.5])),
            ]
        };
        let mut full = AccessLayer::new(&p, policy, &descriptors(), 9).unwrap();
        for row in 0..40u64 {
            call(&mut full, row);
        }
        // Crash after row 39: export, restore into a fresh layer,
        // continue. Tail outputs and the final summary must be
        // bit-identical to the uninterrupted run.
        let state = full.export_state();
        let mut resumed = AccessLayer::new(&p, policy, &descriptors(), 9).unwrap();
        resumed.restore_state(&state).unwrap();
        for row in 40..120u64 {
            assert_eq!(call(&mut full, row), call(&mut resumed, row), "row {row}");
        }
        assert_eq!(full.summary(), resumed.summary());
        assert_eq!(full.export_state(), resumed.export_state());
    }

    #[test]
    fn restore_rejects_mismatched_registry() {
        let p = plan(vec![spec("beta", FaultMode::Unavailable, 1.0)]);
        let layer = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        let mut state = layer.export_state();
        state.services[0].name = "delta".to_owned();
        let mut other = AccessLayer::new(&p, AccessPolicy::default(), &descriptors(), 0).unwrap();
        assert_eq!(
            other.restore_state(&state).unwrap_err().kind,
            ErrorKind::InvalidConfig,
            "renamed service"
        );
        state.services.pop();
        assert_eq!(other.restore_state(&state).unwrap_err().kind, ErrorKind::InvalidConfig);
    }

    #[test]
    fn validate_value_flags_garbage() {
        use cm_featurespace::CatSet;
        assert!(validate_value(&FeatureValue::Numeric(1.0), None));
        assert!(!validate_value(&FeatureValue::Numeric(f64::NAN), None));
        assert!(!validate_value(&FeatureValue::Numeric(f64::INFINITY), None));
        assert!(validate_value(&FeatureValue::Categorical(CatSet::single(3)), Some(5)));
        assert!(!validate_value(&FeatureValue::Categorical(CatSet::single(7)), Some(5)));
        assert!(validate_value(&FeatureValue::Embedding(vec![0.0, 1.0]), None));
        assert!(!validate_value(&FeatureValue::Embedding(vec![0.0, f32::NAN]), None));
        assert!(validate_value(&FeatureValue::Missing, Some(1)));
    }
}
