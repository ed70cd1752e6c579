//! End-to-end simulation of the traditional request/response baselines.
//!
//! Implements the comparison systems of §6.1: a plain request/response client
//! (**Baseline**), the same client limited to the first progressive block
//! (**Progressive**), and the idealized **ACC-\<acc\>-\<hor\>** prefetchers.
//! All of them pull full responses over the same simulated duplex path the
//! Khameleon simulation uses, store them in a byte-capacity LRU cache, and
//! suffer exactly the congestion the paper describes: bursts of full-size
//! responses queue behind one another on the downlink, delaying later (more
//! urgent) user requests.

use std::collections::HashMap;
use std::sync::Arc;

use khameleon_apps::baselines::{FetchGranularity, PrefetchPolicy};
use khameleon_apps::traces::InteractionTrace;
use khameleon_core::block::ResponseCatalog;
use khameleon_core::cache::LruCache;
use khameleon_core::metrics::{MetricsCollector, ResponseSample};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::UtilityModel;
use khameleon_net::link::{BandwidthModel, ConstantRate, Link};

use crate::config::{BandwidthSpec, ExperimentConfig};
use crate::engine::EventQueue;
use crate::result::RunResult;

/// Options for a baseline run.
pub struct BaselineOptions {
    /// Whether whole responses or only the first block are fetched.
    pub granularity: FetchGranularity,
    /// Extra simulated time after the last trace event.
    pub drain: Duration,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            granularity: FetchGranularity::FullResponse,
            drain: Duration::from_millis(500),
        }
    }
}

enum Event {
    UserRequest(usize),
    ResponseArrive(RequestId),
}

#[derive(Debug, Clone, Copy)]
struct PendingUser {
    request: RequestId,
    seq: u64,
    registered_at: Time,
    cache_hit: bool,
}

/// Runs one baseline simulation over `trace`.
pub fn run_baseline(
    catalog: Arc<ResponseCatalog>,
    utility: UtilityModel,
    mut policy: Box<dyn PrefetchPolicy>,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
    options: BaselineOptions,
) -> RunResult {
    let propagation = cfg.network_propagation();
    let backend = cfg.backend_processing();
    let downlink_model: Box<dyn BandwidthModel> = match &cfg.bandwidth {
        BandwidthSpec::Fixed(b) => Box::new(ConstantRate(*b)),
        BandwidthSpec::Cellular(t) => Box::new(t.clone()),
    };
    let mut downlink = Link::new(downlink_model, propagation);

    let mut lru = LruCache::new(cfg.cache_bytes.max(1));
    let mut metrics = MetricsCollector::new();
    let mut outstanding: HashMap<RequestId, Time> = HashMap::new();
    let mut pending: Vec<PendingUser> = Vec::new();
    let mut next_seq = 0u64;

    // Bandwidth-determined cap on outstanding prefetch requests (§6.1): about
    // half a second's worth of responses, at least one.
    let mean_response: f64 = (0..catalog.num_requests())
        .map(|i| fetch_bytes(&catalog, RequestId::from(i), options.granularity) as f64)
        .sum::<f64>()
        / catalog.num_requests().max(1) as f64;
    let bw_cap = ((cfg.bandwidth.nominal().bytes_per_sec() * 0.5 / mean_response.max(1.0))
        as usize)
        .clamp(1, 16);
    let cap = policy
        .max_outstanding()
        .map(|p| p.min(bw_cap))
        .unwrap_or(bw_cap);

    let mut queue: EventQueue<Event> = EventQueue::new();
    for (i, &(at, _)) in trace.requests.iter().enumerate() {
        queue.schedule(at, Event::UserRequest(i));
    }
    let end_of_run = Time::ZERO + trace.duration() + options.drain;

    let mut blocks_sent = 0u64;
    let mut bytes_sent = 0u64;

    while let Some((now, event)) = queue.pop() {
        if now > end_of_run {
            break;
        }
        match event {
            Event::UserRequest(i) => {
                let (_, request) = trace.requests[i];
                metrics.record_request();
                let hit = lru.get(request);
                let seq = next_seq;
                next_seq += 1;
                let user = PendingUser {
                    request,
                    seq,
                    registered_at: now,
                    cache_hit: hit,
                };
                if hit {
                    answer(&mut pending, &mut metrics, &utility, &lru, user, now);
                } else {
                    pending.push(user);
                    if let std::collections::hash_map::Entry::Vacant(e) = outstanding.entry(request)
                    {
                        // Explicit user requests are always issued.
                        let arrival = issue_fetch(
                            &catalog,
                            &mut downlink,
                            request,
                            now,
                            propagation,
                            backend,
                            options.granularity,
                            &mut blocks_sent,
                            &mut bytes_sent,
                            &mut metrics,
                        );
                        e.insert(arrival);
                        queue.schedule(arrival, Event::ResponseArrive(request));
                    }
                }

                // Prefetch according to the policy, respecting the
                // outstanding-request cap.
                for candidate in policy.prefetch_after(trace, i) {
                    if outstanding.len() >= cap {
                        break;
                    }
                    if lru.peek(candidate) || outstanding.contains_key(&candidate) {
                        continue;
                    }
                    let arrival = issue_fetch(
                        &catalog,
                        &mut downlink,
                        candidate,
                        now,
                        propagation,
                        backend,
                        options.granularity,
                        &mut blocks_sent,
                        &mut bytes_sent,
                        &mut metrics,
                    );
                    outstanding.insert(candidate, arrival);
                    queue.schedule(arrival, Event::ResponseArrive(candidate));
                }
            }
            Event::ResponseArrive(request) => {
                outstanding.remove(&request);
                let (blocks, total, bytes) = cached_shape(&catalog, request, options.granularity);
                lru.insert(request, blocks, total, bytes);
                // Answer the newest pending user request for this response.
                if let Some(user) = pending
                    .iter()
                    .filter(|p| p.request == request)
                    .max_by_key(|p| p.seq)
                    .copied()
                {
                    answer(&mut pending, &mut metrics, &utility, &lru, user, now);
                    metrics.record_used(blocks as u64);
                }
            }
        }
    }

    // Unanswered user requests at the end of the run count as preempted.
    for _ in &pending {
        metrics.record_preempted();
    }
    // The convergence step of the trace's final request (Figure 10): utility
    // 0 until its response lands, then that response's utility.
    let convergence = trace
        .requests
        .last()
        .and_then(|&(at, probe)| {
            metrics
                .responses
                .iter()
                .rev()
                .find(|r| r.request == probe && r.registered_at == at)
        })
        .map(|r| vec![(Duration::ZERO, 0.0), (r.latency(), r.utility)])
        .unwrap_or_default();

    RunResult {
        label: match options.granularity {
            FetchGranularity::FullResponse => policy.name(),
            FetchGranularity::FirstBlockOnly => format!("{}-progressive", policy.name()),
        },
        summary: metrics.summary(),
        convergence,
        blocks_sent,
        bytes_sent,
        uplink_full_updates: 0,
        uplink_delta_updates: 0,
        faults_injected: 0,
        #[cfg(feature = "audit")]
        audit: None,
    }
}

/// Bytes transferred for one fetch of `request` at the configured
/// granularity.
fn fetch_bytes(catalog: &ResponseCatalog, request: RequestId, g: FetchGranularity) -> u64 {
    let layout = catalog.layout(request);
    match g {
        FetchGranularity::FullResponse => layout.total_size(),
        FetchGranularity::FirstBlockOnly => layout.natural_size(0).unwrap_or(0),
    }
}

/// Cached blocks / total blocks / bytes after one fetch.
fn cached_shape(
    catalog: &ResponseCatalog,
    request: RequestId,
    g: FetchGranularity,
) -> (u32, u32, u64) {
    let layout = catalog.layout(request);
    match g {
        FetchGranularity::FullResponse => (
            layout.num_blocks(),
            layout.num_blocks(),
            layout.total_size(),
        ),
        FetchGranularity::FirstBlockOnly => {
            (1, layout.num_blocks(), layout.natural_size(0).unwrap_or(0))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn issue_fetch(
    catalog: &ResponseCatalog,
    downlink: &mut Link,
    request: RequestId,
    now: Time,
    propagation: Duration,
    backend: Duration,
    granularity: FetchGranularity,
    blocks_sent: &mut u64,
    bytes_sent: &mut u64,
    metrics: &mut MetricsCollector,
) -> Time {
    let bytes = fetch_bytes(catalog, request, granularity);
    let (blocks, _, _) = cached_shape(catalog, request, granularity);
    // Request travels the uplink (propagation only — requests are tiny), the
    // backend computes the response, then the response serializes on the
    // shared downlink and propagates back.
    let response_ready = now + propagation + backend;
    let arrival = downlink.send(bytes, response_ready);
    *blocks_sent += blocks as u64;
    *bytes_sent += bytes;
    for _ in 0..blocks {
        metrics.record_pushed(bytes / blocks.max(1) as u64);
    }
    arrival
}

fn answer(
    pending: &mut Vec<PendingUser>,
    metrics: &mut MetricsCollector,
    utility: &UtilityModel,
    lru: &LruCache,
    user: PendingUser,
    now: Time,
) {
    // Preempt everything older than the answered request (§2).  The answered
    // request itself (if it was pending) is simply removed, not counted.
    let preempted = pending.iter().filter(|p| p.seq < user.seq).count();
    pending.retain(|p| p.seq > user.seq);
    for _ in 0..preempted {
        metrics.record_preempted();
    }
    let fraction = lru.prefix_fraction(user.request).max(0.0);
    let table = utility.table(user.request.index());
    let blocks = (fraction * table.num_blocks() as f64).round() as u32;
    metrics.record_response(ResponseSample {
        request: user.request,
        registered_at: user.registered_at,
        answered_at: now,
        cache_hit: user.cache_hit,
        blocks,
        utility: table.step(blocks),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_apps::baselines::{AccPrefetcher, NoPrefetch};
    use khameleon_apps::image_app::ImageExplorationApp;
    use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig};
    use khameleon_core::types::Bandwidth;

    fn setup() -> (ImageExplorationApp, InteractionTrace) {
        let app = ImageExplorationApp::reduced(10, 1);
        let trace = generate_image_trace(
            &app.layout(),
            &ImageTraceConfig {
                duration: Duration::from_secs(8),
                seed: 3,
                ..Default::default()
            },
        );
        (app, trace)
    }

    #[test]
    fn baseline_suffers_congestion_at_low_bandwidth() {
        let (app, trace) = setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(1.5));
        let r = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions::default(),
        );
        assert_eq!(r.label, "baseline");
        assert!(r.summary.requests > 20);
        // Responses are ~1.6 MB at 1.5 MB/s with 20 ms think times: latencies
        // pile up to seconds and most requests are preempted or slow.
        assert!(
            r.summary.mean_latency_ms > 500.0,
            "mean latency {}",
            r.summary.mean_latency_ms
        );
        // Completed responses are always full quality.
        assert!(r.summary.mean_utility > 0.99);
    }

    #[test]
    fn progressive_reduces_latency_but_not_utility_one() {
        let (app, trace) = setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(1.5));
        let full = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions::default(),
        );
        let progressive = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions {
                granularity: FetchGranularity::FirstBlockOnly,
                ..Default::default()
            },
        );
        assert!(progressive.label.contains("progressive"));
        assert!(progressive.summary.mean_latency_ms < full.summary.mean_latency_ms);
        assert!(progressive.summary.mean_utility < full.summary.mean_utility);
        assert!(progressive.bytes_sent < full.bytes_sent);
    }

    #[test]
    fn perfect_prefetcher_improves_cache_hits() {
        let (app, trace) = setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(15.0));
        let n = app.num_requests();
        let base = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions::default(),
        );
        let acc = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(AccPrefetcher::new(1.0, 5, n, 1)),
            &trace,
            &cfg,
            BaselineOptions::default(),
        );
        assert_eq!(acc.label, "ACC-1-5");
        assert!(
            acc.summary.cache_hit_rate >= base.summary.cache_hit_rate,
            "ACC {} vs baseline {}",
            acc.summary.cache_hit_rate,
            base.summary.cache_hit_rate
        );
    }

    #[test]
    fn metrics_are_well_formed() {
        let (app, trace) = setup();
        let cfg = ExperimentConfig::paper_default();
        let r = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(AccPrefetcher::new(0.8, 5, app.num_requests(), 2)),
            &trace,
            &cfg,
            BaselineOptions::default(),
        );
        let s = &r.summary;
        assert!(s.cache_hit_rate >= 0.0 && s.cache_hit_rate <= 1.0);
        assert!(s.preempted_rate >= 0.0 && s.preempted_rate <= 1.0);
        assert!(s.overpush_rate >= 0.0 && s.overpush_rate <= 1.0);
        assert_eq!(s.completed + s.preempted, s.requests);
    }

    #[test]
    fn convergence_steps_at_the_final_requests_own_latency() {
        // Four requests for image 0 a second apart (one cold fetch, then
        // cache hits), then a cold request for image 1: the run's median
        // latency is a hit's zero, the final request's is a full fetch.
        let (app, _) = setup();
        let at = |ms| Time::from_millis(ms);
        let trace = InteractionTrace {
            samples: vec![],
            requests: vec![
                (at(0), RequestId(0)),
                (at(1_000), RequestId(0)),
                (at(2_000), RequestId(0)),
                (at(3_000), RequestId(0)),
                (at(4_000), RequestId(1)),
            ],
            name: "warm-then-cold".into(),
        };
        let cfg = ExperimentConfig::paper_default();
        let r = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions {
                drain: Duration::from_secs(5),
                ..Default::default()
            },
        );
        assert_eq!(r.summary.completed, 5);
        assert_eq!(r.summary.p50_latency_ms, 0.0);
        let final_latency = r.convergence[1].0;
        // Request there and back, backend processing, then the transfer.
        let floor =
            cfg.network_propagation() + cfg.network_propagation() + cfg.backend_processing();
        assert!(final_latency > floor, "{final_latency} <= {floor}");
        assert_eq!(r.convergence.len(), 2);
        assert_eq!(r.convergence[0], (Duration::ZERO, 0.0));
        assert!((r.convergence[1].1 - 1.0).abs() < 1e-9, "full response");

        // A final request that is never answered leaves the curve empty.
        let cut = run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            &trace,
            &cfg,
            BaselineOptions {
                drain: Duration::from_millis(50),
                ..Default::default()
            },
        );
        assert!(cut.convergence.is_empty());
    }
}
